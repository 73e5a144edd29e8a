#include "core/sweep.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "core/disk_cache.hh"
#include "core/experiment_cache.hh"
#include "obs/stats_registry.hh"
#include "obs/trace.hh"
#include "sim/bytecode.hh"
#include "support/logging.hh"

namespace vvsp
{

namespace
{

using Clock = std::chrono::steady_clock;

/** Trace process id of the sweep timeline's track group. */
constexpr int kTracePid = 1;

/** Run fn(i) for every i < n on the pool and wait; inline without. */
template <typename Fn>
void
forEachOnPool(ThreadPool *pool, size_t n, const Fn &fn)
{
    if (pool == nullptr) {
        for (size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }
    for (size_t i = 0; i < n; ++i)
        pool->submit([&fn, i] { fn(i); });
    pool->wait();
}

/** The machine a cell runs on, after its variant's forced upgrades. */
DatapathConfig
cellConfig(const ExperimentRequest &req)
{
    return variantConfig(*req.variant, req.model);
}

/**
 * A function that several tasks clone (a prefix, a target's
 * lowering) and the count of clones still to take; the count is
 * known when it is made.
 */
struct Shared
{
    std::optional<Function> fn;
    std::atomic<size_t> clonesLeft;

    /** One task's copy; the last copy frees the function. */
    Function take()
    {
        Function copy = fn->clone();
        if (clonesLeft.fetch_sub(1) == 1)
            fn.reset();
        return copy;
    }
};

/**
 * One batch through the stages of experiment.hh. The disk lookups
 * and the grouping of the misses by variant and target are barriers
 * over the batch. LoweringStages then lowers each prefix and each
 * target once and fans the cells out on the pool, one task per cell
 * for the rest of stage 3 and stages 4-5, so a running cell holds at
 * most its own lowered Function.
 */
class Batch
{
  public:
    Batch(const std::vector<ExperimentRequest> &requests,
          DiskCache *disk, ThreadPool *pool,
          obs::TraceWriter *trace = nullptr)
        : requests_(requests), disk_(disk), pool_(pool), trace_(trace),
          results_(requests.size())
    {
    }

    std::vector<ExperimentResult> run();

  private:
    bool lookup(size_t i);
    void runCell(size_t i, Function fn, uint64_t fingerprint);
    UnitProfileEntry profile(const ExperimentRequest &req,
                             const Function &fn, uint64_t fingerprint);
    void finishCell(size_t i, Clock::time_point t0);
    void traceSlice(const ExperimentRequest &req, const char *category,
                    Clock::time_point t0,
                    std::vector<std::pair<std::string, std::string>>
                        args);

    const std::vector<ExperimentRequest> &requests_;
    DiskCache *disk_;
    ThreadPool *pool_;
    obs::TraceWriter *trace_;
    const Clock::time_point start_ = Clock::now();
    std::vector<ExperimentResult> results_;
    std::vector<std::string> keys_; ///< result keys (with a disk).

    /**
     * One entry per profile key in the batch. The first cell to
     * claim a key runs the interpreter and publishes its outcome;
     * the others wait for that entry.
     */
    std::mutex profilesMutex_;
    std::unordered_map<std::string, std::shared_future<UnitProfileEntry>>
        profiles_;
};

std::vector<ExperimentResult>
Batch::run()
{
    for (const ExperimentRequest &req : requests_)
        vvsp_assert(req.kernel && req.variant, "incomplete request");
    const size_t n = requests_.size();
    std::vector<uint8_t> hit(n, 0);
    if (disk_) {
        keys_.resize(n);
        forEachOnPool(pool_, n, [&](size_t i) { hit[i] = lookup(i); });
    }

    // The misses, grouped in request order: a variant's prefix is the
    // same for every model, and its lowering for every machine with
    // the same target.
    LoweringStages stages;
    size_t misses = 0;
    for (size_t i = 0; i < n; ++i) {
        if (hit[i])
            continue;
        ++misses;
        const ExperimentRequest &req = requests_[i];
        stages.add(i, *req.variant,
                   loweringTarget(*req.variant,
                                  MachineModel(cellConfig(req))));
    }
    stages.run(
        pool_,
        [this](size_t i, Function fn, uint64_t fingerprint) {
            runCell(i, std::move(fn), fingerprint);
        },
        [this](const char *stage, size_t first, Clock::time_point t0,
               size_t cells) {
            traceSlice(requests_[first], stage, t0,
                       {{"cells", std::to_string(cells)}});
        });

    obs::StatsScope stage = obs::globalScope("stage");
    stage.bump("interp/requests", misses);
    stage.bump("interp/unique", profiles_.size());
    return std::move(results_);
}

bool
Batch::lookup(size_t i)
{
    const ExperimentRequest &req = requests_[i];
    const Clock::time_point t0 = Clock::now();
    keys_[i] = ExperimentCache::resultKey(req, cellConfig(req));
    if (!disk_->load(keys_[i], results_[i]))
        return false;
    // The entry holds whichever model name stored it.
    results_[i].model = req.model.name;
    finishCell(i, t0);
    return true;
}

void
Batch::runCell(size_t i, Function fn, uint64_t fingerprint)
{
    const ExperimentRequest &req = requests_[i];
    const Clock::time_point t0 = Clock::now();
    MachineModel machine(cellConfig(req));
    checkForMachine(fn, machine);
    ExperimentResult res =
        composeCell(req, machine, fn, profile(req, fn, fingerprint));
    // Degraded results are budget-dependent; never cache them (the
    // content key doesn't include the budget).
    if (disk_ && res.comp.degradedRegions == 0)
        disk_->store(keys_[i], res);
    results_[i] = std::move(res);
    finishCell(i, t0);
}

UnitProfileEntry
Batch::profile(const ExperimentRequest &req, const Function &fn,
               uint64_t fingerprint)
{
    // The key is machine-free: models whose lowerings coincide share
    // one interpreter run.
    const std::string key = ExperimentCache::profileKey(req, fingerprint);
    std::promise<UnitProfileEntry> claim;
    std::shared_future<UnitProfileEntry> entry;
    bool owner = false;
    {
        std::lock_guard<std::mutex> lock(profilesMutex_);
        auto [it, fresh] = profiles_.try_emplace(key);
        if (fresh) {
            it->second = claim.get_future().share();
            owner = true;
        }
        entry = it->second;
    }
    // The owner waits on nothing before it publishes, so every cell
    // blocked in get() below wakes.
    if (owner) {
        claim.set_value(obs::timedPhase(
            obs::globalScope("phase"), "interp_sim",
            [&] { return interpretCell(req, fn); }));
    }
    return entry.get();
}

void
Batch::finishCell(size_t i, Clock::time_point t0)
{
    traceSlice(requests_[i], "cell", t0,
               {{"model", requests_[i].model.name}});
    const obs::StatsScope sweep = obs::globalScope("sweep");
    if (sweep.enabled()) {
        sweep.bump("cells");
        sweep.sample("cell_wall_us", obs::microsSince(t0));
    }
}

void
Batch::traceSlice(const ExperimentRequest &req, const char *category,
                  Clock::time_point t0,
                  std::vector<std::pair<std::string, std::string>> args)
{
    if (!trace_)
        return;
    auto us = [this](Clock::time_point t) {
        return static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                t - start_)
                .count());
    };
    const uint64_t begin = us(t0), end = us(Clock::now());
    const int tid = ThreadPool::currentWorkerIndex();
    args.emplace_back("kernel", req.kernel->name);
    args.emplace_back("variant", req.variant->name);
    trace_->slice(req.kernel->name + " / " + req.variant->name,
                  category, begin, std::max<uint64_t>(1, end - begin),
                  kTracePid, tid < 0 ? 0 : tid, std::move(args));
}

} // anonymous namespace

void
LoweringStages::add(size_t unit, const VariantSpec &variant,
                    const LoweringTarget &target)
{
    auto v = std::find_if(variants_.begin(), variants_.end(),
                          [&](const Variant &g) {
                              return g.variant == &variant;
                          });
    if (v == variants_.end())
        v = variants_.insert(v, Variant{&variant, {}});
    auto t = std::find_if(v->targets.begin(), v->targets.end(),
                          [&](const Target &g) {
                              return g.target == target;
                          });
    if (t == v->targets.end())
        t = v->targets.insert(t, Target{target, {}});
    t->units.push_back(unit);
    ++v->units;
    ++units_;
}

void
LoweringStages::run(ThreadPool *pool, const UnitFn &unit,
                    const StageFn &stage) const
{
    const obs::StatsScope phase = obs::globalScope("phase");
    auto lower = [&](const Target &group, Shared &prefix) {
        const Clock::time_point t0 = Clock::now();
        Shared lowered{obs::timedPhase(phase, "lowering",
                                       [&] {
                                           Function fn = prefix.take();
                                           lowerForMachine(fn,
                                                           group.target);
                                           return fn;
                                       }),
                       group.units.size()};
        const uint64_t fingerprint = functionFingerprint(*lowered.fn);
        if (stage)
            stage("lower", group.units.front(), t0, group.units.size());

        TaskGroup cells(pool);
        for (size_t i : group.units) {
            cells.submit([&unit, &lowered, fingerprint, i] {
                unit(i, lowered.take(), fingerprint);
            });
        }
        cells.wait();
    };
    forEachOnPool(pool, variants_.size(), [&](size_t g) {
        const Variant &group = variants_[g];
        const Clock::time_point t0 = Clock::now();
        Shared prefix{obs::timedPhase(phase, "lowering_prefix",
                                      [&] {
                                          return lowerMachineFree(
                                              *group.variant);
                                      }),
                      group.targets.size()};
        if (stage)
            stage("prefix", group.targets.front().units.front(), t0,
                  group.units);

        TaskGroup targets(pool);
        for (const Target &t : group.targets)
            targets.submit([&lower, &t, &prefix] { lower(t, prefix); });
        targets.wait();
    });

    size_t targets = 0;
    for (const Variant &v : variants_)
        targets += v.targets.size();
    obs::StatsScope counts = obs::globalScope("stage");
    counts.bump("prefix/requests", units_);
    counts.bump("prefix/unique", variants_.size());
    counts.bump("lower/requests", units_);
    counts.bump("lower/unique", targets);
}

ExperimentResult
runExperiment(const ExperimentRequest &req, DiskCache *disk)
{
    const std::vector<ExperimentRequest> one{req};
    return Batch(one, disk, nullptr).run().front();
}

SweepRunner::SweepRunner(SweepOptions opts)
    : pool_(opts.threads), disk_(opts.disk), trace_(opts.trace)
{
}

std::vector<ExperimentResult>
SweepRunner::run(const std::vector<ExperimentRequest> &requests)
{
    if (trace_) {
        trace_->processName(kTracePid, "sweep");
        for (int w = 0; w < pool_.threadCount(); ++w) {
            trace_->threadName(kTracePid, w,
                               "worker" + std::to_string(w));
        }
    }
    // Every stage runs on a pool worker, so the cells' modulo
    // schedulers run their speculative II waves on this pool.
    return Batch(requests, disk_, &pool_, trace_).run();
}

} // namespace vvsp
