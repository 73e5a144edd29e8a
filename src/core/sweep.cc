#include "core/sweep.hh"

#include <chrono>

#include "obs/stats_registry.hh"
#include "obs/trace.hh"
#include "sched/modulo_scheduler.hh"

namespace vvsp
{

SweepRunner::SweepRunner(SweepOptions opts)
    : pool_(opts.threads),
      cache_(opts.useCache
                 ? (opts.cache ? opts.cache : &ExperimentCache::global())
                 : nullptr),
      stats_(opts.stats), trace_(opts.trace),
      tracePid_(opts.tracePid)
{
}

std::vector<ExperimentResult>
SweepRunner::run(const std::vector<ExperimentRequest> &requests)
{
    // Install the batch's registry so the pipeline's global
    // instrumentation sites record into it; restored after the
    // barrier, before results are returned.
    obs::StatsRegistry *prev = obs::globalStats();
    if (stats_)
        obs::setGlobalStats(stats_);

    if (trace_) {
        trace_->processName(tracePid_, "sweep");
        for (int w = 0; w < pool_.threadCount(); ++w) {
            trace_->threadName(tracePid_, w,
                               "worker" + std::to_string(w));
        }
    }
    const auto batchStart = std::chrono::steady_clock::now();
    const ExperimentCacheStats before =
        cache_ ? cache_->stats() : ExperimentCacheStats{};

    // Let modulo schedulers borrow idle workers for speculative II
    // attempts. Bit-identical schedules at any thread count (see
    // ModuloScheduler::setIiSearch); cleared before the pool can
    // outlive the batch's use of it.
    ModuloScheduler::setIiSearch(&pool_);

    std::vector<ExperimentResult> results(requests.size());
    for (size_t i = 0; i < requests.size(); ++i) {
        pool_.submit([this, &requests, &results, batchStart, i] {
            const ExperimentRequest &req = requests[i];
            const auto t0 = std::chrono::steady_clock::now();
            results[i] = runExperiment(req, cache_);
            if (trace_) {
                const auto t1 = std::chrono::steady_clock::now();
                auto us = [&batchStart](
                              std::chrono::steady_clock::time_point
                                  t) {
                    return static_cast<uint64_t>(
                        std::chrono::duration_cast<
                            std::chrono::microseconds>(t - batchStart)
                            .count());
                };
                int tid = ThreadPool::currentWorkerIndex();
                trace_->slice(
                    req.kernel->name + " / " + req.variant->name,
                    "cell", us(t0), std::max<uint64_t>(
                        1, us(t1) - us(t0)),
                    tracePid_, tid < 0 ? 0 : tid,
                    {{"model", req.model.name},
                     {"kernel", req.kernel->name},
                     {"variant", req.variant->name}});
            }
            if (stats_) {
                obs::StatsScope sweep = stats_->scope("sweep");
                sweep.bump("cells");
                sweep.sample(
                    "cell_wall_us",
                    static_cast<uint64_t>(
                        std::chrono::duration_cast<
                            std::chrono::microseconds>(
                            std::chrono::steady_clock::now() - t0)
                            .count()));
            }
        });
    }
    pool_.wait();
    ModuloScheduler::setIiSearch(nullptr);
    if (stats_ && cache_) {
        // This batch's contribution to the shared cache's counters.
        const ExperimentCacheStats after = cache_->stats();
        obs::StatsScope cs = stats_->scope("cache");
        cs.bump("profile_hits", after.profileHits - before.profileHits);
        cs.bump("profile_misses",
                after.profileMisses - before.profileMisses);
        cs.bump("disk_hits", after.diskHits - before.diskHits);
        cs.bump("disk_misses", after.diskMisses - before.diskMisses);
        cs.bump("disk_stores", after.diskStores - before.diskStores);
    }
    if (stats_)
        obs::setGlobalStats(prev);
    return results;
}

} // namespace vvsp
