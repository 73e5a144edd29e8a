#include "core/experiment.hh"

#include <chrono>
#include <map>

#include "arch/models.hh"
#include "ir/verifier.hh"
#include "obs/stats_registry.hh"
#include "sched/cluster_assign.hh"
#include "sim/bytecode.hh"
#include "support/logging.hh"
#include "xform/passes.hh"

namespace vvsp
{

namespace
{

uint64_t
countOps(Function &fn)
{
    uint64_t n = 0;
    passes::forEachBlock(fn,
                         [&n](BlockNode &b) { n += b.ops.size(); });
    return n;
}

/**
 * Run one lowering pass, recording wall time and IR op counts under
 * "xform/<name>" when the global stats registry is installed. The op
 * counts are deterministic; the "wall_us" samples are, of course,
 * not (stats consumers that assert determinism skip *_us paths).
 */
template <typename Body>
void
timedPass(const obs::StatsScope &xform, const char *name,
          Function &fn, Body &&body)
{
    if (!xform.enabled()) {
        body();
        return;
    }
    uint64_t before = countOps(fn);
    auto t0 = std::chrono::steady_clock::now();
    body();
    obs::recordPhase(xform, name, obs::microsSince(t0));
    obs::StatsScope p = xform.scope(name);
    p.sample("ops_in", before);
    p.sample("ops_out", countOps(fn));
}

} // anonymous namespace

void
assignBanks(Function &fn, int banks)
{
    std::map<int, int> next_bank; // per cluster.
    for (auto &b : fn.buffers)
        b.bank = banks <= 1 ? 0 : next_bank[b.cluster]++ % banks;
}

void
checkBankCapacity(const Function &fn, const MachineModel &machine)
{
    // Every (cluster, bank) working set must fit in one bank (the
    // paper additionally halves usable capacity for double
    // buffering; conclusions report the working set explicitly).
    for (const auto &b : fn.buffers) {
        int words = fn.bufferWords(b.cluster, b.bank);
        if (words > machine.memWordsPerBank()) {
            vvsp_fatal("%s: %d words in cluster %d bank %d exceed the "
                       "%d-word bank",
                       fn.name.c_str(), words, b.cluster, b.bank,
                       machine.memWordsPerBank());
        }
    }
}

Function
lowerMachineFree(const VariantSpec &variant)
{
    Function fn = variant.build();
    verifyOrDie(fn);
    if (variant.transform) {
        variant.transform(fn);
        verifyOrDie(fn);
    }

    obs::StatsScope xform = obs::globalScope("xform");
    timedPass(xform, "cleanup", fn, [&] { passes::cleanup(fn); });
    timedPass(xform, "strength_reduce", fn,
              [&] { passes::strengthReduce(fn); });
    return fn;
}

DatapathConfig
variantConfig(const VariantSpec &variant, DatapathConfig model)
{
    if (variant.needsAbsDiff)
        model.cluster.hasAbsDiff = true;
    return model;
}

LoweringTarget
loweringTarget(const VariantSpec &variant, const MachineModel &machine)
{
    return LoweringTarget::of(machine, variant.gangAllClusters
                                           ? machine.clusters()
                                           : variant.gangClusters);
}

void
lowerForMachine(Function &fn, const LoweringTarget &target)
{
    obs::StatsScope xform = obs::globalScope("xform");
    xform.bump("lowerings");
    timedPass(xform, "decompose_multiplies", fn,
              [&] { passes::decomposeMultiplies(fn, target); });
    timedPass(xform, "lower_addressing", fn,
              [&] { passes::lowerAddressing(fn, target); });
    timedPass(xform, "cleanup", fn, [&] { passes::cleanup(fn); });
    fn.renumberAll();
    verifyOrDie(fn);

    if (target.partitionClusters > 1) {
        bool hand_assigned = false;
        passes::forEachBlock(fn, [&hand_assigned](BlockNode &block) {
            for (const auto &op : block.ops) {
                if (op.cluster != 0)
                    hand_assigned = true;
            }
        });
        if (!hand_assigned) {
            timedPass(xform, "auto_partition", fn,
                      [&] { autoPartition(fn, target); });
        }
        timedPass(xform, "replicate_buffers", fn,
                  [&] { replicateReadOnlyBuffers(fn); });
        timedPass(xform, "insert_transfers", fn,
                  [&] { insertTransfers(fn); });
        fn.renumberAll();
        verifyOrDie(fn);
    }
    assignBanks(fn, target.memBanks);
}

void
checkForMachine(const Function &fn, const MachineModel &machine)
{
    validateClusterAssignment(fn, machine);
    checkBankCapacity(fn, machine);
}

Function
lowerVariant(const KernelSpec &kernel, const VariantSpec &variant,
             const MachineModel &machine)
{
    (void)kernel;
    Function fn = lowerMachineFree(variant);
    lowerForMachine(fn, loweringTarget(variant, machine));
    checkForMachine(fn, machine);
    return fn;
}

UnitProfileEntry
interpretCell(const ExperimentRequest &req, const Function &fn)
{
    // The hot functional simulation runs on the bytecode engine
    // (sim/bytecode.hh); the tree-walking Interpreter remains as the
    // differential oracle (tests/test_bytecode.cc).
    const KernelSpec &kernel = *req.kernel;
    const VariantSpec &variant = *req.variant;
    obs::StatsScope interp_stats = obs::globalScope("interp");
    const bool timed = interp_stats.enabled();
    auto t0 = timed ? std::chrono::steady_clock::now()
                    : std::chrono::steady_clock::time_point{};
    BytecodeEngine engine(fn);
    if (timed) {
        interp_stats.sample("compile_us", obs::microsSince(t0));
        t0 = std::chrono::steady_clock::now();
    }

    UnitProfileEntry out;
    out.avg = AvgProfile(fn.numNodeIds());
    const GoldenFn &golden = variant.goldenOverride
                                 ? variant.goldenOverride
                                 : kernel.golden;
    out.checked = true;
    out.passed = true;
    for (int u = 0; u < req.profileUnits; ++u) {
        MemoryImage mem(fn);
        kernel.prepare(fn, mem, req.geometry, u);
        MemoryImage expected = mem;

        out.avg.accumulate(engine.run(mem));

        golden(fn, expected);
        for (const auto &bname : kernel.outputBuffers) {
            int id = bufferIdByName(fn, bname);
            if (mem.bufferWords(id) != expected.bufferWords(id)) {
                out.passed = false;
                out.note = "output buffer '" + bname +
                           "' mismatches golden on unit " +
                           std::to_string(u);
            }
        }
    }
    out.avg.scale(1.0 / req.profileUnits);
    if (timed)
        interp_stats.sample("exec_us", obs::microsSince(t0));
    return out;
}

ExperimentResult
composeCell(const ExperimentRequest &req, const MachineModel &machine,
            Function &fn, const UnitProfileEntry &profile)
{
    const KernelSpec &kernel = *req.kernel;
    const VariantSpec &variant = *req.variant;
    ExperimentResult res;
    res.kernel = kernel.name;
    res.variant = variant.name;
    res.model = req.model.name;
    res.checked = profile.checked;
    res.passed = profile.passed;
    res.note = profile.note;

    res.comp = Composer(machine, variant.mode).compose(fn, profile.avg);
    res.cyclesPerUnit = res.comp.cyclesPerUnit;

    // A unit runs on the clusters its lowering partitioned it over,
    // so a gang wider than the machine replicates once.
    res.replication =
        variant.replicate
            ? static_cast<double>(machine.clusters()) /
                  loweringTarget(variant, machine).partitionClusters
            : 1.0;
    res.unitsPerFrame = kernel.unitsPerFrame(req.geometry);
    res.cyclesPerFrame =
        res.cyclesPerUnit * res.unitsPerFrame / res.replication;

    if (!res.comp.icacheOk)
        res.note += (res.note.empty() ? "" : "; ") +
                    std::string("hot loop exceeds icache");
    if (!res.comp.registersOk)
        res.note += (res.note.empty() ? "" : "; ") +
                    std::string("register pressure exceeds file");
    if (res.comp.degradedRegions > 0) {
        res.note += (res.note.empty() ? "" : "; ") +
                    std::string("degraded: scheduling budget "
                                "exhausted in ") +
                    std::to_string(res.comp.degradedRegions) +
                    " region(s)";
        obs::globalScope("sched").bump("degraded_cells");
    }
    return res;
}

} // namespace vvsp
