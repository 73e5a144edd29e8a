/**
 * @file
 * Cycle-simulator tests: the strongest end-to-end property in the
 * suite. For each (kernel variant, model), the cycle-level executor
 * must (a) produce bit-identical buffer contents to the functional
 * interpreter and (b) consume exactly the cycle count the frame
 * composer predicts from the same unit's profile - proving that the
 * schedule-based analytic accounting and the executed machine agree.
 */

#include <gtest/gtest.h>

#include <optional>

#include "arch/models.hh"
#include "core/experiment.hh"
#include "obs/stats_registry.hh"
#include "sim/cycle_sim.hh"

namespace vvsp
{
namespace
{

struct SimCase
{
    const char *kernel;
    const char *variant;
    const char *model;
    int unit;
    /** When set, the whole report must match it exactly. */
    std::optional<CycleSimReport> expected = std::nullopt;
};

ScheduleMode
modeOf(const KernelSpec &k, const std::string &variant)
{
    return k.variant(variant).mode;
}

class SimEquivalence : public ::testing::TestWithParam<SimCase>
{
};

TEST_P(SimEquivalence, MatchesInterpreterAndComposer)
{
    const SimCase &t = GetParam();
    const KernelSpec &k = kernelByName(t.kernel);
    const VariantSpec &v = k.variant(t.variant);
    DatapathConfig cfg = models::byName(t.model);
    if (v.needsAbsDiff)
        cfg.cluster.hasAbsDiff = true;
    MachineModel machine(cfg);
    FrameGeometry geom{48, 32};

    Function fn = lowerVariant(k, v, machine);

    // Interpreter: functional reference + profile for the composer.
    MemoryImage ref(fn);
    k.prepare(fn, ref, geom, t.unit);
    Interpreter interp(fn);
    Profile prof = interp.run(ref);
    AvgProfile avg(fn.numNodeIds());
    avg.accumulate(prof);

    Composer composer(machine, v.mode);
    CompositionResult comp = composer.compose(fn, avg);

    // Cycle simulator on the same input.
    MemoryImage mem(fn);
    k.prepare(fn, mem, geom, t.unit);
    CycleSim sim(machine, v.mode);
    CycleSimReport rep = sim.run(fn, mem);

    for (const auto &bname : k.outputBuffers) {
        int id = bufferIdByName(fn, bname);
        EXPECT_EQ(mem.bufferWords(id), ref.bufferWords(id))
            << "buffer " << bname;
    }
    EXPECT_NEAR(static_cast<double>(rep.cycles), comp.cyclesPerUnit,
                1e-6 * comp.cyclesPerUnit + 0.5)
        << "composer predicted " << comp.cyclesPerUnit
        << " cycles, machine executed " << rep.cycles;
    EXPECT_GT(rep.operations, 0u);
    if (t.expected) {
        EXPECT_EQ(rep.cycles, t.expected->cycles);
        EXPECT_EQ(rep.operations, t.expected->operations);
        EXPECT_EQ(rep.nullified, t.expected->nullified);
        EXPECT_EQ(rep.transfers, t.expected->transfers);
        EXPECT_EQ(rep.instructions, t.expected->instructions);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, SimEquivalence,
    ::testing::Values(
        SimCase{"Full Motion Search", "Sequential-predicated",
                "I4C8S4", 0},
        SimCase{"Full Motion Search", "Unrolled Inner Loop",
                "I4C8S4C", 1},
        // Pinned: SWP trips.
        SimCase{"Full Motion Search", "SW pipelined & unrolled",
                "I4C8S4", 0,
                CycleSimReport{149332, 472401, 741, 0, 132948}},
        SimCase{"Full Motion Search", "Blocking/Loop Exchange",
                "I2C16S5", 1},
        SimCase{"Full Motion Search", "Add spec. op (blocked)",
                "I2C16S4", 0},
        SimCase{"Three-step Search", "Sequential-predicated",
                "I2C16S4", 2},
        SimCase{"Three-step Search", "SW pipelined & unrolled",
                "I4C8S5", 1},
        SimCase{"DCT - row/column", "Sequential-unoptimized",
                "I4C8S4", 0},
        SimCase{"DCT - row/column", "List Scheduled", "I4C8S4", 1},
        SimCase{"DCT - row/column", "SW pipelined & predicated",
                "I2C16S5", 2},
        SimCase{"DCT - row/column", "+arithmetic optimization",
                "I4C8S5M16", 0},
        SimCase{"DCT - traditional", "Unrolled inner loop",
                "I4C8S4", 3},
        // Pinned: acyclic groups run in issue order.
        SimCase{"DCT - traditional", "List Scheduled", "I2C16S5M16",
                1, CycleSimReport{15328, 23056, 0, 0, 15328}},
        SimCase{"RGB:YCrCb converter/subsampler", "Sequential",
                "I4C8S4", 0},
        SimCase{"RGB:YCrCb converter/subsampler", "List-scheduled",
                "I2C16S4", 1},
        SimCase{"RGB:YCrCb converter/subsampler",
                "SW Pipelined & predicated", "I4C8S5", 0},
        SimCase{"Variable-Bit-Rate Coder", "Sequential", "I4C8S4",
                4},
        SimCase{"Variable-Bit-Rate Coder", "Sequential-predicated",
                "I4C8S4", 5},
        SimCase{"Variable-Bit-Rate Coder",
                "List-scheduled-predicated", "I4C8S4", 6},
        // Pinned: predication and crossbar transfers.
        SimCase{"Variable-Bit-Rate Coder", "+phase pipelining",
                "I2C16S5", 7, CycleSimReport{805, 1852, 799, 867, 737}}));

TEST(CycleSim, ReportsUtilizationCounters)
{
    const KernelSpec &k = kernelByName("Full Motion Search");
    const VariantSpec &v = k.variant("SW pipelined & unrolled");
    MachineModel machine(models::i4c8s4());
    Function fn = lowerVariant(k, v, machine);
    MemoryImage mem(fn);
    k.prepare(fn, mem, FrameGeometry{48, 32}, 0);
    CycleSim sim(machine, v.mode);
    CycleSimReport rep = sim.run(fn, mem);
    EXPECT_GT(rep.instructions, 0u);
    // SAD over 256 displacements x 256 pixels dominates.
    EXPECT_GT(rep.operations, 300000u);
    double ipc = static_cast<double>(rep.operations) /
                 static_cast<double>(rep.cycles);
    EXPECT_GT(ipc, 1.0); // software pipelining exploits width.
    (void)modeOf;
}

TEST(CycleSim, AcyclicGroupsSortOncePerGroup)
{
    // The schedule cache means each distinct acyclic group is sorted
    // into issue order exactly once; later executions replay the
    // sorted ops. A motion-search unit re-executes its groups many
    // times, so sorts must be strictly rarer than executions.
    const KernelSpec &k = kernelByName("Full Motion Search");
    const VariantSpec &v = k.variant("Blocking/Loop Exchange");
    MachineModel machine(models::i4c8s4());
    Function fn = lowerVariant(k, v, machine);
    MemoryImage mem(fn);
    k.prepare(fn, mem, FrameGeometry{48, 32}, 0);

    obs::StatsRegistry stats;
    obs::StatsRegistry *prev = obs::globalStats();
    obs::setGlobalStats(&stats);
    CycleSim sim(machine, v.mode);
    sim.run(fn, mem);
    obs::setGlobalStats(prev);

    uint64_t sorts = stats.counterValue("sim/acyclic_group_sorts");
    uint64_t execs = stats.counterValue("sim/acyclic_group_execs");
    EXPECT_GT(sorts, 0u);
    EXPECT_GT(execs, sorts) << "groups re-sorted on re-execution";
}

} // namespace
} // namespace vvsp
