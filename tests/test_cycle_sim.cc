/**
 * @file
 * Cycle-simulator tests: the strongest end-to-end property in the
 * suite. For each (kernel variant, model), the cycle-level executor
 * must (a) produce bit-identical buffer contents to the functional
 * interpreter and (b) execute one schedule in exactly the cycle
 * count the frame composer prices it at from the same unit's
 * profile - proving that the analytic accounting and the executed
 * machine agree.
 */

#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "arch/models.hh"
#include "core/experiment.hh"
#include "ir/builder.hh"
#include "kernels/composer.hh"
#include "obs/stats_registry.hh"
#include "sim/cycle_sim.hh"
#include "sim/interpreter.hh"

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
    MachineModel machine(variantConfig(v, models::byName(t.model)));
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
    KernelSchedule schedule = composer.schedule(fn);
    CompositionResult comp = composer.price(schedule, avg);

    // Cycle simulator on the same input and the same schedule.
    MemoryImage mem(fn);
    k.prepare(fn, mem, geom, t.unit);
    CycleSim sim(machine, v.mode);
    CycleSimReport rep = sim.run(fn, schedule, mem);

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

/**
 * A dynamic loop that leaves through a Break: its back edge runs on
 * every iteration but the one the Break exits, and the composer must
 * price it so in every schedule mode.
 */
class SimEquivalenceBreak : public ::testing::TestWithParam<ScheduleMode>
{
};

TEST_P(SimEquivalenceBreak, DynamicLoopMatchesComposer)
{
    IRBuilder b("t");
    int buf = b.buffer("o", 1);
    Vreg n = b.movi(0);
    b.beginLoop(-1, "w");
    b.emitTo(n, Opcode::Add, Operand::ofReg(n), Operand::ofImm(1));
    Vreg done = b.cmpGe(Operand::ofReg(n), Operand::ofImm(7));
    b.breakIf(Operand::ofReg(done));
    b.endLoop();
    b.store(buf, Operand::ofReg(n), Operand::ofImm(0));
    Function fn = b.finish();
    MachineModel machine(models::i4c8s4());

    MemoryImage ref(fn);
    AvgProfile avg(fn.numNodeIds());
    avg.accumulate(Interpreter(fn).run(ref));
    Composer composer(machine, GetParam());
    KernelSchedule schedule = composer.schedule(fn);
    CompositionResult comp = composer.price(schedule, avg);
    MemoryImage mem(fn);
    CycleSimReport rep = CycleSim(machine, GetParam()).run(fn, schedule, mem);

    EXPECT_EQ(mem.read(buf, 0), 7);
    EXPECT_EQ(mem.read(buf, 0), ref.read(buf, 0));
    EXPECT_EQ(rep.cycles, 42u);
    EXPECT_DOUBLE_EQ(comp.cyclesPerUnit, static_cast<double>(rep.cycles));
}

INSTANTIATE_TEST_SUITE_P(
    Modes, SimEquivalenceBreak,
    ::testing::Values(ScheduleMode::Sequential, ScheduleMode::Wide,
                      ScheduleMode::Swp),
    [](const ::testing::TestParamInfo<ScheduleMode> &info) {
        switch (info.param) {
          case ScheduleMode::Sequential:
            return std::string("Sequential");
          case ScheduleMode::Wide:
            return std::string("Wide");
          case ScheduleMode::Swp:
            return std::string("Swp");
        }
        return std::string("Unknown");
    });

TEST(CycleSim, AcyclicGroupsSortOncePerGroup)
{
    // Each acyclic group is verified and sorted into issue order on
    // its first execution in a run; later executions replay the
    // sorted order. A motion-search unit re-executes its groups many
    // times, so sorts must be strictly rarer than executions, and a
    // second run sorts each executed group once more.
    const KernelSpec &k = kernelByName("Full Motion Search");
    const VariantSpec &v = k.variant("Blocking/Loop Exchange");
    MachineModel machine(models::i4c8s4());
    Function fn = lowerVariant(k, v, machine);
    KernelSchedule schedule = Composer(machine, v.mode).schedule(fn);
    uint64_t acyclic = 0;
    for (const ScheduledGroup &g : schedule.groups)
        acyclic += g.site != GroupSite::SwpLoop;

    obs::StatsRegistry stats;
    obs::StatsRegistry *prev = obs::globalStats();
    obs::setGlobalStats(&stats);
    CycleSim sim(machine, v.mode);
    MemoryImage mem(fn);
    k.prepare(fn, mem, FrameGeometry{48, 32}, 0);
    sim.run(fn, schedule, mem);
    uint64_t sorts = stats.counterValue("sim/acyclic_group_sorts");
    uint64_t execs = stats.counterValue("sim/acyclic_group_execs");
    MemoryImage again(fn);
    k.prepare(fn, again, FrameGeometry{48, 32}, 0);
    sim.run(fn, schedule, again);
    obs::setGlobalStats(prev);

    EXPECT_GT(sorts, 0u);
    EXPECT_LE(sorts, acyclic);
    EXPECT_GT(execs, sorts) << "groups re-sorted on re-execution";
    EXPECT_EQ(stats.counterValue("sim/acyclic_group_sorts"), 2 * sorts);
    EXPECT_EQ(stats.counterValue("sim/acyclic_group_execs"), 2 * execs);
}

} // namespace
} // namespace vvsp
