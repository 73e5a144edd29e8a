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

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "arch/models.hh"
#include "core/experiment.hh"
#include "ir/builder.hh"
#include "ir/verifier.hh"
#include "kernels/composer.hh"
#include "obs/stats_registry.hh"
#include "sim/bytecode.hh"
#include "sim/cycle_sim.hh"
#include "sim/interpreter.hh"
#include "support/random.hh"

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
 * Random structured programs, built with the raw builder: counted
 * loops nested up to three deep (trips 0 to 4; all-block bodies that
 * Swp mode pipelines), Ifs with and without an else arm, empty arms,
 * predicated ops, and loads and stores inside their buffers.
 */
class RandomProgram
{
  public:
    static constexpr int kWords = 16;

    explicit RandomProgram(uint64_t seed) : seed_(seed), rng_(seed) {}

    Function
    build()
    {
        IRBuilder b("random");
        b_ = &b;
        bufs_ = {b.buffer("a", kWords), b.buffer("b", kWords)};
        for (int i = 0; i < 4; ++i)
            pool_.push_back(b.movi(rng_.uniform(-8, 8)));
        genList(0);
        return b.finish();
    }

    /** The initial memory every engine runs on. */
    MemoryImage
    image(const Function &fn) const
    {
        MemoryImage mem(fn);
        Rng data(seed_ ^ 0x5eedull);
        for (int buf : bufs_) {
            for (int w = 0; w < kWords; ++w)
                mem.write(buf, w, static_cast<uint16_t>(data.next()));
        }
        return mem;
    }

  private:
    template <typename T>
    const T &
    pick(const std::vector<T> &v)
    {
        return v[static_cast<size_t>(
            rng_.uniform(0, static_cast<int>(v.size()) - 1))];
    }

    /** A long-lived register, an induction variable, or an immediate. */
    Operand
    value()
    {
        int k = rng_.uniform(0, 9);
        if (k < 2)
            return Operand::ofImm(rng_.uniform(-4, 9));
        if (k < 4 && !ivs_.empty())
            return Operand::ofReg(pick(ivs_));
        return Operand::ofReg(pick(pool_));
    }

    void
    genOp()
    {
        static const std::vector<Opcode> alu = {
            Opcode::Add,   Opcode::Sub,   Opcode::And,   Opcode::Or,
            Opcode::Xor,   Opcode::Min,   Opcode::Max,   Opcode::Abs,
            Opcode::Neg,   Opcode::Mov,   Opcode::CmpEq, Opcode::CmpLt,
            Opcode::CmpGe, Opcode::Select, Opcode::Shl,  Opcode::Sra,
            Opcode::Mul8,  Opcode::MulU8};
        Operation op;
        int k = rng_.uniform(0, 9);
        if (k < 4) {
            // A masked register or an immediate: always in range.
            Operand addr = rng_.uniform(0, 1)
                               ? Operand::ofReg(b_->band(
                                     value(), Operand::ofImm(kWords - 1)))
                               : Operand::ofImm(rng_.uniform(0, kWords - 1));
            op.buffer = pick(bufs_);
            if (k < 2) {
                op.op = Opcode::Load;
                op.dst = pick(pool_);
                op.src[0] = addr;
            } else {
                op.op = Opcode::Store;
                op.src[0] = value();
                op.src[1] = addr;
            }
        } else {
            op.op = pick(alu);
            op.dst = pick(pool_);
            for (int i = 0; i < opcodeInfo(op.op).numSrcs; ++i)
                op.src[static_cast<size_t>(i)] = value();
        }
        if (rng_.uniform(0, 3) == 0) {
            op.pred = Operand::ofReg(pick(pool_));
            op.predSense = rng_.uniform(0, 1) == 1;
        }
        b_->emitOp(op);
    }

    void
    genOps(int n)
    {
        for (int i = 0; i < n; ++i)
            genOp();
    }

    void
    genLoop(int nest)
    {
        LoopNode &loop =
            b_->beginLoop(rng_.uniform(0, 4), "", rng_.uniform(1, 2));
        ivs_.push_back(loop.inductionVar);
        ++loops_;
        if (rng_.uniform(0, 2) == 0)
            genOps(rng_.uniform(1, 6)); // all-block: Swp pipelines it.
        else
            genList(nest);
        --loops_;
        ivs_.pop_back();
        b_->endLoop();
    }

    void
    genIf(int nest)
    {
        // A condition computed just before the If closes a group with
        // it; a plain register lets the If's branch open one.
        Operand cond =
            rng_.uniform(0, 1)
                ? Operand::ofReg(b_->band(value(), Operand::ofImm(1)))
                : Operand::ofReg(ivs_.empty() || rng_.uniform(0, 1)
                                     ? pick(pool_)
                                     : pick(ivs_));
        b_->beginIf(cond, rng_.uniform(0, 3) != 0);
        genList(nest);
        if (rng_.uniform(0, 1)) {
            b_->beginElse();
            genList(nest);
        }
        b_->endIf();
    }

    /** 3 to 6 items at the top, 0 to 3 inside; from nest depth 4 on
     *  only straight code. */
    void
    genList(int nest)
    {
        int items = nest == 0              ? rng_.uniform(3, 6)
                    : rng_.uniform(0, 7) == 0 ? 0
                                              : rng_.uniform(1, 3);
        for (int i = 0; i < items; ++i) {
            int k = nest < 4 ? rng_.uniform(0, 9) : 0;
            if (k >= 7)
                genIf(nest + 1);
            else if (k >= 4 && loops_ < 3)
                genLoop(nest + 1);
            else
                genOps(rng_.uniform(1, 4));
        }
    }

    uint64_t seed_;
    Rng rng_;
    IRBuilder *b_ = nullptr;
    std::vector<int> bufs_;
    std::vector<Vreg> pool_;
    std::vector<Vreg> ivs_;
    int loops_ = 0;
};

/** Which of the shapes the generator promises a program holds. */
struct Shapes
{
    int maxLoopDepth = 0;
    int trip0 = 0, trip1 = 0, swpEligible = 0;
    int ifElse = 0, ifThenOnly = 0;
    int ifFirst = 0, ifLast = 0, ifAfterLoop = 0;
    int predicated = 0, loads = 0, stores = 0;

    void
    scan(const NodeList &list, int depth)
    {
        for (size_t i = 0; i < list.size(); ++i) {
            const Node &n = *list[i];
            switch (n.kind()) {
              case NodeKind::Block:
                for (const Operation &op :
                     static_cast<const BlockNode &>(n).ops) {
                    predicated += op.isPredicated();
                    loads += op.op == Opcode::Load;
                    stores += op.op == Opcode::Store;
                }
                break;
              case NodeKind::Loop: {
                const auto &loop = static_cast<const LoopNode &>(n);
                maxLoopDepth = std::max(maxLoopDepth, depth + 1);
                trip0 += loop.tripCount == 0;
                trip1 += loop.tripCount == 1;
                swpEligible += swpEligibleLoop(loop, ScheduleMode::Swp);
                scan(loop.body, depth + 1);
                break;
              }
              case NodeKind::If: {
                const auto &iff = static_cast<const IfNode &>(n);
                ifElse += !iff.elseBody.empty();
                ifThenOnly += iff.elseBody.empty();
                ifFirst += i == 0;
                ifLast += i + 1 == list.size();
                ifAfterLoop +=
                    i > 0 && list[i - 1]->kind() == NodeKind::Loop;
                scan(iff.thenBody, depth);
                scan(iff.elseBody, depth);
                break;
              }
            }
        }
    }
};

class RandomPrograms : public ::testing::TestWithParam<ScheduleMode>
{
};

/**
 * On every program the bytecode engine matches the tree walker, and
 * CycleSim executes the composer's schedule in exactly the cycles
 * Composer::price charges for the tree walker's profile, ending with
 * the tree walker's memory.
 */
TEST_P(RandomPrograms, EnginesAndComposerAgree)
{
    constexpr int kPrograms = 128;
    const ScheduleMode mode = GetParam();
    MachineModel machine(models::i4c8s4());
    Shapes shapes;
    int swp_groups = 0;
    for (int i = 0; i < kPrograms; ++i) {
        RandomProgram gen(1000 + static_cast<uint64_t>(i));
        Function fn = gen.build();
        verifyOrDie(fn);
        shapes.scan(fn.body, 0);
        const std::string text = fn.str();

        MemoryImage ref = gen.image(fn);
        Profile prof = Interpreter(fn).run(ref);
        MemoryImage bc_mem = gen.image(fn);
        Profile bc = BytecodeEngine(fn).run(bc_mem);
        EXPECT_EQ(prof.blockExec, bc.blockExec);
        EXPECT_EQ(prof.loopEntries, bc.loopEntries);
        EXPECT_EQ(prof.loopIters, bc.loopIters);
        EXPECT_EQ(prof.ifThen, bc.ifThen);
        EXPECT_EQ(prof.ifElse, bc.ifElse);
        EXPECT_EQ(prof.dynamicOps, bc.dynamicOps);
        EXPECT_EQ(prof.nullifiedOps, bc.nullifiedOps);

        AvgProfile avg(fn.numNodeIds());
        avg.accumulate(prof);
        Composer composer(machine, mode);
        KernelSchedule schedule = composer.schedule(fn);
        CompositionResult comp = composer.price(schedule, avg);
        MemoryImage mem = gen.image(fn);
        CycleSimReport rep = CycleSim(machine, mode).run(fn, schedule, mem);
        EXPECT_EQ(comp.cyclesPerUnit, static_cast<double>(rep.cycles));
        for (size_t b = 0; b < fn.buffers.size(); ++b) {
            int id = fn.buffers[b].id;
            EXPECT_EQ(bc_mem.bufferWords(id), ref.bufferWords(id));
            EXPECT_EQ(mem.bufferWords(id), ref.bufferWords(id));
        }
        for (const ScheduledGroup &g : schedule.groups)
            swp_groups += g.site == GroupSite::SwpLoop;
        if (HasFailure()) {
            ADD_FAILURE() << "program " << i << ":\n" << text;
            return;
        }
    }
    EXPECT_EQ(shapes.maxLoopDepth, 3);
    for (int n : {shapes.trip0, shapes.trip1, shapes.swpEligible,
                  shapes.ifElse, shapes.ifThenOnly, shapes.ifFirst,
                  shapes.ifLast, shapes.ifAfterLoop, shapes.predicated,
                  shapes.loads, shapes.stores})
        EXPECT_GT(n, 0);
    EXPECT_EQ(swp_groups > 0, mode == ScheduleMode::Swp);
}

/**
 * The two smallest trip counts, in every mode: a zero-trip loop is
 * entered and runs no iteration, and a one-trip all-block loop is
 * the shortest loop Swp mode pipelines. An If right after them
 * reads the value the loops left.
 */
TEST(CycleSim, ZeroAndOneTripLoopsMatchComposer)
{
    IRBuilder b("t");
    int buf = b.buffer("o", 4);
    Vreg acc = b.movi(3);
    auto &empty = b.beginLoop(0, "empty");
    b.emitTo(acc, Opcode::Add, Operand::ofReg(acc),
             Operand::ofReg(empty.inductionVar));
    b.store(buf, Operand::ofReg(acc), Operand::ofImm(1));
    b.endLoop();
    auto &once = b.beginLoop(1, "once");
    b.emitTo(acc, Opcode::Add, Operand::ofReg(acc), Operand::ofImm(4));
    b.store(buf, Operand::ofReg(acc), Operand::ofReg(once.inductionVar));
    b.endLoop();
    b.beginIf(Operand::ofReg(acc));
    b.store(buf, Operand::ofImm(9), Operand::ofImm(2));
    b.endIf();
    Function fn = b.finish();
    verifyOrDie(fn);

    MachineModel machine(models::i4c8s4());
    for (ScheduleMode mode : {ScheduleMode::Sequential, ScheduleMode::Wide,
                              ScheduleMode::Swp}) {
        SCOPED_TRACE(static_cast<int>(mode));
        MemoryImage ref(fn);
        Profile prof = Interpreter(fn).run(ref);
        EXPECT_EQ(ref.bufferWords(buf),
                  (std::vector<uint16_t>{7, 0, 9, 0}));
        AvgProfile avg(fn.numNodeIds());
        avg.accumulate(prof);
        Composer composer(machine, mode);
        KernelSchedule schedule = composer.schedule(fn);
        CompositionResult comp = composer.price(schedule, avg);
        MemoryImage mem(fn);
        CycleSimReport rep = CycleSim(machine, mode).run(fn, schedule, mem);
        EXPECT_EQ(comp.cyclesPerUnit, static_cast<double>(rep.cycles));
        EXPECT_EQ(mem.bufferWords(buf), ref.bufferWords(buf));
        int swp_groups = 0;
        for (const ScheduledGroup &g : schedule.groups)
            swp_groups += g.site == GroupSite::SwpLoop;
        EXPECT_EQ(swp_groups, mode == ScheduleMode::Swp ? 1 : 0);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, RandomPrograms,
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
