/**
 * @file
 * Scheduler tests: reservation-table slot binding, list-scheduling
 * invariants (dependences, width-1, delay slots), and modulo-
 * scheduling properties (II bounds, resource and timing legality,
 * and the bounds every modulo schedule carries).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <optional>
#include <random>
#include <string>

#include "arch/model_registry.hh"
#include "arch/models.hh"
#include "core/experiment.hh"
#include "ir/builder.hh"
#include "kernels/composer.hh"
#include "obs/stats_registry.hh"
#include "sched/list_scheduler.hh"
#include "sched/modulo_scheduler.hh"
#include "sched/reg_pressure.hh"
#include "sched/reservation_table.hh"
#include "support/thread_pool.hh"

namespace vvsp
{
namespace
{

Operand
R(Vreg v)
{
    return Operand::ofReg(v);
}

Operand
K(int32_t v)
{
    return Operand::ofImm(v);
}

Operation
mk(Opcode op, Vreg dst, Operand a = Operand::none(),
   Operand b = Operand::none())
{
    Operation o;
    o.op = op;
    o.dst = dst;
    o.src = {a, b, Operand::none()};
    return o;
}

Operation
mkLoad(Vreg dst, int buffer, Operand addr)
{
    Operation o = mk(Opcode::Load, dst, addr);
    o.buffer = buffer;
    return o;
}

BankOfFn
bankZero()
{
    return [](int) { return 0; };
}

/** Check all distance-0 dependence latencies in a schedule. */
void
expectLegal(const std::vector<Operation> &ops, const BlockSchedule &s,
            const MachineModel &machine)
{
    DependenceGraph ddg(ops, machine.latencyFn(), s.ii > 0);
    int ii = s.ii > 0 ? s.ii : 1 << 20;
    for (const auto &e : ddg.edges()) {
        int tf = s.placed[static_cast<size_t>(e.from)].cycle;
        int tt = s.placed[static_cast<size_t>(e.to)].cycle;
        EXPECT_GE(tt + ii * e.distance, tf + e.latency)
            << "edge " << e.from << "->" << e.to;
    }
}

// ---- reservation table -------------------------------------------------

TEST(ReservationTable, OneMemoryOpPerCycleOnI4Clusters)
{
    MachineModel machine(models::i4c8s4());
    ReservationTable t(machine, 0, bankZero());
    Operation l1 = mkLoad(1, 0, K(0));
    Operation l2 = mkLoad(2, 0, K(1));
    int slot = -1;
    EXPECT_TRUE(t.tryReserve(l1, 0, &slot));
    EXPECT_FALSE(t.tryReserve(l2, 0, &slot)); // single LSU.
    EXPECT_TRUE(t.tryReserve(l2, 1, &slot));
}

TEST(ReservationTable, BankBindingOnI2Clusters)
{
    MachineModel machine(models::i2c16s4());
    // Bank 0 and bank 1 loads can coissue; two bank-0 loads cannot.
    BankOfFn bank_of = [](int buffer) { return buffer; };
    ReservationTable t(machine, 0, bank_of);
    Operation a = mkLoad(1, 0, K(0));
    Operation b = mkLoad(2, 1, K(0));
    Operation c = mkLoad(3, 0, K(1));
    int slot = -1;
    EXPECT_TRUE(t.tryReserve(a, 0, &slot));
    EXPECT_TRUE(t.tryReserve(b, 0, &slot));
    EXPECT_FALSE(t.tryReserve(c, 0, &slot));
}

TEST(ReservationTable, FourOpsPerI4Cluster)
{
    MachineModel machine(models::i4c8s4());
    ReservationTable t(machine, 0, bankZero());
    int slot = -1;
    for (int i = 0; i < 4; ++i) {
        EXPECT_TRUE(t.tryReserve(mk(Opcode::Add, 1, K(0), K(0)), 0,
                                 &slot));
    }
    EXPECT_FALSE(
        t.tryReserve(mk(Opcode::Add, 1, K(0), K(0)), 0, &slot));
}

TEST(ReservationTable, OneMultiplierOneShifter)
{
    MachineModel machine(models::i4c8s4());
    ReservationTable t(machine, 0, bankZero());
    int slot = -1;
    EXPECT_TRUE(t.tryReserve(mk(Opcode::Mul8, 1, K(0), K(0)), 0,
                             &slot));
    EXPECT_FALSE(t.tryReserve(mk(Opcode::Mul8, 2, K(0), K(0)), 0,
                              &slot));
    EXPECT_TRUE(t.tryReserve(mk(Opcode::Shl, 3, K(0), K(0)), 0,
                             &slot));
    EXPECT_FALSE(t.tryReserve(mk(Opcode::Shl, 4, K(0), K(0)), 0,
                              &slot));
}

TEST(ReservationTable, Width1ModeSerializesEverything)
{
    MachineModel machine(models::i4c8s4());
    ReservationTable t(machine, 0, bankZero(), /*width1=*/true);
    int slot = -1;
    EXPECT_TRUE(t.tryReserve(mk(Opcode::Add, 1, K(0), K(0)), 0,
                             &slot));
    EXPECT_FALSE(
        t.tryReserve(mk(Opcode::Sub, 2, K(0), K(0)), 0, &slot));
}

TEST(ReservationTable, SingleGlobalBranchSlot)
{
    MachineModel machine(models::i4c8s4());
    ReservationTable t(machine, 0, bankZero());
    Operation br = mk(Opcode::Br, kNoVreg);
    int slot = -1;
    EXPECT_TRUE(t.tryReserve(br, 0, &slot));
    EXPECT_EQ(slot, -1); // control slot.
    EXPECT_FALSE(t.tryReserve(br, 0, &slot));
}

TEST(ReservationTable, CrossbarPortLimits)
{
    MachineModel machine(models::i2c16s4()); // 1 port per cluster.
    ReservationTable t(machine, 0, bankZero());
    Operation x1 = mk(Opcode::Xfer, 1, R(9));
    x1.cluster = 0;
    x1.dstCluster = 1;
    Operation x2 = mk(Opcode::Xfer, 2, R(8));
    x2.cluster = 0;
    x2.dstCluster = 2;
    int slot = -1;
    EXPECT_TRUE(t.tryReserve(x1, 0, &slot));
    EXPECT_FALSE(t.tryReserve(x2, 0, &slot)); // send port busy.
    // A transfer from another cluster INTO cluster 1 is fine...
    Operation x3 = mk(Opcode::Xfer, 3, R(7));
    x3.cluster = 2;
    x3.dstCluster = 3;
    EXPECT_TRUE(t.tryReserve(x3, 0, &slot));
    // ...but a second arrival at cluster 1 is not.
    Operation x4 = mk(Opcode::Xfer, 4, R(6));
    x4.cluster = 3;
    x4.dstCluster = 1;
    EXPECT_FALSE(t.tryReserve(x4, 0, &slot));
}

TEST(ReservationTable, ReleaseFreesResources)
{
    MachineModel machine(models::i4c8s4());
    ReservationTable t(machine, 0, bankZero());
    Operation mul = mk(Opcode::Mul8, 1, K(0), K(0));
    int slot = -1;
    ASSERT_TRUE(t.tryReserve(mul, 0, &slot));
    t.release(mul, 0, slot);
    EXPECT_TRUE(t.tryReserve(mul, 0, &slot));
}

TEST(ReservationTable, ModuloWrapsRows)
{
    MachineModel machine(models::i4c8s4());
    ReservationTable t(machine, /*ii=*/2, bankZero());
    Operation l1 = mkLoad(1, 0, K(0));
    Operation l2 = mkLoad(2, 0, K(1));
    int slot = -1;
    EXPECT_TRUE(t.tryReserve(l1, 0, &slot));
    EXPECT_FALSE(t.tryReserve(l2, 2, &slot)); // same row mod 2.
    EXPECT_TRUE(t.tryReserve(l2, 3, &slot));
}

/**
 * On I2C16S5+2LS a multiplier shares slot 0 with an any-bank
 * load/store unit, and a shifter shares slot 1 with the other. A load
 * reserved before a multiply in one row takes slot 0, where the
 * multiply must go; the witness moves the load to slot 1 instead of
 * giving up, in acyclic and in modulo rows. Where the greedy order
 * fits, its slots stand.
 */
TEST(ReservationTable, WitnessReseatsALoadForAMultiply)
{
    MachineModel machine(models::withDualLoadStore(models::i2c16s5()));
    std::vector<Operation> ops{mkLoad(1, 0, K(0)),
                               mk(Opcode::Mul8, 2, R(3), R(4)),
                               mk(Opcode::Add, 5, R(6), K(1))};
    std::vector<int> acyclic = witnessSlots(
        ops, {{4, 0, -1}, {4, 0, -1}, {5, 0, -1}}, 0, machine,
        bankZero(), false);
    EXPECT_EQ(acyclic, (std::vector<int>{1, 0, 0}));
    std::vector<int> modulo = witnessSlots(
        ops, {{1, 0, -1}, {4, 0, -1}, {2, 0, -1}}, 3, machine,
        bankZero(), false);
    EXPECT_EQ(modulo, (std::vector<int>{1, 0, 0}));
    std::vector<int> apart = witnessSlots(
        ops, {{0, 0, -1}, {1, 0, -1}, {0, 0, -1}}, 0, machine,
        bankZero(), false);
    EXPECT_EQ(apart, (std::vector<int>{0, 0, 1}));
}

// ---- list scheduler -------------------------------------------------------

std::vector<Operation>
chainOf(int n)
{
    std::vector<Operation> ops;
    ops.push_back(mk(Opcode::Mov, 1, K(1)));
    for (int i = 1; i < n; ++i) {
        ops.push_back(mk(Opcode::Add, static_cast<Vreg>(i + 1),
                         R(static_cast<Vreg>(i)), K(1)));
    }
    return ops;
}

TEST(ListScheduler, ChainTakesItsCriticalPath)
{
    MachineModel machine(models::i4c8s4());
    ListScheduler sched(machine, bankZero());
    auto ops = chainOf(6);
    BlockSchedule s = sched.schedule(ops, false);
    expectLegal(ops, s, machine);
    EXPECT_EQ(s.length, 6);
}

TEST(ListScheduler, IndependentOpsPack)
{
    MachineModel machine(models::i4c8s4());
    ListScheduler sched(machine, bankZero());
    std::vector<Operation> ops;
    for (int i = 0; i < 8; ++i)
        ops.push_back(mk(Opcode::Add, static_cast<Vreg>(i + 1), K(i),
                         K(1)));
    BlockSchedule s = sched.schedule(ops, false);
    EXPECT_EQ(s.length, 2); // 8 adds on 4 ALU slots.
}

TEST(ListScheduler, Width1IssuesOnePerCycle)
{
    MachineModel machine(models::i4c8s4());
    ListScheduler sched(machine, bankZero());
    std::vector<Operation> ops;
    for (int i = 0; i < 5; ++i)
        ops.push_back(mk(Opcode::Add, static_cast<Vreg>(i + 1), K(i),
                         K(1)));
    BlockSchedule s = sched.schedule(ops, true);
    EXPECT_EQ(s.length, 5);
    std::set<int> cycles;
    for (const auto &p : s.placed)
        EXPECT_TRUE(cycles.insert(p.cycle).second);
}

TEST(ListScheduler, LoadUseDelayRespected)
{
    MachineModel machine(models::i4c8s5()); // 1-cycle load-use delay.
    ListScheduler sched(machine, bankZero());
    std::vector<Operation> ops{mkLoad(1, 0, K(0)),
                               mk(Opcode::Add, 2, R(1), K(1))};
    BlockSchedule s = sched.schedule(ops, false);
    EXPECT_GE(s.placed[1].cycle - s.placed[0].cycle, 2);
}

TEST(ListScheduler, BranchDelaySlotsExtendBlock)
{
    MachineModel machine(models::i4c8s4());
    ListScheduler sched(machine, bankZero());
    std::vector<Operation> ops{mk(Opcode::CmpLt, 1, K(0), K(1))};
    Operation br = mk(Opcode::BrCond, kNoVreg, R(1));
    ops.push_back(br);
    BlockSchedule s = sched.schedule(ops, false);
    // cmp at 0, branch at 1, one delay slot: 3 cycles.
    EXPECT_EQ(s.length, 3);
}

TEST(ListScheduler, TrailingOpsFillDelaySlots)
{
    MachineModel machine(models::i4c8s4());
    ListScheduler sched(machine, bankZero());
    std::vector<Operation> ops{mk(Opcode::CmpLt, 1, K(0), K(1)),
                               mk(Opcode::Add, 2, K(1), K(2)),
                               mk(Opcode::Add, 3, K(3), K(4)),
                               mk(Opcode::Add, 4, K(5), K(6)),
                               mk(Opcode::Add, 5, K(7), K(8)),
                               mk(Opcode::Add, 6, K(9), K(10))};
    Operation br = mk(Opcode::BrCond, kNoVreg, R(1));
    ops.push_back(br);
    BlockSchedule s = sched.schedule(ops, false);
    // 6 ALU-class ops over 4 slots = 2 cycles; the branch overlaps.
    EXPECT_LE(s.length, 3);
}

TEST(ListScheduler, DeterministicAcrossRuns)
{
    MachineModel machine(models::i4c8s4());
    ListScheduler sched(machine, bankZero());
    auto ops = chainOf(10);
    BlockSchedule a = sched.schedule(ops, false);
    BlockSchedule b = sched.schedule(ops, false);
    for (size_t i = 0; i < ops.size(); ++i)
        EXPECT_EQ(a.placed[i].cycle, b.placed[i].cycle);
}

/** What the probe-every-op walk saw, summed over its cycles. */
struct WalkCounts
{
    /** Probes: ops whose operands were available. */
    uint64_t probes = 0;
    /** Visits of ops whose last predecessor was placed but whose
     *  operands were still in flight. */
    uint64_t waits = 0;
};

/**
 * The list scheduler's ready walk without any skipping: every ready
 * op whose operands are available probes the reservation table in
 * every cycle, in height order, and ops that become ready join the
 * walk from the next cycle on. Returns the placements and the block
 * length (-1 if the walk does not converge); `seen` receives the
 * walk's probes and waits.
 */
BlockSchedule
probeEveryOpSchedule(const std::vector<Operation> &ops,
                     const MachineModel &machine, const BankOfFn &bank_of,
                     bool width1, WalkCounts &seen)
{
    const size_t n = ops.size();
    const DependenceGraph ddg(ops, machine.latencyFn(), false);
    int branch = -1;
    for (size_t i = 0; i < n; ++i) {
        if (ops[i].info().isBranch)
            branch = static_cast<int>(i);
    }
    std::vector<int> preds(n, 0), earliest(n, 0);
    for (const DepEdge &e : ddg.edges()) {
        if (e.distance == 0 && e.from != branch)
            preds[static_cast<size_t>(e.to)]++;
    }
    auto before = [&ddg](int a, int b) {
        if (ddg.height(a) != ddg.height(b))
            return ddg.height(a) > ddg.height(b);
        return a < b;
    };

    BlockSchedule s;
    s.placed.assign(n, PlacedOp{});
    s.length = -1;
    ReservationTable table(machine, 0, bank_of, width1);
    std::vector<int> ready;
    for (size_t i = 0; i < n; ++i) {
        if (static_cast<int>(i) != branch && preds[i] == 0)
            ready.push_back(static_cast<int>(i));
    }
    size_t placed = branch >= 0 ? 1 : 0;
    int issue_max = 0, completion_max = 0;
    for (int cycle = 0; placed < n; ++cycle) {
        if (cycle > 64 * static_cast<int>(n) + 1024)
            return s;
        std::sort(ready.begin(), ready.end(), before);
        std::vector<int> next;
        for (int i : ready) {
            const Operation &op = ops[static_cast<size_t>(i)];
            int slot = -1;
            if (earliest[static_cast<size_t>(i)] > cycle) {
                ++seen.waits;
                next.push_back(i);
                continue;
            }
            ++seen.probes;
            if (!table.tryReserve(op, cycle, &slot)) {
                next.push_back(i);
                continue;
            }
            s.placed[static_cast<size_t>(i)] =
                PlacedOp{cycle, op.cluster, slot};
            placed++;
            issue_max = std::max(issue_max, cycle);
            if (op.info().hasDst)
                completion_max = std::max(completion_max,
                                          cycle + machine.latency(op));
            for (int e : ddg.succEdges(i)) {
                const DepEdge &edge = ddg.edges()[static_cast<size_t>(e)];
                if (edge.distance != 0)
                    continue;
                auto t = static_cast<size_t>(edge.to);
                earliest[t] = std::max(earliest[t], cycle + edge.latency);
                if (--preds[t] == 0 && edge.to != branch)
                    next.push_back(edge.to);
            }
        }
        ready = std::move(next);
    }

    const int delay = machine.branchDelaySlots();
    if (branch >= 0) {
        int cond_ready = 0;
        for (int e : ddg.predEdges(branch)) {
            const DepEdge &edge = ddg.edges()[static_cast<size_t>(e)];
            if (edge.distance == 0)
                cond_ready = std::max(
                    cond_ready,
                    s.placed[static_cast<size_t>(edge.from)].cycle +
                        edge.latency);
        }
        int bc = width1 ? std::max(cond_ready, issue_max + 1 - delay)
                        : std::max(cond_ready,
                                   std::max(0, issue_max - delay));
        s.placed[static_cast<size_t>(branch)] = PlacedOp{bc, 0, -1};
        s.length = std::max(issue_max + (width1 ? 2 : 1), bc + 1 + delay);
    } else {
        s.length = issue_max + 1;
    }
    s.length = std::max(s.length, completion_max);
    return s;
}

/**
 * A seeded random block over every slot class: ALU ops, abs-diffs,
 * multiplies, shifts, loads and stores on every memory bank, and
 * transfers, spread over a few clusters so that transfers contend
 * for crossbar ports; odd seeds end in a conditional branch. One
 * seed in three leaves the transfers out and favours one class, so
 * that class fills every cycle and the walk can end before it
 * reaches the ops behind it.
 */
std::vector<Operation>
randomBlock(uint32_t seed, const MachineModel &machine)
{
    std::mt19937 rng(seed);
    auto pick = [&rng](int n) {
        return static_cast<int>(rng() % static_cast<uint32_t>(n));
    };
    std::vector<int> clusters;
    const int active = std::min(machine.clusters(), 2 + pick(3));
    while (static_cast<int>(clusters.size()) < active) {
        int c = pick(machine.clusters());
        if (std::find(clusters.begin(), clusters.end(), c) ==
            clusters.end())
            clusters.push_back(c);
    }
    const int regs = 6 + pick(20);
    auto reg = [&] { return static_cast<Vreg>(1 + pick(regs)); };
    auto src = [&] { return pick(4) == 0 ? K(pick(16)) : R(reg()); };
    auto addr = [&] { return pick(2) ? R(reg()) : K(pick(64)); };

    std::vector<Operation> ops;
    const int n = 20 + pick(140);
    const bool crowded = seed % 3 == 2;
    const int favoured = crowded ? pick(5) : 0;
    for (int i = 0; i < n; ++i) {
        Operation op;
        int kind = pick(9);
        if (crowded && (kind == 5 || kind == 6 || pick(2)))
            kind = favoured;
        switch (kind) {
          case 0:
            op = mk(Opcode::AbsDiff, reg(), src(), src());
            break;
          case 1:
            op = mk(Opcode::Mul8, reg(), src(), src());
            break;
          case 2:
            op = mk(Opcode::Shl, reg(), R(reg()), K(1 + pick(3)));
            break;
          case 3:
            op = mkLoad(reg(), pick(4), addr());
            op.aliasToken = pick(2);
            break;
          case 4:
            op = mk(Opcode::Store, kNoVreg, R(reg()), addr());
            op.buffer = pick(4);
            op.aliasToken = pick(2);
            break;
          case 5:
          case 6:
            op = mk(Opcode::Xfer, reg(), R(reg()));
            break;
          default:
            op = mk(pick(2) ? Opcode::Add : Opcode::CmpLt, reg(), src(),
                    src());
            break;
        }
        const int home = pick(active);
        op.cluster = clusters[static_cast<size_t>(home)];
        if (op.op == Opcode::Xfer) {
            op.dstCluster = clusters[static_cast<size_t>(
                (home + 1 + pick(active - 1)) % active)];
        }
        ops.push_back(op);
    }
    if (seed % 2)
        ops.push_back(mk(Opcode::BrCond, kNoVreg, R(reg())));
    return ops;
}

/**
 * The list scheduler places every op where the probe-every-op walk
 * does, and makes no more probes than it. On I4C8S5M16, loads and
 * multiplies take two cycles, so ops wait in the scheduler's
 * calendar; crowded blocks end cycles before the walk reaches their
 * last ready op, in wide and width-1 mode alike.
 */
TEST(ListScheduler, MatchesProbeEveryOpWalkOnRandomBlocks)
{
    for (const char *model : {"I4C8S4", "I2C16S4", "I4C8S5M16"}) {
        MachineModel machine(models::withAbsDiff(models::byName(model)));
        const int banks = machine.memBanks();
        BankOfFn bank_of = [banks](int buffer) { return buffer % banks; };
        obs::StatsRegistry stats;
        obs::setGlobalStats(&stats);
        ListScheduler sched(machine, bank_of);
        obs::setGlobalStats(nullptr);
        for (bool width1 : {false, true}) {
            uint64_t waits = 0;
            int ended_early = 0;
            for (uint32_t seed = 0; seed < 300; ++seed) {
                SCOPED_TRACE(std::string(model) +
                             (width1 ? " width-1" : " wide") + " seed " +
                             std::to_string(seed));
                std::vector<Operation> ops = randomBlock(seed, machine);
                WalkCounts walk;
                BlockSchedule want = probeEveryOpSchedule(
                    ops, machine, bank_of, width1, walk);
                ASSERT_GT(want.length, 0);
                const uint64_t probes0 =
                    stats.counterValue("sched/list_probes");
                const uint64_t visits0 =
                    stats.counterValue("sched/list_visits");
                BlockSchedule got = sched.schedule(ops, width1);
                const uint64_t probes =
                    stats.counterValue("sched/list_probes") - probes0;
                const uint64_t visits =
                    stats.counterValue("sched/list_visits") - visits0;
                ASSERT_LE(probes, visits);
                ASSERT_LE(probes, walk.probes);
                // Every op the walk probes is one the scheduler
                // visits, unless the cycle ended before it.
                if (visits < walk.probes)
                    ++ended_early;
                waits += walk.waits;
                ASSERT_EQ(got.length, want.length);
                for (size_t i = 0; i < ops.size(); ++i) {
                    ASSERT_EQ(got.placed[i].cycle, want.placed[i].cycle)
                        << "op " << i << ": " << ops[i].str();
                    ASSERT_EQ(got.placed[i].cluster,
                              want.placed[i].cluster);
                    ASSERT_EQ(got.placed[i].slot, want.placed[i].slot)
                        << "op " << i << ": " << ops[i].str();
                }
            }
            EXPECT_GT(ended_early, 50);
            if (std::string(model) == "I4C8S5M16") {
                EXPECT_GT(waits, 0u);
            }
        }
    }
}

// ---- modulo scheduler -------------------------------------------------------

TEST(ModuloScheduler, ResMiiFromLoadBandwidth)
{
    MachineModel machine(models::i4c8s4());
    ModuloScheduler sched(machine, bankZero());
    std::vector<Operation> ops{mkLoad(1, 0, K(0)),
                               mkLoad(2, 0, K(1)),
                               mk(Opcode::Add, 3, R(1), R(2))};
    EXPECT_EQ(sched.resourceMii(ops), 2); // 2 loads / 1 LSU.
    BlockSchedule s = sched.schedule(ops);
    EXPECT_EQ(s.ii, 2);
    expectLegal(ops, s, machine);
}

TEST(ModuloScheduler, RecurrenceBoundsII)
{
    MachineModel machine(models::i4c8s4());
    ModuloScheduler sched(machine, bankZero());
    // A three-op carried cycle: II >= 3 despite ample resources.
    std::vector<Operation> ops{mk(Opcode::Add, 1, R(3), K(1)),
                               mk(Opcode::Add, 2, R(1), K(1)),
                               mk(Opcode::Add, 3, R(2), K(1))};
    BlockSchedule s = sched.schedule(ops);
    EXPECT_GE(s.ii, 3);
    expectLegal(ops, s, machine);
}

TEST(ModuloScheduler, IndependentIterationsReachIiOne)
{
    MachineModel machine(models::i4c8s4());
    ModuloScheduler sched(machine, bankZero());
    std::vector<Operation> ops{mk(Opcode::Add, 1, K(1), K(2)),
                               mk(Opcode::Add, 2, R(1), K(3))};
    BlockSchedule s = sched.schedule(ops);
    EXPECT_EQ(s.ii, 1);
    EXPECT_GE(s.stages, 2); // the chain spans iterations.
}

TEST(ModuloScheduler, KernelOnlyCodeSize)
{
    MachineModel machine(models::i4c8s4());
    ModuloScheduler sched(machine, bankZero());
    std::vector<Operation> ops;
    for (int i = 0; i < 12; ++i)
        ops.push_back(mk(Opcode::Add, static_cast<Vreg>(i + 1), K(i),
                         K(1)));
    BlockSchedule s = sched.schedule(ops);
    EXPECT_EQ(s.ii, 3); // 12 ops / 4 slots.
    // Kernel-only code: the encoded section is II words long.
    EXPECT_EQ(buildSection("k", ops, s, false, machine, bankZero()).words(),
              s.ii);
}

TEST(ModuloScheduler, LoopCyclesFormula)
{
    IsaSection s;
    s.modulo = true;
    s.ii = 4;
    s.stages = 3;
    // Each loop entry pays prologue (2*4) + epilogue (2*4) on top of
    // one II per iteration.
    EXPECT_EQ(s.rampCycles(), 8 + 8);
    s.modulo = false;
    EXPECT_EQ(s.rampCycles(), 0);
}

/** One software-pipelined loop body as the composer schedules it:
 *  the body blocks' ops followed by the materialized loop control. */
struct SwpLoop
{
    std::string label;
    std::vector<Operation> ops;
};

std::vector<SwpLoop>
swpLoops(Function &fn, ScheduleMode mode)
{
    std::vector<const LoopNode *> eligible;
    forEachNode(fn.body, [&](const Node &n) {
        if (n.kind() != NodeKind::Loop)
            return;
        const auto &loop = static_cast<const LoopNode &>(n);
        if (swpEligibleLoop(loop, mode))
            eligible.push_back(&loop);
    });
    std::vector<SwpLoop> out;
    for (const LoopNode *loop : eligible) {
        SwpLoop l;
        l.label = loop->label;
        for (const auto &n : loop->body) {
            const auto &block = static_cast<const BlockNode &>(*n);
            l.ops.insert(l.ops.end(), block.ops.begin(),
                         block.ops.end());
        }
        std::vector<Operation> ctrl = loopControlOps(fn, *loop);
        l.ops.insert(l.ops.end(), ctrl.begin(), ctrl.end());
        out.push_back(std::move(l));
    }
    return out;
}

/**
 * Every modulo schedule carries the ResMII and RecMII its search
 * started from, equal to recomputing them, and the number of
 * candidate IIs it consumed and their placement steps - identically
 * from the sequential and the speculative search, and on a
 * budget-degraded result.
 */
TEST(ModuloScheduler, SchedulesCarryTheirIiBounds)
{
    ThreadPool pool(4);
    int loops = 0;
    int degraded = 0;
    for (const char *model : {"I4C8S4", "I2C16S5"}) {
        for (const KernelSpec &k : allKernels()) {
            const VariantSpec &v = k.variants.back(); // most optimised.
            MachineModel machine(variantConfig(v, models::byName(model)));
            Function fn = lowerVariant(k, v, machine);
            ModuloScheduler sched(machine, [&fn](int buffer) {
                return fn.buffer(buffer).bank;
            });
            const int target = machine.registersPerCluster();
            for (const SwpLoop &l : swpLoops(fn, v.mode)) {
                SCOPED_TRACE(std::string(model) + " " + k.name + " " +
                             l.label);
                const int res = sched.resourceMii(l.ops);
                const int rec =
                    DependenceGraph(l.ops, machine.latencyFn(), true)
                        .recurrenceMii();
                auto expect_bounds = [&](const BlockSchedule &s) {
                    EXPECT_EQ(s.resMii, res);
                    EXPECT_EQ(s.recMii, rec);
                    EXPECT_GE(s.ii, std::max(res, rec));
                    EXPECT_GE(s.iiAttempts, 1);
                    // A feasible candidate places every op at least
                    // once.
                    EXPECT_GE(s.placements,
                              static_cast<long>(l.ops.size()));
                };

                BlockSchedule seq = sched.schedule(l.ops, target);
                // An unreachable register target keeps the search
                // growing the II past feasible candidates until a
                // two-candidate budget runs out.
                auto seq_budgeted = sched.scheduleBudgeted(l.ops, 1, 2);
                // On a pool worker the waves are as wide as the pool.
                BlockSchedule spec;
                std::optional<BlockSchedule> spec_budgeted;
                pool.submit([&] {
                    EXPECT_EQ(ThreadPool::current(), &pool);
                    spec = sched.schedule(l.ops, target);
                    spec_budgeted = sched.scheduleBudgeted(l.ops, 1, 2);
                });
                pool.wait();

                expect_bounds(seq);
                expect_bounds(spec);
                EXPECT_EQ(spec.ii, seq.ii);
                EXPECT_EQ(spec.iiAttempts, seq.iiAttempts);
                EXPECT_EQ(spec.placements, seq.placements);
                ASSERT_EQ(seq_budgeted.has_value(),
                          spec_budgeted.has_value());
                if (seq_budgeted) {
                    expect_bounds(*seq_budgeted);
                    expect_bounds(*spec_budgeted);
                    EXPECT_EQ(seq_budgeted->degraded,
                              spec_budgeted->degraded);
                    EXPECT_EQ(seq_budgeted->iiAttempts,
                              spec_budgeted->iiAttempts);
                    EXPECT_EQ(seq_budgeted->placements,
                              spec_budgeted->placements);
                    if (seq_budgeted->degraded) {
                        EXPECT_EQ(seq_budgeted->iiAttempts, 2);
                        ++degraded;
                    }
                }
                ++loops;
            }
        }
    }
    EXPECT_GE(loops, 12); // at least one loop per kernel and model.
    EXPECT_GT(degraded, 0);
}

/** FNV-1a over every placement's (cycle, cluster, slot), each as
 *  four little-endian bytes. */
uint64_t
placementHash(const BlockSchedule &s)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (const PlacedOp &p : s.placed) {
        for (int v : {p.cycle, p.cluster, p.slot}) {
            const auto u = static_cast<uint32_t>(v);
            for (int b = 0; b < 4; ++b) {
                h ^= (u >> (8 * b)) & 0xffu;
                h *= 0x100000001b3ULL;
            }
        }
    }
    return h;
}

/**
 * The widened DCT bodies on I4C8S5 (6082, 752 and 826 ops) are the
 * heaviest loops the modulo scheduler sees: several of their
 * candidate IIs run out the placement budget before one succeeds.
 * Their II, candidate count, placement steps and every placement are
 * pinned to constants, so any change to the placement loop's
 * mechanics must leave these schedules and their search bit-identical.
 */
TEST(ModuloScheduler, WidenedDctSchedulesArePinned)
{
    struct Pin
    {
        size_t ops;
        int ii;
        int iiAttempts;
        long placements;
        uint64_t hash;
    };
    // 15, 9 and 7 candidates run out their step budget of n + 16384
    // steps: 15 * 22466 + 6082, 9 * 17136 + 752 and 7 * 17210 + 7921
    // steps, where the last term is the feasible candidates' steps.
    const Pin pins[] = {
        {6082, 404, 16, 343072, 0xcc9472b9ae823500ULL}, // DCT-trad v
        {752, 65, 10, 154976, 0x77a0912a8647dcaeULL},    // DCT-rc row
        {826, 88, 9, 128391, 0x0d2a42608ecf0073ULL},     // DCT-rc row2
    };
    MachineModel machine(models::byName("I4C8S5"));
    size_t next = 0;
    for (const char *name : {"DCT - traditional", "DCT - row/column"}) {
        const KernelSpec &k = kernelByName(name);
        const VariantSpec &v = k.variants.back();
        ASSERT_EQ(v.name, "+unroll 2 levels & widen");
        Function fn = lowerVariant(k, v, machine);
        ModuloScheduler sched(machine, [&fn](int buffer) {
            return fn.buffer(buffer).bank;
        });
        for (const SwpLoop &l : swpLoops(fn, v.mode)) {
            SCOPED_TRACE(std::string(name) + " " + l.label);
            ASSERT_LT(next, std::size(pins));
            const Pin &pin = pins[next++];
            BlockSchedule s =
                sched.schedule(l.ops, machine.registersPerCluster());
            EXPECT_EQ(l.ops.size(), pin.ops);
            EXPECT_EQ(s.ii, pin.ii);
            EXPECT_EQ(s.iiAttempts, pin.iiAttempts);
            EXPECT_EQ(s.placements, pin.placements);
            EXPECT_EQ(placementHash(s), pin.hash)
                << std::hex << placementHash(s);
        }
    }
    EXPECT_EQ(next, std::size(pins));
}

/**
 * Each modulo candidate stops after min(32n+256, n+16384) placement
 * steps: one per op plus a backtracking allowance of 16384. A smaller
 * budget can only turn a success into a failure, so the budget leaves
 * every schedule as it was while every feasible candidate the search
 * consumes stays under it. On every software-pipelined loop of every
 * kernel variant on the seven registered models, the deciding
 * candidate must backtrack (take steps beyond one per op) at most
 * half the allowance, and every feasible candidate the search
 * consumes, the register-pressure retry's included, at most three
 * quarters of it: a lowering change that pushes a body toward the
 * budget fails here instead of quietly moving a schedule.
 */
TEST(ModuloScheduler, DecidingCandidatesStayUnderHalfTheStepCap)
{
    constexpr long kAllowance = 16384;
    int loops = 0;
    size_t largest = 0;
    auto check_model = [&](const std::string &model) {
        for (const KernelSpec &k : allKernels()) {
            for (const VariantSpec &v : k.variants) {
                MachineModel machine(
                    variantConfig(v, models::byName(model)));
                Function fn = lowerVariant(k, v, machine);
                ModuloScheduler sched(machine, [&fn](int buffer) {
                    return fn.buffer(buffer).bank;
                });
                for (const SwpLoop &l : swpLoops(fn, v.mode)) {
                    SCOPED_TRACE(model + " " + k.name + " " + v.name +
                                 " " + l.label);
                    BlockSchedule s = sched.schedule(
                        l.ops, machine.registersPerCluster());
                    const auto n = static_cast<long>(l.ops.size());
                    // Every op is placed at least once.
                    EXPECT_GE(s.decidingPlacements, n);
                    EXPECT_LE(s.decidingPlacements - n, kAllowance / 2);
                    EXPECT_LE(s.maxFeasiblePlacements - n,
                              kAllowance * 3 / 4);
                    EXPECT_LE(s.decidingPlacements,
                              s.maxFeasiblePlacements);
                    EXPECT_LE(s.maxFeasiblePlacements, s.placements);
                    largest = std::max(largest, l.ops.size());
                    ++loops;
                }
            }
        }
    };
    // One task on a pool of four: its II waves are four wide.
    ThreadPool pool(4);
    pool.submit([&] {
        EXPECT_EQ(ThreadPool::current(), &pool);
        for (const std::string &model : ModelRegistry::instance().names())
            check_model(model);
    });
    pool.wait();
    EXPECT_GE(loops, 7 * 6); // at least one loop per model and kernel.
    EXPECT_GE(largest, 6979u); // the widened DCT-traditional body.
}

/**
 * The DCT-traditional "+arithmetic optimization" row lowers to one
 * straight-line block of 11766 ops, the largest group the list
 * scheduler sees: its ready list holds hundreds of ops while the
 * multipliers and load/store units admit one op each per cycle. Its
 * length and every placement are pinned on two datapaths, and so are
 * upper bounds on its reservation probes and its ready-walk visits:
 * skipping ops whose slot class already failed in the cycle keeps
 * the probes near two per op, where probing every ready op made
 * millions, and ending each cycle's walk once every class with ready
 * ops is full keeps the visits near 30-40 per op, where walking the
 * whole ready list every cycle made millions.
 */
TEST(ListScheduler, ArithmeticDctBlocksArePinned)
{
    struct Pin
    {
        const char *model;
        size_t ops;
        int length;
        uint64_t hash;
        uint64_t maxProbes;
        uint64_t maxVisits;
    };
    const Pin pins[] = {
        {"I4C8S5", 11766, 3508, 0x47097c6cade6d78eULL, 40000, 800000},
        {"I2C16S4", 11766, 5888, 0x668f5b80f1a8c44cULL, 70000, 700000},
    };
    const KernelSpec &k = kernelByName("DCT - traditional");
    const VariantSpec &v = k.variant("+arithmetic optimization");
    for (const Pin &pin : pins) {
        SCOPED_TRACE(pin.model);
        MachineModel machine(models::byName(pin.model));
        Function fn = lowerVariant(k, v, machine);
        ASSERT_EQ(fn.body.size(), 1u);
        ASSERT_EQ(fn.body[0]->kind(), NodeKind::Block);
        const auto &ops = static_cast<const BlockNode &>(*fn.body[0]).ops;
        obs::StatsRegistry stats;
        obs::setGlobalStats(&stats);
        ListScheduler sched(machine, [&fn](int buffer) {
            return fn.buffer(buffer).bank;
        });
        BlockSchedule s = sched.schedule(ops, false);
        obs::setGlobalStats(nullptr);
        EXPECT_EQ(ops.size(), pin.ops);
        EXPECT_EQ(s.length, pin.length);
        EXPECT_EQ(placementHash(s), pin.hash)
            << std::hex << placementHash(s);
        const uint64_t probes = stats.counterValue("sched/list_probes");
        EXPECT_GE(probes, ops.size());
        EXPECT_LE(probes, pin.maxProbes);
        const uint64_t visits = stats.counterValue("sched/list_visits");
        EXPECT_GE(visits, probes);
        EXPECT_LE(visits, pin.maxVisits);
    }
}

TEST(RegPressure, CountsOverlappingLifetimes)
{
    MachineModel machine(models::i4c8s4());
    // Two values both live at cycle 1.
    std::vector<Operation> ops{mk(Opcode::Mov, 1, K(1)),
                               mk(Opcode::Mov, 2, K(2)),
                               mk(Opcode::Add, 3, R(1), R(2))};
    BlockSchedule s;
    s.placed = {{0, 0, 0}, {1, 0, 1}, {2, 0, 2}};
    int live = maxLivePerCluster(ops, s, machine, 0);
    EXPECT_GE(live, 2);
    EXPECT_LE(live, 3);
}

TEST(RegPressure, ModuloLifetimesCountPerStage)
{
    MachineModel machine(models::i4c8s4());
    // One value alive for 4 cycles under II=2: two overlapped copies.
    std::vector<Operation> ops{mk(Opcode::Mov, 1, K(1)),
                               mk(Opcode::Add, 2, R(1), K(0))};
    BlockSchedule s;
    s.ii = 2;
    s.placed = {{0, 0, 0}, {4, 0, 0}};
    EXPECT_GE(maxLivePerCluster(ops, s, machine, 2), 2);
}

} // namespace
} // namespace vvsp
