/** @file Dependence-graph construction and RecMII tests. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "arch/machine_model.hh"
#include "arch/models.hh"
#include "ir/builder.hh"
#include "ir/dependence_graph.hh"
#include "support/random.hh"

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

LatencyFn
unitLatency()
{
    return [](const Operation &) { return 1; };
}

Operation
mk(Opcode op, Vreg dst, Operand a, Operand b = Operand::none())
{
    Operation o;
    o.op = op;
    o.dst = dst;
    o.src = {a, b, Operand::none()};
    return o;
}

bool
hasEdge(const DependenceGraph &g, int from, int to, DepKind kind,
        int distance = 0)
{
    for (const auto &e : g.edges()) {
        if (e.from == from && e.to == to && e.kind == kind &&
            e.distance == distance) {
            return true;
        }
    }
    return false;
}

TEST(DepGraph, TrueDependence)
{
    std::vector<Operation> ops{mk(Opcode::Mov, 1, K(5)),
                               mk(Opcode::Add, 2, R(1), K(1))};
    DependenceGraph g(ops, unitLatency(), false);
    EXPECT_TRUE(hasEdge(g, 0, 1, DepKind::True));
}

TEST(DepGraph, AntiAndOutputDependences)
{
    std::vector<Operation> ops{mk(Opcode::Mov, 1, K(5)),
                               mk(Opcode::Add, 2, R(1), K(1)),
                               mk(Opcode::Mov, 1, K(9))};
    DependenceGraph g(ops, unitLatency(), false);
    EXPECT_TRUE(hasEdge(g, 1, 2, DepKind::Anti));
    EXPECT_TRUE(hasEdge(g, 0, 2, DepKind::Output));
}

TEST(DepGraph, PredicateReadIsADependence)
{
    std::vector<Operation> ops{mk(Opcode::CmpLt, 1, K(0), K(1)),
                               mk(Opcode::Mov, 2, K(5))};
    ops[1].pred = R(1);
    DependenceGraph g(ops, unitLatency(), false);
    EXPECT_TRUE(hasEdge(g, 0, 1, DepKind::True));
}

TEST(DepGraph, MemoryOrderingSameToken)
{
    Operation st = mk(Opcode::Store, kNoVreg, K(1), K(0));
    st.op = Opcode::Store;
    st.src = {K(1), K(0), Operand::none()};
    st.buffer = 0;
    Operation ld = mk(Opcode::Load, 1, K(0));
    ld.buffer = 0;
    std::vector<Operation> ops{st, ld};
    DependenceGraph g(ops, unitLatency(), false);
    EXPECT_TRUE(hasEdge(g, 0, 1, DepKind::Memory));
}

TEST(DepGraph, DisjointAliasTokensDontOrder)
{
    Operation st;
    st.op = Opcode::Store;
    st.src = {K(1), K(0), Operand::none()};
    st.buffer = 0;
    st.aliasToken = 1;
    Operation ld = mk(Opcode::Load, 1, K(0));
    ld.buffer = 0;
    ld.aliasToken = 2;
    std::vector<Operation> ops{st, ld};
    DependenceGraph g(ops, unitLatency(), false);
    EXPECT_FALSE(hasEdge(g, 0, 1, DepKind::Memory));
}

TEST(DepGraph, LoadLoadNeedsNoOrdering)
{
    Operation l1 = mk(Opcode::Load, 1, K(0));
    l1.buffer = 0;
    Operation l2 = mk(Opcode::Load, 2, K(1));
    l2.buffer = 0;
    std::vector<Operation> ops{l1, l2};
    DependenceGraph g(ops, unitLatency(), false);
    EXPECT_TRUE(g.edges().empty());
}

TEST(DepGraph, CarriedAccumulatorSelfDependence)
{
    // acc = acc + x: distance-1 self edge -> RecMII >= latency.
    std::vector<Operation> ops{mk(Opcode::Add, 1, R(1), K(2))};
    DependenceGraph g(ops, unitLatency(), true);
    EXPECT_TRUE(hasEdge(g, 0, 0, DepKind::True, 1));
    EXPECT_EQ(g.recurrenceMii(), 1);
}

TEST(DepGraph, RecurrenceMiiOfTwoOpCycle)
{
    // a = f(b); b = g(a): carried cycle of two unit-latency ops.
    std::vector<Operation> ops{mk(Opcode::Add, 1, R(2), K(1)),
                               mk(Opcode::Add, 2, R(1), K(1))};
    DependenceGraph g(ops, unitLatency(), true);
    EXPECT_EQ(g.recurrenceMii(), 2);
}

TEST(DepGraph, LongerLatencyRaisesRecMii)
{
    LatencyFn lat = [](const Operation &op) {
        return op.op == Opcode::Mul16Lo ? 2 : 1;
    };
    // acc = mul(acc, k): self cycle with latency 2.
    std::vector<Operation> ops{mk(Opcode::Mul16Lo, 1, R(1), K(3))};
    DependenceGraph g(ops, lat, true);
    EXPECT_EQ(g.recurrenceMii(), 2);
}

TEST(DepGraph, StreamingAccessesSkipCarriedMemoryEdges)
{
    Operation st;
    st.op = Opcode::Store;
    st.src = {K(1), R(9), Operand::none()};
    st.buffer = 0;
    st.noCarriedAlias = true;
    Operation ld = mk(Opcode::Load, 1, R(9));
    ld.buffer = 0;
    ld.noCarriedAlias = true;
    std::vector<Operation> ops{ld, st};
    DependenceGraph g(ops, unitLatency(), true);
    // Intra-iteration anti ordering exists, but no distance-1 edges.
    for (const auto &e : g.edges())
        EXPECT_EQ(e.distance, 0);
}

TEST(DepGraph, HeightsFollowCriticalPath)
{
    std::vector<Operation> ops{mk(Opcode::Mov, 1, K(1)),
                               mk(Opcode::Add, 2, R(1), K(1)),
                               mk(Opcode::Add, 3, R(2), K(1)),
                               mk(Opcode::Mov, 9, K(7))};
    DependenceGraph g(ops, unitLatency(), false);
    EXPECT_EQ(g.height(0), 3);
    EXPECT_EQ(g.height(1), 2);
    EXPECT_EQ(g.height(2), 1);
    EXPECT_EQ(g.height(3), 1);
    EXPECT_EQ(g.criticalPathLength(), 3);
}

TEST(DepGraph, ComplementaryPredicatesShareACycle)
{
    std::vector<Operation> ops{mk(Opcode::CmpLt, 1, K(0), K(1)),
                               mk(Opcode::Mov, 2, K(5)),
                               mk(Opcode::Mov, 2, K(6))};
    ops[1].pred = R(1);
    ops[1].predSense = true;
    ops[2].pred = R(1);
    ops[2].predSense = false;
    DependenceGraph g(ops, unitLatency(), false);
    for (const auto &e : g.edges()) {
        if (e.from == 1 && e.to == 2 && e.kind == DepKind::Output)
            EXPECT_EQ(e.latency, 0); // may issue in the same cycle.
    }
}

// ---- RecMII against the all-edges reference ----------------------------

/**
 * Reference feasibility probe: Bellman-Ford longest paths over every
 * edge, num_ops + 1 passes, flagging a change in the last pass as a
 * positive (latency - ii * distance) cycle.
 */
bool
referenceFeasible(const DependenceGraph &g, int ii)
{
    const size_t n = g.numOps();
    std::vector<int> dist(n, 0);
    bool changed = true;
    bool positive_cycle = false;
    for (size_t iter = 0; iter <= n && changed; ++iter) {
        changed = false;
        for (const auto &e : g.edges()) {
            int cand = dist[static_cast<size_t>(e.from)] + e.latency -
                       ii * e.distance;
            if (cand > dist[static_cast<size_t>(e.to)]) {
                dist[static_cast<size_t>(e.to)] = cand;
                changed = true;
                if (iter == n)
                    positive_cycle = true;
            }
        }
    }
    return !positive_cycle && !changed;
}

/**
 * Reference RecMII: binary search for the smallest feasible II
 * between 1 and one plus the sum of all edge latencies, probing with
 * referenceFeasible(). Slow but plainly exact; recurrenceMii() must
 * agree with it on every graph.
 */
int
referenceRecurrenceMii(const DependenceGraph &g)
{
    if (g.numOps() == 0)
        return 1;
    bool any_carried = false;
    int max_lat_sum = 1;
    for (const auto &e : g.edges()) {
        max_lat_sum += e.latency;
        any_carried |= e.distance > 0;
    }
    if (!any_carried || referenceFeasible(g, 1))
        return 1;
    int lo = 1, hi = max_lat_sum;
    while (hi - lo > 1) {
        int mid = lo + (hi - lo) / 2;
        if (referenceFeasible(g, mid))
            hi = mid;
        else
            lo = mid;
    }
    return hi;
}

/** Per-op latencies indexed by Operation::id. */
LatencyFn
latencyById(const std::vector<int> &lat)
{
    return [&lat](const Operation &op) {
        return lat[static_cast<size_t>(op.id)];
    };
}

std::vector<Operation>
numbered(std::vector<Operation> ops)
{
    for (size_t i = 0; i < ops.size(); ++i)
        ops[i].id = static_cast<int>(i);
    return ops;
}

/**
 * A random loop body: ALU ops over a small register pool, loads and
 * stores over 1-3 buffers (some declared streaming), about a fifth
 * of the ops predicated, and a latency of 0-3 per op.
 */
std::vector<Operation>
randomBody(Rng &rng, std::vector<int> *lat)
{
    static const Opcode kAlu[] = {Opcode::Add, Opcode::Sub,
                                  Opcode::Mov, Opcode::Mul16Lo,
                                  Opcode::CmpLt, Opcode::Min};
    const int n = rng.uniform(1, 64);
    const int regs = rng.uniform(2, 16);
    const int buffers = rng.uniform(1, 3);
    auto reg = [&] { return static_cast<Vreg>(rng.uniform(1, regs)); };
    auto src = [&] {
        return rng.uniform(0, 3) == 0 ? K(rng.uniform(0, 9)) : R(reg());
    };
    std::vector<Operation> ops;
    lat->clear();
    for (int i = 0; i < n; ++i) {
        Operation o;
        const int kind = rng.uniform(0, 9);
        if (kind <= 3) {
            o.op = kind <= 1 ? Opcode::Load : Opcode::Store;
            if (o.op == Opcode::Load) {
                o.dst = reg();
                o.src = {src(), Operand::none(), Operand::none()};
            } else {
                o.src = {src(), src(), Operand::none()};
            }
            o.buffer = rng.uniform(0, buffers - 1);
            o.aliasToken = rng.uniform(0, 1);
            o.noCarriedAlias = rng.uniform(0, 1) == 1;
        } else {
            o.op = kAlu[rng.uniform(0, 5)];
            o.dst = reg();
            o.src = {src(),
                     o.op == Opcode::Mov ? Operand::none() : src(),
                     Operand::none()};
        }
        if (rng.uniform(0, 4) == 0) {
            o.pred = R(reg());
            o.predSense = rng.uniform(0, 1) == 1;
        }
        ops.push_back(o);
        lat->push_back(rng.uniform(0, 3));
    }
    return numbered(std::move(ops));
}

TEST(RecurrenceMii, MatchesAllEdgesReferenceOnRandomBodies)
{
    Rng rng(20260517);
    std::vector<int> lat;
    int above_one = 0;
    int max_seen = 0;
    for (int body = 0; body < 1500; ++body) {
        std::vector<Operation> ops = randomBody(rng, &lat);
        DependenceGraph g(ops, latencyById(lat), true);
        const int expected = referenceRecurrenceMii(g);
        ASSERT_EQ(g.recurrenceMii(), expected)
            << "body " << body << " (" << ops.size() << " ops)\n"
            << g.str();
        above_one += expected > 1;
        max_seen = std::max(max_seen, expected);
    }
    // The generator must exercise real recurrences, not just II = 1.
    EXPECT_GT(above_one, 500);
    EXPECT_GE(max_seen, 6);
}

TEST(RecurrenceMii, AcyclicBodyIsOne)
{
    // v1 = 5; v2 = v1 + 1; store v2 (streaming): nothing is read
    // before it is written, so no edge is carried.
    Operation st;
    st.op = Opcode::Store;
    st.src = {R(2), K(0), Operand::none()};
    st.buffer = 0;
    st.noCarriedAlias = true;
    std::vector<Operation> ops = numbered(
        {mk(Opcode::Mov, 1, K(5)), mk(Opcode::Add, 2, R(1), K(1)), st});
    std::vector<int> lat{3, 3, 3};
    for (bool carried : {false, true}) {
        DependenceGraph g(ops, latencyById(lat), carried);
        EXPECT_EQ(g.recurrenceMii(), 1);
        EXPECT_EQ(referenceRecurrenceMii(g), 1);
    }
}

TEST(RecurrenceMii, LoneSelfLoop)
{
    // acc = acc * 3 (latency 3) beside independent work.
    std::vector<Operation> ops =
        numbered({mk(Opcode::Mov, 5, K(1)),
                  mk(Opcode::Mul16Lo, 1, R(1), K(3)),
                  mk(Opcode::Add, 6, R(5), K(2))});
    std::vector<int> lat{1, 3, 1};
    DependenceGraph g(ops, latencyById(lat), true);
    EXPECT_EQ(g.recurrenceMii(), 3);
    EXPECT_EQ(referenceRecurrenceMii(g), 3);
}

TEST(RecurrenceMii, TwoDisjointSccsTakeTheLargerRatio)
{
    // SCC A: v1 = v2 + 1; v2 = v1 + 1 (one carried edge).
    // SCC B: v3 = v5 + 1; v4 = v3 + 1; v5 = v4 + 1.
    std::vector<Operation> ops =
        numbered({mk(Opcode::Add, 1, R(2), K(1)),
                  mk(Opcode::Add, 2, R(1), K(1)),
                  mk(Opcode::Add, 3, R(5), K(1)),
                  mk(Opcode::Add, 4, R(3), K(1)),
                  mk(Opcode::Add, 5, R(4), K(1))});
    // A: 2 + 2 = 4 per iteration beats B: 1 + 1 + 1 = 3.
    std::vector<int> a_wins{2, 2, 1, 1, 1};
    DependenceGraph ga(ops, latencyById(a_wins), true);
    EXPECT_EQ(ga.recurrenceMii(), 4);
    EXPECT_EQ(referenceRecurrenceMii(ga), 4);
    // A: 1 + 1 = 2 loses to B: 2 + 2 + 1 = 5.
    std::vector<int> b_wins{1, 1, 2, 2, 1};
    DependenceGraph gb(ops, latencyById(b_wins), true);
    EXPECT_EQ(gb.recurrenceMii(), 5);
    EXPECT_EQ(referenceRecurrenceMii(gb), 5);
}

TEST(RecurrenceMii, CycleCrossingSeveralCarriedEdges)
{
    // v1 = v3 + 1; v3 = v4 + 1; v4 = v1 + 1. The cycle
    // op0 -> op2 (v1) -> op1 (v4, carried) -> op0 (v3, carried) spans
    // two iterations: latency 9 over distance 2 gives II 5, above
    // the 3 of either one-carried-edge cycle closed by an anti edge.
    std::vector<Operation> ops =
        numbered({mk(Opcode::Add, 1, R(3), K(1)),
                  mk(Opcode::Add, 3, R(4), K(1)),
                  mk(Opcode::Add, 4, R(1), K(1))});
    std::vector<int> lat{3, 3, 3};
    DependenceGraph g(ops, latencyById(lat), true);
    EXPECT_TRUE(hasEdge(g, 0, 2, DepKind::True, 0));
    EXPECT_TRUE(hasEdge(g, 2, 1, DepKind::True, 1));
    EXPECT_TRUE(hasEdge(g, 1, 0, DepKind::True, 1));
    EXPECT_EQ(g.recurrenceMii(), 5);
    EXPECT_EQ(referenceRecurrenceMii(g), 5);
}

} // namespace
} // namespace vvsp
