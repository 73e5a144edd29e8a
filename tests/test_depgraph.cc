/** @file Dependence-graph construction and RecMII tests. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "arch/machine_model.hh"
#include "arch/models.hh"
#include "core/experiment.hh"
#include "ir/builder.hh"
#include "ir/dependence_graph.hh"
#include "kernels/composer.hh"
#include "kernels/kernel.hh"
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
        if (e.from == 1 && e.to == 2 && e.kind == DepKind::Output) {
            EXPECT_EQ(e.latency, 0); // may issue in the same cycle.
        }
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


// ---- Construction against the reference build --------------------------

/**
 * A graph as the per-register-vector construction built it, with the
 * CSR rows and heights derived from its edge list.
 */
struct ReferenceGraph
{
    std::vector<DepEdge> edges;
    std::vector<std::vector<int32_t>> succ; ///< edge indices, in order.
    std::vector<std::vector<int32_t>> pred;
    std::vector<int> heights;
};

/**
 * The construction DependenceGraph used before its build went to CSR
 * read/write lists, kept as the oracle: one RegState (writers,
 * readers since the last unconditional write, all readers) per vreg,
 * and an edge-identity hash that keeps each (from, to, distance,
 * kind) at its first position with the largest latency any producer
 * gave it.
 */
ReferenceGraph
referenceGraph(const std::vector<Operation> &ops, const LatencyFn &latency,
               bool loop_carried)
{
    struct RegState
    {
        std::vector<int> writers;
        std::vector<int> readers;     ///< pruned at unconditional kills.
        std::vector<int> all_readers; ///< kept for carried analysis.
    };
    struct MemChain
    {
        int buffer = 0;
        int aliasToken = 0;
        int lastStore = -1;
        std::vector<int> readersSinceStore;
        std::vector<int> allOps;
    };

    ReferenceGraph g;
    std::unordered_map<uint64_t, size_t> edge_index;
    auto add = [&](int from, int to, int lat, int distance,
                   DepKind kind) {
        const uint64_t key = (static_cast<uint64_t>(from) << 34) |
                             (static_cast<uint64_t>(to) << 6) |
                             (static_cast<uint64_t>(distance) << 2) |
                             static_cast<uint64_t>(kind);
        auto [it, fresh] = edge_index.try_emplace(key, g.edges.size());
        if (!fresh) {
            DepEdge &e = g.edges[it->second];
            e.latency = std::max(e.latency, lat);
            return;
        }
        g.edges.push_back(DepEdge{from, to, lat, distance, kind});
    };
    auto complementary = [](const Operation &a, const Operation &b) {
        return a.isPredicated() && b.isPredicated() && a.pred == b.pred &&
               a.predSense != b.predSense;
    };

    const int n = static_cast<int>(ops.size());
    std::vector<int> op_lat(ops.size());
    for (size_t i = 0; i < ops.size(); ++i)
        op_lat[i] = latency(ops[i]);

    Vreg max_reg = 0;
    for (const auto &op : ops) {
        if (op.info().hasDst)
            max_reg = std::max(max_reg, op.dst);
        for (const auto &s : op.src) {
            if (s.isReg())
                max_reg = std::max(max_reg, s.reg);
        }
        if (op.pred.isReg())
            max_reg = std::max(max_reg, op.pred.reg);
    }
    std::vector<RegState> regs(static_cast<size_t>(max_reg) + 1);
    auto reads = [&](const Operation &op, auto &&fn) {
        for (const auto &s : op.src) {
            if (s.isReg())
                fn(s.reg);
        }
        if (op.pred.isReg())
            fn(op.pred.reg);
    };

    for (int i = 0; i < n; ++i) {
        const Operation &op = ops[static_cast<size_t>(i)];
        reads(op, [&](Vreg r) {
            RegState &st = regs[r];
            for (int w : st.writers)
                add(w, i, op_lat[static_cast<size_t>(w)], 0,
                    DepKind::True);
            st.readers.push_back(i);
            st.all_readers.push_back(i);
        });
        if (op.info().hasDst) {
            RegState &st = regs[op.dst];
            for (int rd : st.readers) {
                if (rd != i)
                    add(rd, i, 0, 0, DepKind::Anti);
            }
            for (int w : st.writers)
                add(w, i,
                    complementary(ops[static_cast<size_t>(w)], op) ? 0 : 1,
                    0, DepKind::Output);
            if (op.isPredicated()) {
                st.writers.push_back(i);
            } else {
                st.writers = {i};
                st.readers.clear();
            }
        }
    }

    std::vector<MemChain> chains;
    std::unordered_map<uint64_t, size_t> chain_of;
    for (int i = 0; i < n; ++i) {
        const Operation &op = ops[static_cast<size_t>(i)];
        if (!op.info().isMemory)
            continue;
        const uint64_t key =
            (static_cast<uint64_t>(static_cast<uint32_t>(op.buffer))
             << 32) |
            static_cast<uint32_t>(op.aliasToken);
        auto [it, fresh] = chain_of.try_emplace(key, chains.size());
        if (fresh) {
            chains.emplace_back();
            chains.back().buffer = op.buffer;
            chains.back().aliasToken = op.aliasToken;
        }
        MemChain &chain = chains[it->second];
        chain.allOps.push_back(i);
        if (loop_carried)
            continue;
        if (op.op == Opcode::Store) {
            for (int rd : chain.readersSinceStore)
                add(rd, i, 0, 0, DepKind::Memory);
            if (chain.lastStore >= 0)
                add(chain.lastStore, i, 1, 0, DepKind::Memory);
            chain.lastStore = i;
            chain.readersSinceStore.clear();
        } else {
            if (chain.lastStore >= 0)
                add(chain.lastStore, i, 1, 0, DepKind::Memory);
            chain.readersSinceStore.push_back(i);
        }
    }

    if (loop_carried) {
        std::vector<size_t> class_order(chains.size());
        for (size_t c = 0; c < chains.size(); ++c)
            class_order[c] = c;
        std::sort(class_order.begin(), class_order.end(),
                  [&chains](size_t a, size_t b) {
                      if (chains[a].buffer != chains[b].buffer)
                          return chains[a].buffer < chains[b].buffer;
                      return chains[a].aliasToken < chains[b].aliasToken;
                  });
        auto is_store = [&ops](int i) {
            return ops[static_cast<size_t>(i)].op == Opcode::Store;
        };
        for (size_t c : class_order) {
            const std::vector<int> &idxs = chains[c].allOps;
            for (size_t a = 0; a < idxs.size(); ++a) {
                for (size_t b = a + 1; b < idxs.size(); ++b) {
                    if (!is_store(idxs[a]) && !is_store(idxs[b]))
                        continue;
                    add(idxs[a], idxs[b], is_store(idxs[a]) ? 1 : 0, 0,
                        DepKind::Memory);
                }
            }
        }
        for (size_t r = 0; r < regs.size(); ++r) {
            for (int w : regs[r].writers) {
                for (int rd : regs[r].all_readers) {
                    if (rd <= w)
                        add(w, rd, op_lat[static_cast<size_t>(w)], 1,
                            DepKind::True);
                }
            }
        }
        for (size_t c : class_order) {
            const std::vector<int> &idxs = chains[c].allOps;
            for (int a : idxs) {
                for (int b : idxs) {
                    if (!is_store(a) && !is_store(b))
                        continue;
                    if (ops[static_cast<size_t>(a)].noCarriedAlias &&
                        ops[static_cast<size_t>(b)].noCarriedAlias)
                        continue;
                    add(a, b, is_store(a) ? 1 : 0, 1, DepKind::Memory);
                }
            }
        }
    }

    g.succ.resize(ops.size());
    g.pred.resize(ops.size());
    for (size_t e = 0; e < g.edges.size(); ++e) {
        g.succ[static_cast<size_t>(g.edges[e].from)].push_back(
            static_cast<int32_t>(e));
        g.pred[static_cast<size_t>(g.edges[e].to)].push_back(
            static_cast<int32_t>(e));
    }
    g.heights.assign(ops.size(), 1);
    for (int i = n - 1; i >= 0; --i) {
        for (int32_t e : g.succ[static_cast<size_t>(i)]) {
            const DepEdge &edge = g.edges[static_cast<size_t>(e)];
            if (edge.distance == 0)
                g.heights[static_cast<size_t>(i)] = std::max(
                    g.heights[static_cast<size_t>(i)],
                    edge.latency +
                        g.heights[static_cast<size_t>(edge.to)]);
        }
    }
    return g;
}

/** Every edge (fields and order), CSR row and height of the graph
 *  built from `ops` equals the reference construction's. */
::testing::AssertionResult
matchesReference(const std::vector<Operation> &ops,
                 const LatencyFn &latency, bool loop_carried)
{
    const ReferenceGraph ref = referenceGraph(ops, latency, loop_carried);
    const DependenceGraph g(ops, latency, loop_carried);
    if (g.edges().size() != ref.edges.size())
        return ::testing::AssertionFailure()
               << g.edges().size() << " edges, reference "
               << ref.edges.size();
    for (size_t e = 0; e < ref.edges.size(); ++e) {
        const DepEdge &a = g.edges()[e];
        const DepEdge &b = ref.edges[e];
        if (a.from != b.from || a.to != b.to || a.latency != b.latency ||
            a.distance != b.distance || a.kind != b.kind)
            return ::testing::AssertionFailure()
                   << "edge " << e << ": " << a.from << "->" << a.to
                   << " lat " << a.latency << " dist " << a.distance
                   << " kind " << static_cast<int>(a.kind)
                   << ", reference " << b.from << "->" << b.to << " lat "
                   << b.latency << " dist " << b.distance << " kind "
                   << static_cast<int>(b.kind);
    }
    auto same_row = [](EdgeIndexRange row,
                       const std::vector<int32_t> &want) {
        return std::equal(row.begin(), row.end(), want.begin(),
                          want.end());
    };
    for (size_t i = 0; i < ops.size(); ++i) {
        const int op = static_cast<int>(i);
        if (!same_row(g.succEdges(op), ref.succ[i]) ||
            !same_row(g.predEdges(op), ref.pred[i]))
            return ::testing::AssertionFailure()
                   << "CSR row of op " << i << " differs";
        if (g.height(op) != ref.heights[i])
            return ::testing::AssertionFailure()
                   << "height of op " << i << ": " << g.height(op)
                   << ", reference " << ref.heights[i];
    }
    return ::testing::AssertionSuccess();
}

/**
 * A random body with the cases randomBody() rarely draws made
 * common: ops that read one vreg twice (two sources, or a source and
 * the predicate), predicated writes, and adjacent writes of one vreg
 * under complementary predicates.
 */
std::vector<Operation>
extendedBody(Rng &rng, std::vector<Operation> ops)
{
    for (size_t i = 0; i < ops.size(); ++i) {
        Operation &o = ops[i];
        switch (rng.uniform(0, 4)) {
        case 0:
            if (o.src[0].isReg())
                o.src[1] = o.src[0];
            break;
        case 1:
            if (o.src[0].isReg()) {
                o.pred = o.src[0];
                o.predSense = rng.uniform(0, 1) == 1;
            }
            break;
        case 2:
            if (o.info().hasDst && i + 1 < ops.size() &&
                ops[i + 1].info().hasDst) {
                const Operand p = R(static_cast<Vreg>(rng.uniform(1, 4)));
                o.pred = p;
                o.predSense = true;
                ops[i + 1].dst = o.dst;
                ops[i + 1].pred = p;
                ops[i + 1].predSense = false;
            }
            break;
        default:
            break;
        }
    }
    return ops;
}

TEST(DepGraphBuild, MatchesReferenceOnRandomBodies)
{
    // The RecMII test's seed and generator, each body also extended.
    Rng rng(20260517);
    Rng extend(7);
    std::vector<int> lat;
    for (int body = 0; body < 1500; ++body) {
        const std::vector<Operation> ops = randomBody(rng, &lat);
        const std::vector<Operation> ext = extendedBody(extend, ops);
        for (bool carried : {false, true}) {
            ASSERT_TRUE(matchesReference(ops, latencyById(lat), carried))
                << "body " << body << " carried " << carried;
            ASSERT_TRUE(matchesReference(ext, latencyById(lat), carried))
                << "extended body " << body << " carried " << carried;
        }
    }
}

TEST(DepGraphBuild, MatchesReferenceOnEveryKernelBody)
{
    int bodies = 0;
    for (const char *model : {"I4C8S4", "I2C16S5"}) {
        for (const KernelSpec &k : allKernels()) {
            for (const VariantSpec &v : k.variants) {
                MachineModel machine(
                    variantConfig(v, models::byName(model)));
                Function fn = lowerVariant(k, v, machine);
                // Each block as the list scheduler sees it, and each
                // pipelined loop body with its materialized control.
                std::vector<std::vector<Operation>> graphs;
                std::vector<const LoopNode *> loops;
                forEachNode(fn.body, [&](const Node &n) {
                    if (n.kind() == NodeKind::Block)
                        graphs.push_back(
                            static_cast<const BlockNode &>(n).ops);
                    else if (n.kind() == NodeKind::Loop &&
                             swpEligibleLoop(
                                 static_cast<const LoopNode &>(n), v.mode))
                        loops.push_back(static_cast<const LoopNode *>(&n));
                });
                for (const LoopNode *loop : loops) {
                    std::vector<Operation> ops;
                    for (const auto &n : loop->body) {
                        const auto &b = static_cast<const BlockNode &>(*n);
                        ops.insert(ops.end(), b.ops.begin(), b.ops.end());
                    }
                    std::vector<Operation> ctrl = loopControlOps(fn, *loop);
                    ops.insert(ops.end(), ctrl.begin(), ctrl.end());
                    graphs.push_back(std::move(ops));
                }
                for (const std::vector<Operation> &ops : graphs) {
                    for (bool carried : {false, true}) {
                        ASSERT_TRUE(matchesReference(
                            ops, machine.latencyFn(), carried))
                            << model << " " << k.name << " / " << v.name
                            << " (" << ops.size() << " ops, carried "
                            << carried << ")";
                    }
                    ++bodies;
                }
            }
        }
    }
    EXPECT_GT(bodies, 100);
}

} // namespace
} // namespace vvsp
