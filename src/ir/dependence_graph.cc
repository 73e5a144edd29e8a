#include "ir/dependence_graph.hh"

#include <algorithm>
#include <sstream>
#include <tuple>
#include <unordered_map>

#include "support/logging.hh"

namespace vvsp
{

namespace
{

/** True when two writes can commit in the same cycle (complementary
 *  predicates guarantee only one retires). */
bool
complementaryPreds(const Operation &a, const Operation &b)
{
    return a.isPredicated() && b.isPredicated() &&
           a.pred == b.pred && a.predSense != b.predSense;
}

/** Memory-ordering chain state for one (buffer, aliasToken) class. */
struct MemChain
{
    int buffer = 0;
    int aliasToken = 0;
    int lastStore = -1;
    std::vector<int> readersSinceStore;
    std::vector<int> allOps; ///< for the carried all-pairs pass.
};

/** Calls fn(r) for every register an op reads: sources, then the
 *  predicate. An op that reads one vreg twice reports it twice. */
template <typename Fn>
void
forEachRead(const Operation &op, Fn &&fn)
{
    for (const auto &s : op.src) {
        if (s.isReg())
            fn(s.reg);
    }
    if (op.pred.isReg())
        fn(op.pred.reg);
}

} // anonymous namespace

DependenceGraph::DependenceGraph(const std::vector<Operation> &ops,
                                 const LatencyFn &latency,
                                 bool loop_carried)
    : num_ops_(ops.size())
{
    const int n = static_cast<int>(ops.size());
    opLatency_.resize(ops.size());
    for (int i = 0; i < n; ++i)
        opLatency_[static_cast<size_t>(i)] =
            latency(ops[static_cast<size_t>(i)]);

    Vreg max_reg = 0;
    for (const auto &op : ops) {
        if (op.info().hasDst)
            max_reg = std::max(max_reg, op.dst);
        forEachRead(op, [&](Vreg r) { max_reg = std::max(max_reg, r); });
    }
    const size_t num_regs = static_cast<size_t>(max_reg) + 1;

    // Every register's reads and writes as CSR rows of op indices in
    // program order (an op that reads a vreg twice appears twice):
    // count, prefix-sum, then fill with the offsets as cursors and
    // shift them back.
    std::vector<int32_t> read_off(num_regs + 1, 0);
    std::vector<int32_t> write_off(num_regs + 1, 0);
    for (const auto &op : ops) {
        forEachRead(op, [&](Vreg r) { read_off[r + 1]++; });
        if (op.info().hasDst)
            write_off[op.dst + 1]++;
    }
    for (size_t r = 0; r < num_regs; ++r) {
        read_off[r + 1] += read_off[r];
        write_off[r + 1] += write_off[r];
    }
    std::vector<int32_t> reads(static_cast<size_t>(read_off.back()));
    std::vector<int32_t> writes(static_cast<size_t>(write_off.back()));
    for (int i = 0; i < n; ++i) {
        const Operation &op = ops[static_cast<size_t>(i)];
        forEachRead(op, [&](Vreg r) {
            reads[static_cast<size_t>(read_off[r]++)] = i;
        });
        if (op.info().hasDst)
            writes[static_cast<size_t>(write_off[op.dst]++)] = i;
    }
    for (size_t r = num_regs; r > 0; --r) {
        read_off[r] = read_off[r - 1];
        write_off[r] = write_off[r - 1];
    }
    read_off[0] = 0;
    write_off[0] = 0;

    // Kill cursors: the live readers of r are its reads from
    // read_kill[r] on (those since its last unconditional write), its
    // live writers its writes from write_kill[r] on (that write and
    // the predicated ones after it). Walking processes ops in order,
    // so the live entries visible to op i are those before i in the
    // row (for readers: at or before i, as i reads before it writes).
    std::vector<int32_t> read_kill(read_off.begin(), read_off.end() - 1);
    std::vector<int32_t> write_kill(write_off.begin(),
                                    write_off.end() - 1);

    for (int i = 0; i < n; ++i) {
        const Operation &op = ops[static_cast<size_t>(i)];

        forEachRead(op, [&](Vreg r) {
            for (int32_t k = write_kill[r];
                 k < write_off[r + 1] && writes[static_cast<size_t>(k)] < i;
                 ++k) {
                const int w = writes[static_cast<size_t>(k)];
                addEdge(w, i, opLatency_[static_cast<size_t>(w)], 0,
                        DepKind::True);
            }
        });

        if (op.info().hasDst) {
            const Vreg r = op.dst;
            int32_t rk = read_kill[r];
            for (; rk < read_off[r + 1] &&
                   reads[static_cast<size_t>(rk)] <= i;
                 ++rk) {
                const int rd = reads[static_cast<size_t>(rk)];
                if (rd != i)
                    addEdge(rd, i, 0, 0, DepKind::Anti);
            }
            int32_t wk = write_kill[r];
            for (; writes[static_cast<size_t>(wk)] < i; ++wk) {
                const int w = writes[static_cast<size_t>(wk)];
                int lat = complementaryPreds(
                              ops[static_cast<size_t>(w)], op)
                              ? 0
                              : 1;
                addEdge(w, i, lat, 0, DepKind::Output);
            }
            // writes[wk] == i: an unconditional write kills every
            // earlier reader and writer.
            if (!op.isPredicated()) {
                write_kill[r] = wk;
                read_kill[r] = rk;
            }
        }
    }

    // Memory ordering per (buffer, aliasToken), chains discovered in
    // program order.
    std::vector<MemChain> chains;
    std::unordered_map<uint64_t, size_t> chain_of;
    for (int i = 0; i < n; ++i) {
        const Operation &op = ops[static_cast<size_t>(i)];
        if (!op.info().isMemory)
            continue;
        uint64_t key =
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

        // Chained edges: store -> store (lat 1), store -> later loads
        // (lat 1), loads-since-store -> store (lat 0). Transitivity
        // through the chain dominates the dropped all-pairs edges, so
        // heights and scheduler timing are unchanged. Only safe for
        // acyclic scheduling: the modulo scheduler's backtracking
        // bounds estart by *placed* predecessors only, where indirect
        // edges are not interchangeable with direct ones.
        if (loop_carried)
            continue;
        if (op.op == Opcode::Store) {
            for (int rd : chain.readersSinceStore)
                addEdge(rd, i, 0, 0, DepKind::Memory);
            if (chain.lastStore >= 0)
                addEdge(chain.lastStore, i, 1, 0, DepKind::Memory);
            chain.lastStore = i;
            chain.readersSinceStore.clear();
        } else {
            if (chain.lastStore >= 0)
                addEdge(chain.lastStore, i, 1, 0, DepKind::Memory);
            chain.readersSinceStore.push_back(i);
        }
    }

    if (loop_carried) {
        // The modulo scheduler needs every direct ordering edge;
        // iterate classes in (buffer, aliasToken) order so the edge
        // list is reproducible independently of discovery order.
        std::vector<size_t> class_order(chains.size());
        for (size_t c = 0; c < chains.size(); ++c)
            class_order[c] = c;
        std::sort(class_order.begin(), class_order.end(),
                  [&chains](size_t a, size_t b) {
                      if (chains[a].buffer != chains[b].buffer)
                          return chains[a].buffer < chains[b].buffer;
                      return chains[a].aliasToken <
                             chains[b].aliasToken;
                  });
        for (size_t c : class_order) {
            const std::vector<int> &idxs = chains[c].allOps;
            for (size_t a = 0; a < idxs.size(); ++a) {
                for (size_t b = a + 1; b < idxs.size(); ++b) {
                    const Operation &oa =
                        ops[static_cast<size_t>(idxs[a])];
                    const Operation &ob =
                        ops[static_cast<size_t>(idxs[b])];
                    bool a_store = oa.op == Opcode::Store;
                    bool b_store = ob.op == Opcode::Store;
                    if (!a_store && !b_store)
                        continue; // load-load: no ordering needed.
                    int lat = a_store && !b_store ? 1 : (a_store ? 1 : 0);
                    addEdge(idxs[a], idxs[b], lat, 0, DepKind::Memory);
                }
            }
        }

        // Register values live around the back edge: a reader at or
        // before a final writer consumes the previous iteration's
        // value. Reads are in program order, so each writer's scan
        // stops at the first later reader.
        for (size_t r = 0; r < num_regs; ++r) {
            for (int32_t k = write_kill[r]; k < write_off[r + 1]; ++k) {
                const int w = writes[static_cast<size_t>(k)];
                for (int32_t j = read_off[r];
                     j < read_off[r + 1] &&
                     reads[static_cast<size_t>(j)] <= w;
                     ++j) {
                    addEdge(w, reads[static_cast<size_t>(j)],
                            opLatency_[static_cast<size_t>(w)], 1,
                            DepKind::True);
                }
            }
        }
        // Conservative carried memory dependences, unless both ends
        // are declared streaming.
        for (size_t c : class_order) {
            const std::vector<int> &idxs = chains[c].allOps;
            for (int a : idxs) {
                for (int b : idxs) {
                    const Operation &oa =
                        ops[static_cast<size_t>(a)];
                    const Operation &ob =
                        ops[static_cast<size_t>(b)];
                    bool a_store = oa.op == Opcode::Store;
                    bool b_store = ob.op == Opcode::Store;
                    if (!a_store && !b_store)
                        continue;
                    if (oa.noCarriedAlias && ob.noCarriedAlias)
                        continue;
                    addEdge(a, b, a_store ? 1 : 0, 1, DepKind::Memory);
                }
            }
        }
    }

    dedupEdges();
    buildCsr();
    computeHeights();
}

void
DependenceGraph::addEdge(int from, int to, int latency, int distance,
                         DepKind kind)
{
    vvsp_assert(distance > 0 || from < to || (from == to && distance > 0),
                "distance-0 edge must run forward (%d -> %d)", from, to);
    edges_.push_back(DepEdge{from, to, latency, distance, kind});
}

void
DependenceGraph::dedupEdges()
{
    // Positions sorted by edge identity (from, to, distance, kind),
    // ascending within an identity, so each run starts at the
    // identity's first position. That edge stays there with the
    // largest latency of its run (every producer of an identity
    // supplies the same latency today); the rest are dropped.
    auto identity = [this](int32_t e) {
        const DepEdge &d = edges_[static_cast<size_t>(e)];
        return std::tie(d.from, d.to, d.distance, d.kind);
    };
    std::vector<int32_t> order(edges_.size());
    for (size_t e = 0; e < order.size(); ++e)
        order[e] = static_cast<int32_t>(e);
    std::sort(order.begin(), order.end(), [&](int32_t a, int32_t b) {
        const auto ka = identity(a);
        const auto kb = identity(b);
        return ka != kb ? ka < kb : a < b;
    });
    bool dropped = false;
    for (size_t k = 0; k < order.size();) {
        DepEdge &kept = edges_[static_cast<size_t>(order[k])];
        size_t j = k + 1;
        for (; j < order.size() && identity(order[j]) == identity(order[k]);
             ++j) {
            DepEdge &dup = edges_[static_cast<size_t>(order[j])];
            kept.latency = std::max(kept.latency, dup.latency);
            dup.from = -1; // marks the duplicate for removal.
            dropped = true;
        }
        k = j;
    }
    if (dropped) {
        edges_.erase(std::remove_if(edges_.begin(), edges_.end(),
                                    [](const DepEdge &e) {
                                        return e.from < 0;
                                    }),
                     edges_.end());
    }
}

void
DependenceGraph::buildCsr()
{
    const size_t n = num_ops_;
    const size_t num_edges = edges_.size();
    succOff_.assign(n + 1, 0);
    predOff_.assign(n + 1, 0);
    for (const DepEdge &e : edges_) {
        succOff_[static_cast<size_t>(e.from) + 1]++;
        predOff_[static_cast<size_t>(e.to) + 1]++;
    }
    for (size_t i = 0; i < n; ++i) {
        succOff_[i + 1] += succOff_[i];
        predOff_[i + 1] += predOff_[i];
    }
    succCsr_.resize(num_edges);
    predCsr_.resize(num_edges);
    // Fill cursors start at each row's offset; iterating edges in
    // index order reproduces the per-op push_back order of the old
    // vector-of-vectors adjacency exactly.
    std::vector<int32_t> succ_cur(succOff_.begin(),
                                  succOff_.end() - 1);
    std::vector<int32_t> pred_cur(predOff_.begin(),
                                  predOff_.end() - 1);
    for (size_t e = 0; e < num_edges; ++e) {
        const DepEdge &edge = edges_[e];
        succCsr_[static_cast<size_t>(
            succ_cur[static_cast<size_t>(edge.from)]++)] =
            static_cast<int32_t>(e);
        predCsr_[static_cast<size_t>(
            pred_cur[static_cast<size_t>(edge.to)]++)] =
            static_cast<int32_t>(e);
    }
}

EdgeIndexRange
DependenceGraph::predEdges(int op) const
{
    const int32_t *base = predCsr_.data();
    return {base + predOff_[static_cast<size_t>(op)],
            base + predOff_[static_cast<size_t>(op) + 1]};
}

EdgeIndexRange
DependenceGraph::succEdges(int op) const
{
    const int32_t *base = succCsr_.data();
    return {base + succOff_[static_cast<size_t>(op)],
            base + succOff_[static_cast<size_t>(op) + 1]};
}

void
DependenceGraph::computeHeights()
{
    // Distance-0 edges always run forward in index order, so reverse
    // index order is a reverse topological order.
    heights_.assign(num_ops_, 1);
    for (int i = static_cast<int>(num_ops_) - 1; i >= 0; --i) {
        for (int e : succEdges(i)) {
            const DepEdge &edge = edges_[static_cast<size_t>(e)];
            if (edge.distance != 0)
                continue;
            heights_[static_cast<size_t>(i)] = std::max(
                heights_[static_cast<size_t>(i)],
                edge.latency + heights_[static_cast<size_t>(edge.to)]);
        }
    }
}

int
DependenceGraph::height(int op) const
{
    return heights_[static_cast<size_t>(op)];
}

int
DependenceGraph::criticalPathLength() const
{
    int best = 0;
    for (int h : heights_)
        best = std::max(best, h);
    return best;
}

namespace
{

/**
 * Strongly connected components of the graph (Tarjan's algorithm,
 * iterative so a large loop body cannot overflow the call stack).
 * Returns each op's component id and stores the count in `*count`.
 */
std::vector<int32_t>
componentIds(const DependenceGraph &g, int32_t *count)
{
    const size_t n = g.numOps();
    std::vector<int32_t> comp(n, -1);
    std::vector<int32_t> index(n, -1);
    std::vector<int32_t> low(n, 0);
    std::vector<int32_t> stack;
    // Depth-first frames: (op, next position in its successor row).
    std::vector<std::pair<int32_t, uint32_t>> frames;
    int32_t next_index = 0;
    *count = 0;
    auto visit = [&](int32_t v) {
        index[static_cast<size_t>(v)] = next_index;
        low[static_cast<size_t>(v)] = next_index;
        ++next_index;
        stack.push_back(v);
        frames.emplace_back(v, 0u);
    };
    for (int32_t root = 0; root < static_cast<int32_t>(n); ++root) {
        if (index[static_cast<size_t>(root)] >= 0)
            continue;
        visit(root);
        while (!frames.empty()) {
            const int32_t v = frames.back().first;
            const EdgeIndexRange succ = g.succEdges(v);
            const uint32_t pos = frames.back().second;
            if (pos < succ.size()) {
                frames.back().second = pos + 1;
                const int32_t w =
                    g.edges()[static_cast<size_t>(succ.begin()[pos])].to;
                if (index[static_cast<size_t>(w)] < 0)
                    visit(w);
                else if (comp[static_cast<size_t>(w)] < 0) // on stack.
                    low[static_cast<size_t>(v)] =
                        std::min(low[static_cast<size_t>(v)],
                                 index[static_cast<size_t>(w)]);
                continue;
            }
            frames.pop_back();
            if (!frames.empty()) {
                const size_t u =
                    static_cast<size_t>(frames.back().first);
                low[u] = std::min(low[u], low[static_cast<size_t>(v)]);
            }
            if (low[static_cast<size_t>(v)] ==
                index[static_cast<size_t>(v)]) {
                int32_t w = -1;
                do {
                    w = stack.back();
                    stack.pop_back();
                    comp[static_cast<size_t>(w)] = *count;
                } while (w != v);
                ++*count;
            }
        }
    }
    return comp;
}

/**
 * The edges that can lie on a dependence cycle - those inside one
 * strongly connected component - grouped by component, each group in
 * op-index order of the edges' sources.
 */
struct CycleEdges
{
    struct Edge
    {
        int32_t from;
        int32_t to;
        int32_t latency;
        int32_t distance;
    };
    struct Component
    {
        int32_t begin; ///< first edge in `edges`.
        int32_t end;
        /** Relaxation passes after which a still-changing component
         *  must hold a positive cycle. */
        int32_t passes;
    };
    std::vector<Edge> edges;
    std::vector<Component> components; ///< those with any edge.
    int maxCarriedLatency = 0;
};

CycleEdges
cycleEdges(const DependenceGraph &g)
{
    int32_t count = 0;
    const std::vector<int32_t> comp = componentIds(g, &count);
    const size_t n = g.numOps();
    std::vector<int32_t> size(static_cast<size_t>(count), 0);
    std::vector<int32_t> offset(static_cast<size_t>(count) + 1, 0);
    for (size_t i = 0; i < n; ++i)
        size[static_cast<size_t>(comp[i])]++;
    for (const DepEdge &e : g.edges()) {
        const int32_t c = comp[static_cast<size_t>(e.from)];
        if (c == comp[static_cast<size_t>(e.to)])
            offset[static_cast<size_t>(c) + 1]++;
    }
    for (size_t c = 0; c < static_cast<size_t>(count); ++c)
        offset[c + 1] += offset[c];

    CycleEdges out;
    out.edges.resize(static_cast<size_t>(offset.back()));
    std::vector<int32_t> cursor(offset.begin(), offset.end() - 1);
    std::vector<int32_t> backward(static_cast<size_t>(count), 0);
    for (int32_t i = 0; i < static_cast<int32_t>(n); ++i) {
        const int32_t c = comp[static_cast<size_t>(i)];
        for (int e : g.succEdges(i)) {
            const DepEdge &edge = g.edges()[static_cast<size_t>(e)];
            if (comp[static_cast<size_t>(edge.to)] != c)
                continue;
            out.edges[static_cast<size_t>(
                cursor[static_cast<size_t>(c)]++)] =
                CycleEdges::Edge{edge.from, edge.to, edge.latency,
                                 edge.distance};
            if (edge.from > edge.to)
                backward[static_cast<size_t>(c)]++;
            if (edge.distance > 0)
                out.maxCarriedLatency =
                    std::max(out.maxCarriedLatency, edge.latency);
        }
    }
    for (size_t c = 0; c < static_cast<size_t>(count); ++c) {
        if (offset[c] == offset[c + 1])
            continue;
        // Relaxing in source-op order carries a value along any run
        // of forward (from < to) edges within one pass; only a
        // backward edge defers it to the next pass. Without a
        // positive cycle the longest paths are simple, and a simple
        // path crosses at most min(backward edges, size - 1)
        // backward edges, so the values settle within that many
        // passes plus one, and the pass after that changes nothing.
        out.components.push_back(CycleEdges::Component{
            offset[c], offset[c + 1],
            std::min(backward[c], size[c] - 1) + 2});
    }
    return out;
}

/** True when no cycle has positive (latency - ii * distance) weight:
 *  longest-path relaxation from an all-zero start per component. */
bool
cyclesFeasible(const CycleEdges &cycles, int ii, std::vector<int> &dist)
{
    std::fill(dist.begin(), dist.end(), 0);
    for (const CycleEdges::Component &c : cycles.components) {
        for (int32_t pass = 0;; ++pass) {
            if (pass == c.passes)
                return false; // still changing: a positive cycle.
            bool changed = false;
            for (int32_t k = c.begin; k < c.end; ++k) {
                const CycleEdges::Edge &e =
                    cycles.edges[static_cast<size_t>(k)];
                const int cand = dist[static_cast<size_t>(e.from)] +
                                 e.latency - ii * e.distance;
                if (cand > dist[static_cast<size_t>(e.to)]) {
                    dist[static_cast<size_t>(e.to)] = cand;
                    changed = true;
                }
            }
            if (!changed)
                break;
        }
    }
    return true;
}

} // anonymous namespace

int
DependenceGraph::recurrenceMii() const
{
    // Every cycle lies inside one strongly connected component, so
    // the other edges cannot make an II infeasible.
    const CycleEdges cycles = cycleEdges(*this);
    if (cycles.components.empty())
        return 1;
    std::vector<int> dist(num_ops_, 0);
    auto feasible = [&](int ii) {
        return cyclesFeasible(cycles, ii, dist);
    };

    // Every cycle carries distance >= 1 (distance-0 edges run
    // forward), so its weight latSum - II*distSum strictly decreases
    // with II: feasibility is monotone and the smallest feasible II
    // can be binary searched.
    if (feasible(1))
        return 1;
    // A cycle crossing k >= 1 carried edges joins them with k
    // distance-0 paths, each of latency at most
    // criticalPathLength() - 1, so its weight is at most
    // k * (criticalPathLength() - 1 + maxCarriedLatency - II) < 0
    // here: `hi` is feasible. Invariant: lo infeasible, hi feasible.
    int lo = 1;
    int hi = criticalPathLength() + cycles.maxCarriedLatency;
    while (hi - lo > 1) {
        int mid = lo + (hi - lo) / 2;
        if (feasible(mid))
            hi = mid;
        else
            lo = mid;
    }
    return hi;
}

std::string
DependenceGraph::str() const
{
    std::ostringstream os;
    static const char *names[] = {"true", "anti", "out", "mem"};
    for (const auto &e : edges_) {
        os << e.from << " -> " << e.to << " ["
           << names[static_cast<size_t>(e.kind)] << " lat=" << e.latency
           << " dist=" << e.distance << "]\n";
    }
    return os.str();
}

} // namespace vvsp
