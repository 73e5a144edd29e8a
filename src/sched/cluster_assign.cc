#include "sched/cluster_assign.hh"

#include <algorithm>
#include <map>

#include "support/logging.hh"
#include "xform/passes.hh"

namespace vvsp
{

std::set<Vreg>
inductionVars(const Function &fn)
{
    std::set<Vreg> ivs;
    forEachNode(const_cast<Function &>(fn).body, [&ivs](Node &n) {
        if (n.kind() == NodeKind::Loop) {
            const auto &loop = static_cast<const LoopNode &>(n);
            if (loop.inductionVar != kNoVreg)
                ivs.insert(loop.inductionVar);
        }
    });
    return ivs;
}

namespace
{

/** Union-find over operation ids. */
class UnionFind
{
  public:
    int
    find(int x)
    {
        auto it = parent_.find(x);
        if (it == parent_.end() || it->second == x)
            return x;
        int root = find(it->second);
        parent_[x] = root;
        return root;
    }

    void
    unite(int a, int b)
    {
        int ra = find(a), rb = find(b);
        if (ra != rb)
            parent_[ra] = rb;
    }

  private:
    std::map<int, int> parent_;
};

} // anonymous namespace

void
autoPartition(Function &fn, const LoweringTarget &target)
{
    const int clusters = target.partitionClusters;
    vvsp_assert(clusters >= 1, "cannot partition onto %d clusters",
                clusters);
    auto ivs = inductionVars(fn);
    auto uses = passes::useCounts(fn);

    // Group operations into dependence trees: union a consumer with
    // the producer of each privately-used register operand. Memory
    // operations stay pinned to their buffer's cluster, and widely
    // shared values (loop bases, broadcast pixels) do not glue their
    // consumers together - they are transferred instead. This is the
    // classic bottom-up-greedy style clustering.
    std::map<Vreg, Operation *> def_of;
    std::vector<Operation *> order;
    passes::forEachBlock(fn, [&](BlockNode &block) {
        for (auto &op : block.ops) {
            order.push_back(&op);
            if (op.info().hasDst && op.dst != kNoVreg)
                def_of[op.dst] = &op;
        }
    });

    // Buffers that are only ever read can be replicated per cluster
    // after partitioning, so their loads join their consumers' trees
    // instead of pinning to the buffer's home cluster.
    std::set<int> stored;
    passes::forEachBlock(fn, [&stored](BlockNode &block) {
        for (const auto &op : block.ops) {
            if (op.op == Opcode::Store)
                stored.insert(op.buffer);
        }
    });
    auto pinned = [&stored](const Operation &op) {
        if (!op.info().isMemory)
            return false;
        return op.op == Opcode::Store || stored.count(op.buffer) > 0;
    };

    UnionFind forest;
    for (Operation *op : order) {
        if (pinned(*op) || op->info().isBranch)
            continue;
        for (const auto &s : op->src) {
            if (!s.isReg() || ivs.count(s.reg))
                continue;
            if (s.reg < uses.size() && uses[s.reg] > 3)
                continue; // shared input: transfer, don't glue.
            auto it = def_of.find(s.reg);
            if (it == def_of.end() || pinned(*it->second))
                continue;
            forest.unite(op->id, it->second->id);
        }
    }

    // Component sizes, largest first, bin-packed onto the least
    // loaded cluster. Memory traffic pre-loads the buffers' homes.
    std::map<int, std::vector<Operation *>> components;
    std::vector<long> load(static_cast<size_t>(clusters), 0);
    for (Operation *op : order) {
        if (pinned(*op)) {
            int c = fn.buffer(op->buffer).cluster;
            vvsp_assert(c < clusters,
                        "buffer '%s' on cluster %d outside the "
                        "partition",
                        fn.buffer(op->buffer).name.c_str(), c);
            op->cluster = c;
            load[static_cast<size_t>(c)]++;
        } else if (op->info().isBranch) {
            op->cluster = 0; // control issues from the sequencer.
        } else {
            components[forest.find(op->id)].push_back(op);
        }
    }

    std::vector<std::vector<Operation *> *> by_size;
    by_size.reserve(components.size());
    for (auto &[root, ops] : components)
        by_size.push_back(&ops);
    std::sort(by_size.begin(), by_size.end(),
              [](const auto *a, const auto *b) {
                  return a->size() > b->size();
              });
    for (auto *ops : by_size) {
        int best = 0;
        for (int c = 1; c < clusters; ++c) {
            if (load[static_cast<size_t>(c)] <
                load[static_cast<size_t>(best)]) {
                best = c;
            }
        }
        for (Operation *op : *ops)
            op->cluster = best;
        load[static_cast<size_t>(best)] +=
            static_cast<long>(ops->size());
    }
}

void
replicateReadOnlyBuffers(Function &fn)
{
    std::set<int> stored;
    std::map<std::pair<int, int>, std::vector<Operation *>> loads;
    passes::forEachBlock(fn, [&](BlockNode &block) {
        for (auto &op : block.ops) {
            if (op.op == Opcode::Store)
                stored.insert(op.buffer);
            else if (op.op == Opcode::Load)
                loads[{op.buffer, op.cluster}].push_back(&op);
        }
    });

    std::map<std::pair<int, int>, int> clone_of;
    for (auto &[key, ops] : loads) {
        auto [buffer, cluster] = key;
        if (stored.count(buffer))
            continue;
        if (fn.buffer(buffer).cluster == cluster)
            continue;
        auto it = clone_of.find(key);
        if (it == clone_of.end()) {
            MemBuffer clone = fn.buffer(buffer);
            clone.id = static_cast<int>(fn.buffers.size());
            clone.cluster = cluster;
            fn.buffers.push_back(clone);
            it = clone_of.emplace(key, clone.id).first;
        }
        for (Operation *op : ops)
            op->buffer = it->second;
    }
}

void
insertTransfers(Function &fn)
{
    std::map<Vreg, int> home; // most recent definition's cluster.
    auto ivs = inductionVars(fn);

    passes::forEachBlock(fn, [&](BlockNode &block) {
        // (source vreg, target cluster) -> transferred copy.
        std::map<std::pair<Vreg, int>, Vreg> arrived;
        std::vector<Operation> out;
        out.reserve(block.ops.size());

        auto ensure_local = [&](Operand &o, int target) {
            if (!o.isReg() || ivs.count(o.reg))
                return;
            auto it = home.find(o.reg);
            int src_cluster = it == home.end() ? target : it->second;
            if (src_cluster == target)
                return;
            auto key = std::make_pair(o.reg, target);
            auto hit = arrived.find(key);
            if (hit == arrived.end()) {
                Operation x;
                x.op = Opcode::Xfer;
                x.dst = fn.newVreg();
                x.src = {o, Operand::none(), Operand::none()};
                x.cluster = src_cluster;
                x.dstCluster = target;
                x.id = fn.newOpId();
                out.push_back(x);
                hit = arrived.emplace(key, x.dst).first;
            }
            o = Operand::ofReg(hit->second);
        };

        for (auto op : block.ops) {
            for (auto &s : op.src)
                ensure_local(s, op.cluster);
            ensure_local(op.pred, op.cluster);
            out.push_back(op);
            if (op.info().hasDst && op.dst != kNoVreg) {
                home[op.dst] = op.op == Opcode::Xfer ? op.dstCluster
                                                     : op.cluster;
                // A redefinition invalidates stale copies elsewhere.
                for (auto it = arrived.begin(); it != arrived.end();) {
                    if (it->first.first == op.dst)
                        it = arrived.erase(it);
                    else
                        ++it;
                }
            }
        }
        block.ops = std::move(out);
    });
}

void
validateClusterAssignment(const Function &fn, const MachineModel &machine)
{
    forEachNode(const_cast<Function &>(fn).body, [&](Node &n) {
        if (n.kind() != NodeKind::Block)
            return;
        for (const auto &op : static_cast<const BlockNode &>(n).ops) {
            vvsp_assert(op.cluster >= 0 &&
                            op.cluster < machine.clusters(),
                        "op '%s' on cluster %d of %d", op.str().c_str(),
                        op.cluster, machine.clusters());
            if (op.info().isMemory) {
                int want = fn.buffer(op.buffer).cluster;
                vvsp_assert(op.cluster == want,
                            "memory op '%s' on cluster %d but buffer "
                            "'%s' lives on cluster %d",
                            op.str().c_str(), op.cluster,
                            fn.buffer(op.buffer).name.c_str(), want);
            }
        }
    });
}

} // namespace vvsp
