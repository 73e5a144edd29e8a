/**
 * @file
 * Dead-code elimination: removes pure operations whose results are
 * never read, empty blocks, and empty control structures.
 *
 * Use counts are computed once and maintained incrementally as ops
 * and control nodes are removed (each removal decrements the counts
 * of the registers it read). The transitively-dead set is a unique
 * fixed point, so this converges to exactly the IR the historical
 * recount-every-round loop produced, without the O(rounds x
 * function) recounting that dominated cleanup on unrolled kernels.
 */

#include "xform/passes.hh"

namespace vvsp
{
namespace passes
{

namespace
{

bool
hasSideEffects(const Operation &op)
{
    return op.op == Opcode::Store || op.info().isBranch;
}

void
releaseUse(std::vector<uint32_t> &counts, const Operand &o)
{
    if (o.isReg() && o.reg < counts.size() && counts[o.reg] > 0)
        counts[o.reg]--;
}

bool
removeDeadOps(Function &fn, std::vector<uint32_t> &counts)
{
    bool changed = false;
    forEachBlock(fn, [&](BlockNode &block) {
        auto keep = [&](const Operation &op) {
            if (op.op == Opcode::Nop)
                return false;
            if (hasSideEffects(op))
                return true;
            if (!op.info().hasDst)
                return true;
            return op.dst < counts.size() && counts[op.dst] > 0;
        };
        size_t before = block.ops.size();
        std::vector<Operation> kept;
        kept.reserve(block.ops.size());
        for (auto &op : block.ops) {
            if (keep(op)) {
                kept.push_back(op);
            } else {
                for (const auto &s : op.src)
                    releaseUse(counts, s);
                releaseUse(counts, op.pred);
            }
        }
        if (kept.size() != before) {
            block.ops = std::move(kept);
            changed = true;
        }
    });
    return changed;
}

bool
pruneEmptyNodes(NodeList &list, std::vector<uint32_t> &counts)
{
    bool changed = false;
    for (size_t i = 0; i < list.size();) {
        Node &n = *list[i];
        bool erase = false;
        switch (n.kind()) {
          case NodeKind::Block:
            erase = static_cast<BlockNode &>(n).ops.empty();
            break;
          case NodeKind::Loop: {
            auto &loop = static_cast<LoopNode &>(n);
            changed |= pruneEmptyNodes(loop.body, counts);
            erase = loop.body.empty();
            if (erase) {
                releaseUse(counts, loop.ivInit);
                if (loop.boundVreg != kNoVreg)
                    releaseUse(counts, Operand::ofReg(loop.boundVreg));
            }
            break;
          }
          case NodeKind::If: {
            auto &iff = static_cast<IfNode &>(n);
            changed |= pruneEmptyNodes(iff.thenBody, counts);
            changed |= pruneEmptyNodes(iff.elseBody, counts);
            erase = iff.thenBody.empty() && iff.elseBody.empty();
            if (erase)
                releaseUse(counts, iff.cond);
            break;
          }
        }
        if (erase) {
            list.erase(list.begin() + static_cast<long>(i));
            changed = true;
        } else {
            ++i;
        }
    }
    return changed;
}

} // anonymous namespace

bool
deadCodeElim(Function &fn)
{
    // Removing an op can make its producers dead; iterate on the
    // incrementally-maintained counts until nothing changes.
    std::vector<uint32_t> counts = useCounts(fn);
    bool changed = false;
    while (removeDeadOps(fn, counts) ||
           pruneEmptyNodes(fn.body, counts)) {
        changed = true;
    }
    return changed;
}

} // namespace passes
} // namespace vvsp
