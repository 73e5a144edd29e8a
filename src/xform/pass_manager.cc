#include "xform/passes.hh"

#include "support/logging.hh"

namespace vvsp
{
namespace passes
{

void
forEachBlock(Function &fn, const std::function<void(BlockNode &)> &f)
{
    forEachNode(fn.body, [&f](Node &n) {
        if (n.kind() == NodeKind::Block)
            f(static_cast<BlockNode &>(n));
    });
}

std::vector<uint32_t>
useCounts(const Function &fn)
{
    std::vector<uint32_t> counts(fn.numVregs(), 0);
    auto count = [&counts](const Operand &o) {
        if (o.isReg() && o.reg < counts.size())
            counts[o.reg]++;
    };
    forEachNode(fn.body, [&](const Node &n) {
        switch (n.kind()) {
          case NodeKind::Block:
            for (const auto &op : static_cast<const BlockNode &>(n).ops) {
                for (const auto &s : op.src)
                    count(s);
                count(op.pred);
            }
            break;
          case NodeKind::If:
            count(static_cast<const IfNode &>(n).cond);
            break;
          case NodeKind::Loop: {
            const auto &loop = static_cast<const LoopNode &>(n);
            count(loop.ivInit);
            if (loop.boundVreg != kNoVreg)
                count(Operand::ofReg(loop.boundVreg));
            break;
          }
        }
    });
    return counts;
}

namespace
{

LoopNode *
findLoopIn(NodeList &list, const std::string &label)
{
    for (auto &n : list) {
        if (n->kind() == NodeKind::Loop) {
            auto &loop = static_cast<LoopNode &>(*n);
            if (loop.label == label)
                return &loop;
            if (LoopNode *inner = findLoopIn(loop.body, label))
                return inner;
        } else if (n->kind() == NodeKind::If) {
            auto &iff = static_cast<IfNode &>(*n);
            if (LoopNode *inner = findLoopIn(iff.thenBody, label))
                return inner;
            if (LoopNode *inner = findLoopIn(iff.elseBody, label))
                return inner;
        }
    }
    return nullptr;
}

} // anonymous namespace

LoopNode *
findLoop(Function &fn, const std::string &label)
{
    return findLoopIn(fn.body, label);
}

void
cleanup(Function &fn)
{
    // Each pass is a function of the IR alone, so once a round
    // changes nothing every later round would change nothing either.
    // Most kernel-sized functions settle within a round or two; the
    // few that still change in the fourth stop there.
    for (int round = 0; round < 4; ++round) {
        bool changed = constFold(fn);
        changed = localCse(fn) || changed;
        changed = deadCodeElim(fn) || changed;
        if (!changed)
            return;
    }
}

} // namespace passes
} // namespace vvsp
