/**
 * @file
 * Loop unrolling.
 *
 * Full unrolling substitutes the induction variable with literals,
 * eliminating "many branch operations and some loop-index and address
 * arithmetic" (Sec. 3.3). Partial unrolling widens the step and
 * materializes per-copy induction offsets.
 *
 * Register renaming: definitions in all but the last copy get fresh
 * virtual registers and a running substitution map carries values
 * into later copies; the last copy writes the original registers so
 * that code after the loop (accumulators) sees the expected names.
 * Definitions inside residual If arms are never renamed (both arms
 * write the same register; sequential copy order keeps semantics).
 */

#include <map>

#include "support/logging.hh"
#include "xform/passes.hh"

namespace vvsp
{
namespace passes
{

namespace
{

using Subst = std::map<Vreg, Operand>;

void
applySubst(Operand &o, const Subst &map)
{
    if (!o.isReg())
        return;
    auto it = map.find(o.reg);
    if (it != map.end())
        o = it->second;
}

class Copier
{
  public:
    Copier(Function &fn, bool rename_defs)
        : fn_(fn), rename_(rename_defs)
    {
    }

    NodeList
    copyList(const NodeList &list, Subst &map, bool in_if_arm)
    {
        NodeList out;
        out.reserve(list.size());
        for (const auto &n : list)
            out.push_back(copyNode(*n, map, in_if_arm));
        return out;
    }

  private:
    NodePtr
    copyNode(const Node &n, Subst &map, bool in_if_arm)
    {
        switch (n.kind()) {
          case NodeKind::Block: {
            const auto &block = static_cast<const BlockNode &>(n);
            auto nb = std::make_unique<BlockNode>();
            nb->id = fn_.newNodeId();
            nb->label = block.label;
            nb->ops.reserve(block.ops.size());
            for (const auto &op : block.ops) {
                Operation c = op;
                c.id = fn_.newOpId();
                for (auto &s : c.src)
                    applySubst(s, map);
                applySubst(c.pred, map);
                if (c.info().hasDst && c.dst != kNoVreg) {
                    // Predicated defs must keep their register: a
                    // nullified write leaves the previous value
                    // visible, which renaming would lose.
                    if (rename_ && !in_if_arm && !c.isPredicated()) {
                        Vreg fresh = fn_.newVreg();
                        map[c.dst] = Operand::ofReg(fresh);
                        c.dst = fresh;
                    } else {
                        map.erase(c.dst);
                    }
                }
                nb->ops.push_back(c);
            }
            return nb;
          }
          case NodeKind::Loop: {
            const auto &loop = static_cast<const LoopNode &>(n);
            auto nl = std::make_unique<LoopNode>();
            nl->id = fn_.newNodeId();
            nl->label = loop.label;
            nl->tripCount = loop.tripCount;
            nl->step = loop.step;
            nl->ivInit = loop.ivInit;
            applySubst(nl->ivInit, map);
            if (loop.boundVreg != kNoVreg) {
                Operand b = Operand::ofReg(loop.boundVreg);
                applySubst(b, map);
                vvsp_assert(b.isReg(),
                            "loop bound of '%s' folded to a literal "
                            "during unrolling",
                            loop.label.c_str());
                nl->boundVreg = b.reg;
            }
            if (loop.inductionVar != kNoVreg) {
                if (rename_ && !in_if_arm) {
                    Vreg fresh = fn_.newVreg();
                    map[loop.inductionVar] = Operand::ofReg(fresh);
                    nl->inductionVar = fresh;
                } else {
                    map.erase(loop.inductionVar);
                    nl->inductionVar = loop.inductionVar;
                }
            }
            // Definitions inside a nested loop are loop-carried
            // within the copy; renaming them per copy would detach
            // iteration k+1's read from iteration k's write. They
            // keep their registers (like If-arm and predicated defs).
            nl->body = copyList(loop.body, map, /*in_if_arm=*/true);
            return nl;
          }
          case NodeKind::If: {
            const auto &iff = static_cast<const IfNode &>(n);
            auto ni = std::make_unique<IfNode>();
            ni->id = fn_.newNodeId();
            ni->label = iff.label;
            ni->cond = iff.cond;
            applySubst(ni->cond, map);
            ni->sense = iff.sense;
            ni->thenBody = copyList(iff.thenBody, map, true);
            ni->elseBody = copyList(iff.elseBody, map, true);
            return ni;
          }
        }
        vvsp_panic("unknown node kind");
    }

    Function &fn_;
    bool rename_;
};

/** Find the list owning `target` and its index; panic if absent. */
std::pair<NodeList *, size_t>
findParent(NodeList &list, const LoopNode &target)
{
    for (size_t i = 0; i < list.size(); ++i) {
        Node &n = *list[i];
        if (&n == &target)
            return {&list, i};
        if (n.kind() == NodeKind::Loop) {
            auto r = findParent(static_cast<LoopNode &>(n).body, target);
            if (r.first)
                return r;
        } else if (n.kind() == NodeKind::If) {
            auto &iff = static_cast<IfNode &>(n);
            auto r = findParent(iff.thenBody, target);
            if (r.first)
                return r;
            r = findParent(iff.elseBody, target);
            if (r.first)
                return r;
        }
    }
    return {nullptr, 0};
}

} // anonymous namespace

void
unrollLoop(Function &fn, LoopNode &loop, long factor)
{
    vvsp_assert(loop.tripCount > 0, "cannot unroll empty loop '%s'",
                loop.label.c_str());
    long trip = loop.tripCount;
    bool full = factor <= 0 || factor >= trip;
    if (!full) {
        vvsp_assert(trip % factor == 0,
                    "trip %ld of '%s' not divisible by factor %ld",
                    trip, loop.label.c_str(), factor);
    }
    long copies = full ? trip : factor;

    auto [parent, idx] = findParent(fn.body, loop);
    vvsp_assert(parent != nullptr, "loop '%s' not found in function",
                loop.label.c_str());

    NodeList expansion;
    Subst map;
    for (long k = 0; k < copies; ++k) {
        bool last = k == copies - 1;
        Copier copier(fn, /*rename_defs=*/!last);
        if (loop.inductionVar != kNoVreg) {
            if (full && loop.ivInit.isImm()) {
                map[loop.inductionVar] = Operand::ofImm(
                    static_cast<int32_t>(loop.ivInit.imm +
                                         k * loop.step));
            } else if (k == 0) {
                // First copy reads the initial value directly; for a
                // partial unroll the loop's own variable survives.
                if (full)
                    map[loop.inductionVar] = loop.ivInit;
                else
                    map.erase(loop.inductionVar);
            } else {
                // iv_k = base + k*step, materialized as a real add.
                Operand base = full ? loop.ivInit
                                    : Operand::ofReg(
                                          loop.inductionVar);
                auto pre = std::make_unique<BlockNode>();
                pre->id = fn.newNodeId();
                Operation add;
                add.op = Opcode::Add;
                add.dst = fn.newVreg();
                add.src = {base,
                           Operand::ofImm(static_cast<int32_t>(
                               k * loop.step)),
                           Operand::none()};
                add.id = fn.newOpId();
                pre->ops.push_back(add);
                expansion.push_back(std::move(pre));
                map[loop.inductionVar] = Operand::ofReg(add.dst);
            }
        }
        NodeList copy = copier.copyList(loop.body, map, false);
        for (auto &node : copy)
            expansion.push_back(std::move(node));
    }

    if (full) {
        // Replace the loop with the expansion.
        parent->erase(parent->begin() + static_cast<long>(idx));
        for (size_t k = 0; k < expansion.size(); ++k) {
            parent->insert(parent->begin() +
                               static_cast<long>(idx + k),
                           std::move(expansion[k]));
        }
    } else {
        loop.body = std::move(expansion);
        loop.tripCount = trip / copies;
        loop.step *= static_cast<int>(copies);
    }
    fn.renumberAll();
}

void
unrollLoopByLabel(Function &fn, const std::string &label, long factor)
{
    LoopNode *loop = findLoop(fn, label);
    vvsp_assert(loop != nullptr, "no loop labeled '%s'", label.c_str());
    unrollLoop(fn, *loop, factor);
}

} // namespace passes
} // namespace vvsp
