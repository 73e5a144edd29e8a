/**
 * @file
 * If-conversion: replaces If nodes whose arms are straight-line code
 * with predicated operations, the machine's predicated-execution
 * facility (Sec. 3.3). Nested conditions compose with And; values
 * already known to be 0/1 (compare results and their combinations)
 * skip re-normalization, and every derived predicate is computed
 * once per converted block - predicate setup must stay off the
 * critical recurrences of predicated loops (the VBR coder's bit
 * buffer).
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

class Converter
{
  public:
    Converter(Function &fn, int max_arm_ops)
        : fn_(fn), max_arm_ops_(max_arm_ops)
    {
        // Track which vregs are statically known 0/1-valued.
        forEachNode(fn.body, [this](const Node &n) {
            if (n.kind() != NodeKind::Block)
                return;
            for (const auto &op :
                 static_cast<const BlockNode &>(n).ops) {
                if (!op.info().hasDst || op.dst == kNoVreg)
                    continue;
                bool boolean = op.info().isCompare;
                if (op.op == Opcode::And || op.op == Opcode::Or ||
                    op.op == Opcode::Xor) {
                    boolean = isBoolOperand(op.src[0]) &&
                              isBoolOperand(op.src[1]);
                }
                if (boolean && !known_bool_.count(op.dst) &&
                    !non_bool_.count(op.dst)) {
                    known_bool_.insert(op.dst);
                } else {
                    known_bool_.erase(op.dst);
                    non_bool_.insert(op.dst);
                }
            }
        });
    }

    void
    run()
    {
        convertList(fn_.body);
    }

  private:
    bool
    isBoolOperand(const Operand &o) const
    {
        if (o.isImm())
            return o.imm == 0 || o.imm == 1;
        return o.isReg() && known_bool_.count(o.reg) > 0;
    }

    /** True when every node in the list is a block. */
    static bool
    allBlocks(const NodeList &list)
    {
        for (const auto &n : list) {
            if (n->kind() != NodeKind::Block)
                return false;
        }
        return true;
    }

    /** Per-converted-block cache of derived predicates. */
    struct PredCache
    {
        /** (vreg, wantTrueSense) -> 0/1 vreg. */
        std::map<std::pair<Vreg, bool>, Vreg> norm;
        /** (a, b) -> And(a, b). */
        std::map<std::pair<Vreg, Vreg>, Vreg> conj;
    };

    Vreg
    emitOp(std::vector<Operation> &out, Opcode op, Operand a,
           Operand b)
    {
        Operation o;
        o.op = op;
        o.dst = fn_.newVreg();
        o.src = {a, b, Operand::none()};
        o.id = fn_.newOpId();
        out.push_back(o);
        return o.dst;
    }

    /**
     * A 0/1 register that is 1 exactly when (value != 0) == sense.
     */
    Vreg
    normalize(std::vector<Operation> &out, PredCache &cache,
              const Operand &cond, bool sense)
    {
        if (cond.isReg()) {
            auto key = std::make_pair(cond.reg, sense);
            auto it = cache.norm.find(key);
            if (it != cache.norm.end())
                return it->second;
            Vreg result;
            if (known_bool_.count(cond.reg)) {
                result = sense ? cond.reg
                               : emitOp(out, Opcode::Xor, cond,
                                        Operand::ofImm(1));
            } else {
                result = emitOp(out,
                                sense ? Opcode::CmpNe : Opcode::CmpEq,
                                cond, Operand::ofImm(0));
            }
            known_bool_.insert(result);
            cache.norm.emplace(key, result);
            return result;
        }
        // Immediate conditions are folded by constFold; materialize.
        Vreg result = emitOp(out, sense ? Opcode::CmpNe : Opcode::CmpEq,
                             cond, Operand::ofImm(0));
        known_bool_.insert(result);
        return result;
    }

    /**
     * Guard an op with predicate register p under the given sense
     * (arm executes when (p != 0) == sense). Unpredicated ops take
     * the guard directly; already-predicated ops compose with And.
     */
    void
    applyGuard(std::vector<Operation> &out, PredCache &cache,
               Operation op, Vreg p, bool sense)
    {
        if (!op.isPredicated()) {
            op.pred = Operand::ofReg(p);
            op.predSense = sense;
            out.push_back(op);
            return;
        }
        Vreg arm = normalize(out, cache, Operand::ofReg(p), sense);
        Vreg old = normalize(out, cache, op.pred, op.predSense);
        auto key = std::minmax(arm, old);
        auto it = cache.conj.find(key);
        Vreg conj;
        if (it != cache.conj.end()) {
            conj = it->second;
        } else {
            conj = emitOp(out, Opcode::And, Operand::ofReg(arm),
                          Operand::ofReg(old));
            known_bool_.insert(conj);
            cache.conj.emplace(key, conj);
        }
        op.pred = Operand::ofReg(conj);
        op.predSense = true;
        out.push_back(op);
    }

    void
    convertList(NodeList &list)
    {
        for (size_t i = 0; i < list.size();) {
            Node &n = *list[i];
            if (n.kind() == NodeKind::Loop) {
                convertList(static_cast<LoopNode &>(n).body);
                ++i;
                continue;
            }
            if (n.kind() != NodeKind::If) {
                ++i;
                continue;
            }
            auto &iff = static_cast<IfNode &>(n);
            convertList(iff.thenBody);
            convertList(iff.elseBody);
            if (!allBlocks(iff.thenBody) || !allBlocks(iff.elseBody)) {
                ++i; // residual control (loops) stays branchy.
                continue;
            }
            size_t arm_ops = 0;
            for (const auto *arm : {&iff.thenBody, &iff.elseBody}) {
                for (const auto &node : *arm) {
                    arm_ops += static_cast<const BlockNode &>(*node)
                                   .ops.size();
                }
            }
            if (arm_ops > static_cast<size_t>(max_arm_ops_)) {
                ++i;
                continue;
            }

            auto merged = std::make_unique<BlockNode>();
            merged->id = fn_.newNodeId();
            merged->label = "ifcvt";
            PredCache cache;
            // One 0/1 base predicate; arms differ only in sense.
            Vreg base;
            if (iff.cond.isReg() && known_bool_.count(iff.cond.reg))
                base = iff.cond.reg;
            else
                base = normalize(merged->ops, cache, iff.cond, true);
            for (const auto &arm : iff.thenBody) {
                for (const auto &op :
                     static_cast<const BlockNode &>(*arm).ops) {
                    applyGuard(merged->ops, cache, op, base,
                               iff.sense);
                }
            }
            for (const auto &arm : iff.elseBody) {
                for (const auto &op :
                     static_cast<const BlockNode &>(*arm).ops) {
                    applyGuard(merged->ops, cache, op, base,
                               !iff.sense);
                }
            }
            list[i] = std::move(merged);
            ++i;
        }
    }

    Function &fn_;
    int max_arm_ops_;
    std::set<Vreg> known_bool_;
    std::set<Vreg> non_bool_;
};

} // anonymous namespace

void
ifConvert(Function &fn, int max_arm_ops)
{
    Converter(fn, max_arm_ops).run();
    fn.renumberOps();
}

} // namespace passes
} // namespace vvsp
