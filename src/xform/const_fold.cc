/**
 * @file
 * Constant folding, copy/constant propagation, algebraic identities,
 * and constant-condition control simplification.
 *
 * The control part is what makes loop unrolling pay off on the
 * color-conversion kernel: "many of the branches depend only on loop
 * index values and thus can be eliminated with unrolling" (Sec. 3.3).
 */

#include <map>

#include "sim/interpreter.hh"
#include "support/logging.hh"
#include "xform/passes.hh"

namespace vvsp
{
namespace passes
{

namespace
{

/** Values that can be evaluated at compile time. */
bool
foldable(const Operation &op)
{
    const OpcodeInfo &inf = op.info();
    if (!inf.hasDst || inf.isMemory || inf.isBranch)
        return false;
    if (op.op == Opcode::Xfer || op.op == Opcode::Nop)
        return false;
    if (op.isPredicated())
        return false;
    for (int i = 0; i < inf.numSrcs; ++i) {
        if (!op.src[static_cast<size_t>(i)].isImm())
            return false;
    }
    return true;
}

int32_t
asImm16(uint16_t v)
{
    return static_cast<int16_t>(v);
}

class Folder
{
  public:
    explicit Folder(Function &fn) : fn_(fn) {}

    /** Fold the whole function; returns whether anything changed. */
    bool
    run()
    {
        foldList(fn_.body);
        return changed_;
    }

  private:
    /**
     * Known copies/constants with lazy invalidation: an entry
     * "r -> value at stamp" is live only while neither r nor (for
     * copies) the source register has been redefined since `stamp`.
     * Redefining a register is a single generation bump instead of
     * the historical scan of every known entry per definition, which
     * was quadratic on unrolled kernels.
     */
    struct KnownVal
    {
        Operand value;
        uint32_t stamp;
    };
    using Known = std::map<Vreg, KnownVal>;

    uint32_t
    genOf(Vreg r) const
    {
        return r < regGen_.size() ? regGen_[r] : 0;
    }

    void
    invalidate(Known &known, Vreg dst)
    {
        (void)known;
        if (dst >= regGen_.size())
            regGen_.resize(static_cast<size_t>(dst) + 1, 0);
        regGen_[dst] = ++tick_;
    }

    void
    substitute(Operand &o, const Known &known)
    {
        if (!o.isReg())
            return;
        auto it = known.find(o.reg);
        if (it == known.end())
            return;
        const KnownVal &k = it->second;
        if (genOf(o.reg) > k.stamp)
            return; // target redefined since recorded.
        if (k.value.isReg() && genOf(k.value.reg) > k.stamp)
            return; // copy source redefined since recorded.
        o = k.value;
        changed_ = true;
    }

    /** Try algebraic identities; returns true if rewritten. */
    bool
    simplify(Operation &op)
    {
        auto to_mov = [&op](Operand v) {
            op.op = Opcode::Mov;
            op.src = {v, Operand::none(), Operand::none()};
            op.buffer = -1;
            return true;
        };
        const Operand &a = op.src[0];
        const Operand &b = op.src[1];
        auto imm_is = [](const Operand &o, int32_t v) {
            return o.isImm() &&
                   static_cast<uint16_t>(o.imm) ==
                       static_cast<uint16_t>(v);
        };
        switch (op.op) {
          case Opcode::Add:
            if (imm_is(b, 0))
                return to_mov(a);
            if (imm_is(a, 0))
                return to_mov(b);
            return false;
          case Opcode::Sub:
            if (imm_is(b, 0))
                return to_mov(a);
            return false;
          case Opcode::Mul16Lo:
            if (imm_is(b, 1))
                return to_mov(a);
            if (imm_is(a, 1))
                return to_mov(b);
            if (imm_is(b, 0) || imm_is(a, 0))
                return to_mov(Operand::ofImm(0));
            return false;
          case Opcode::Mul8:
          case Opcode::MulU8:
          case Opcode::MulUU8:
            if (imm_is(b, 0) || imm_is(a, 0))
                return to_mov(Operand::ofImm(0));
            return false;
          case Opcode::Shl:
          case Opcode::Shr:
          case Opcode::Sra:
            if (imm_is(b, 0))
                return to_mov(a);
            return false;
          case Opcode::And:
            if (imm_is(b, 0) || imm_is(a, 0))
                return to_mov(Operand::ofImm(0));
            if (imm_is(b, 0xffff))
                return to_mov(a);
            return false;
          case Opcode::Or:
          case Opcode::Xor:
            if (imm_is(b, 0))
                return to_mov(a);
            if (imm_is(a, 0))
                return to_mov(b);
            return false;
          case Opcode::Select:
            if (a.isImm())
                return to_mov(a.imm != 0 ? b : op.src[2]);
            return false;
          default:
            return false;
        }
    }

    void
    foldBlock(BlockNode &block, Known &known)
    {
        for (auto &op : block.ops) {
            // Folding an op that is already folded (a Mov of a
            // constant) rewrites it to itself, so compare instead of
            // flagging.
            const Operation before = op;
            const OpcodeInfo &inf = op.info();
            for (int i = 0; i < 3; ++i)
                substitute(op.src[static_cast<size_t>(i)], known);
            substitute(op.pred, known);
            // A statically-true predicate drops; statically-false
            // nullifies the whole operation.
            if (op.pred.isImm()) {
                bool holds = (op.pred.imm != 0) == op.predSense;
                op.pred = Operand::none();
                op.predSense = true;
                if (!holds) {
                    op.op = Opcode::Nop;
                    op.dst = kNoVreg;
                    op.src = {};
                    op.buffer = -1;
                    changed_ = true;
                    continue;
                }
            }

            if (foldable(op)) {
                uint16_t v = alu16::evaluate(
                    op.op, static_cast<uint16_t>(op.src[0].imm),
                    static_cast<uint16_t>(op.src[1].imm),
                    static_cast<uint16_t>(op.src[2].imm));
                op.op = Opcode::Mov;
                op.src = {Operand::ofImm(asImm16(v)), Operand::none(),
                          Operand::none()};
            } else {
                simplify(op);
            }

            if (inf.hasDst && op.dst != kNoVreg) {
                invalidate(known, op.dst);
                if (op.op == Opcode::Mov && !op.isPredicated() &&
                    !(op.src[0].isReg() && op.src[0].reg == op.dst)) {
                    known[op.dst] = KnownVal{op.src[0], tick_};
                }
            }
            if (!(op == before))
                changed_ = true;
        }
    }

    void
    foldList(NodeList &list)
    {
        Known known;
        for (size_t i = 0; i < list.size();) {
            Node &n = *list[i];
            switch (n.kind()) {
              case NodeKind::Block:
                foldBlock(static_cast<BlockNode &>(n), known);
                ++i;
                break;

              case NodeKind::If: {
                auto &iff = static_cast<IfNode &>(n);
                substitute(iff.cond, known);
                if (iff.cond.isImm()) {
                    bool taken = (iff.cond.imm != 0) == iff.sense;
                    NodeList arm = std::move(taken ? iff.thenBody
                                                   : iff.elseBody);
                    list.erase(list.begin() +
                               static_cast<long>(i));
                    changed_ = true;
                    for (size_t k = 0; k < arm.size(); ++k) {
                        list.insert(list.begin() +
                                        static_cast<long>(i + k),
                                    std::move(arm[k]));
                    }
                    // Reprocess the spliced nodes with the same map.
                    break;
                }
                foldList(iff.thenBody);
                foldList(iff.elseBody);
                known.clear();
                ++i;
                break;
              }

              case NodeKind::Loop: {
                auto &loop = static_cast<LoopNode &>(n);
                if (loop.tripCount == 0) {
                    list.erase(list.begin() + static_cast<long>(i));
                    changed_ = true;
                    break;
                }
                foldList(loop.body);
                known.clear();
                ++i;
                break;
              }
            }
        }
    }

    Function &fn_;
    std::vector<uint32_t> regGen_;
    uint32_t tick_ = 0;
    bool changed_ = false;
};

} // anonymous namespace

bool
constFold(Function &fn)
{
    return Folder(fn).run();
}

} // namespace passes
} // namespace vvsp
