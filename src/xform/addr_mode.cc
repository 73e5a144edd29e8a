/**
 * @file
 * Addressing-mode lowering.
 *
 * Simple-addressing datapaths (I4C8S4, I2C16S4) support only direct
 * and register-indirect addresses: two-component addresses are split
 * into an explicit add. Complex-addressing datapaths (I4C8S4C,
 * I4C8S5, I2C16S5) support indexed and base-displacement forms:
 * single-use address adds are folded into the memory operation
 * ("the address calculations can be incorporated into the load
 * operations", Sec. 3.4.1).
 */

#include "support/logging.hh"
#include "xform/passes.hh"

namespace vvsp
{
namespace passes
{

namespace
{

void
splitComplex(Function &fn, BlockNode &block)
{
    std::vector<Operation> out;
    out.reserve(block.ops.size());
    for (const auto &op : block.ops) {
        if (!op.info().isMemory ||
            MachineModel::addressComponents(op) <= 1) {
            out.push_back(op);
            continue;
        }
        size_t base = op.op == Opcode::Load ? 0 : 1;
        Operation add;
        add.op = Opcode::Add;
        add.dst = fn.newVreg();
        add.src = {op.src[base], op.src[base + 1], Operand::none()};
        add.id = fn.newOpId();
        out.push_back(add);
        Operation mem = op;
        mem.src[base] = Operand::ofReg(add.dst);
        mem.src[base + 1] = Operand::none();
        out.push_back(mem);
    }
    block.ops = std::move(out);
}

void
foldAdds(Function &fn, BlockNode &block,
         const std::vector<uint32_t> &uses)
{
    for (size_t i = 0; i < block.ops.size(); ++i) {
        Operation &mem = block.ops[i];
        if (!mem.info().isMemory)
            continue;
        size_t base = mem.op == Opcode::Load ? 0 : 1;
        if (MachineModel::addressComponents(mem) != 1 ||
            !mem.src[base].isReg()) {
            continue;
        }
        Vreg t = mem.src[base].reg;
        if (t >= uses.size() || uses[t] != 1)
            continue;
        // Find the defining add in this block, before the memop, with
        // no intervening redefinition of its operands.
        for (size_t j = i; j-- > 0;) {
            const Operation &def = block.ops[j];
            if (!def.info().hasDst || def.dst == kNoVreg)
                continue;
            if (def.dst != t) {
                // A redefinition of t's operands between def and use
                // is detected below once the def is found; a
                // redefinition of t itself means this is the def.
                continue;
            }
            if (def.op != Opcode::Add || def.isPredicated())
                break;
            Operand x = def.src[0], y = def.src[1];
            // Verify neither x nor y is redefined between j and i.
            bool clobbered = false;
            for (size_t k = j + 1; k < i; ++k) {
                const Operation &mid = block.ops[k];
                if (!mid.info().hasDst || mid.dst == kNoVreg)
                    continue;
                if ((x.isReg() && mid.dst == x.reg) ||
                    (y.isReg() && mid.dst == y.reg)) {
                    clobbered = true;
                    break;
                }
            }
            if (!clobbered) {
                mem.src[base] = x;
                mem.src[base + 1] = y;
                // The add's result is now unused; DCE removes it.
            }
            break;
        }
    }
    (void)fn;
}

} // anonymous namespace

void
lowerAddressing(Function &fn, const LoweringTarget &target)
{
    if (target.complexAddressing) {
        auto uses = useCounts(fn);
        forEachBlock(fn,
                     [&](BlockNode &b) { foldAdds(fn, b, uses); });
        deadCodeElim(fn);
    } else {
        forEachBlock(fn, [&](BlockNode &b) { splitComplex(fn, b); });
    }
}

} // namespace passes
} // namespace vvsp
