/**
 * @file
 * Local common-subexpression elimination by value numbering within
 * each block. Redundant computations are rewritten into Mov from the
 * first occurrence; copy propagation then dissolves the Movs.
 *
 * The value-number table is keyed on a packed integer form of
 * (opcode, canonicalized operands, alias class) and invalidated
 * lazily through generation stamps: defining a register bumps its
 * generation, and an entry is live only while every register it
 * involves (operands and the holding vreg) is older than the entry.
 * That makes each operation O(log table) instead of the historical
 * scan-the-table-per-definition, which was quadratic in block size
 * and dominated lowering on fully-unrolled kernels.
 */

#include <array>
#include <cstdint>
#include <map>
#include <utility>

#include "xform/passes.hh"

namespace vvsp
{
namespace passes
{

namespace
{

bool
commutative(Opcode op)
{
    switch (op) {
      case Opcode::Add:
      case Opcode::And:
      case Opcode::Or:
      case Opcode::Xor:
      case Opcode::Min:
      case Opcode::Max:
      case Opcode::CmpEq:
      case Opcode::CmpNe:
      case Opcode::AbsDiff:
      case Opcode::Mul8:
      case Opcode::MulUU8:
      case Opcode::Mul16Lo:
      case Opcode::Mul16Hi:
        return true;
      default:
        return false;
    }
}

/**
 * Packed operand identity. Two operands pack equal exactly when the
 * historical string keys ("_", "v<reg>", "#<imm mod 2^16>") compared
 * equal; the *order* the packing induces differs from string order,
 * which is harmless - canonicalization of a commutative pair only
 * needs any consistent total order.
 */
uint64_t
packOperand(const Operand &o)
{
    switch (o.kind) {
      case Operand::Kind::None:
        return 0;
      case Operand::Kind::Reg:
        return (uint64_t{1} << 32) | o.reg;
      case Operand::Kind::Imm:
        return (uint64_t{2} << 32) | static_cast<uint16_t>(o.imm);
    }
    return uint64_t{3} << 32;
}

/** Expressions eligible for value numbering. */
bool
eligible(const Operation &op)
{
    const OpcodeInfo &inf = op.info();
    if (!inf.hasDst || inf.isBranch)
        return false;
    if (op.op == Opcode::Store || op.op == Opcode::Xfer ||
        op.op == Opcode::Nop || op.op == Opcode::Mov) {
        return false;
    }
    return true;
}

/** (buffer, aliasToken) packed injectively; never INT64_MIN. */
int64_t
aliasClass(const Operation &op)
{
    return (static_cast<int64_t>(op.buffer) << 32) |
           static_cast<uint32_t>(op.aliasToken);
}

/** (opcode, canonical operands, alias class) as a flat sort key. */
struct ExprKey
{
    uint32_t op;
    std::array<uint64_t, 3> src;
    int64_t mem; ///< alias class for memory ops; INT64_MIN else.

    bool
    operator<(const ExprKey &o) const
    {
        if (op != o.op)
            return op < o.op;
        if (src != o.src)
            return src < o.src;
        return mem < o.mem;
    }
};

ExprKey
exprKey(const Operation &op)
{
    Operand a = op.src[0], b = op.src[1];
    uint64_t ka = packOperand(a), kb = packOperand(b);
    if (commutative(op.op) && kb < ka)
        std::swap(ka, kb);
    ExprKey key;
    key.op = static_cast<uint32_t>(op.op);
    key.src = {ka, kb, packOperand(op.src[2])};
    key.mem = op.info().isMemory ? aliasClass(op) : INT64_MIN;
    return key;
}

/** Value-number one block; returns whether it rewrote an op. */
bool
cseBlock(BlockNode &block)
{
    // expression key -> (holding vreg, insertion stamp).
    struct Entry
    {
        Vreg value;
        uint32_t stamp;
    };
    std::map<ExprKey, Entry> table;

    // Generation stamps. regGen[r] is the tick at which r was last
    // (re)defined; storeGen[(buffer, token)] the tick of the last
    // store into that alias class. An entry is live iff it was
    // inserted after every such event it depends on - precisely the
    // set the historical eager table scan erased on.
    uint32_t tick = 0;
    std::vector<uint32_t> reg_gen;
    std::map<int64_t, uint32_t> store_gen;
    auto gen_of = [&reg_gen](Vreg r) -> uint32_t {
        return r < reg_gen.size() ? reg_gen[r] : 0;
    };
    auto invalidate_reg = [&reg_gen, &tick](Vreg r) {
        if (r >= reg_gen.size())
            reg_gen.resize(static_cast<size_t>(r) + 1, 0);
        reg_gen[r] = ++tick;
    };
    auto live = [&](const ExprKey &key, const Entry &e) {
        if (gen_of(e.value) > e.stamp)
            return false;
        for (uint64_t s : key.src) {
            if ((s >> 32) == 1 &&
                gen_of(static_cast<Vreg>(s & 0xffffffffu)) > e.stamp) {
                return false;
            }
        }
        if (key.mem >= 0) {
            auto it = store_gen.find(key.mem);
            if (it != store_gen.end() && it->second > e.stamp)
                return false;
        }
        return true;
    };

    bool changed = false;
    for (auto &op : block.ops) {
        if (op.op == Opcode::Store) {
            // Kill loads that may alias this store.
            store_gen[aliasClass(op)] = ++tick;
            continue;
        }
        if (!eligible(op)) {
            if (op.info().hasDst && op.dst != kNoVreg)
                invalidate_reg(op.dst);
            continue;
        }

        ExprKey key = exprKey(op);
        auto it = table.find(key);
        if (it != table.end() && !live(key, it->second))
            it = table.end(); // stale: the scan would have erased it.
        if (it != table.end() && it->second.value != op.dst) {
            Vreg value = it->second.value;
            op.op = Opcode::Mov;
            op.src = {Operand::ofReg(value), Operand::none(),
                      Operand::none()};
            op.buffer = -1;
            invalidate_reg(op.dst);
            changed = true;
            continue;
        }

        invalidate_reg(op.dst);
        if (!op.isPredicated())
            table[key] = Entry{op.dst, tick};
    }
    return changed;
}

} // anonymous namespace

bool
localCse(Function &fn)
{
    bool changed = false;
    forEachBlock(fn, [&changed](BlockNode &block) {
        changed = cseBlock(block) || changed;
    });
    return changed;
}

} // namespace passes
} // namespace vvsp
