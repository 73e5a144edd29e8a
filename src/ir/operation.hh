/**
 * @file
 * A single VLIW operation on virtual registers.
 *
 * Code is built in an SSA-like style over an unbounded pool of
 * virtual 16-bit registers; register-capacity limits are enforced by
 * the MaxLive analysis against the cluster's register file, as the
 * paper does when a schedule "requires more registers than are
 * available in one cluster".
 */

#ifndef VVSP_IR_OPERATION_HH
#define VVSP_IR_OPERATION_HH

#include <array>
#include <cstdint>
#include <string>

#include "ir/opcode.hh"

namespace vvsp
{

/** Virtual register number. */
using Vreg = uint32_t;

/** Sentinel for "no register". */
constexpr Vreg kNoVreg = ~0u;

/** A source operand: register, immediate, or absent. */
struct Operand
{
    enum class Kind : uint8_t { None, Reg, Imm };

    Kind kind = Kind::None;
    Vreg reg = kNoVreg;
    int32_t imm = 0;

    static Operand none() { return {}; }
    static Operand ofReg(Vreg r)
    {
        Operand o;
        o.kind = Kind::Reg;
        o.reg = r;
        return o;
    }
    static Operand ofImm(int32_t v)
    {
        Operand o;
        o.kind = Kind::Imm;
        o.imm = v;
        return o;
    }

    bool isNone() const { return kind == Kind::None; }
    bool isReg() const { return kind == Kind::Reg; }
    bool isImm() const { return kind == Kind::Imm; }

    bool operator==(const Operand &o) const
    {
        if (kind != o.kind)
            return false;
        if (kind == Kind::Reg)
            return reg == o.reg;
        if (kind == Kind::Imm)
            return imm == o.imm;
        return true;
    }

    std::string str() const;
};

/**
 * One operation. Memory operations reference a named buffer in the
 * cluster's local data RAM; the effective word address is the sum of
 * the address operands (Load: src0 + src1, Store: src1 + src2).
 * An address with two non-zero components (register+register or
 * register+displacement) requires the complex addressing modes.
 */
struct Operation
{
    Opcode op = Opcode::Nop;
    Vreg dst = kNoVreg;
    std::array<Operand, 3> src{};

    /** Guard predicate; the op is nullified when pred != predSense. */
    Operand pred = Operand::none();
    bool predSense = true;

    /** Memory buffer id for Load/Store. */
    int buffer = -1;
    /**
     * Memory-disambiguation token: accesses to the same buffer with
     * different tokens are guaranteed disjoint by the kernel author
     * (knowledge "derived from the code specification").
     */
    int aliasToken = 0;
    /**
     * True when successive loop iterations of this access never
     * touch the same word (streaming access) - removes loop-carried
     * memory dependences in the modulo scheduler.
     */
    bool noCarriedAlias = false;

    /** Cluster assignment (filled by the cluster assigner). */
    int cluster = 0;
    /** For Xfer: destination cluster. */
    int dstCluster = 0;

    /** Unique id within the function (set by the builder). */
    int id = -1;

    const OpcodeInfo &info() const { return opcodeInfo(op); }
    bool isPredicated() const { return !pred.isNone(); }

    bool operator==(const Operation &o) const = default;

    /** Printable form, e.g. "v7 = add v3, #4 if v9". */
    std::string str() const;
};

} // namespace vvsp

#endif // VVSP_IR_OPERATION_HH
