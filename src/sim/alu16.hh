/**
 * @file
 * 16-bit arithmetic semantics shared by every execution engine: the
 * tree-walking interpreter's op step (which the cycle simulator also
 * runs) and the bytecode engine.
 *
 * Defined inline so that dispatch code instantiated per opcode (the
 * bytecode engine's ALU handlers) constant-folds the switch away; all
 * engines call the same definition, so they share one source of truth
 * for wrap-around, signedness, and shift-count masking.
 */

#ifndef VVSP_SIM_ALU16_HH
#define VVSP_SIM_ALU16_HH

#include <cstdint>
#include <cstdlib>

#include "ir/opcode.hh"
#include "support/logging.hh"

namespace vvsp
{

/** 16-bit arithmetic helpers shared by both execution engines. */
namespace alu16
{

namespace detail
{

inline int16_t
s(uint16_t v)
{
    return static_cast<int16_t>(v);
}

inline uint16_t
u(int v)
{
    return static_cast<uint16_t>(v);
}

} // namespace detail

/** Evaluate a non-memory, non-control opcode on 16-bit values. */
inline uint16_t
evaluate(Opcode op, uint16_t a, uint16_t b, uint16_t c)
{
    using detail::s;
    using detail::u;
    switch (op) {
      case Opcode::Mov:
        return a;
      case Opcode::Add:
        return u(a + b);
      case Opcode::Sub:
        return u(a - b);
      case Opcode::Abs:
        return u(std::abs(static_cast<int>(s(a))));
      case Opcode::AbsDiff:
        return u(std::abs(static_cast<int>(s(a)) -
                          static_cast<int>(s(b))));
      case Opcode::Min:
        return s(a) < s(b) ? a : b;
      case Opcode::Max:
        return s(a) > s(b) ? a : b;
      case Opcode::And:
        return a & b;
      case Opcode::Or:
        return a | b;
      case Opcode::Xor:
        return a ^ b;
      case Opcode::Not:
        return ~a;
      case Opcode::Neg:
        return u(-static_cast<int>(s(a)));
      case Opcode::CmpEq:
        return a == b;
      case Opcode::CmpNe:
        return a != b;
      case Opcode::CmpLt:
        return s(a) < s(b);
      case Opcode::CmpLe:
        return s(a) <= s(b);
      case Opcode::CmpGt:
        return s(a) > s(b);
      case Opcode::CmpGe:
        return s(a) >= s(b);
      case Opcode::CmpLtU:
        return a < b;
      case Opcode::Select:
        return a != 0 ? b : c;
      case Opcode::Shl:
        return u(a << (b & 15));
      case Opcode::Shr:
        return a >> (b & 15);
      case Opcode::Sra:
        return u(s(a) >> (b & 15));
      case Opcode::Mul8:
        return u(static_cast<int8_t>(a & 0xff) *
                 static_cast<int8_t>(b & 0xff));
      case Opcode::MulU8:
        return u(static_cast<int>(a & 0xff) *
                 static_cast<int8_t>(b & 0xff));
      case Opcode::MulUU8:
        return u(static_cast<int>(a & 0xff) *
                 static_cast<int>(b & 0xff));
      case Opcode::Mul16Lo:
        return u(static_cast<int>(s(a)) * static_cast<int>(s(b)));
      case Opcode::Mul16Hi:
        return u((static_cast<int32_t>(s(a)) *
                  static_cast<int32_t>(s(b))) >> 16);
      case Opcode::Xfer:
        return a;
      default:
        vvsp_panic("alu16::evaluate of %s", opcodeName(op).c_str());
    }
}

} // namespace alu16
} // namespace vvsp

#endif // VVSP_SIM_ALU16_HH
