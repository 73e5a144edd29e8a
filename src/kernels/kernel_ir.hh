/**
 * @file
 * Shorthands the kernel builders share: register and immediate
 * operands for IRBuilder calls, and the 16-bit wrap their golden
 * references compute with. Only the kernel sources include it.
 */

#ifndef VVSP_KERNELS_KERNEL_IR_HH
#define VVSP_KERNELS_KERNEL_IR_HH

#include <cstdint>

#include "ir/operation.hh"

namespace vvsp
{

/** Register operand. */
inline Operand
R(Vreg v)
{
    return Operand::ofReg(v);
}

/** Immediate operand. */
inline Operand
K(int32_t v)
{
    return Operand::ofImm(v);
}

/** 16-bit wrap matching alu16 semantics. */
inline int
w16(int v)
{
    return static_cast<int16_t>(static_cast<uint16_t>(v));
}

} // namespace vvsp

#endif // VVSP_KERNELS_KERNEL_IR_HH
