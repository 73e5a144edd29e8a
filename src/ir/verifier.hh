/**
 * @file
 * IR well-formedness checks, run after construction and after every
 * transformation pass.
 */

#ifndef VVSP_IR_VERIFIER_HH
#define VVSP_IR_VERIFIER_HH

#include <string>
#include <vector>

#include "ir/function.hh"

namespace vvsp
{

/**
 * Verify a function:
 *  - operand arity and kinds match each opcode,
 *  - destinations present exactly when the opcode produces one,
 *  - memory operations reference declared buffers,
 *  - every register use is preceded (in pre-order) by a definition
 *    or is the induction variable of an enclosing loop,
 *  - every loop is counted: its trip count is not negative, and a
 *    pointer loop (register initial value) has a bound register,
 *  - predicates are registers.
 *
 * Returns the list of problems (empty when well-formed).
 */
std::vector<std::string> verify(const Function &fn);

/** Verify and panic with the first problem if any (for tests/passes). */
void verifyOrDie(const Function &fn);

} // namespace vvsp

#endif // VVSP_IR_VERIFIER_HH
