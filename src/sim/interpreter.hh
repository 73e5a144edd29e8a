/**
 * @file
 * Functional interpreter of kernel IR.
 *
 * Executes the structured IR directly on 16-bit semantics. It serves
 * two purposes:
 *  1. correctness oracle: every transformed kernel variant must
 *     produce buffer contents bit-identical to the golden C++
 *     reference (and to the untransformed IR);
 *  2. profiler: execution counts of every block, loop, and If arm
 *     feed the frame-level cycle composer, which is how the
 *     data-dependent VBR coder is costed with "typical data"
 *     exactly as in the paper.
 *
 * Every loop is counted (ir/region.hh), so a walk never leaves a list
 * early: all nodes of one list run equally often.
 */

#ifndef VVSP_SIM_INTERPRETER_HH
#define VVSP_SIM_INTERPRETER_HH

#include <cstdint>
#include <vector>

#include "ir/function.hh"
#include "sim/alu16.hh"
#include "sim/memory_image.hh"

namespace vvsp
{

/** Dynamic execution counts, indexed by node id. */
struct Profile
{
    std::vector<uint64_t> blockExec;   ///< times each block ran.
    std::vector<uint64_t> loopEntries; ///< times each loop was entered.
    std::vector<uint64_t> loopIters;   ///< total iterations of each loop.
    std::vector<uint64_t> ifThen;      ///< then-arm executions.
    std::vector<uint64_t> ifElse;      ///< else-arm executions.
    uint64_t dynamicOps = 0;           ///< operations executed.
    uint64_t nullifiedOps = 0;         ///< predicated-off operations.

    explicit Profile(int num_node_ids = 0);
};

/** Value of `o` in `regs`: a register read, an immediate, or 0. */
uint16_t operandValue(const Operand &o,
                      const std::vector<uint16_t> &regs);

/**
 * Execute one operation on 16-bit register/memory state: the op step
 * the tree walker and CycleSim share. `op` must not be a nop or a
 * branch (control flow is the caller's). Returns false, with no
 * effect, when the op's predicate turns it off.
 */
bool executeOperation(const Operation &op, std::vector<uint16_t> &regs,
                      MemoryImage &mem);

/** Functional IR interpreter. */
class Interpreter
{
  public:
    explicit Interpreter(const Function &fn);

    /**
     * Run the function against the given memory image (modified in
     * place); returns the execution profile.
     */
    Profile run(MemoryImage &mem);

    /** Last value of a virtual register (for tests). */
    uint16_t regValue(Vreg r) const;

  private:
    void runList(const NodeList &list, MemoryImage &mem);
    void runNode(const Node &node, MemoryImage &mem);
    void runBlock(const BlockNode &block, MemoryImage &mem);
    uint16_t value(const Operand &o) const
    {
        return operandValue(o, regs_);
    }

    const Function &fn_;
    std::vector<uint16_t> regs_;
    Profile profile_;
};

} // namespace vvsp

#endif // VVSP_SIM_INTERPRETER_HH
