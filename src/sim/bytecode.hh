/**
 * @file
 * Compile-once, replay-many bytecode engine for the functional
 * interpreter.
 *
 * The tree-walking Interpreter (sim/interpreter.hh) re-decodes every
 * Operand and re-dispatches on node kind for every dynamic operation;
 * profiled cells execute the same lowered Function millions of ops at
 * a time, once per machine. BytecodeProgram flattens the structured
 * IR (blocks, counted loops, If arms, predication) into a linear array
 * of fixed-width decoded instructions with all jump and back-edge
 * targets resolved at compile time, and BytecodeEngine replays it
 * with a threaded-dispatch loop (computed goto, a GCC/Clang extension
 * every supported compiler has) over a flat uint16_t register file
 * and raw MemoryImage spans.
 *
 * Decisions that make the inner loop branch-light:
 *  - every source operand is an unconditional register-file index:
 *    immediates are deduplicated into a constant pool appended to the
 *    register file (preloaded per run), and absent operands read a
 *    dedicated always-zero slot, so there is no operand-kind test;
 *  - ALU handlers are instantiated per opcode, so the shared
 *    alu16::evaluate switch constant-folds away;
 *  - every loop is counted, so a loop head is one compare of the
 *    iteration count against the static trip count;
 *  - register-file capacity and buffer ids are validated once at
 *    compile time, so the replay loop does unchecked register access;
 *    memory accesses keep their per-access bounds check (the address
 *    is data-dependent and a kernel bug must still panic).
 *
 * The engine is bit-compatible with the tree walker: identical
 * Profile vectors and post-run MemoryImage contents for any Function
 * both accept (tests/test_bytecode.cc holds this differentially).
 * The tree walker stays as the oracle; everything hot goes through
 * here.
 */

#ifndef VVSP_SIM_BYTECODE_HH
#define VVSP_SIM_BYTECODE_HH

#include <cstdint>
#include <vector>

#include "ir/function.hh"
#include "sim/interpreter.hh"
#include "sim/memory_image.hh"

namespace vvsp
{

/**
 * ALU-class opcodes that flow through alu16::evaluate, one bytecode
 * kind each (X-macro so the dispatch tables stay in sync with the
 * enum by construction).
 */
#define VVSP_BC_ALU_OPS(X)                                            \
    X(Mov) X(Add) X(Sub) X(Abs) X(AbsDiff) X(Min) X(Max) X(And)       \
    X(Or) X(Xor) X(Not) X(Neg) X(CmpEq) X(CmpNe) X(CmpLt) X(CmpLe)    \
    X(CmpGt) X(CmpGe) X(CmpLtU) X(Select) X(Shl) X(Shr) X(Sra)        \
    X(Mul8) X(MulU8) X(MulUU8) X(Mul16Lo) X(Mul16Hi) X(Xfer)

/** Bytecode instruction kinds. ALU kinds first, control after. */
enum class BcKind : uint8_t
{
#define VVSP_BC_KIND(name) k##name,
    VVSP_BC_ALU_OPS(VVSP_BC_KIND)
#undef VVSP_BC_KIND
    kLoad,      ///< dst = buffer[arg][u16(a + b)].
    kStore,     ///< buffer[arg][u16(b + c)] = a.
    kBlockHead, ///< blockExec[arg]++.
    kLoopEnter, ///< reset loop state of `slot`; loopEntries++.
    kLoopHead,  ///< trip check / iv publish / loopIters++ of `slot`.
    kLoopBack,  ///< iter++, iv += step, jump to head of `slot`.
    kJump,      ///< ip = arg (If-arm join).
    kIfHead,    ///< (regs[a] != 0) == sense ? then (fall through,
                ///< ifThen[dst]++) : jump arg (ifElse[dst]++).
    kHalt,      ///< end of program.
};

/** Register-file index sentinel: "no predicate". */
constexpr uint32_t kNoBcReg = ~0u;

/**
 * One decoded instruction. All operand fields (`a`, `b`, `c`, `pred`)
 * and `dst` are register-file indices; `arg` is the kind-specific
 * immediate (jump target pc, node id, or buffer id); `slot` indexes
 * the loop side table. Fixed width keeps the replay loop's fetch a
 * single indexed load.
 */
struct BcInst
{
    uint8_t kind = 0;      ///< BcKind.
    uint8_t sense = 1;     ///< predicate / condition sense.
    uint16_t slot = 0;     ///< loop side-table index.
    uint32_t dst = 0;      ///< destination regfile index (or node id
                           ///< for kIfHead).
    uint32_t a = 0;        ///< source regfile indices.
    uint32_t b = 0;
    uint32_t c = 0;
    uint32_t pred = kNoBcReg; ///< predicate regfile index or kNoBcReg.
    int32_t arg = 0;       ///< jump target / node id / buffer id.
};

/** Per-static-loop compile-time facts (side table, indexed by slot). */
struct BcLoopInfo
{
    uint64_t tripCount = 0; ///< static trip count.
    int32_t nodeId = 0;     ///< profile index (loopEntries/loopIters).
    uint32_t ivReg = kNoBcReg; ///< induction register index, if any.
    uint32_t ivInitIdx = 0; ///< regfile index of the initial value.
    uint16_t step = 1;      ///< per-iteration step, mod 2^16.
    int32_t headPc = 0;     ///< pc of the kLoopHead instruction.
    int32_t exitPc = 0;     ///< pc just past the kLoopBack.
};

/**
 * A Function compiled to flat bytecode. Immutable after
 * construction; each BytecodeEngine compiles and owns one.
 */
class BytecodeProgram
{
  public:
    /** Compile `fn`. Panics on IR the tree walker would reject. */
    explicit BytecodeProgram(const Function &fn);

    const std::vector<BcInst> &code() const { return code_; }
    const std::vector<BcLoopInfo> &loops() const { return loops_; }
    /** Deduplicated immediate values, preloaded at each run start. */
    const std::vector<uint16_t> &constPool() const { return pool_; }

    /** Regfile layout: [0, numVregs) vregs, then zero, then pool. */
    uint32_t numVregs() const { return num_vregs_; }
    uint32_t zeroReg() const { return num_vregs_; }
    uint32_t constBase() const { return num_vregs_ + 1; }
    uint32_t numRegSlots() const
    {
        return constBase() + static_cast<uint32_t>(pool_.size());
    }

    int numNodeIds() const { return num_node_ids_; }
    /** Buffers the program addresses (mem image must cover them). */
    size_t numBuffers() const { return num_buffers_; }

  private:
    friend class BcCompiler;

    std::vector<BcInst> code_;
    std::vector<BcLoopInfo> loops_;
    std::vector<uint16_t> pool_;
    uint32_t num_vregs_ = 0;
    int num_node_ids_ = 0;
    size_t num_buffers_ = 0;
};

/**
 * Replay state for one BytecodeProgram: register file, loop
 * counters, and buffer spans. Same contract as Interpreter: run()
 * executes against a MemoryImage (modified in place) and returns the
 * execution profile. Not thread-safe; one engine per worker.
 */
class BytecodeEngine
{
  public:
    /** Compile `fn` into the program this engine owns and replays. */
    explicit BytecodeEngine(const Function &fn);

    Profile run(MemoryImage &mem);

    const BytecodeProgram &program() const { return prog_; }

    /** Last value of a virtual register (for tests). */
    uint16_t regValue(Vreg r) const;

  private:
    BytecodeProgram prog_;
    std::vector<uint16_t> regs_;
    std::vector<uint64_t> loop_iter_;
    std::vector<uint16_t> loop_iv_;
};

/**
 * Content hash of a Function: every semantically meaningful field of
 * the buffer table, region tree, and operations (display labels
 * excluded). Two functions with equal fingerprints execute
 * identically under both engines, which is what makes the
 * ExperimentCache unit-profile memo sound: the 36-cell profile slice
 * collapses to its unique lowerings no matter which named machine
 * produced them.
 */
uint64_t functionFingerprint(const Function &fn);

} // namespace vvsp

#endif // VVSP_SIM_BYTECODE_HH
