/**
 * @file
 * Transformation passes applied to kernel IR before scheduling.
 *
 * These mechanize the techniques the paper applied by hand
 * (Sec. 3.3): "loop unrolling, list scheduling and software
 * pipelining ... scalar optimizations such as common subexpression
 * elimination and strength reduction", predication via if-conversion,
 * and the machine-dependent lowerings (multiply decomposition onto
 * 8x8 multipliers, addressing-mode splitting/folding).
 *
 * Every pass preserves functional semantics; the test suite checks
 * each kernel variant against the golden reference after its full
 * recipe.
 */

#ifndef VVSP_XFORM_PASSES_HH
#define VVSP_XFORM_PASSES_HH

#include <map>
#include <set>
#include <string>
#include <utility>

#include "arch/machine_model.hh"
#include "ir/function.hh"

namespace vvsp
{
namespace passes
{

// ---- analysis/utility helpers --------------------------------------

/** Visit every block in the function (pre-order, mutable). */
void forEachBlock(Function &fn, const std::function<void(BlockNode &)> &f);

/** Read counts of every vreg (sources, predicates, conditions). */
std::vector<uint32_t> useCounts(const Function &fn);

/** Find a loop by label; null if absent. */
LoopNode *findLoop(Function &fn, const std::string &label);

// ---- scalar optimizations -------------------------------------------

/**
 * Constant folding, copy/constant propagation within blocks, and
 * algebraic identity simplification (x+0, x*1, x<<0, ...). Returns
 * whether the function changed.
 */
bool constFold(Function &fn);

/**
 * Remove pure operations whose results are never read. Returns
 * whether the function changed.
 */
bool deadCodeElim(Function &fn);

/**
 * Local common-subexpression elimination (redundancy becomes a Mov
 * that later passes propagate away). Loads participate until a store
 * to the same buffer/token intervenes. Returns whether the function
 * changed.
 */
bool localCse(Function &fn);

/** Rewrite multiplies by simple constants into shifts and adds. */
void strengthReduce(Function &fn);

/**
 * Hoist loop-invariant pure operations into a preheader block.
 * Invariant loads are hoisted too, but at most max_loads per loop:
 * each hoisted load pins a register for the whole loop, and a
 * register file holds only so much (a hand coder keeps a few table
 * values resident, not a whole array).
 */
void licm(Function &fn, int max_loads = 8);

/**
 * Run rounds of constFold + localCse + deadCodeElim until a round
 * changes nothing, at most four.
 */
void cleanup(Function &fn);

// ---- loop restructuring ----------------------------------------------

/**
 * Unroll a counted loop by `factor` copies (0 or >= trip: full
 * unroll). The trip count must be divisible by the factor.
 */
void unrollLoop(Function &fn, LoopNode &loop, long factor);

/** Unroll the loop with the given label. */
void unrollLoopByLabel(Function &fn, const std::string &label,
                       long factor);

// ---- control flow ------------------------------------------------------

/**
 * If-conversion: collapse If nodes whose arms are straight-line into
 * predicated code (the machine's predicated execution, Sec. 3.3).
 * Only Ifs whose arms together hold at most max_arm_ops operations
 * convert - predicating a huge arm makes every execution pay for it,
 * which only profits wide schedules (hand coders predicated
 * selectively in sequential code).
 */
void ifConvert(Function &fn, int max_arm_ops = 1 << 30);

// ---- machine-dependent lowering ---------------------------------------

/**
 * Sound value-range analysis over signed-16-bit interpretation.
 * Ranges flow from declared buffer ranges, immediates, and loop
 * bounds through single-definition chains; multi-definition values
 * and cyclic (loop-carried) chains widen to the full range. Used by
 * the multiply decomposition to prove factors fit 8 bits.
 */
class RangeAnalysis
{
  public:
    explicit RangeAnalysis(const Function &fn);

    /** Inclusive signed bounds of an operand's value. */
    std::pair<int, int> range(const Operand &o);

    /** Provably within [-128, 127] (sext8-exact). */
    bool fitsSigned8(const Operand &o);

    /** Provably within [0, 255] (zext8-exact). */
    bool fitsUnsigned8(const Operand &o);

  private:
    std::pair<int, int> rangeOfVreg(Vreg v);
    std::pair<int, int> rangeOfOp(const Operation &op);

    const Function &fn_;
    std::map<Vreg, const Operation *> single_def_;
    std::set<Vreg> multi_def_;
    std::map<Vreg, const LoopNode *> iv_of_;
    std::map<Vreg, std::pair<int, int>> memo_;
    std::set<Vreg> in_progress_;
};

/**
 * Rewrite Mul16Lo on datapaths without the 16-bit multiplier
 * (Sec. 3.4.3):
 *  - both factors provably 8-bit: a single 8x8 multiply;
 *  - one factor provably 8-bit (constant coefficients, basis
 *    products): the 6-operation 16x8 form - the paper's "less than
 *    complete 16x16 multiplies";
 *  - otherwise the exact 10-operation 16x16-low sequence.
 * Mul16Hi is rejected there (kernels are written scale-safe
 * instead, as the paper's precision analysis did).
 */
void decomposeMultiplies(Function &fn, const LoweringTarget &target);

/**
 * Addressing-mode lowering: on simple-addressing datapaths, split
 * two-component addresses into an explicit add; on complex ones,
 * fold single-use address adds into the memory operation.
 */
void lowerAddressing(Function &fn, const LoweringTarget &target);

} // namespace passes
} // namespace vvsp

#endif // VVSP_XFORM_PASSES_HH
