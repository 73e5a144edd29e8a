/**
 * @file
 * Frame-level cycle composition.
 *
 * Walks a kernel's structured IR, schedules every straight-line
 * group onto the datapath model (list scheduling at width 1 or full
 * width, or modulo scheduling of eligible innermost loops), and
 * multiplies each group's schedule length by its dynamic execution
 * count from the interpreter profile. This yields cycles per kernel
 * unit, exact for static control flow and profile-weighted for the
 * data-dependent VBR coder - the same accounting the paper's
 * hand-simulations performed.
 *
 * Loop control (induction update, bound compare, back-edge branch
 * with its delay slots) is materialized here, so sequential code
 * pays the "loop-closing branches and unfilled branch-delay slots"
 * the paper describes, and unrolled variants amortize them.
 */

#ifndef VVSP_KERNELS_COMPOSER_HH
#define VVSP_KERNELS_COMPOSER_HH

#include <string>
#include <vector>

#include "arch/machine_model.hh"
#include "isa/encoder.hh"
#include "kernels/kernel.hh"
#include "sim/interpreter.hh"

namespace vvsp
{

/** Execution-count profile averaged over kernel units. */
struct AvgProfile
{
    std::vector<double> blockExec;
    std::vector<double> loopEntries;
    std::vector<double> loopIters;
    std::vector<double> ifThen;
    std::vector<double> ifElse;

    AvgProfile() = default;
    explicit AvgProfile(int num_node_ids);

    void accumulate(const Profile &p);
    void scale(double f);
};

/** Cost of one scheduled code group. */
struct RegionCost
{
    std::string label;
    double execCount = 0;  ///< dynamic executions per unit.
    int length = 0;        ///< cycles per execution (acyclic).
    int ii = 0;            ///< initiation interval (modulo groups).
    double cycles = 0;     ///< total contribution per unit.
    int instructions = 0;  ///< static code size (encoded words).
    int maxLive = 0;
    int64_t codeBytes = 0; ///< encoded payload bytes.
    int64_t nopSlots = 0;  ///< empty issue slots across the words.
    /** Scheduling budget ran out for this group (see
     *  BlockSchedule::degraded); cycles reflect the fallback
     *  schedule actually used, never a guess. */
    bool degraded = false;
};

/** Composition output. */
struct CompositionResult
{
    double cyclesPerUnit = 0;
    int totalInstructions = 0;   ///< whole-kernel static code size.
    int hotLoopInstructions = 0; ///< largest loop body code size.
    int maxLive = 0;             ///< worst per-cluster MaxLive.
    bool icacheOk = true;
    bool registersOk = true;
    double opsPerUnit = 0;       ///< dynamic operations (for GOPS).
    /** Measured code size from the ISA encoder (not an estimate). */
    int64_t codeWords = 0;
    int64_t codeBytes = 0;
    int64_t nopSlots = 0;
    /** Groups whose II search exhausted its budget; nonzero marks
     *  the whole cell degraded (reports show `~`, JSON and ledger
     *  manifests carry the flag, and the cell is never cached). */
    int degradedRegions = 0;
    std::vector<RegionCost> regions;

    std::string str() const;
};

/**
 * Materialize a loop's control operations (induction update, bound
 * compare, back-edge branch); shared by the composer and the cycle
 * simulator so both cost identical code.
 */
std::vector<Operation> loopControlOps(Function &fn,
                                      const LoopNode &loop);

/** Whether a loop is software-pipelineable under the given mode. */
bool swpEligibleLoop(const LoopNode &loop, ScheduleMode mode);

/** Frame-level cycle composer. */
class Composer
{
  public:
    Composer(const MachineModel &machine, ScheduleMode mode);

    /**
     * Compose the cost of one kernel unit. The function may gain
     * fresh vregs/ops (materialized loop control); the tree itself
     * is not restructured.
     *
     * Every scheduled group is also run through the ISA encoder:
     * RegionCost::instructions and the code-size totals come from
     * the encoder's actual word count (asserted equal to the
     * scheduler's estimate). When `emit` is non-null it receives
     * the encoded module.
     */
    CompositionResult compose(Function &fn, const AvgProfile &profile,
                              IsaModule *emit = nullptr);

  private:
    struct Walker;

    const MachineModel &machine_;
    ScheduleMode mode_;
};

} // namespace vvsp

#endif // VVSP_KERNELS_COMPOSER_HH
