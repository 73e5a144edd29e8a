/**
 * @file
 * Frame-level cycle composition.
 *
 * Composition has two steps. `Composer::schedule` walks a kernel's
 * structured IR once, without a profile: it forms every straight-line
 * group from the tree alone, materializes loop control, schedules
 * each group onto the datapath model (list scheduling at width 1 or
 * full width, or modulo scheduling of eligible innermost loops) and
 * encodes it as an ISA section. `Composer::price` then multiplies
 * each group's schedule length by its dynamic execution count from
 * the interpreter profile. This yields cycles per kernel unit, exact
 * for static control flow and profile-weighted for the
 * data-dependent VBR coder - the same accounting the paper's
 * hand-simulations performed. CycleSim executes the same schedule
 * (sim/cycle_sim.hh), so scheduling policy and group boundaries live
 * here only.
 *
 * Loop control (induction update, bound compare, back-edge branch
 * with its delay slots) is materialized here, so sequential code
 * pays the "loop-closing branches and unfilled branch-delay slots"
 * the paper describes, and unrolled variants amortize them.
 */

#ifndef VVSP_KERNELS_COMPOSER_HH
#define VVSP_KERNELS_COMPOSER_HH

#include <cstdint>
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
};

/**
 * Materialize a loop's control operations (induction update, bound
 * compare, back-edge branch) with fresh op ids and vregs.
 */
std::vector<Operation> loopControlOps(Function &fn,
                                      const LoopNode &loop);

/** Whether a loop is software-pipelineable under the given mode. */
bool swpEligibleLoop(const LoopNode &loop, ScheduleMode mode);

/** Where in the control tree a scheduled group closes. */
enum class GroupSite : uint8_t
{
    BeforeLoop,  ///< the ops pending when a loop starts.
    SwpLoop,     ///< a software-pipelined loop: body + loop control.
    BackEdge,    ///< a loop's trailing ops + its loop control.
    IfCond,      ///< pending ops + an If's conditional branch.
    ThenEnd,     ///< an If's then arm (+ the branch over the else).
    ElseEnd,     ///< an If's else arm.
    FunctionEnd, ///< the function's trailing ops.
};

/**
 * How the profile counts a group's executions: by the first code the
 * group holds (a block, a branch, or loop control). Every loop is
 * counted, so all code of one node list runs equally often and the
 * first code's count is the group's.
 */
struct GroupCount
{
    enum class Kind : uint8_t
    {
        Block,     ///< blockExec of `node`.
        IfEvals,   ///< ifThen + ifElse of `node`.
        IfThen,    ///< ifThen of `node`.
        LoopIters, ///< loopIters of `node`.
    };
    Kind kind = Kind::Block;
    int node = -1;

    double of(const AvgProfile &profile) const;
};

/**
 * One scheduled group. Its code, placements and shape are the
 * parallel IsaSection; the group keeps only what the section lacks.
 */
struct ScheduledGroup
{
    GroupSite site = GroupSite::FunctionEnd;
    int node = -1; ///< node whose site closes it; -1 at function end.
    GroupCount count;
    /** Ops that came from blocks; the rest are the site's branch or
     *  loop control. */
    int blockOps = 0;
    int numOps = 0;     ///< all of the group's ops.
    /** Modulo group: the II search's lower bounds (see
     *  BlockSchedule::resMii); 0 for an acyclic group. */
    int resMii = 0;
    int recMii = 0;
    /** The II search ran out of budget (BlockSchedule::degraded). */
    bool degraded = false;
    SectionStats stats; ///< measured size of the encoded section.
};

/** A kernel scheduled once, before any profile prices it. */
struct KernelSchedule
{
    /** One section per group, in static walk order: the only copy
     *  of the groups' ops. */
    IsaModule module;
    std::vector<ScheduledGroup> groups; ///< parallel to sections.
    int hotLoopInstructions = 0; ///< largest loop's code size.
    /** Group index per (node + 1, site); -1 where no group closes. */
    std::vector<int> sites;

    /** The group that closes at `site` of `node`, or -1. */
    int groupAt(int node, GroupSite site) const;
};

/** Frame-level cycle composer. */
class Composer
{
  public:
    Composer(const MachineModel &machine, ScheduleMode mode);

    /**
     * Form, schedule and encode every group of one kernel unit. The
     * function gains fresh vregs/ops (materialized loop control);
     * the tree itself is not restructured. Reads no profile. Records
     * one run of the "compose" phase.
     */
    KernelSchedule schedule(Function &fn);

    /** Price a schedule with an execution-count profile. */
    CompositionResult price(const KernelSchedule &schedule,
                            const AvgProfile &profile) const;

    /**
     * Compose the cost of one kernel unit: schedule, then price.
     * RegionCost::instructions and the code-size totals come from
     * the encoder's actual word count; no group's code is kept past
     * its measurement. Records one run of the "compose" phase, which
     * nests list_sched, modulo_sched, encode and walk.
     */
    CompositionResult compose(Function &fn, const AvgProfile &profile);

  private:
    struct Walker;

    KernelSchedule walk(Function &fn, bool keep_code);

    const MachineModel &machine_;
    ScheduleMode mode_;
};

} // namespace vvsp

#endif // VVSP_KERNELS_COMPOSER_HH
