/**
 * @file
 * Result of scheduling one block onto a datapath model.
 *
 * Acyclic (list) schedules report their length in cycles including
 * the closing branch and its delay slots. Modulo schedules report
 * the initiation interval and stage count. Both report the peak
 * register pressure per cluster. The composer encodes each schedule
 * as an IsaSection (isa/encoder.hh), which is then the group's only
 * record: its word count, fill/drain cycles and placements.
 */

#ifndef VVSP_SCHED_SCHEDULE_HH
#define VVSP_SCHED_SCHEDULE_HH

#include <vector>

#include "ir/operation.hh"

namespace vvsp
{

/** Where one operation landed. */
struct PlacedOp
{
    int cycle = -1;   ///< issue cycle (absolute, from block start).
    int cluster = 0;  ///< executing cluster.
    int slot = -1;    ///< issue slot within the cluster (-1: control).

    bool operator==(const PlacedOp &) const = default;
};

/** A scheduled block. */
struct BlockSchedule
{
    /** Placement per operation index (parallel to the op vector). */
    std::vector<PlacedOp> placed;

    /** Acyclic: cycles from first issue to end of branch shadow. */
    int length = 0;

    /** Modulo schedule: initiation interval (0 for acyclic). */
    int ii = 0;
    /** Modulo schedule: number of overlapped stages. */
    int stages = 0;

    /**
     * Modulo schedule: the resource- and recurrence-constrained
     * lower bounds the II search started from, MII = max(resMii,
     * recMii) (0 for acyclic).
     */
    int resMii = 0;
    int recMii = 0;
    /** Modulo schedule: candidate IIs the search consumed, the
     *  deciding one included (0 for acyclic). */
    int iiAttempts = 0;
    /** Modulo schedule: placement steps summed over the candidates
     *  iiAttempts counts; one forced infeasible by the
     *  "sched/ii_attempt" failpoint counts 0 (0 for acyclic). */
    long placements = 0;
    /** Modulo schedule: placement steps of the candidate this
     *  schedule came from (0 for acyclic). Each candidate stops
     *  after min(32n+256, n+16384) steps, so the gap to that budget
     *  is the headroom left before the schedule would move. */
    long decidingPlacements = 0;
    /** Modulo schedule: placement steps of the costliest feasible
     *  candidate the search consumed: the deciding one, or one the
     *  register-pressure retry passed over (0 for acyclic). A retry
     *  candidate that ran out its budget would change which
     *  schedule the retry picks, so its headroom counts too. */
    long maxFeasiblePlacements = 0;

    /** Peak simultaneously-live values in any one cluster. */
    int maxLive = 0;

    /**
     * True when the II search exhausted its scheduling budget and
     * this is the best schedule found rather than the search's
     * normal answer. The cycle count is still correct for the
     * placements it holds — "degraded" means possibly suboptimal,
     * never wrong.
     */
    bool degraded = false;

    /** True when this is a software-pipelined (modulo) schedule. */
    bool isModulo() const { return ii > 0; }
};

} // namespace vvsp

#endif // VVSP_SCHED_SCHEDULE_HH
