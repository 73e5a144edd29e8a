/**
 * @file
 * Acyclic list scheduler.
 *
 * Classic height-priority, cycle-driven list scheduling against the
 * reservation table. Two modes:
 *  - wide: the full VLIW issue width of the clusters the ops are
 *    assigned to;
 *  - width1: the paper's sequential baseline, "using the full
 *    capabilities of the machine including predicated execution but
 *    limited to one operation per instruction" (Sec. 3.3), still
 *    filling load- and branch-delay slots.
 *
 * A single trailing branch (loop back edge or conditional exit) is
 * placed so that its delay slots overlap trailing operations:
 * the block ends 1 + delaySlots cycles after the branch issues.
 *
 * Each schedule() call builds its own dependence graph and
 * reservation table.
 */

#ifndef VVSP_SCHED_LIST_SCHEDULER_HH
#define VVSP_SCHED_LIST_SCHEDULER_HH

#include <vector>

#include "arch/machine_model.hh"
#include "obs/stats_registry.hh"
#include "sched/reservation_table.hh"
#include "sched/schedule.hh"

namespace vvsp
{

/** Acyclic scheduler for one block of operations. */
class ListScheduler
{
  public:
    ListScheduler(const MachineModel &machine, BankOfFn bank_of);

    /**
     * Schedule the ops (cluster fields already assigned). At most one
     * branch operation is allowed and is treated as the block
     * terminator.
     */
    BlockSchedule schedule(const std::vector<Operation> &ops,
                           bool width1) const;

  private:
    const MachineModel &machine_;
    BankOfFn bank_of_;
    obs::StatsScope stats_;
};

} // namespace vvsp

#endif // VVSP_SCHED_LIST_SCHEDULER_HH
