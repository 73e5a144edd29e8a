/**
 * @file
 * Iterative modulo scheduler (software pipelining).
 *
 * Implements Rau's iterative modulo scheduling: the initiation
 * interval starts at MII = max(ResMII, RecMII) and grows until a
 * feasible schedule is found. Operation placement uses height
 * priority with a backtracking budget; forced placements evict
 * conflicting operations and dependence-violating successors.
 *
 * This is the "software pipelining" the paper applies to every
 * data-parallel kernel (Sec. 3.3); the full-motion-search inner loop
 * reaches II = 1 on an unconstrained cluster and II = 2 when the
 * single load/store unit of the I4C8* clusters is the bottleneck
 * (Sec. 3.4.1).
 *
 * Each schedule() call builds its own dependence graph, and each
 * candidate II its own reservation table, so the candidates of one
 * call run concurrently when the call runs on a pool worker: the
 * search attempts candidate IIs in waves as wide as that worker's
 * pool (ThreadPool::current()) and consumes the results in
 * ascending II order. Each attempt is a pure function of
 * (ops, ddg, ii), so the outcome is bit-identical at any width. Off
 * a pool a wave is one candidate, run inline.
 */

#ifndef VVSP_SCHED_MODULO_SCHEDULER_HH
#define VVSP_SCHED_MODULO_SCHEDULER_HH

#include <optional>
#include <vector>

#include "arch/machine_model.hh"
#include "ir/dependence_graph.hh"
#include "obs/stats_registry.hh"
#include "sched/reservation_table.hh"
#include "sched/schedule.hh"

namespace vvsp
{

/** Modulo scheduler for an innermost-loop body. */
class ModuloScheduler
{
  public:
    ModuloScheduler(const MachineModel &machine, BankOfFn bank_of);

    /**
     * Software-pipeline the loop-body ops (cluster fields assigned;
     * loop-control ops included). Panics if no schedule is found up
     * to a generous II bound, which would be a scheduler bug since
     * II = length(list schedule) is always feasible (each candidate
     * gets at least one placement step per op; see attempt()).
     *
     * When max_live_target > 0 and the minimum-II schedule needs
     * more simultaneously-live values than the target, the II is
     * increased a few steps looking for a schedule that fits the
     * register file (Rau's register-pressure-driven II growth); the
     * lowest-pressure schedule found is returned either way.
     *
     * The returned schedule records the ResMII and RecMII the search
     * started from, the number of candidate IIs it consumed, the
     * placement steps those candidates took, the steps of the one it
     * came from and those of the costliest feasible one it consumed
     * (BlockSchedule::resMii, recMii, iiAttempts, placements,
     * decidingPlacements, maxFeasiblePlacements).
     */
    BlockSchedule schedule(const std::vector<Operation> &ops,
                           int max_live_target = 0) const;

    /**
     * schedule() under a candidate-II budget: at most `ii_budget`
     * candidate IIs are examined (each counts once, feasible or
     * not; negative means unlimited). If the search decides within
     * budget, the result is identical to schedule(). On exhaustion,
     * the best feasible schedule found so far is returned with its
     * `degraded` flag set; if no candidate was feasible, nullopt —
     * the caller falls back to an acyclic list schedule. The budget
     * is consumed in ascending II order and no wave runs past it, so
     * results stay bit-identical at any pool width.
     *
     * The "sched/ii_attempt" failpoint, evaluated once per candidate
     * II in ascending order, forces that candidate infeasible —
     * tests use it to exhaust the budget deterministically.
     */
    std::optional<BlockSchedule>
    scheduleBudgeted(const std::vector<Operation> &ops,
                     int max_live_target, long ii_budget) const;

    /** Resource-constrained lower bound on the II. */
    int resourceMii(const std::vector<Operation> &ops) const;

  private:
    /**
     * One II try. `by_priority` lists op indices sorted by height
     * (descending, ties in program order) - the scheduling priority,
     * which is static per dependence graph, so it is computed once
     * in scheduleBudgeted() and shared by every attempt. The
     * reservation table and all other scratch are local to the call.
     * `*placements` receives the placement steps taken; a failing
     * try runs out its whole budget of min(32n+256, n+16384) steps:
     * one per op plus a fixed backtracking allowance. Every body
     * gets at least one step per op, so the budget never rules out
     * a candidate that places each op once.
     */
    bool attempt(const std::vector<Operation> &ops,
                 const DependenceGraph &ddg, int ii,
                 const std::vector<int> &by_priority,
                 std::vector<int> *start, long *placements) const;

    const MachineModel &machine_;
    BankOfFn bank_of_;
    obs::StatsScope stats_;
};

} // namespace vvsp

#endif // VVSP_SCHED_MODULO_SCHEDULER_HH
