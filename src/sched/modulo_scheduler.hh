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

class ThreadPool;

/** Modulo scheduler for an innermost-loop body. */
class ModuloScheduler
{
  public:
    ModuloScheduler(const MachineModel &machine, BankOfFn bank_of);

    /**
     * Configure process-wide speculative II search: candidate IIs of
     * one schedule() call are attempted concurrently on `pool` in
     * waves of `width`, and the results are consumed in ascending II
     * order with exactly the sequential search's control flow - each
     * attempt is a pure function of (ops, ddg, ii), so the outcome is
     * bit-identical to the sequential search at any thread count.
     * width <= 1 or a null pool keeps the sequential path (the
     * default). The pool must outlive scheduling; callers clear the
     * configuration (nullptr, 1) when their pool goes away.
     */
    static void setIiSearch(ThreadPool *pool, int width);

    /**
     * Software-pipeline the loop-body ops (cluster fields assigned;
     * loop-control ops included). Panics if no schedule is found up
     * to a generous II bound, which would be a scheduler bug since
     * II = length(list schedule) is always feasible.
     *
     * When max_live_target > 0 and the minimum-II schedule needs
     * more simultaneously-live values than the target, the II is
     * increased a few steps looking for a schedule that fits the
     * register file (Rau's register-pressure-driven II growth); the
     * lowest-pressure schedule found is returned either way.
     *
     * The returned schedule records the ResMII and RecMII the search
     * started from, the number of candidate IIs it consumed and the
     * placement steps those candidates took (BlockSchedule::resMii,
     * recMii, iiAttempts, placements).
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
     * is consumed in ascending II order in both the sequential and
     * the speculative search, so results stay bit-identical at any
     * thread count.
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
     * in schedule() and shared by every attempt. The caller supplies
     * the reservation table (the pooled member for the sequential
     * search, a private table per speculative task); all other
     * scratch is local to the call. `*placements` receives the
     * placement steps taken; a failing try runs out its whole
     * 32n+256 budget.
     */
    bool attempt(const std::vector<Operation> &ops,
                 const DependenceGraph &ddg, int ii,
                 const std::vector<int> &by_priority,
                 ReservationTable &table, std::vector<int> *start,
                 long *placements) const;

    const MachineModel &machine_;
    BankOfFn bank_of_;
    /** Pooled across attempts; reset() per II tried. */
    mutable ReservationTable table_;
    /** Pooled across schedule() calls; rebuilt in place per block. */
    mutable DependenceGraph ddg_;
    obs::StatsScope stats_;
};

} // namespace vvsp

#endif // VVSP_SCHED_MODULO_SCHEDULER_HH
