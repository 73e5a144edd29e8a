#include "sched/modulo_scheduler.hh"

#include <algorithm>
#include <bit>
#include <limits>
#include <map>
#include <numeric>

#include "sched/reg_pressure.hh"
#include "support/failpoint.hh"
#include "support/logging.hh"
#include "support/thread_pool.hh"

namespace vvsp
{

ModuloScheduler::ModuloScheduler(const MachineModel &machine,
                                 BankOfFn bank_of)
    : machine_(machine), bank_of_(std::move(bank_of)),
      stats_(obs::globalScope("sched"))
{
}

int
ModuloScheduler::resourceMii(const std::vector<Operation> &ops) const
{
    const int clusters = machine_.clusters();
    const int banks = std::max(1, machine_.memBanks());
    // Per-cluster class counts, flat: [0,C) total, [C,2C) mult,
    // [2C,3C) shift, [3C,4C) sends, [4C,5C) receives.
    std::vector<int32_t> counts(static_cast<size_t>(5 * clusters), 0);
    int32_t *total = counts.data();
    int32_t *mult = total + clusters;
    int32_t *shift = mult + clusters;
    int32_t *sends = shift + clusters;
    int32_t *receives = sends + clusters;
    std::vector<int32_t> mem_cnt(static_cast<size_t>(clusters) *
                                     static_cast<size_t>(banks),
                                 0); // (cluster, bank), banks in range.
    std::map<std::pair<int, int>, int> mem_odd; // out-of-range banks.
    int branches = 0;
    for (const auto &op : ops) {
        switch (op.info().fuClass) {
          case FuClass::Branch:
            branches++;
            continue;
          case FuClass::None:
            continue;
          default:
            break;
        }
        total[op.cluster]++;
        switch (op.info().fuClass) {
          case FuClass::Mult:
            mult[op.cluster]++;
            break;
          case FuClass::Shift:
            shift[op.cluster]++;
            break;
          case FuClass::Mem: {
            int bank = bank_of_ ? bank_of_(op.buffer) : 0;
            if (bank >= 0 && bank < banks) {
                mem_cnt[static_cast<size_t>(op.cluster) *
                            static_cast<size_t>(banks) +
                        static_cast<size_t>(bank)]++;
            } else {
                mem_odd[{op.cluster, bank}]++;
            }
            break;
          }
          case FuClass::Xbar:
            sends[op.cluster]++;
            receives[op.dstCluster]++;
            break;
          default:
            break;
        }
        // Abs-diff issues from any ALU slot: no dedicated bound.
    }

    auto ceil_div = [](int a, int b) { return (a + b - 1) / b; };
    auto servers_of = [this](int bank) {
        int servers = 0;
        for (const auto &caps : machine_.slotCaps()) {
            if (caps.memBank == -2 || caps.memBank == bank)
                servers++;
        }
        return servers;
    };
    const ClusterConfig &cl = machine_.config().cluster;
    int mii = std::max(1, branches);
    int ports = machine_.crossbarPortsPerCluster();
    for (int c = 0; c < clusters; ++c) {
        mii = std::max(mii, ceil_div(total[c], cl.issueSlots));
        if (mult[c] > 0)
            mii = std::max(mii, ceil_div(mult[c], cl.numMultipliers));
        if (shift[c] > 0)
            mii = std::max(mii, ceil_div(shift[c], cl.numShifters));
        if (sends[c] > 0)
            mii = std::max(mii, ceil_div(sends[c], ports));
        if (receives[c] > 0)
            mii = std::max(mii, ceil_div(receives[c], ports));
        for (int b = 0; b < banks; ++b) {
            int k = mem_cnt[static_cast<size_t>(c) *
                                static_cast<size_t>(banks) +
                            static_cast<size_t>(b)];
            if (k == 0)
                continue;
            int servers = servers_of(b);
            vvsp_assert(servers > 0,
                        "no load/store unit serves bank %d", b);
            mii = std::max(mii, ceil_div(k, servers));
        }
    }
    for (const auto &[cb, k] : mem_odd) {
        int servers = servers_of(cb.second);
        vvsp_assert(servers > 0, "no load/store unit serves bank %d",
                    cb.second);
        mii = std::max(mii, ceil_div(k, servers));
    }
    return mii;
}

bool
ModuloScheduler::attempt(const std::vector<Operation> &ops,
                         const DependenceGraph &ddg, int ii,
                         const std::vector<int> &by_priority,
                         std::vector<int> *start, long *placements) const
{
    const int n = static_cast<int>(ops.size());
    start->assign(static_cast<size_t>(n), -1);
    std::vector<int32_t> prev(static_cast<size_t>(n), -1);
    std::vector<int32_t> slot_of(static_cast<size_t>(n), -1);
    std::vector<int32_t> rank_of(static_cast<size_t>(n));
    ReservationTable table(machine_, ii, bank_of_);

    // Ops placed in each modulo row as intrusive doubly-linked lists:
    // forced placement evicts a row's occupants by walking its list
    // instead of scanning all n ops.
    std::vector<int32_t> row_head(static_cast<size_t>(ii), -1);
    std::vector<int32_t> nxt(static_cast<size_t>(n), -1);
    std::vector<int32_t> prv(static_cast<size_t>(n), -1);
    auto row_link = [&](int i, int cycle) {
        int r = cycle % ii;
        int h = row_head[static_cast<size_t>(r)];
        nxt[static_cast<size_t>(i)] = h;
        prv[static_cast<size_t>(i)] = -r - 2; // head marker.
        if (h >= 0)
            prv[static_cast<size_t>(h)] = i;
        row_head[static_cast<size_t>(r)] = i;
    };
    auto row_unlink = [&](int i) {
        int p = prv[static_cast<size_t>(i)];
        int x = nxt[static_cast<size_t>(i)];
        if (p >= 0)
            nxt[static_cast<size_t>(p)] = x;
        else
            row_head[static_cast<size_t>(-p - 2)] = x;
        if (x >= 0)
            prv[static_cast<size_t>(x)] = p;
    };

    // Unscheduled ops as a bitset over priority ranks: the first set
    // bit is the next op to place. `lo` is a cursor with every word
    // below it zero. Clearing bits keeps that true and unschedule()
    // lowers `lo` to the evicted rank's word, so selection resumes
    // at `lo` (amortized O(1)) instead of scanning from word 0.
    for (int r = 0; r < n; ++r)
        rank_of[static_cast<size_t>(by_priority[static_cast<size_t>(
            r)])] = r;
    std::vector<uint64_t> unplaced((static_cast<size_t>(n) + 63) / 64,
                                   ~uint64_t{0});
    if (n % 64)
        unplaced.back() = (uint64_t{1} << (n % 64)) - 1;
    size_t lo = 0;

    auto unschedule = [&](int i) {
        if ((*start)[static_cast<size_t>(i)] < 0)
            return;
        table.release(ops[static_cast<size_t>(i)],
                      (*start)[static_cast<size_t>(i)],
                      slot_of[static_cast<size_t>(i)]);
        (*start)[static_cast<size_t>(i)] = -1;
        row_unlink(i);
        size_t r = static_cast<size_t>(rank_of[static_cast<size_t>(i)]);
        unplaced[r / 64] |= uint64_t{1} << (r % 64);
        lo = std::min(lo, r / 64);
    };

    // Placement steps per candidate: one per op plus a fixed
    // backtracking allowance, or 32n+256 when that is smaller. A
    // candidate's path is a pure function of (ops, ddg, ii) and the
    // budget only decides where it stops, so a smaller budget can
    // turn a success into a failure but never the reverse. The
    // allowance binds above 520 ops, where no feasible candidate the
    // search consumes backtracks more than 9672 steps
    // (BlockSchedule::maxFeasiblePlacements); below, one 241-op
    // success needs 93 % of its 32n+256.
    constexpr long kBacktrackSteps = 16384;
    const long budget = std::min(32L * n + 256, n + kBacktrackSteps);
    long steps = 0;
    while (true) {
        // Highest-priority unscheduled op: height descending, ties
        // in program order - i.e. the lowest set rank.
        while (lo < unplaced.size() && unplaced[lo] == 0)
            ++lo;
        if (lo == unplaced.size() || steps == budget) {
            *placements = steps;
            return lo == unplaced.size(); // all placed.
        }
        ++steps;
        const size_t rank =
            lo * 64 + static_cast<size_t>(std::countr_zero(unplaced[lo]));
        const int op_idx = by_priority[rank];

        int estart = 0;
        for (int e : ddg.predEdges(op_idx)) {
            const DepEdge &edge = ddg.edges()[static_cast<size_t>(e)];
            int from = (*start)[static_cast<size_t>(edge.from)];
            if (from < 0)
                continue;
            estart = std::max(estart,
                              from + edge.latency - ii * edge.distance);
        }

        const Operation &op = ops[static_cast<size_t>(op_idx)];
        int slot = -1;
        int placed_at = table.findFirstFit(op, estart, &slot);
        if (placed_at < 0) {
            // Forced placement: free the modulo row and take it.
            // Eviction releases independent reservations, so the
            // walk order over the row's occupants does not matter.
            int t = std::max(estart,
                             prev[static_cast<size_t>(op_idx)] + 1);
            for (int i = row_head[static_cast<size_t>(t % ii)];
                 i >= 0;) {
                int next = nxt[static_cast<size_t>(i)];
                unschedule(i);
                i = next;
            }
            bool ok = table.tryReserve(op, t, &slot);
            vvsp_assert(ok, "forced placement failed at t=%d ii=%d", t,
                        ii);
            placed_at = t;
        }
        (*start)[static_cast<size_t>(op_idx)] = placed_at;
        slot_of[static_cast<size_t>(op_idx)] = slot;
        prev[static_cast<size_t>(op_idx)] = placed_at;
        row_link(op_idx, placed_at);
        // Forced placement may have evicted lower ranks: clear this
        // op's own bit, not the lowest one.
        unplaced[rank / 64] &= ~(uint64_t{1} << (rank % 64));

        // Evict successors whose dependence the new placement breaks.
        // Self-edges always hold: scheduleBudgeted() checks once that
        // the MII covers every one of them.
        for (int e : ddg.succEdges(op_idx)) {
            const DepEdge &edge = ddg.edges()[static_cast<size_t>(e)];
            int to = (*start)[static_cast<size_t>(edge.to)];
            if (edge.to == op_idx || to < 0)
                continue;
            if (to < placed_at + edge.latency - ii * edge.distance)
                unschedule(edge.to);
        }
    }
}

BlockSchedule
ModuloScheduler::schedule(const std::vector<Operation> &ops,
                          int max_live_target) const
{
    auto result = scheduleBudgeted(ops, max_live_target,
                                   /*ii_budget=*/-1);
    if (!result) {
        vvsp_panic("modulo scheduler found no II for %d ops on %s",
                   static_cast<int>(ops.size()),
                   machine_.name().c_str());
    }
    return std::move(*result);
}

std::optional<BlockSchedule>
ModuloScheduler::scheduleBudgeted(const std::vector<Operation> &ops,
                                  int max_live_target,
                                  long ii_budget) const
{
    const int n = static_cast<int>(ops.size());
    vvsp_assert(n > 0, "modulo scheduling an empty block");
    for (const auto &op : ops) {
        vvsp_assert(machine_.canExecute(op),
                    "%s cannot execute '%s' (recipe must lower it)",
                    machine_.name().c_str(), op.str().c_str());
    }

    stats_.bump("modulo_runs");
    const DependenceGraph ddg(ops, machine_.latencyFn(),
                              /*loop_carried=*/true);
    const int res_mii = resourceMii(ops);
    const int rec_mii = ddg.recurrenceMii();
    const int mii = std::max(res_mii, rec_mii);
    // RecMII covers every self-edge (lat <= RecMII * dist), so no
    // candidate II >= MII can break one and attempt() skips them.
    for (const DepEdge &edge : ddg.edges()) {
        vvsp_assert(edge.from != edge.to ||
                        edge.latency <= mii * edge.distance,
                    "self-edge on op %d (lat %d, dist %d) exceeds "
                    "MII %d",
                    edge.from, edge.latency, edge.distance, mii);
    }

    // Static scheduling priority, shared by every II attempt.
    std::vector<int> by_priority(static_cast<size_t>(n));
    std::iota(by_priority.begin(), by_priority.end(), 0);
    std::stable_sort(by_priority.begin(), by_priority.end(),
                     [&ddg](int a, int b) {
                         return ddg.height(a) > ddg.height(b);
                     });

    auto build = [&](int ii, const std::vector<int> &start,
                     long steps) -> BlockSchedule {
        BlockSchedule result;
        result.ii = ii;
        result.decidingPlacements = steps;
        result.placed.assign(static_cast<size_t>(n), PlacedOp{});
        int max_start = 0;
        for (int i = 0; i < n; ++i) {
            result.placed[static_cast<size_t>(i)] =
                PlacedOp{start[static_cast<size_t>(i)],
                         ops[static_cast<size_t>(i)].cluster, 0};
            max_start = std::max(max_start,
                                 start[static_cast<size_t>(i)]);
        }
        result.stages = max_start / ii + 1;
        result.length = max_start + 1;
        result.maxLive = maxLivePerCluster(ops, result, machine_, ii);
        return result;
    };

    // Feasible IIs are consumed in ascending order, so every wave
    // width returns the same schedule.
    BlockSchedule best;
    bool have_best = false;
    int pressure_retries = 0;
    long max_feasible_steps = 0;
    BlockSchedule decided;
    auto consume = [&](BlockSchedule cand) -> bool {
        max_feasible_steps =
            std::max(max_feasible_steps, cand.decidingPlacements);
        if (max_live_target <= 0 || cand.maxLive <= max_live_target) {
            decided = std::move(cand);
            return true;
        }
        if (!have_best || cand.maxLive < best.maxLive) {
            best = std::move(cand);
            have_best = true;
        }
        // A few slack steps often untangle the bin-packing enough
        // for value lifetimes to shorten; give up after that.
        if (++pressure_retries >= 6) {
            decided = best;
            return true;
        }
        return false;
    };

    // Candidate-II budget, consumed in ascending II order at the
    // point each candidate's result is inspected. The
    // "sched/ii_attempt" failpoint is likewise evaluated once per
    // candidate, in order.
    long budget = ii_budget < 0 ? std::numeric_limits<long>::max()
                                : ii_budget;
    bool exhausted = false;
    int attempts = 0;
    long placements = 0;

    // The II bounds and the attempt and placement counts travel with
    // the schedule, so telemetry never re-derives them.
    auto finish = [&](BlockSchedule s) {
        s.resMii = res_mii;
        s.recMii = rec_mii;
        s.iiAttempts = attempts;
        s.placements = placements;
        s.maxFeasiblePlacements = max_feasible_steps;
        return s;
    };

    // Attempt a wave of candidate IIs, as wide as the pool this call
    // runs on and never past the remaining budget, then replay the
    // decision over the wave's results in ascending II order.
    // attempt() is a pure function of (ops, ddg, ii) with its own
    // table and scratch, so results past the deciding one are simply
    // discarded. A wave of one runs inline on the calling thread.
    const int max_ii = mii + 2 * n + 16;
    ThreadPool *pool = ThreadPool::current();
    const int width = pool != nullptr ? pool->threadCount() : 1;
    for (int base = mii; base <= max_ii;) {
        if (budget <= 0) {
            exhausted = true;
            break;
        }
        const int wave = static_cast<int>(std::min<long>(
            {width, max_ii - base + 1, budget}));
        std::vector<uint8_t> ok(static_cast<size_t>(wave), 0);
        std::vector<long> steps(static_cast<size_t>(wave), 0);
        std::vector<BlockSchedule> cands(static_cast<size_t>(wave));
        TaskGroup group(wave > 1 ? pool : nullptr);
        for (int k = 0; k < wave; ++k) {
            group.submit([&, k, base] {
                int ii = base + k;
                std::vector<int> start;
                if (attempt(ops, ddg, ii, by_priority, &start,
                            &steps[static_cast<size_t>(k)])) {
                    cands[static_cast<size_t>(k)] = build(
                        ii, start, steps[static_cast<size_t>(k)]);
                    ok[static_cast<size_t>(k)] = 1;
                }
            });
        }
        group.wait();
        for (int k = 0; k < wave; ++k) {
            --budget;
            ++attempts;
            if (failpoint::evaluate("sched/ii_attempt"))
                continue; // forced infeasible.
            placements += steps[static_cast<size_t>(k)];
            if (!ok[static_cast<size_t>(k)])
                continue;
            if (consume(std::move(cands[static_cast<size_t>(k)])))
                return finish(std::move(decided));
        }
        base += wave;
    }
    if (exhausted)
        stats_.bump("budget_exhausted");
    if (have_best) {
        best.degraded = exhausted;
        return finish(std::move(best));
    }
    return std::nullopt;
}

} // namespace vvsp
