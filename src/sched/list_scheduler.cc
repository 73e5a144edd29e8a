#include "sched/list_scheduler.hh"

#include <algorithm>
#include <bit>
#include <functional>
#include <numeric>
#include <utility>

#include "ir/dependence_graph.hh"
#include "sched/reg_pressure.hh"
#include "support/logging.hh"

namespace vvsp
{

ListScheduler::ListScheduler(const MachineModel &machine, BankOfFn bank_of)
    : machine_(machine), bank_of_(std::move(bank_of)),
      stats_(obs::globalScope("sched"))
{
}

BlockSchedule
ListScheduler::schedule(const std::vector<Operation> &ops,
                        bool width1) const
{
    const int n = static_cast<int>(ops.size());
    BlockSchedule result;
    result.placed.assign(static_cast<size_t>(n), PlacedOp{});
    if (n == 0) {
        result.length = 0;
        return result;
    }

    for (const auto &op : ops) {
        vvsp_assert(machine_.canExecute(op),
                    "%s cannot execute '%s' (recipe must lower it)",
                    machine_.name().c_str(), op.str().c_str());
    }

    const DependenceGraph ddg(ops, machine_.latencyFn(),
                              /*loop_carried=*/false);

    int branch_idx = -1;
    for (int i = 0; i < n; ++i) {
        if (ops[static_cast<size_t>(i)].info().isBranch) {
            vvsp_assert(branch_idx < 0,
                        "more than one branch in a scheduled block");
            branch_idx = i;
        }
    }

    stats_.bump("list_runs");
    ReservationTable table(machine_, /*ii=*/0, bank_of_, width1);

    // Within a cycle the walk only adds reservations, so a failed
    // probe stays failed until the cycle ends. For an op that is not
    // a transfer, a probe fails exactly when every slot of its class
    // on its cluster is busy: the first failure stamps the op's
    // (cluster, class) key with the cycle, and later ops with that key
    // skip the probe. Transfers also fail on crossbar ports, which are
    // not per class, so they always probe (key -1).
    const int classes = table.numClasses();
    std::vector<int32_t> key(static_cast<size_t>(n), -1);
    for (int i = 0; i < n; ++i) {
        const Operation &op = ops[static_cast<size_t>(i)];
        if (op.op != Opcode::Xfer)
            key[static_cast<size_t>(i)] =
                op.cluster * classes + table.opClassId(op);
    }
    std::vector<int32_t> full_in(
        static_cast<size_t>(machine_.clusters() * classes), -1);
    uint64_t probes = 0;
    uint64_t visits = 0;

    std::vector<int32_t> start(static_cast<size_t>(n), -1);
    std::vector<int32_t> unplaced_preds(static_cast<size_t>(n), 0);
    std::vector<int32_t> earliest(static_cast<size_t>(n), 0);
    for (int i = 0; i < n; ++i) {
        for (int e : ddg.predEdges(i)) {
            const DepEdge &edge = ddg.edges()[static_cast<size_t>(e)];
            // The branch is placed separately at the end; edges out of
            // it (anti-deps on its condition) are trivially satisfied.
            if (edge.distance == 0 && edge.from != branch_idx)
                unplaced_preds[static_cast<size_t>(i)]++;
        }
    }

    // Priority: height descending, ties in program order. It is a
    // strict total order, so it ranks the ops once for the block.
    std::vector<int32_t> by_rank(static_cast<size_t>(n));
    std::iota(by_rank.begin(), by_rank.end(), 0);
    std::sort(by_rank.begin(), by_rank.end(),
              [&ddg](int32_t a, int32_t b) {
                  int ha = ddg.height(a), hb = ddg.height(b);
                  if (ha != hb)
                      return ha > hb;
                  return a < b;
              });
    std::vector<int32_t> rank_of(static_cast<size_t>(n));
    for (int r = 0; r < n; ++r)
        rank_of[static_cast<size_t>(by_rank[static_cast<size_t>(r)])] = r;

    // `ready` holds the ops whose operands are available in the
    // current cycle, as a bitset over priority ranks, so the walk
    // visits them in priority order and placing one clears its bit.
    // An op whose last predecessor is placed joins `ready` from the
    // next cycle on, or waits in `calendar` (a min-heap on its
    // earliest cycle) while its operands are still in flight. So each
    // cycle offers the walk the ops whose operands are ready, in the
    // order a walk over every op would probe them.
    //
    // `ready_in` counts the ready ops per (cluster, class) key. Once
    // every key that still has ready ops carries this cycle's stamp
    // and no transfer is left to visit, every op left would skip its
    // probe, so the walk ends there. A width-1 table refuses every op
    // once the cycle holds one, so that walk ends at its placement.
    std::vector<uint64_t> ready((static_cast<size_t>(n) + 63) / 64, 0);
    std::vector<int32_t> ready_in(full_in.size(), 0);
    int ready_keys = 0; // keys with ready ops.
    int ready_xfers = 0;
    auto make_ready = [&](int32_t i) {
        const auto r = static_cast<size_t>(rank_of[static_cast<size_t>(i)]);
        ready[r / 64] |= uint64_t{1} << (r % 64);
        const int32_t k = key[static_cast<size_t>(i)];
        if (k < 0)
            ++ready_xfers;
        else if (ready_in[static_cast<size_t>(k)]++ == 0)
            ++ready_keys;
    };
    std::vector<std::pair<int32_t, int32_t>> calendar; // (cycle, op).
    std::vector<int32_t> pending;
    for (int i = 0; i < n; ++i) {
        if (i != branch_idx && unplaced_preds[static_cast<size_t>(i)] == 0)
            make_ready(i);
    }

    int placed_count = branch_idx >= 0 ? 1 : 0;
    int cycle = 0;
    const int guard = 64 * n + 1024;
    while (placed_count < n) {
        vvsp_assert(cycle < guard, "list scheduler did not converge");
        while (!calendar.empty() && calendar.front().first <= cycle) {
            std::pop_heap(calendar.begin(), calendar.end(),
                          std::greater<>());
            make_ready(calendar.back().second);
            calendar.pop_back();
        }
        int open_keys = ready_keys; // ready keys not stamped yet.
        int xfers_left = ready_xfers;
        for (size_t w = 0;
             w < ready.size() && (open_keys > 0 || xfers_left > 0); ++w) {
            for (uint64_t bits = ready[w];
                 bits != 0 && (open_keys > 0 || xfers_left > 0);
                 bits &= bits - 1) {
                const int i = by_rank[w * 64 + static_cast<size_t>(
                                                   std::countr_zero(bits))];
                ++visits;
                const int32_t k = key[static_cast<size_t>(i)];
                if (k >= 0 && full_in[static_cast<size_t>(k)] == cycle)
                    continue;
                if (k < 0)
                    --xfers_left;
                int slot = -1;
                ++probes;
                if (!table.tryReserve(ops[static_cast<size_t>(i)], cycle,
                                      &slot)) {
                    if (k >= 0) {
                        full_in[static_cast<size_t>(k)] = cycle;
                        --open_keys;
                    }
                    continue;
                }
                ready[w] &= ~(bits & -bits);
                if (k < 0) {
                    --ready_xfers;
                } else if (--ready_in[static_cast<size_t>(k)] == 0) {
                    --ready_keys;
                    --open_keys;
                }
                if (width1)
                    open_keys = xfers_left = 0;
                start[static_cast<size_t>(i)] = cycle;
                result.placed[static_cast<size_t>(i)] =
                    PlacedOp{cycle, ops[static_cast<size_t>(i)].cluster,
                             slot};
                placed_count++;
                for (int e : ddg.succEdges(i)) {
                    const DepEdge &edge =
                        ddg.edges()[static_cast<size_t>(e)];
                    if (edge.distance != 0)
                        continue;
                    auto t = static_cast<size_t>(edge.to);
                    earliest[t] = std::max(earliest[t],
                                           cycle + edge.latency);
                    if (--unplaced_preds[t] == 0 &&
                        edge.to != branch_idx) {
                        pending.push_back(edge.to);
                    }
                }
            }
        }
        for (int32_t i : pending) {
            const int32_t at = earliest[static_cast<size_t>(i)];
            if (at <= cycle + 1) {
                make_ready(i);
            } else {
                calendar.emplace_back(at, i);
                std::push_heap(calendar.begin(), calendar.end(),
                               std::greater<>());
            }
        }
        pending.clear();
        ++cycle;
    }
    stats_.bump("list_visits", visits);
    stats_.bump("list_probes", probes);

    int issue_max = 0;
    int completion_max = 0;
    for (int i = 0; i < n; ++i) {
        if (i == branch_idx)
            continue;
        int t = start[static_cast<size_t>(i)];
        issue_max = std::max(issue_max, t);
        if (ops[static_cast<size_t>(i)].info().hasDst) {
            completion_max = std::max(
                completion_max,
                t + machine_.latency(ops[static_cast<size_t>(i)]));
        }
    }

    int delay = machine_.branchDelaySlots();
    if (branch_idx >= 0) {
        int cond_ready = 0;
        for (int e : ddg.predEdges(branch_idx)) {
            const DepEdge &edge = ddg.edges()[static_cast<size_t>(e)];
            if (edge.distance != 0)
                continue;
            cond_ready = std::max(
                cond_ready,
                start[static_cast<size_t>(edge.from)] + edge.latency);
        }
        // The branch overlaps trailing ops in its delay slots. In
        // width-1 mode it consumes an instruction of its own, pushing
        // trailing ops one cycle later.
        int bc = width1
                     ? std::max(cond_ready, issue_max + 1 - delay)
                     : std::max(cond_ready,
                                std::max(0, issue_max - delay));
        result.placed[static_cast<size_t>(branch_idx)] =
            PlacedOp{bc, 0, -1};
        start[static_cast<size_t>(branch_idx)] = bc;
        result.length = std::max(issue_max + (width1 ? 2 : 1),
                                 bc + 1 + delay);
        result.length = std::max(result.length, completion_max);
    } else {
        result.length = std::max(issue_max + 1, completion_max);
    }

    result.maxLive = maxLivePerCluster(ops, result, machine_, 0);
    return result;
}

} // namespace vvsp
