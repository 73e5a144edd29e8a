#include "sched/list_scheduler.hh"

#include <algorithm>

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
    // not per class, so they always probe (key -1). A width-1 table
    // refuses every op once the cycle holds one, so there one stamp
    // covers the whole cycle.
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
    int cycle_full = -1;
    uint64_t probes = 0;

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

    auto priority_less = [&ddg](int32_t a, int32_t b) {
        int ha = ddg.height(a), hb = ddg.height(b);
        if (ha != hb)
            return ha > hb;
        return a < b;
    };

    // `ready` is kept sorted by priority at all times: the per-cycle
    // pass walks it in order and compacts survivors in place, and
    // ops that become ready during a cycle are batched in `pending`
    // and merged by sorted insertion afterwards (they are not
    // eligible until the next cycle anyway). priority_less is a
    // strict total order, so this reproduces the historical
    // sort-every-cycle schedule exactly.
    std::vector<int32_t> ready, pending;
    for (int i = 0; i < n; ++i) {
        if (i != branch_idx && unplaced_preds[static_cast<size_t>(i)] == 0)
            ready.push_back(i);
    }
    std::sort(ready.begin(), ready.end(), priority_less);

    int placed_count = branch_idx >= 0 ? 1 : 0;
    int cycle = 0;
    const int guard = 64 * n + 1024;
    while (placed_count < n) {
        vvsp_assert(cycle < guard, "list scheduler did not converge");
        size_t keep = 0;
        for (size_t rdi = 0; rdi < ready.size(); ++rdi) {
            int i = ready[rdi];
            const int32_t k = key[static_cast<size_t>(i)];
            if (earliest[static_cast<size_t>(i)] > cycle ||
                cycle_full == cycle ||
                (k >= 0 && full_in[static_cast<size_t>(k)] == cycle)) {
                ready[keep++] = i;
                continue;
            }
            int slot = -1;
            ++probes;
            if (table.tryReserve(ops[static_cast<size_t>(i)], cycle,
                                 &slot)) {
                if (width1)
                    cycle_full = cycle;
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
            } else {
                if (k >= 0)
                    full_in[static_cast<size_t>(k)] = cycle;
                ready[keep++] = i;
            }
        }
        ready.resize(keep);
        for (int32_t i : pending) {
            ready.insert(std::lower_bound(ready.begin(), ready.end(),
                                          i, priority_less),
                         i);
        }
        pending.clear();
        ++cycle;
    }
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

    result.instructions = result.length;
    result.maxLive = maxLivePerCluster(ops, result, machine_, 0);
    return result;
}

} // namespace vvsp
