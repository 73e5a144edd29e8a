#include "sched/reg_pressure.hh"

#include <algorithm>

#include "support/logging.hh"

namespace vvsp
{

int
maxLivePerCluster(const std::vector<Operation> &ops,
                  const BlockSchedule &sched, const MachineModel &machine,
                  int ii)
{
    (void)machine;
    const int n = static_cast<int>(ops.size());
    if (n == 0)
        return 0;

    // A transferred value has separate lifetimes in the sending and
    // receiving register files, so lifetimes are keyed (vreg, cluster).
    // The keys are dense (vreg * clusters + cluster), so the whole
    // analysis runs on flat arrays instead of a std::map, and
    // pressure is accumulated with difference arrays: one lifetime
    // costs O(1) bookkeeping instead of O(lifetime length).
    Vreg max_reg = 0;
    int clusters = 0;
    bool any = false;
    for (const auto &op : ops) {
        clusters = std::max(clusters, op.cluster + 1);
        for (const auto &s : op.src) {
            if (s.isReg()) {
                max_reg = std::max(max_reg, s.reg);
                any = true;
            }
        }
        if (op.pred.isReg()) {
            max_reg = std::max(max_reg, op.pred.reg);
            any = true;
        }
        if (op.info().hasDst && op.dst != kNoVreg) {
            max_reg = std::max(max_reg, op.dst);
            any = true;
            if (op.op == Opcode::Xfer)
                clusters = std::max(clusters, op.dstCluster + 1);
        }
    }
    if (!any)
        return 0;

    const size_t keys = (static_cast<size_t>(max_reg) + 1) *
                        static_cast<size_t>(clusters);
    // Per key: issue cycle of the def (-1 = live-in) and latest
    // reader cycle (-1 = none).
    std::vector<int32_t> def_of(keys, -1);
    std::vector<int32_t> last_use(keys, -1);
    std::vector<uint8_t> seen(keys, 0);
    std::vector<int32_t> touched;

    auto touch = [&](Vreg r, int cluster) -> size_t {
        size_t k = static_cast<size_t>(r) *
                       static_cast<size_t>(clusters) +
                   static_cast<size_t>(cluster);
        if (!seen[k]) {
            seen[k] = 1;
            touched.push_back(static_cast<int32_t>(k));
        }
        return k;
    };

    for (int i = 0; i < n; ++i) {
        const Operation &op = ops[static_cast<size_t>(i)];
        const PlacedOp &p = sched.placed[static_cast<size_t>(i)];
        auto read = [&](Vreg r) {
            size_t k = touch(r, op.cluster);
            last_use[k] = std::max(last_use[k], p.cycle);
        };
        for (const auto &s : op.src) {
            if (s.isReg())
                read(s.reg);
        }
        if (op.pred.isReg())
            read(op.pred.reg);
        if (op.info().hasDst && op.dst != kNoVreg) {
            int home = op.op == Opcode::Xfer ? op.dstCluster
                                             : op.cluster;
            size_t k = touch(op.dst, home);
            if (def_of[k] < 0)
                def_of[k] = p.cycle;
            else
                def_of[k] = std::min(def_of[k], p.cycle);
        }
    }

    int horizon = 1;
    for (int i = 0; i < n; ++i)
        horizon = std::max(horizon, sched.placed[static_cast<size_t>(
                                        i)].cycle + 2);
    const int rows = ii > 0 ? ii : horizon;

    // Per cluster: a whole-row base count (full II wraps of long
    // modulo lifetimes) plus a difference array for partial ranges.
    std::vector<int32_t> diff(static_cast<size_t>(clusters) *
                                  static_cast<size_t>(rows + 1),
                              0); // clusters x (rows + 1).
    std::vector<int32_t> base(static_cast<size_t>(clusters), 0);

    for (int32_t key : touched) {
        size_t k = static_cast<size_t>(key);
        int cluster = static_cast<int>(
            k % static_cast<size_t>(clusters));
        int from = def_of[k] < 0 ? 0 : def_of[k];
        int to = std::max(last_use[k], from);
        int32_t *d = diff.data() +
                     static_cast<size_t>(cluster) *
                         static_cast<size_t>(rows + 1);
        if (ii > 0) {
            // Cycles [from, to] land on row t % ii: every complete
            // wrap adds 1 to all rows; the remainder covers a
            // circular range of rows starting at from % ii.
            int span = to - from + 1;
            base[static_cast<size_t>(cluster)] += span / ii;
            int rem = span % ii;
            if (rem > 0) {
                int lo = from % ii;
                int hi = lo + rem;
                if (hi <= ii) {
                    d[lo]++;
                    d[hi]--;
                } else {
                    d[lo]++;
                    d[ii]--;
                    d[0]++;
                    d[hi - ii]--;
                }
            }
        } else {
            // Acyclic rows are cycles clamped to the last row.
            if (from < rows) {
                int hi = std::min(to, rows - 1);
                d[from]++;
                d[hi + 1]--;
            }
            int over_start = std::max(from, rows);
            if (to >= over_start) {
                int extra = to - over_start + 1;
                d[rows - 1] += extra;
                d[rows] -= extra;
            }
        }
    }

    int peak = 0;
    for (int c = 0; c < clusters; ++c) {
        const int32_t *d = diff.data() +
                           static_cast<size_t>(c) *
                               static_cast<size_t>(rows + 1);
        int running = base[static_cast<size_t>(c)];
        for (int r = 0; r < rows; ++r) {
            running += d[r];
            peak = std::max(peak, running);
        }
    }
    return peak;
}

} // namespace vvsp
