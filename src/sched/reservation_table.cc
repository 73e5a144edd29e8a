#include "sched/reservation_table.hh"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstring>
#include <numeric>

#include "support/logging.hh"

namespace vvsp
{

namespace
{

/** Alternate units on a slot; ALU ops avoid specialized slots. */
int
specialization(const SlotCaps &caps)
{
    return (caps.mult ? 1 : 0) + (caps.shift ? 1 : 0) +
           (caps.memBank != -1 ? 1 : 0);
}

} // anonymous namespace

ReservationTable::ReservationTable(const MachineModel &machine, int ii,
                                   BankOfFn bank_of, bool width1)
    : machine_(machine), bank_of_(std::move(bank_of)), ii_(ii),
      width1_(width1)
{
    vvsp_assert(ii_ == 0 || !width1_,
                "width-1 mode is for acyclic tables only (ii=%d)", ii_);
    clusters_ = machine_.clusters();
    slots_ = machine_.slotsPerCluster();
    stride_ = clusters_ * slots_;
    ports_ = machine_.crossbarPortsPerCluster();

    const auto &caps = machine_.slotCaps();
    // ALU selection: least-specialized free slot, ties by index -
    // walking a (specialization, index)-sorted list and taking the
    // first free slot reproduces the historical scan exactly.
    for (int s = 0; s < slots_; ++s) {
        const SlotCaps &c = caps[static_cast<size_t>(s)];
        if (c.alu)
            aluOrder_.push_back(s);
        if (c.absDiff)
            absDiffOrder_.push_back(s);
        if (c.shift)
            shiftOrder_.push_back(s);
        if (c.mult)
            multOrder_.push_back(s);
        anySlotOrder_.push_back(s);
    }
    auto by_specialization = [&caps](int a, int b) {
        int sa = specialization(caps[static_cast<size_t>(a)]);
        int sb = specialization(caps[static_cast<size_t>(b)]);
        if (sa != sb)
            return sa < sb;
        return a < b;
    };
    std::sort(aluOrder_.begin(), aluOrder_.end(), by_specialization);
    std::sort(absDiffOrder_.begin(), absDiffOrder_.end(),
              by_specialization);

    memOrder_.resize(static_cast<size_t>(
        std::max(1, machine_.memBanks())));
    for (size_t bank = 0; bank < memOrder_.size(); ++bank) {
        for (int s = 0; s < slots_; ++s) {
            int mb = caps[static_cast<size_t>(s)].memBank;
            if (mb == -2 || mb == static_cast<int>(bank))
                memOrder_[bank].push_back(s);
        }
    }
    for (int s = 0; s < slots_; ++s) {
        if (caps[static_cast<size_t>(s)].memBank == -2)
            anyBankMemOrder_.push_back(s);
    }

    // Enumerate the candidate-slot classes; ids must match
    // opClassId(). The aliased vectors are never resized after this
    // point, so the pointers stay valid for the table's lifetime.
    classOrders_ = {&aluOrder_, &absDiffOrder_, &shiftOrder_,
                    &multOrder_};
    for (const auto &bank_order : memOrder_)
        classOrders_.push_back(&bank_order);
    classOrders_.push_back(&anyBankMemOrder_);
    classOrders_.push_back(&anySlotOrder_);
    numClasses_ = static_cast<int>(classOrders_.size());
    slotClasses_.resize(static_cast<size_t>(slots_));
    for (int c = 0; c < numClasses_; ++c) {
        for (int s : *classOrders_[static_cast<size_t>(c)])
            slotClasses_[static_cast<size_t>(s)].push_back(c);
    }

    // Size the flat state once; acyclic tables grow geometrically.
    int initial_rows = ii_ > 0 ? ii_ : 64;
    ensureRows(initial_rows);
    initModuloBits();
}

void
ReservationTable::initModuloBits()
{
    if (ii_ <= 0)
        return;
    rowWords_ = (ii_ + 63) / 64;
    size_t words = static_cast<size_t>(rowWords_);
    branchBits_.assign(words, 0);
    sendFullBits_.assign(static_cast<size_t>(clusters_) * words, 0);
    recvFullBits_.assign(static_cast<size_t>(clusters_) * words, 0);
    classBusyBits_.assign(static_cast<size_t>(numClasses_) *
                              static_cast<size_t>(clusters_) * words,
                          0);
    classFreeCnt_.assign(static_cast<size_t>(numClasses_) *
                             static_cast<size_t>(clusters_) *
                             static_cast<size_t>(ii_),
                         0);
    for (int c = 0; c < numClasses_; ++c) {
        size_t class_size = classOrders_[static_cast<size_t>(c)]->size();
        if (class_size == 0) {
            // No candidate slots: every row is permanently blocked
            // (rows past ii are masked off by the scan tail anyway).
            std::fill(classBusyBits_.begin() +
                          static_cast<ptrdiff_t>(
                              static_cast<size_t>(c) *
                              static_cast<size_t>(clusters_) * words),
                      classBusyBits_.begin() +
                          static_cast<ptrdiff_t>(
                              static_cast<size_t>(c + 1) *
                              static_cast<size_t>(clusters_) * words),
                      ~uint64_t{0});
            continue;
        }
        size_t base = static_cast<size_t>(c) *
                      static_cast<size_t>(clusters_) *
                      static_cast<size_t>(ii_);
        std::fill(classFreeCnt_.begin() + static_cast<ptrdiff_t>(base),
                  classFreeCnt_.begin() +
                      static_cast<ptrdiff_t>(
                          base + static_cast<size_t>(clusters_) *
                                     static_cast<size_t>(ii_)),
                  static_cast<uint8_t>(class_size));
    }
    scanScratch_.resize(words);
}

void
ReservationTable::ensureRows(int rows)
{
    if (rows <= rows_)
        return;
    int grown = std::max({rows, 2 * rows_, 64});
    slotBusy_.resize(static_cast<size_t>(grown) *
                         static_cast<size_t>(stride_),
                     0);
    sends_.resize(static_cast<size_t>(grown) *
                      static_cast<size_t>(clusters_),
                  0);
    receives_.resize(static_cast<size_t>(grown) *
                         static_cast<size_t>(clusters_),
                     0);
    branchBusy_.resize(static_cast<size_t>(grown), 0);
    totalOps_.resize(static_cast<size_t>(grown), 0);
    rows_ = grown;
}

int
ReservationTable::row(int cycle) const
{
    vvsp_assert(cycle >= 0, "negative cycle %d", cycle);
    return ii_ > 0 ? cycle % ii_ : cycle;
}

int
ReservationTable::opClassId(const Operation &op) const
{
    const int banks = static_cast<int>(memOrder_.size());
    switch (op.info().fuClass) {
      case FuClass::Alu:
        return op.op == Opcode::AbsDiff ? 1 : 0;
      case FuClass::Shift:
        return 2;
      case FuClass::Mult:
        return 3;
      case FuClass::Mem: {
        int bank = bank_of_ ? bank_of_(op.buffer) : 0;
        // Out-of-range banks are served only by any-bank LSU slots.
        if (bank < 0 || bank >= banks)
            return 4 + banks;
        return 4 + bank;
      }
      case FuClass::Xbar:
      case FuClass::Branch:
      case FuClass::None:
        break; // any slot can push to its port.
    }
    return numClasses_ - 1; // anySlotOrder_.
}

const std::vector<int> &
ReservationTable::tryOrder(const Operation &op) const
{
    return *classOrders_[static_cast<size_t>(opClassId(op))];
}

inline bool
ReservationTable::reserveFrom(const Operation &op, int cycle,
                              const int *order_begin,
                              const int *order_end, int *slot_out)
{
    int r = row(cycle);
    ensureRows(r + 1);
    rowsTouched_ = std::max(rowsTouched_, r + 1);

    const int cluster = op.cluster;
    vvsp_assert(cluster >= 0 && cluster < clusters_,
                "op on cluster %d of %d", cluster, clusters_);

    int32_t &total = totalOps_[static_cast<size_t>(r)];
    if (width1_ && total >= 1)
        return false;

    if (op.info().isBranch) {
        uint8_t &busy = branchBusy_[static_cast<size_t>(r)];
        if (busy)
            return false;
        busy = 1;
        total++;
        if (rowWords_ > 0)
            branchBits_[static_cast<size_t>(r) / 64] |=
                uint64_t{1} << (r % 64);
        *slot_out = -1;
        return true;
    }

    uint8_t *send_row =
        sends_.data() + static_cast<size_t>(r) *
                            static_cast<size_t>(clusters_);
    uint8_t *recv_row =
        receives_.data() + static_cast<size_t>(r) *
                               static_cast<size_t>(clusters_);
    if (op.op == Opcode::Xfer) {
        if (send_row[static_cast<size_t>(cluster)] >= ports_)
            return false;
        if (recv_row[static_cast<size_t>(op.dstCluster)] >= ports_)
            return false;
    }

    uint8_t *busy_row =
        slotBusy_.data() + static_cast<size_t>(r) *
                               static_cast<size_t>(stride_) +
        static_cast<size_t>(cluster) * static_cast<size_t>(slots_);
    int chosen = -1;
    for (const int *s = order_begin; s != order_end; ++s) {
        if (!busy_row[static_cast<size_t>(*s)]) {
            chosen = *s;
            break;
        }
    }
    if (chosen < 0)
        return false;

    busy_row[static_cast<size_t>(chosen)] = 1;
    total++;
    if (op.op == Opcode::Xfer) {
        send_row[static_cast<size_t>(cluster)]++;
        recv_row[static_cast<size_t>(op.dstCluster)]++;
    }
    if (rowWords_ > 0) {
        uint64_t bit = uint64_t{1} << (r % 64);
        size_t w = static_cast<size_t>(r) / 64;
        size_t words = static_cast<size_t>(rowWords_);
        for (int32_t c : slotClasses_[static_cast<size_t>(chosen)]) {
            uint8_t &cnt = classFreeCnt_[
                (static_cast<size_t>(c) *
                     static_cast<size_t>(clusters_) +
                 static_cast<size_t>(cluster)) *
                    static_cast<size_t>(ii_) +
                static_cast<size_t>(r)];
            if (--cnt == 0)
                classBusyBits_[(static_cast<size_t>(c) *
                                    static_cast<size_t>(clusters_) +
                                static_cast<size_t>(cluster)) *
                                   words +
                               w] |= bit;
        }
        if (op.op == Opcode::Xfer) {
            if (send_row[static_cast<size_t>(cluster)] >= ports_)
                sendFullBits_[static_cast<size_t>(cluster) * words +
                              w] |= bit;
            if (recv_row[static_cast<size_t>(op.dstCluster)] >=
                ports_)
                recvFullBits_[static_cast<size_t>(op.dstCluster) *
                                  words +
                              w] |= bit;
        }
    }
    *slot_out = chosen;
    return true;
}

bool
ReservationTable::tryReserve(const Operation &op, int cycle,
                             int *slot_out)
{
    const std::vector<int> &order = tryOrder(op);
    return reserveFrom(op, cycle, order.data(),
                       order.data() + order.size(), slot_out);
}

bool
ReservationTable::tryReserveSlot(const Operation &op, int cycle, int slot)
{
    const std::vector<int> &order = tryOrder(op);
    vvsp_assert(std::find(order.begin(), order.end(), slot) !=
                    order.end(),
                "slot %d cannot issue '%s'", slot, op.str().c_str());
    int chosen = -1;
    return reserveFrom(op, cycle, &slot, &slot + 1, &chosen);
}

int
ReservationTable::findFirstFit(const Operation &op, int estart,
                               int *slot_out)
{
    vvsp_assert(ii_ > 0 && rowWords_ > 0,
                "findFirstFit needs a modulo table");
    vvsp_assert(estart >= 0, "negative estart %d", estart);

    // Bitmap of modulo rows that cannot take op: the incrementally
    // maintained per-class mask (all candidate slots busy), plus for
    // transfers the rows where either crossbar side is saturated.
    uint64_t *busy = scanScratch_.data();
    const size_t words = static_cast<size_t>(rowWords_);
    if (op.info().isBranch) {
        std::memcpy(busy, branchBits_.data(),
                    words * sizeof(uint64_t));
    } else {
        const int cluster = op.cluster;
        const uint64_t *cls =
            classBusyBits_.data() +
            (static_cast<size_t>(opClassId(op)) *
                 static_cast<size_t>(clusters_) +
             static_cast<size_t>(cluster)) *
                words;
        if (op.op == Opcode::Xfer) {
            const uint64_t *snd =
                sendFullBits_.data() +
                static_cast<size_t>(cluster) * words;
            const uint64_t *rcv =
                recvFullBits_.data() +
                static_cast<size_t>(op.dstCluster) * words;
            for (size_t w = 0; w < words; ++w)
                busy[w] = cls[w] | snd[w] | rcv[w];
        } else {
            std::memcpy(busy, cls, words * sizeof(uint64_t));
        }
    }
    // Rows past ii in the last word do not exist.
    if (ii_ % 64)
        busy[words - 1] |= ~((uint64_t{1} << (ii_ % 64)) - 1);

    // First free row circularly from estart's row; probing cycles
    // t = estart, estart+1, ... visits rows in exactly this order.
    const int r0 = row(estart);
    auto first_free = [&](int lo, int hi) -> int { // rows [lo, hi).
        for (int w = lo / 64; w <= (hi - 1) / 64; ++w) {
            uint64_t free = ~busy[w];
            if (w == lo / 64 && lo % 64)
                free &= ~uint64_t{0} << (lo % 64);
            int end = hi - w * 64;
            if (end < 64)
                free &= (uint64_t{1} << end) - 1;
            if (free)
                return w * 64 + std::countr_zero(free);
        }
        return -1;
    };
    int r = first_free(r0, ii_);
    if (r < 0 && r0 > 0)
        r = first_free(0, r0);
    if (r < 0)
        return -1;
    int t = estart + (r >= r0 ? r - r0 : r - r0 + ii_);
    bool ok = tryReserve(op, t, slot_out);
    vvsp_assert(ok, "free row %d rejected op at t=%d ii=%d", r, t,
                ii_);
    return t;
}

void
ReservationTable::release(const Operation &op, int cycle, int slot)
{
    int r = row(cycle);
    vvsp_assert(r < rowsTouched_, "release of untouched cycle %d",
                cycle);
    totalOps_[static_cast<size_t>(r)]--;
    uint64_t bit = uint64_t{1} << (r % 64);
    size_t w = static_cast<size_t>(r) / 64;
    size_t words = static_cast<size_t>(rowWords_);
    if (op.info().isBranch) {
        branchBusy_[static_cast<size_t>(r)] = 0;
        if (rowWords_ > 0)
            branchBits_[w] &= ~bit;
        return;
    }
    slotBusy_[static_cast<size_t>(r) * static_cast<size_t>(stride_) +
              static_cast<size_t>(op.cluster) *
                  static_cast<size_t>(slots_) +
              static_cast<size_t>(slot)] = 0;
    if (rowWords_ > 0) {
        for (int32_t c : slotClasses_[static_cast<size_t>(slot)]) {
            uint8_t &cnt = classFreeCnt_[
                (static_cast<size_t>(c) *
                     static_cast<size_t>(clusters_) +
                 static_cast<size_t>(op.cluster)) *
                    static_cast<size_t>(ii_) +
                static_cast<size_t>(r)];
            if (cnt++ == 0)
                classBusyBits_[(static_cast<size_t>(c) *
                                    static_cast<size_t>(clusters_) +
                                static_cast<size_t>(op.cluster)) *
                                   words +
                               w] &= ~bit;
        }
    }
    if (op.op == Opcode::Xfer) {
        sends_[static_cast<size_t>(r) *
                   static_cast<size_t>(clusters_) +
               static_cast<size_t>(op.cluster)]--;
        receives_[static_cast<size_t>(r) *
                      static_cast<size_t>(clusters_) +
                  static_cast<size_t>(op.dstCluster)]--;
        // The decrement leaves the count below ports_, so the
        // saturation bits always clear.
        if (rowWords_ > 0) {
            sendFullBits_[static_cast<size_t>(op.cluster) * words +
                          w] &= ~bit;
            recvFullBits_[static_cast<size_t>(op.dstCluster) * words +
                          w] &= ~bit;
        }
    }
}

std::vector<int>
witnessSlots(const std::vector<Operation> &ops,
             const std::vector<PlacedOp> &placed, int ii,
             const MachineModel &machine, const BankOfFn &bank_of,
             bool width1)
{
    ReservationTable table(machine, ii, bank_of, width1);
    auto hardness = [](const Operation &op) {
        switch (op.info().fuClass) {
          case FuClass::Mem:
          case FuClass::Mult:
          case FuClass::Shift:
            return 0;
          case FuClass::Xbar:
            return 1;
          default:
            return 2;
        }
    };
    auto row = [&placed, ii](size_t i) {
        int c = placed[i].cycle;
        return ii > 0 ? c % ii : c;
    };
    std::vector<size_t> order(ops.size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](size_t a, size_t b) {
                         if (row(a) != row(b))
                             return row(a) < row(b);
                         return hardness(ops[a]) < hardness(ops[b]);
                     });
    std::vector<int> slots(ops.size(), -1);

    // The op holding each (cluster, slot) of the current row, -1 when
    // free: the order reserves one row after another.
    const int per_cluster = machine.slotsPerCluster();
    std::vector<int> holder(
        static_cast<size_t>(machine.clusters() * per_cluster), -1);
    auto held = [&](size_t i, int slot) -> int & {
        return holder[static_cast<size_t>(ops[i].cluster * per_cluster +
                                          slot)];
    };
    // Kuhn's augmenting path from op `i`: a slot of its class that is
    // free, or whose holder can move on to another slot of its own
    // class. The moves are collected deepest first.
    std::vector<uint8_t> seen(static_cast<size_t>(per_cluster));
    std::vector<std::pair<size_t, int>> moves;
    auto augment = [&](auto &&self, size_t i) -> bool {
        for (int s : table.tryOrder(ops[i])) {
            if (seen[static_cast<size_t>(s)])
                continue;
            seen[static_cast<size_t>(s)] = 1;
            int h = held(i, s);
            if (h < 0 || self(self, static_cast<size_t>(h))) {
                moves.emplace_back(i, s);
                return true;
            }
        }
        return false;
    };
    auto reseat = [&](size_t i) -> bool {
        std::fill(seen.begin(), seen.end(), 0);
        moves.clear();
        if (!augment(augment, i))
            return false;
        for (const auto &[j, s] : moves) {
            if (j != i) {
                table.release(ops[j], placed[j].cycle, slots[j]);
                held(j, slots[j]) = -1;
            }
        }
        for (const auto &[j, s] : moves) {
            if (!table.tryReserveSlot(ops[j], placed[j].cycle, s))
                return false;
            slots[j] = s;
            held(j, s) = static_cast<int>(j);
        }
        return true;
    };

    int current_row = -1;
    for (size_t i : order) {
        if (width1 && ops[i].info().isBranch)
            continue;
        if (row(i) != current_row) {
            std::fill(holder.begin(), holder.end(), -1);
            current_row = row(i);
        }
        if (table.tryReserve(ops[i], placed[i].cycle, &slots[i])) {
            if (slots[i] >= 0)
                held(i, slots[i]) = static_cast<int>(i);
            continue;
        }
        bool ok = !width1 && reseat(i);
        vvsp_assert(ok, "no witness slot for '%s' at cycle %d",
                    ops[i].str().c_str(), placed[i].cycle);
    }
    return slots;
}

} // namespace vvsp
