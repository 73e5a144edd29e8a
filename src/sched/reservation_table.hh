/**
 * @file
 * Cycle-by-cycle resource bookkeeping for the schedulers.
 *
 * Tracks, per cycle: issue-slot occupancy per cluster (with slot
 * capability matching), the machine-wide control slot for branches,
 * crossbar send/receive ports per cluster, and an optional global
 * width-1 constraint used for the paper's sequential baselines
 * ("limited to one operation per instruction"). For modulo
 * scheduling the table wraps modulo the initiation interval.
 *
 * All per-cycle state lives in flat arrays whose strides are fixed
 * once from the MachineModel, and the slot-selection policy is
 * precomputed into per-operation-class candidate orders. Each list
 * schedule and each modulo II attempt builds its own table.
 */

#ifndef VVSP_SCHED_RESERVATION_TABLE_HH
#define VVSP_SCHED_RESERVATION_TABLE_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "arch/machine_model.hh"
#include "sched/schedule.hh"

namespace vvsp
{

/** Maps a buffer id to its memory bank (from the function). */
using BankOfFn = std::function<int(int buffer)>;

/** Per-cycle resource reservations. */
class ReservationTable
{
  public:
    /**
     * @param machine the target datapath.
     * @param ii      initiation interval; 0 for acyclic scheduling.
     * @param bank_of resolves memory ops' buffers to banks.
     * @param width1  global one-operation-per-cycle mode (acyclic
     *                tables only).
     */
    ReservationTable(const MachineModel &machine, int ii,
                     BankOfFn bank_of, bool width1 = false);

    /**
     * Try to reserve resources for op at the given cycle; on success
     * records the reservation and returns the chosen slot in
     * *slot_out (-1 for control-slot ops). The op's cluster field
     * selects the cluster; Xfer ops also charge the destination
     * cluster's receive port.
     */
    bool tryReserve(const Operation &op, int cycle, int *slot_out);

    /**
     * tryReserve() restricted to one issue slot, which must be one of
     * tryOrder(op): fails when that slot, or a crossbar port the op
     * needs, is busy.
     */
    bool tryReserveSlot(const Operation &op, int cycle, int slot);

    /**
     * Modulo tables only (ii > 0): earliest cycle in
     * [estart, estart + ii) where op fits, reserving it there and
     * returning the cycle (slot in *slot_out), or -1 when no modulo
     * row can take it. Exactly equivalent to probing tryReserve at
     * estart, estart+1, ... — each modulo row's availability is read
     * from per-resource row bitmaps, so the scan is a handful of
     * word operations instead of ii slot walks.
     */
    int findFirstFit(const Operation &op, int estart, int *slot_out);

    /** Release a previous reservation (modulo-scheduler eviction). */
    void release(const Operation &op, int cycle, int slot);

    /**
     * Dense id in [0, numClasses()) of the op's candidate-slot class.
     * Ops of one class on one cluster compete for the same slots: an
     * op other than a transfer or a branch fits in a cycle exactly
     * when some slot of its class on its cluster is free there (and,
     * in width-1 mode, the cycle holds no op yet).
     */
    int opClassId(const Operation &op) const;

    /** Number of candidate-slot classes. */
    int numClasses() const { return numClasses_; }

    /** Candidate slots for an op, in reservation-preference order. */
    const std::vector<int> &tryOrder(const Operation &op) const;

  private:
    int row(int cycle) const;
    void ensureRows(int rows);
    void initModuloBits();

    /** tryReserve() on the first free slot of `order`. */
    bool reserveFrom(const Operation &op, int cycle,
                     const int *order_begin, const int *order_end,
                     int *slot_out);

    const MachineModel &machine_;
    BankOfFn bank_of_;
    int ii_;
    bool width1_;

    int clusters_ = 0;
    int slots_ = 0;  ///< issue slots per cluster.
    int stride_ = 0; ///< clusters * slots.
    int ports_ = 0;  ///< crossbar ports per cluster.

    /**
     * Precomputed slot orders. ALU ops prefer the least-specialized
     * free slot (so alternate-unit slots stay available); alternate
     * units take the first capable slot in index order.
     */
    std::vector<int> aluOrder_;
    std::vector<int> absDiffOrder_;
    std::vector<int> shiftOrder_;
    std::vector<int> multOrder_;
    std::vector<std::vector<int>> memOrder_; ///< by bank.
    std::vector<int> anyBankMemOrder_;       ///< memBank == -2 only.
    std::vector<int> anySlotOrder_;          ///< Xfer & friends.

    /**
     * The candidate-slot lists above, enumerated as dense classes:
     * classOrders_[c] aliases one of the order vectors, and
     * slotClasses_[s] lists every class whose order contains slot s.
     * findFirstFit masks are kept per class, not per slot.
     */
    int numClasses_ = 0;
    std::vector<const std::vector<int> *> classOrders_;
    std::vector<std::vector<int32_t>> slotClasses_;

    /** Flat per-row state; row r occupies [r*stride, (r+1)*stride). */
    std::vector<uint8_t> slotBusy_;  ///< rows x stride.
    std::vector<uint8_t> sends_;     ///< rows x clusters.
    std::vector<uint8_t> receives_;  ///< rows x clusters.
    std::vector<uint8_t> branchBusy_;///< rows.
    std::vector<int32_t> totalOps_;  ///< rows.
    int rows_ = 0;       ///< allocated row capacity.
    int rowsTouched_ = 0;///< rows reserved in so far.

    /**
     * Modulo-mode row bitmaps, mirrored by tryReserve()/release()
     * when ii > 0: bit r set means modulo row r cannot supply the
     * resource. findFirstFit() reads the per-class combined mask
     * directly (ORing in crossbar saturation for transfers) instead
     * of probing rows one by one or re-ANDing per-slot maps.
     *
     * classBusyBits_ bit r is set for (class, cluster) exactly when
     * every candidate slot of that class is busy in modulo row r;
     * classFreeCnt_ holds the matching free-slot counts so the bit
     * can be maintained in O(classes-of-slot) on reserve/release.
     */
    int rowWords_ = 0; ///< 64-bit words per bitmap; 0 when ii == 0.
    std::vector<uint64_t> branchBits_;     ///< words.
    std::vector<uint64_t> sendFullBits_;   ///< clusters x words.
    std::vector<uint64_t> recvFullBits_;   ///< clusters x words.
    std::vector<uint64_t> classBusyBits_;  ///< (class,cluster) x words.
    std::vector<uint8_t> classFreeCnt_;    ///< (class,cluster) x ii.
    std::vector<uint64_t> scanScratch_;    ///< findFirstFit workspace.
};

/**
 * Re-derive an issue slot for every op of a placed group through a
 * fresh table (`ii` 0 for acyclic groups): ops are reserved in order
 * of (row, unit-class hardness), hardest-constrained classes first
 * within each row. When an op finds every slot of its class taken,
 * the ops already in its row and cluster are re-seated along an
 * augmenting path (one slot's holder moves to another slot of its
 * own class, and so on to a free slot), so a row the scheduler
 * could fill always gets a witness assignment, even where two
 * alternate units share a slot with a load/store unit.
 * Returns the slot per op (-1 for the control slot). In width-1 mode
 * the trailing branch's instruction is charged by the block-length
 * formula, so it is not reserved and gets -1. Panics when an op finds
 * no slot: the placement is not resource-legal.
 */
std::vector<int> witnessSlots(const std::vector<Operation> &ops,
                              const std::vector<PlacedOp> &placed,
                              int ii, const MachineModel &machine,
                              const BankOfFn &bank_of, bool width1);

} // namespace vvsp

#endif // VVSP_SCHED_RESERVATION_TABLE_HH
