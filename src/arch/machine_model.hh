/**
 * @file
 * Scheduler-facing view of a datapath configuration: issue-slot
 * capabilities, operation latencies, addressing legality, and
 * resource budgets.
 *
 * Slot capabilities encode the paper's cluster organization: every
 * slot drives an ALU, and each alternate unit (multiplier, shifter,
 * load/store unit) is tied to one specific slot ("each set of 3
 * register-file ports supports one ALU and up to one alternate
 * function"). On the 2-slot clusters each load/store unit serves one
 * specific memory bank.
 */

#ifndef VVSP_ARCH_MACHINE_MODEL_HH
#define VVSP_ARCH_MACHINE_MODEL_HH

#include <string>
#include <vector>

#include "arch/datapath_config.hh"
#include "ir/dependence_graph.hh"
#include "ir/operation.hh"

namespace vvsp
{

/** What one issue slot can do in a cycle. */
struct SlotCaps
{
    bool alu = true;      ///< every slot drives an ALU.
    bool absDiff = false; ///< this slot's ALU has the special op.
    bool mult = false;
    bool shift = false;
    /** -1: no load/store unit; -2: LSU reaching any bank;
     *  >= 0: LSU tied to this bank. */
    int memBank = -1;
};

/** Resource/latency model of one datapath for the schedulers. */
class MachineModel
{
  public:
    explicit MachineModel(DatapathConfig cfg);

    const DatapathConfig &config() const { return cfg_; }
    const std::string &name() const { return cfg_.name; }

    int clusters() const { return cfg_.clusters; }
    int slotsPerCluster() const { return cfg_.cluster.issueSlots; }
    int registersPerCluster() const { return cfg_.cluster.registers; }
    int icacheCapacity() const { return cfg_.icacheInstructions; }
    int icacheRefillCycles() const { return cfg_.icacheRefillCycles; }
    int crossbarPortsPerCluster() const
    {
        return cfg_.crossbarPortsPerCluster;
    }
    int memBanks() const { return cfg_.cluster.memBanks; }
    int branchDelaySlots() const { return cfg_.branchDelaySlots(); }
    int loadUseDelay() const { return cfg_.loadUseDelay(); }
    bool complexAddressing() const
    {
        return cfg_.addressing == AddressingModes::Complex;
    }
    bool hasMul16() const
    {
        return cfg_.multiplier == MultiplierKind::Mul16x16Pipelined;
    }
    bool hasAbsDiff() const { return cfg_.cluster.hasAbsDiff; }

    /** Local data-RAM words per bank (16-bit words). */
    int memWordsPerBank() const
    {
        return cfg_.cluster.localMemBytes / cfg_.cluster.memBanks / 2;
    }

    /** Per-slot capabilities (identical across clusters). */
    const std::vector<SlotCaps> &slotCaps() const { return slots_; }

    /** Whether the datapath implements this operation at all. */
    bool canExecute(const Operation &op) const;

    /**
     * Number of address components of a memory op (0 for direct
     * immediate, 1 for register-indirect, 2 for indexed/base-disp).
     */
    static int addressComponents(const Operation &op);

    /** Whether the op's addressing mode is legal on this datapath. */
    bool addressingLegal(const Operation &op) const;

    /** Result latency in cycles. */
    int latency(const Operation &op) const;

    /** Latency functor for dependence-graph construction. */
    LatencyFn latencyFn() const;

    /** Whether a slot can issue the op (capability, not conflicts). */
    bool slotAllows(int slot, const Operation &op) const;

  private:
    DatapathConfig cfg_;
    std::vector<SlotCaps> slots_;
};

/**
 * The machine facts that lowering reads (core/experiment.hh stage 3),
 * and nothing else. The lowering passes take a target instead of a
 * MachineModel, so machines with equal targets lower a variant's
 * prefix to the same function, and a target is a complete key for
 * sharing one lowering between them.
 */
struct LoweringTarget
{
    /** 16x16 multiplier: Mul16Lo stays whole (decomposeMultiplies). */
    bool mul16 = false;
    /** Fold address adds into memory ops (lowerAddressing). */
    bool complexAddressing = false;
    /** Clusters one unit's code is ganged over (autoPartition); 1
     *  when it is not ganged. */
    int partitionClusters = 1;
    /** Banks the buffers are numbered over (assignBanks). */
    int memBanks = 1;

    /**
     * The target of `machine` for code ganged over `gang` clusters
     * (at most the machine's; 1 leaves the code on cluster 0).
     */
    static LoweringTarget of(const MachineModel &machine, int gang = 1);

    bool operator==(const LoweringTarget &) const = default;
};

} // namespace vvsp

#endif // VVSP_ARCH_MACHINE_MODEL_HH
