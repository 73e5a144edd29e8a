#include "arch/machine_model.hh"

#include <algorithm>

#include "support/logging.hh"

namespace vvsp
{

MachineModel::MachineModel(DatapathConfig cfg)
    : cfg_(std::move(cfg))
{
    cfg_.validate();
    const ClusterConfig &cl = cfg_.cluster;
    slots_.assign(static_cast<size_t>(cl.issueSlots), SlotCaps{});

    // Alternate units are tied to specific slots, round-robin:
    // multipliers first, then shifters, then load/store units.
    // I4C8*: mult->slot0, shift->slot1, LSU->slot2 (paper Fig 1);
    // I2C16S4: slot0 = ALU/mult/LSU(bank0), slot1 = ALU/shift/
    // LSU(bank1) (Sec. 3.2).
    int next = 0;
    for (int u = 0; u < cl.numMultipliers; ++u)
        slots_[static_cast<size_t>(next++ % cl.issueSlots)].mult = true;
    for (int u = 0; u < cl.numShifters; ++u)
        slots_[static_cast<size_t>(next++ % cl.issueSlots)].shift = true;
    for (int u = 0; u < cl.numLoadStoreUnits; ++u) {
        int slot = next++ % cl.issueSlots;
        int bank = cl.memBanks > 1 ? u % cl.memBanks : -2;
        vvsp_assert(slots_[static_cast<size_t>(slot)].memBank == -1,
                    "%s: two load/store units on slot %d",
                    cfg_.name.c_str(), slot);
        slots_[static_cast<size_t>(slot)].memBank = bank;
    }
    if (cl.hasAbsDiff) {
        // The abs-diff capability is visible from every issue slot
        // (Table 1's blocked "+spec op" rows need more than one
        // |a-b| per cycle); the area estimator still prices it as
        // the paper does (one ALU doubling), and the clock estimator
        // adds its 2 gate delays to the ALU path.
        for (auto &slot : slots_)
            slot.absDiff = slot.alu;
    }
}

bool
MachineModel::canExecute(const Operation &op) const
{
    switch (op.op) {
      case Opcode::AbsDiff:
        return cfg_.cluster.hasAbsDiff;
      case Opcode::Mul16Lo:
      case Opcode::Mul16Hi:
        return hasMul16();
      case Opcode::Load:
      case Opcode::Store:
        return addressingLegal(op);
      default:
        return true;
    }
}

int
MachineModel::addressComponents(const Operation &op)
{
    vvsp_assert(op.info().isMemory, "addressComponents of '%s'",
                op.str().c_str());
    size_t base = op.op == Opcode::Load ? 0 : 1;
    const Operand &a = op.src[base];
    const Operand &b = op.src[base + 1];
    int regs = (a.isReg() ? 1 : 0) + (b.isReg() ? 1 : 0);
    int imms = (a.isImm() && a.imm != 0 ? 1 : 0) +
               (b.isImm() && b.imm != 0 ? 1 : 0);
    if (regs == 0)
        return 0; // direct (immediates fold into one literal).
    if (regs == 1 && imms == 0)
        return 1; // register-indirect.
    return 2;     // indexed or base-displacement.
}

bool
MachineModel::addressingLegal(const Operation &op) const
{
    return addressComponents(op) <= 1 || complexAddressing();
}

int
MachineModel::latency(const Operation &op) const
{
    switch (op.op) {
      case Opcode::Load:
        return 1 + loadUseDelay();
      case Opcode::Mul8:
      case Opcode::MulU8:
      case Opcode::MulUU8:
      case Opcode::Mul16Lo:
      case Opcode::Mul16Hi:
        return cfg_.multiplyStages;
      case Opcode::Xfer:
        return 1;
      default:
        return 1;
    }
}

LatencyFn
MachineModel::latencyFn() const
{
    return [this](const Operation &op) { return latency(op); };
}

bool
MachineModel::slotAllows(int slot, const Operation &op) const
{
    vvsp_assert(slot >= 0 && slot < slotsPerCluster(), "bad slot %d",
                slot);
    const SlotCaps &caps = slots_[static_cast<size_t>(slot)];
    switch (op.info().fuClass) {
      case FuClass::Alu:
        if (op.op == Opcode::AbsDiff)
            return caps.absDiff;
        return caps.alu;
      case FuClass::Shift:
        return caps.shift;
      case FuClass::Mult:
        return caps.mult;
      case FuClass::Mem:
        // Bank binding against the op's buffer is enforced by the
        // reservation table; the capability here is "has an LSU".
        return caps.memBank != -1;
      case FuClass::Xbar:
      case FuClass::Branch:
        // Crossbar transfers consume the sending slot; branches use
        // the machine-wide control slot (any cluster slot position).
        return true;
      case FuClass::None:
        return true;
    }
    return false;
}

LoweringTarget
LoweringTarget::of(const MachineModel &machine, int gang)
{
    LoweringTarget t;
    t.mul16 = machine.hasMul16();
    t.complexAddressing = machine.complexAddressing();
    t.partitionClusters =
        gang > 1 ? std::min(gang, machine.clusters()) : 1;
    t.memBanks = machine.memBanks();
    return t;
}

} // namespace vvsp
