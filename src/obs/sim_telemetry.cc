#include "obs/sim_telemetry.hh"

#include <algorithm>

#include "ir/dependence_graph.hh"
#include "support/logging.hh"

namespace vvsp
{
namespace obs
{

namespace
{

void
addVec(std::vector<uint64_t> &dst, const std::vector<uint64_t> &src,
       uint64_t times)
{
    if (dst.size() < src.size())
        dst.resize(src.size(), 0);
    for (size_t i = 0; i < src.size(); ++i)
        dst[i] += src[i] * times;
}

uint64_t
regReads(const Operation &op)
{
    uint64_t n = 0;
    int srcs = op.info().numSrcs;
    for (int s = 0; s < srcs; ++s)
        if (op.src[s].isReg())
            ++n;
    if (op.pred.isReg())
        ++n;
    return n;
}

double
ratio(uint64_t num, uint64_t den)
{
    return den == 0 ? 0.0 : static_cast<double>(num) / den;
}

} // anonymous namespace

void
GroupTelemetry::addScaled(const GroupTelemetry &g, uint64_t times)
{
    cycles += g.cycles * times;
    slotCyclesTotal += g.slotCyclesTotal * times;
    slotCyclesBusy += g.slotCyclesBusy * times;
    addVec(clusterBusy, g.clusterBusy, times);
    addVec(issueWidth, g.issueWidth, times);
    fuAlu += g.fuAlu * times;
    fuMult += g.fuMult * times;
    fuShift += g.fuShift * times;
    fuMem += g.fuMem * times;
    fuBranch += g.fuBranch * times;
    xbarTransfers += g.xbarTransfers * times;
    xbarPortCycles += g.xbarPortCycles * times;
    addVec(bankAccesses, g.bankAccesses, times);
    memPortCycles += g.memPortCycles * times;
    memConflictCycles += g.memConflictCycles * times;
    rfReads += g.rfReads * times;
    rfWrites += g.rfWrites * times;
    rfReadPortCycles += g.rfReadPortCycles * times;
    rfWritePortCycles += g.rfWritePortCycles * times;
    stallOperand += g.stallOperand * times;
    stallStructural += g.stallStructural * times;
    stallTransfer += g.stallTransfer * times;
    stallNoWork += g.stallNoWork * times;
}

double
GroupTelemetry::slotUtilization() const
{
    return ratio(slotCyclesBusy, slotCyclesTotal);
}

double
GroupTelemetry::xbarUtilization() const
{
    return ratio(xbarTransfers, xbarPortCycles);
}

double
GroupTelemetry::memPortUtilization() const
{
    uint64_t accesses = 0;
    for (uint64_t a : bankAccesses)
        accesses += a;
    return ratio(accesses, memPortCycles);
}

double
GroupTelemetry::rfReadPortUtilization() const
{
    return ratio(rfReads, rfReadPortCycles);
}

void
GroupTelemetry::recordTo(const StatsScope &scope) const
{
    if (!scope.enabled())
        return;
    scope.bump("cycles", cycles);
    scope.bump("slots/offered", slotCyclesTotal);
    scope.bump("slots/busy", slotCyclesBusy);
    for (size_t k = 0; k < clusterBusy.size(); ++k)
        scope.bump("cluster/" + std::to_string(k) + "/busy",
                   clusterBusy[k]);
    for (size_t w = 0; w < issueWidth.size(); ++w)
        scope.bump("issue_width/" + std::to_string(w),
                   issueWidth[w]);
    scope.bump("fu/alu", fuAlu);
    scope.bump("fu/mult", fuMult);
    scope.bump("fu/shift", fuShift);
    scope.bump("fu/mem", fuMem);
    scope.bump("fu/branch", fuBranch);
    scope.bump("xbar/transfers", xbarTransfers);
    scope.bump("xbar/port_cycles", xbarPortCycles);
    for (size_t b = 0; b < bankAccesses.size(); ++b)
        scope.bump("mem/bank" + std::to_string(b) + "/accesses",
                   bankAccesses[b]);
    scope.bump("mem/port_cycles", memPortCycles);
    scope.bump("mem/conflict_cycles", memConflictCycles);
    scope.bump("rf/reads", rfReads);
    scope.bump("rf/writes", rfWrites);
    scope.bump("rf/read_port_cycles", rfReadPortCycles);
    scope.bump("rf/write_port_cycles", rfWritePortCycles);
    scope.bump("stall/operand_not_ready", stallOperand);
    scope.bump("stall/structural", stallStructural);
    scope.bump("stall/transfer_latency", stallTransfer);
    scope.bump("stall/no_pending_work", stallNoWork);
}

GroupTelemetry
analyzeSchedule(const IsaSection &sec, int res_mii, int rec_mii,
                const MachineModel &machine, const BankOfFn &bank_of)
{
    GroupTelemetry t;
    const std::vector<Operation> &ops = sec.ops;
    const std::vector<PlacedOp> &placed = sec.placed;
    if (ops.empty())
        return t;
    vvsp_assert(placed.size() == ops.size(),
                "section does not place every op");

    const int clusters = machine.clusters();
    const int slots = machine.slotsPerCluster();
    const bool modulo = sec.modulo;
    const int window = modulo ? sec.ii : sec.length;
    const int banks = machine.memBanks();
    const int portsPerBank = machine.config().cluster.memPortsPerBank;

    t.cycles = window;
    t.slotCyclesTotal =
        static_cast<uint64_t>(window) * clusters * slots;
    t.clusterBusy.assign(clusters, 0);
    t.issueWidth.assign(
        static_cast<size_t>(clusters) * slots + 2, 0);
    t.bankAccesses.assign(banks, 0);
    t.xbarPortCycles = static_cast<uint64_t>(window) * clusters *
                       machine.crossbarPortsPerCluster();
    t.memPortCycles = static_cast<uint64_t>(window) * clusters *
                      banks * portsPerBank;
    // The paper's 3 register-file ports per issue slot split as two
    // read ports and one write port (one ALU result per slot).
    t.rfReadPortCycles =
        static_cast<uint64_t>(window) * clusters * slots * 2;
    t.rfWritePortCycles =
        static_cast<uint64_t>(window) * clusters * slots;

    // Issue cycle within the analyzed window.
    auto windowCycle = [&](int i) {
        int c = placed[i].cycle;
        return modulo ? c % sec.ii : c;
    };

    // Occupancy and port usage from the placements.
    std::vector<uint64_t> width(window, 0);
    for (size_t i = 0; i < ops.size(); ++i) {
        const Operation &op = ops[i];
        const FuClass fu = op.info().fuClass;
        if (fu == FuClass::None)
            continue;
        int wc = windowCycle(static_cast<int>(i));
        if (wc < 0 || wc >= window)
            continue; // branch shadow beyond an empty body etc.
        ++width[wc];
        t.rfReads += regReads(op);
        if (op.info().hasDst)
            ++t.rfWrites;
        if (fu == FuClass::Branch) {
            ++t.fuBranch;
            continue; // control slot, not an issue slot.
        }
        ++t.slotCyclesBusy;
        ++t.clusterBusy[op.cluster];
        switch (fu) {
          case FuClass::Alu:
            ++t.fuAlu;
            break;
          case FuClass::Shift:
            ++t.fuShift;
            break;
          case FuClass::Mult:
            ++t.fuMult;
            break;
          case FuClass::Mem:
            ++t.fuMem;
            if (op.buffer >= 0 && bank_of) {
                int b = bank_of(op.buffer);
                if (b >= 0 && b < banks)
                    ++t.bankAccesses[b];
            }
            break;
          case FuClass::Xbar:
            ++t.xbarTransfers;
            break;
          default:
            break;
        }
    }
    for (int c = 0; c < window; ++c) {
        uint64_t w = width[c];
        if (w >= t.issueWidth.size())
            t.issueWidth.resize(w + 1, 0);
        ++t.issueWidth[w];
    }

    const uint64_t emptySlots = t.slotCyclesTotal - t.slotCyclesBusy;

    if (modulo) {
        // Steady-state attribution by the binding lower bound the
        // scheduler recorded: when the recurrence sets the II the
        // empty slots are dependence stalls; when resources do, they
        // are structural.
        vvsp_assert(res_mii > 0 && rec_mii > 0,
                    "modulo schedule (II=%d) carries no II bounds",
                    sec.ii);
        t.ii = sec.ii;
        t.resMii = res_mii;
        t.recMii = rec_mii;
        if (t.recMii >= t.resMii && t.recMii >= sec.ii)
            t.stallOperand = emptySlots;
        else
            t.stallStructural = emptySlots;
        return t;
    }

    // Acyclic: per-cycle, per-cluster classification of empty slots
    // from dependence-based ready times.
    DependenceGraph ddg(ops, machine.latencyFn(), false);
    const int n = static_cast<int>(ops.size());
    std::vector<int> ready(n, 0);
    std::vector<uint8_t> xferCritical(n, 0);
    for (int i = 0; i < n; ++i) {
        for (int ei : ddg.predEdges(i)) {
            const DepEdge &e = ddg.edges()[ei];
            if (e.distance != 0)
                continue;
            int at = placed[e.from].cycle + e.latency;
            if (at > ready[i]) {
                ready[i] = at;
                xferCritical[i] =
                    ops[e.from].info().fuClass == FuClass::Xbar;
            } else if (at == ready[i] &&
                       ops[e.from].info().fuClass == FuClass::Xbar) {
                xferCritical[i] = 1;
            }
        }
    }

    // busyAt[cycle * clusters + cluster].
    std::vector<uint16_t> busyAt(
        static_cast<size_t>(window) * clusters, 0);
    for (int i = 0; i < n; ++i) {
        const Operation &op = ops[i];
        const FuClass fu = op.info().fuClass;
        if (fu == FuClass::None || fu == FuClass::Branch)
            continue;
        int c = placed[i].cycle;
        if (c >= 0 && c < window)
            ++busyAt[static_cast<size_t>(c) * clusters + op.cluster];
    }

    for (int cyc = 0; cyc < window; ++cyc) {
        // Pending demand per cluster at this cycle.
        std::vector<int> readyPend(clusters, 0);
        std::vector<int> xferPend(clusters, 0);
        std::vector<int> dataPend(clusters, 0);
        std::vector<int> memBlocked(clusters, 0);
        for (int i = 0; i < n; ++i) {
            const Operation &op = ops[i];
            const FuClass fu = op.info().fuClass;
            if (fu == FuClass::None || fu == FuClass::Branch)
                continue;
            if (placed[i].cycle <= cyc)
                continue; // already issued.
            if (ready[i] <= cyc) {
                ++readyPend[op.cluster];
                if (fu == FuClass::Mem && op.buffer >= 0 && bank_of) {
                    int b = bank_of(op.buffer);
                    if (b >= 0 && b < banks &&
                        t.bankAccesses.size() == (size_t)banks) {
                        // Bank port full this cycle while this access
                        // was data-ready: a real bank conflict.
                        int used = 0;
                        for (int j = 0; j < n; ++j) {
                            if (placed[j].cycle != cyc)
                                continue;
                            const Operation &oj = ops[j];
                            if (oj.info().fuClass != FuClass::Mem ||
                                oj.cluster != op.cluster ||
                                oj.buffer < 0)
                                continue;
                            if (bank_of(oj.buffer) == b)
                                ++used;
                        }
                        if (used >= portsPerBank)
                            ++memBlocked[op.cluster];
                    }
                }
            } else if (xferCritical[i]) {
                ++xferPend[op.cluster];
            } else {
                ++dataPend[op.cluster];
            }
        }
        for (int k = 0; k < clusters; ++k) {
            int empty = slots -
                busyAt[static_cast<size_t>(cyc) * clusters + k];
            if (empty <= 0)
                continue;
            int structural = std::min(empty, readyPend[k]);
            empty -= structural;
            int xfer = std::min(empty, xferPend[k]);
            empty -= xfer;
            int operand = std::min(empty, dataPend[k]);
            empty -= operand;
            t.stallStructural += structural;
            t.stallTransfer += xfer;
            t.stallOperand += operand;
            t.stallNoWork += empty;
            t.memConflictCycles += memBlocked[k];
        }
    }
    return t;
}

GroupTelemetry
idleWindow(const MachineModel &machine, uint64_t cycles)
{
    GroupTelemetry t;
    const uint64_t clusters = machine.clusters();
    const uint64_t slots = machine.slotsPerCluster();
    t.cycles = cycles;
    t.slotCyclesTotal = cycles * clusters * slots;
    t.stallNoWork = t.slotCyclesTotal;
    t.xbarPortCycles =
        cycles * clusters * machine.crossbarPortsPerCluster();
    t.memPortCycles = cycles * clusters * machine.memBanks() *
                      machine.config().cluster.memPortsPerBank;
    t.rfReadPortCycles = cycles * clusters * slots * 2;
    t.rfWritePortCycles = cycles * clusters * slots;
    t.issueWidth.assign(1, cycles); // width 0 every cycle.
    return t;
}

void
scheduleToTrace(TraceWriter &trace, int pid,
                const std::string &group_name, const IsaSection &sec,
                const MachineModel &machine)
{
    const int slots = machine.slotsPerCluster();
    const int controlTid = machine.clusters() * slots;
    trace.processName(pid, group_name);
    for (int k = 0; k < machine.clusters(); ++k) {
        for (int s = 0; s < slots; ++s) {
            trace.threadName(pid, k * slots + s,
                             std::string("c")
                                 .append(std::to_string(k))
                                 .append(" slot")
                                 .append(std::to_string(s)));
        }
    }
    trace.threadName(pid, controlTid, "control");
    for (size_t i = 0; i < sec.ops.size(); ++i) {
        const Operation &op = sec.ops[i];
        if (op.info().fuClass == FuClass::None)
            continue;
        const PlacedOp &p = sec.placed[i];
        if (p.cycle < 0)
            continue;
        int tid = p.slot < 0 ? controlTid
                             : p.cluster * slots + p.slot;
        uint64_t dur = std::max(1, machine.latency(op));
        std::vector<std::pair<std::string, std::string>> args;
        args.emplace_back("op", op.str());
        if (sec.modulo) {
            args.emplace_back(
                "modulo_row", std::to_string(p.cycle % sec.ii));
        }
        trace.slice(opcodeName(op.op), "schedule",
                    static_cast<uint64_t>(p.cycle), dur, pid, tid,
                    std::move(args));
    }
}

} // namespace obs
} // namespace vvsp
