/**
 * @file
 * Utilization and stall analysis of scheduled code groups.
 *
 * `analyzeSchedule()` turns one encoded group (an IsaSection) into a
 * GroupTelemetry: per-cluster issue-slot occupancy, busy cycles per
 * functional-unit class, crossbar port usage, memory-bank port usage
 * and conflicts, register-file port pressure, and per-cycle stall
 * attribution. The cycle simulator analyzes each group once per run,
 * on its first execution, and accumulates the result weighted by
 * execution count, so instrumented runs stay near the uninstrumented
 * speed.
 *
 * Stall taxonomy (empty issue-slot cycles, per cluster per cycle):
 *  - operand_not_ready: an unissued operation's dependence chain had
 *    not produced its sources yet (load-use, multiply, or recurrence
 *    latency);
 *  - transfer_latency: as above, but the critical producer is a
 *    crossbar transfer - the paper's inter-cluster communication
 *    cost, isolated;
 *  - structural: operations were data-ready but a resource (slot,
 *    alternate unit, memory-bank port, crossbar port, width-1 rule)
 *    pushed them to a later cycle;
 *  - no_pending_work: nothing left to issue on that cluster (drain,
 *    or a cluster idle in an unreplicated region).
 * For modulo schedules the steady-state window is attributed by the
 * binding lower bound: recurrence-bound IIs (RecMII >= ResMII) charge
 * empty slots to operand_not_ready, resource-bound IIs to structural.
 * The caller passes the bounds the modulo scheduler recorded (the
 * composer keeps them on each ScheduledGroup); a modulo section
 * without them is a caller bug.
 */

#ifndef VVSP_OBS_SIM_TELEMETRY_HH
#define VVSP_OBS_SIM_TELEMETRY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "arch/machine_model.hh"
#include "isa/encoder.hh"
#include "obs/stats_registry.hh"
#include "obs/trace.hh"
#include "sched/reservation_table.hh"

namespace vvsp
{
namespace obs
{

/**
 * Utilization/stall profile of one scheduled group (or, after
 * weighted accumulation, of a whole simulated run). All fields are
 * integral so accumulation is exact and order-independent.
 */
struct GroupTelemetry
{
    /** Cycles in the analyzed window (length, or II in steady state). */
    uint64_t cycles = 0;

    uint64_t slotCyclesTotal = 0; ///< issue-slot-cycles offered.
    uint64_t slotCyclesBusy = 0;  ///< issue-slot-cycles used.
    std::vector<uint64_t> clusterBusy; ///< busy slot-cycles per cluster.
    /** Cycle counts by machine-wide issue width (ops per cycle). */
    std::vector<uint64_t> issueWidth;

    // Busy issue-cycles per functional-unit class.
    uint64_t fuAlu = 0;
    uint64_t fuMult = 0;
    uint64_t fuShift = 0;
    uint64_t fuMem = 0;
    uint64_t fuBranch = 0;

    uint64_t xbarTransfers = 0;  ///< crossbar transfers issued.
    uint64_t xbarPortCycles = 0; ///< send-port-cycles offered.

    std::vector<uint64_t> bankAccesses; ///< accesses per bank id.
    uint64_t memPortCycles = 0;    ///< bank-port-cycles offered.
    uint64_t memConflictCycles = 0; ///< op-cycles ready but port-blocked.

    uint64_t rfReads = 0;          ///< register-file reads performed.
    uint64_t rfWrites = 0;         ///< register-file writes performed.
    uint64_t rfReadPortCycles = 0; ///< read-port-cycles offered.
    uint64_t rfWritePortCycles = 0; ///< write-port-cycles offered.

    // Stall attribution: empty issue-slot-cycles by cause.
    uint64_t stallOperand = 0;
    uint64_t stallStructural = 0;
    uint64_t stallTransfer = 0;
    uint64_t stallNoWork = 0;

    // Modulo-schedule context of the analyzed group (0 for acyclic).
    int ii = 0;
    int resMii = 0;
    int recMii = 0;

    /** Accumulate `g` scaled by `times` executions. */
    void addScaled(const GroupTelemetry &g, uint64_t times);

    // Derived ratios (0 when the denominator is empty).
    double slotUtilization() const;
    double xbarUtilization() const;
    double memPortUtilization() const;
    double rfReadPortUtilization() const;

    /** Write every field as counters under `scope`. */
    void recordTo(const StatsScope &scope) const;
};

/**
 * Analyze one scheduled group. For acyclic sections the window is
 * [0, length); for modulo sections it is the steady-state II window
 * (each operation issuing once per II), split by the II bounds
 * `res_mii` and `rec_mii` (ignored for acyclic sections).
 */
GroupTelemetry analyzeSchedule(const IsaSection &sec, int res_mii,
                               int rec_mii, const MachineModel &machine,
                               const BankOfFn &bank_of);

/**
 * An all-idle window of `cycles` machine cycles: full port/slot
 * capacity offered, nothing issued, every empty slot attributed to
 * no_pending_work. Used for pipeline fill/drain accounting around
 * modulo-scheduled loops (the issued operations themselves are
 * already counted by the steady-state windows).
 */
GroupTelemetry idleWindow(const MachineModel &machine,
                          uint64_t cycles);

/**
 * Render a section as a pipeline diagram in `trace`: one thread
 * track per (cluster, slot), one slice per operation spanning its
 * latency, 1 cycle = 1 us. Branches land on a dedicated control
 * track. Suitable for chrome://tracing / Perfetto.
 */
void scheduleToTrace(TraceWriter &trace, int pid,
                     const std::string &group_name,
                     const IsaSection &sec, const MachineModel &machine);

} // namespace obs
} // namespace vvsp

#endif // VVSP_OBS_SIM_TELEMETRY_HH
