/**
 * @file
 * Cycle-level simulator.
 *
 * Executes a lowered kernel on a datapath model with real control
 * flow (no profile weighting). It does not schedule: it runs the
 * groups Composer::schedule formed, scheduled and encoded, each at
 * the tree site that closes it, operation by operation, while it
 * independently verifies every group once per run
 *
 *  - operand timing: no operation issues before its source values
 *    are ready (issue + latency of the producer, including load-use
 *    and multiply delays, modulo-schedule iteration overlap, and
 *    crossbar transfer latency), on a rebuilt dependence graph;
 *  - resource legality: a fresh reservation table re-derives a
 *    witness slot for every placement (slot capabilities, banked
 *    memory ports, the global control slot, crossbar ports);
 *
 * and checks functional state as it runs: 16-bit register/memory
 * semantics identical to the Interpreter's.
 *
 * The resulting cycle count is exact for the simulated input and
 * must equal the composer's profile-based pricing of the same
 * schedule when the profile comes from the same input - the
 * equivalence test the test suite runs for every kernel variant.
 */

#ifndef VVSP_SIM_CYCLE_SIM_HH
#define VVSP_SIM_CYCLE_SIM_HH

#include <cstdint>
#include <vector>

#include "arch/machine_model.hh"
#include "kernels/kernel.hh"
#include "sim/memory_image.hh"

namespace vvsp
{

struct KernelSchedule;

namespace obs
{
struct GroupTelemetry;
class TraceWriter;
} // namespace obs

/** Cycle-simulation outcome. */
struct CycleSimReport
{
    /** Total executed cycles. Every contribution (block lengths,
     *  II * trip counts, pipeline fill/drain) is integral, so the
     *  count is exact; scale to frames/seconds at the reporting
     *  boundary only. */
    uint64_t cycles = 0;
    uint64_t operations = 0;    ///< operations executed (non-nop).
    uint64_t nullified = 0;     ///< predicated-off operations.
    uint64_t transfers = 0;     ///< crossbar transfers executed.
    uint64_t instructions = 0;  ///< long instruction words issued.
};

/** Cycle-accurate executor for lowered kernels. */
class CycleSim
{
  public:
    CycleSim(const MachineModel &machine, ScheduleMode mode);

    /**
     * Schedule the function (Composer::schedule, which materializes
     * its loop control and records the "compose" phase) and execute
     * it against the memory image (modified in place). Panics on any
     * timing or resource violation - those are scheduler bugs by
     * construction.
     *
     * When `telemetry` is non-null, utilization and stall telemetry
     * is accumulated into it: each executed group is analyzed once
     * and added weighted by its execution count, so the overhead is
     * per-group, not per-cycle.
     */
    CycleSimReport run(Function &fn, MemoryImage &mem,
                       obs::GroupTelemetry *telemetry = nullptr);

    /**
     * Execute a kernel Composer::schedule(fn) already scheduled,
     * recorded as one run of the "cycle_sim" phase. Each group runs
     * its section's ops, so a schedule whose sections were decoded
     * from the encoded module runs the code in the instruction
     * words.
     */
    CycleSimReport run(const Function &fn,
                       const KernelSchedule &schedule,
                       MemoryImage &mem,
                       obs::GroupTelemetry *telemetry = nullptr);

    /**
     * Render each group that subsequent run()s execute as a pipeline
     * diagram in `trace`: one trace process per group, named
     * `label`/<section label>#<section index>, one track per issue
     * slot, 1 cycle = 1 us. Process ids are taken from `first_pid`
     * upward and advance across runs.
     */
    void
    setTrace(obs::TraceWriter *trace, int first_pid,
             std::string label)
    {
        trace_ = trace;
        nextTracePid_ = first_pid;
        traceLabel_ = std::move(label);
    }

    /** First unused trace process id after the runs so far. */
    int nextTracePid() const { return nextTracePid_; }

  private:
    struct Engine;

    const MachineModel &machine_;
    ScheduleMode mode_;
    obs::TraceWriter *trace_ = nullptr;
    int nextTracePid_ = 0;
    std::string traceLabel_;
};

} // namespace vvsp

#endif // VVSP_SIM_CYCLE_SIM_HH
