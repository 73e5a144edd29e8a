/**
 * @file
 * Cycle-level simulator.
 *
 * Executes a lowered kernel on a datapath model with real control
 * flow (no profile weighting): every straight-line group is
 * scheduled exactly as the composer schedules it, then executed
 * operation by operation while the simulator independently verifies
 *
 *  - operand timing: no operation issues before its source values
 *    are ready (issue + latency of the producer, including load-use
 *    and multiply delays, modulo-schedule iteration overlap, and
 *    crossbar transfer latency);
 *  - resource legality: a fresh reservation table re-checks every
 *    placement (slot capabilities, banked memory ports, the global
 *    control slot, crossbar ports);
 *  - functional state: 16-bit register/memory semantics identical to
 *    the Interpreter's.
 *
 * The resulting cycle count is exact for the simulated input and
 * must equal the composer's profile-based prediction when the
 * profile comes from the same input - the equivalence test the test
 * suite runs for every kernel variant.
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
     * Execute the function against the memory image (modified in
     * place). Panics on any timing or resource violation - those are
     * scheduler bugs by construction.
     *
     * When `telemetry` is non-null, utilization and stall telemetry
     * is accumulated into it: each distinct group is analyzed once
     * (alongside the schedule caches) and added weighted by its
     * execution count, so the overhead is per-group, not per-cycle.
     */
    CycleSimReport run(Function &fn, MemoryImage &mem,
                       obs::GroupTelemetry *telemetry = nullptr);

    /**
     * Render each distinct scheduled group of subsequent run()s as a
     * pipeline diagram in `trace` (one trace process per group, one
     * track per issue slot, 1 cycle = 1 us). `label` prefixes the
     * group names; process ids are taken from `first_pid` upward and
     * advance across runs.
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

    /**
     * When enabled, every group entering a schedule cache is first
     * round-tripped through the ISA: packed into binary instruction
     * words (isa/encoder.hh), decoded back, re-encode asserted
     * byte-identical, and the group executes the DECODED
     * operations - so the run exercises the encoded program, not the
     * in-memory schedule. The report and memory image must be
     * bit-identical either way; the tests enforce it.
     */
    void setIsaRoundTrip(bool on) { isaRoundTrip_ = on; }

  private:
    struct Engine;

    const MachineModel &machine_;
    ScheduleMode mode_;
    obs::TraceWriter *trace_ = nullptr;
    int nextTracePid_ = 0;
    std::string traceLabel_;
    bool isaRoundTrip_ = false;
};

} // namespace vvsp

#endif // VVSP_SIM_CYCLE_SIM_HH
