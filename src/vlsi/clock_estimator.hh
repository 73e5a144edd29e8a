/**
 * @file
 * Cycle-time estimation for a datapath model (the "Estimated Relative
 * Clock Speed" rows of Tables 1-2).
 *
 * The cycle time is the worst pipeline-stage delay plus clock
 * skew/latch overhead, and must also cover the crossbar propagation
 * (the switch gets a full cycle with no extra latch overhead; the
 * paper's XFER transport stage). Stage delays come from the VLSI
 * megacell models:
 *
 *  - operand fetch: register-file access,
 *  - execute: ALU (plus abs-diff gates if present) behind the
 *    cluster bypass multiplexer,
 *  - memory: composed module access; on I4C8S4C the address addition
 *    is folded into the same stage (the paper's "very significant
 *    impact on cycle time"),
 *  - multiply: per-stage delay of the selected multiplier.
 *
 * Following the paper (Sec. 3.2), complex 5-stage bypassing in 4-slot
 * clusters is *assumed* to cost ~5% of cycle time.
 */

#ifndef VVSP_VLSI_CLOCK_ESTIMATOR_HH
#define VVSP_VLSI_CLOCK_ESTIMATOR_HH

#include <string>

#include "arch/datapath_config.hh"
#include "vlsi/crossbar_model.hh"
#include "vlsi/fu_model.hh"
#include "vlsi/regfile_model.hh"
#include "vlsi/sram_model.hh"

namespace vvsp
{

/** Stage-by-stage timing of a datapath model. */
struct ClockBreakdown
{
    double regFileNs = 0.0;   ///< operand-fetch stage.
    double executeNs = 0.0;   ///< bypass mux + ALU.
    double memoryNs = 0.0;    ///< local-RAM access stage.
    double multiplyNs = 0.0;  ///< multiplier stage (pipelined).
    double crossbarNs = 0.0;  ///< switch propagation (full cycle).
    double cycleNs = 0.0;     ///< resulting cycle time.
    double clockMhz = 0.0;    ///< 1000 / cycleNs.

    std::string str() const;
};

/** Estimates cycle time and clock rate of a datapath model. */
class ClockEstimator
{
  public:
    /** Full stage breakdown for a configuration. */
    ClockBreakdown estimate(const DatapathConfig &cfg) const;

    /** Clock rate in MHz. */
    double clockMhz(const DatapathConfig &cfg) const;

    /** Clock rate relative to a reference model (Table 1 header). */
    double relativeClock(const DatapathConfig &cfg,
                         const DatapathConfig &reference) const;

    /** Number of inputs on the cluster's operand-bypass multiplexers. */
    static int bypassInputs(const DatapathConfig &cfg);

  private:
    CrossbarModel xbar_;
    RegisterFileModel rf_;
    SramModel sram_;
    FunctionalUnitModel fu_;
};

} // namespace vvsp

#endif // VVSP_VLSI_CLOCK_ESTIMATOR_HH
