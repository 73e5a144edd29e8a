/**
 * @file
 * Datapath area composition (paper Fig 5 and the "Estimated Area"
 * rows of Tables 1-2).
 *
 * A cluster's area is the sum of its register file, functional units,
 * local RAM, and bypass/pipeline-register logic, plus 10% local
 * routing overhead (2-3 upper metal layers are available for routing
 * over the subcomponents). The datapath is the clusters plus the
 * routed central crossbar.
 */

#ifndef VVSP_VLSI_AREA_ESTIMATOR_HH
#define VVSP_VLSI_AREA_ESTIMATOR_HH

#include <string>

#include "arch/datapath_config.hh"
#include "vlsi/crossbar_model.hh"
#include "vlsi/fu_model.hh"
#include "vlsi/regfile_model.hh"
#include "vlsi/sram_model.hh"

namespace vvsp
{

/** Per-cluster and total area breakdown of a datapath (Fig 5). */
struct AreaBreakdown
{
    double registerFile = 0.0;  ///< multiported local register file.
    double alus = 0.0;          ///< all ALUs (incl. abs-diff ALU).
    double multipliers = 0.0;   ///< multiplier(s).
    double shifters = 0.0;      ///< shifter(s).
    double localRam = 0.0;      ///< all local data RAM banks.
    double bypass = 0.0;        ///< bypass logic + pipeline registers.
    double localRouting = 0.0;  ///< 10% intra-cluster routing.
    double clusterTotal = 0.0;  ///< one cluster, routed.
    double crossbar = 0.0;      ///< central switch incl. routing.
    double datapathTotal = 0.0; ///< clusters + crossbar.

    /** Render as a Fig 5-style table. */
    std::string str(const DatapathConfig &cfg) const;
};

/** Composes megacell areas into cluster and datapath totals. */
class AreaEstimator
{
  public:
    /** Full breakdown for a datapath configuration. */
    AreaBreakdown estimate(const DatapathConfig &cfg) const;

    /** Convenience: total datapath area in mm^2. */
    double datapathMm2(const DatapathConfig &cfg) const;

    /**
     * Estimated datapath power in watts at the given clock (Sec. 3:
     * "the 50 W range"). C*V^2*f with an average activity factor.
     */
    double powerWatts(const DatapathConfig &cfg, double clockGhz) const;

    /**
     * Whole-chip power estimate (adds instruction cache, control, and
     * clock distribution on top of the datapath).
     */
    double chipPowerWatts(const DatapathConfig &cfg,
                          double clockGhz) const;

  private:
    CrossbarModel xbar_;
    RegisterFileModel rf_;
    SramModel sram_;
    FunctionalUnitModel fu_;
};

} // namespace vvsp

#endif // VVSP_VLSI_AREA_ESTIMATOR_HH
