/**
 * @file
 * Design-space exploration utilities (paper Sec. 3: "the delay
 * characteristics and area requirements ... were jointly analyzed to
 * determine the architectural balance points").
 *
 * Enumerates candidate datapaths over the architectural parameters
 * (clusters, issue slots, registers, memory capacity, multiplier
 * kind, pipeline depth), prices each with the VLSI models, and
 * optionally scores the survivors with blocked full motion search as
 * one sweep batch - the one pipeline behind `vvsp explore` and the
 * design_explorer example.
 */

#ifndef VVSP_CORE_DESIGN_SPACE_HH
#define VVSP_CORE_DESIGN_SPACE_HH

#include <optional>
#include <vector>

#include "arch/datapath_config.hh"
#include "vlsi/area_estimator.hh"
#include "vlsi/clock_estimator.hh"

namespace vvsp
{

class SweepRunner;

/** One priced design point. */
struct DesignPoint
{
    DatapathConfig config;
    double areaMm2 = 0;
    double clockMhz = 0;
    /** Peak operations per second (slots * clock), in GOPS. */
    double peakGops = 0;
    /** Full-search frames per second when scored; 0 otherwise. */
    double framesPerSecond = 0;
};

/** Parameter ranges to enumerate. */
struct DesignSweep
{
    std::vector<int> clusterCounts{4, 8, 16};
    std::vector<int> issueSlots{2, 4};
    std::vector<int> registerCounts{64, 128, 256};
    std::vector<int> localMemKb{8, 16, 32};
    std::vector<int> pipelineDepths{4, 5};
    bool includeMul16 = false;
    /** Reject datapaths larger than this (mm^2); 0 = no limit. */
    double maxAreaMm2 = 0;
    /**
     * Starting machine for every candidate (any registered model or
     * a JSON-loaded one — see arch/model_registry.hh). When set, the
     * swept parameters overwrite the corresponding fields of a copy
     * of this config (register-file ports raised to the 3-per-slot
     * minimum) and every other field — multiplier kind, abs-diff op,
     * icache, crossbar — is inherited; combinations the base makes
     * inconsistent are skipped instead of enumerated. When unset,
     * candidates are built from the paper's derivation heuristics.
     */
    std::optional<DatapathConfig> base;
};

/**
 * Enumerate the sweep's candidate configs (validated, in a fixed
 * deterministic order, without pricing or scoring). Exposed so
 * harnesses can batch the scoring through the SweepRunner.
 */
std::vector<DatapathConfig>
enumerateSweepConfigs(const DesignSweep &sweep);

/**
 * Enumerate the sweep, price every candidate and drop those above
 * maxAreaMm2. When `score` is set, the survivors are scored with
 * blocked full motion search as one batch on that runner; a config
 * that cannot hold the kernel fails its check and keeps 0 frames/s.
 */
std::vector<DesignPoint> exploreDesignSpace(const DesignSweep &sweep,
                                            SweepRunner *score = nullptr);

/** Pareto-optimal subset under (area min, frames/s max). */
std::vector<DesignPoint>
paretoFrontier(const std::vector<DesignPoint> &points);

} // namespace vvsp

#endif // VVSP_CORE_DESIGN_SPACE_HH
