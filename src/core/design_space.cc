#include "core/design_space.hh"

#include <algorithm>

#include "core/sweep.hh"
#include "kernels/kernel.hh"
#include "support/logging.hh"

namespace vvsp
{

namespace
{

/** One candidate from the paper's derivation heuristics. */
DatapathConfig
derivedCandidate(const DesignSweep &sweep, int clusters, int slots,
                 int regs, int mem_kb, int stages)
{
    DatapathConfig cfg;
    cfg.clusters = clusters;
    cfg.cluster.issueSlots = slots;
    cfg.cluster.numAlus = slots;
    cfg.cluster.numLoadStoreUnits = slots >= 4 ? 1 : 2;
    cfg.cluster.registers = regs;
    cfg.cluster.regFilePorts = 3 * slots;
    cfg.cluster.localMemBytes = mem_kb * 1024;
    cfg.cluster.memBanks = slots >= 4 ? 1 : 2;
    cfg.cluster.memModuleBytes = slots >= 4 ? 2048 : 512;
    cfg.pipelineStages = stages;
    cfg.addressing = stages == 5 ? AddressingModes::Complex
                                 : AddressingModes::Simple;
    cfg.multiplyStages = slots >= 4 ? 1 : 2;
    if (sweep.includeMul16 && stages == 5) {
        cfg.multiplier = MultiplierKind::Mul16x16Pipelined;
        cfg.multiplyStages = 2;
    }
    cfg.crossbarPortsPerCluster = slots >= 4 ? slots : 1;
    cfg.icacheInstructions = clusters >= 16 ? 512 : 1024;
    return cfg;
}

/** One candidate rebased onto the sweep's starting machine. */
DatapathConfig
rebasedCandidate(const DesignSweep &sweep, int clusters, int slots,
                 int regs, int mem_kb, int stages)
{
    DatapathConfig cfg = *sweep.base;
    cfg.clusters = clusters;
    cfg.cluster.issueSlots = slots;
    cfg.cluster.registers = regs;
    cfg.cluster.regFilePorts =
        std::max(cfg.cluster.regFilePorts, 3 * slots);
    cfg.cluster.localMemBytes = mem_kb * 1024;
    cfg.pipelineStages = stages;
    if (sweep.includeMul16 && stages == 5) {
        cfg.multiplier = MultiplierKind::Mul16x16Pipelined;
        cfg.multiplyStages = 2;
    }
    return cfg;
}

} // namespace

std::vector<DatapathConfig>
enumerateSweepConfigs(const DesignSweep &sweep)
{
    std::vector<DatapathConfig> configs;
    for (int clusters : sweep.clusterCounts) {
        for (int slots : sweep.issueSlots) {
            for (int regs : sweep.registerCounts) {
                for (int mem_kb : sweep.localMemKb) {
                    for (int stages : sweep.pipelineDepths) {
                        DatapathConfig cfg =
                            sweep.base
                                ? rebasedCandidate(sweep, clusters,
                                                   slots, regs,
                                                   mem_kb, stages)
                                : derivedCandidate(sweep, clusters,
                                                   slots, regs,
                                                   mem_kb, stages);
                        cfg.name = std::string("I")
                                       .append(std::to_string(slots))
                                       .append("C")
                                       .append(std::to_string(clusters))
                                       .append("S")
                                       .append(std::to_string(stages))
                                       .append("R")
                                       .append(std::to_string(regs))
                                       .append("M")
                                       .append(std::to_string(mem_kb));
                        // A base machine can make some combinations
                        // inconsistent (e.g. its bank count doesn't
                        // divide a swept memory size); skip those
                        // instead of aborting the enumeration.
                        if (!cfg.validationError().empty())
                            continue;
                        configs.push_back(std::move(cfg));
                    }
                }
            }
        }
    }
    return configs;
}

std::vector<DesignPoint>
exploreDesignSpace(const DesignSweep &sweep, SweepRunner *score)
{
    AreaEstimator area;
    ClockEstimator clock;
    std::vector<DesignPoint> points;
    for (const DatapathConfig &cfg : enumerateSweepConfigs(sweep)) {
        DesignPoint p;
        p.config = cfg;
        p.areaMm2 = area.datapathMm2(cfg);
        if (sweep.maxAreaMm2 > 0 && p.areaMm2 > sweep.maxAreaMm2)
            continue;
        p.clockMhz = clock.clockMhz(cfg);
        p.peakGops =
            (cfg.totalIssueSlots() + 1) * p.clockMhz / 1000.0;
        points.push_back(std::move(p));
    }
    if (!score)
        return points;

    // Blocked full search needs ~1.4KB of cluster memory and modest
    // registers; configs that cannot hold it fail the check.
    const KernelSpec &k = kernelByName("Full Motion Search");
    std::vector<ExperimentRequest> requests;
    for (const DesignPoint &p : points) {
        ExperimentRequest req;
        req.kernel = &k;
        req.variant = &k.variant("Blocking/Loop Exchange");
        req.model = p.config;
        req.profileUnits = 1;
        requests.push_back(req);
    }
    std::vector<ExperimentResult> results = score->run(requests);
    for (size_t i = 0; i < points.size(); ++i) {
        if (results[i].passed && results[i].cyclesPerFrame > 0) {
            points[i].framesPerSecond =
                points[i].clockMhz * 1e6 / results[i].cyclesPerFrame;
        }
    }
    return points;
}

std::vector<DesignPoint>
paretoFrontier(const std::vector<DesignPoint> &points)
{
    std::vector<DesignPoint> frontier;
    for (const auto &p : points) {
        bool dominated = false;
        for (const auto &q : points) {
            bool better_or_equal = q.areaMm2 <= p.areaMm2 &&
                                   q.framesPerSecond >=
                                       p.framesPerSecond;
            bool strictly = q.areaMm2 < p.areaMm2 ||
                            q.framesPerSecond > p.framesPerSecond;
            if (better_or_equal && strictly) {
                dominated = true;
                break;
            }
        }
        if (!dominated)
            frontier.push_back(p);
    }
    std::sort(frontier.begin(), frontier.end(),
              [](const DesignPoint &a, const DesignPoint &b) {
                  return a.areaMm2 < b.areaMm2;
              });
    return frontier;
}

} // namespace vvsp
