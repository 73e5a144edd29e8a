#include "arch/datapath_config.hh"

#include "support/logging.hh"

namespace vvsp
{

std::string
DatapathConfig::validationError() const
{
    if (clusters < 1)
        return format("%s: needs at least one cluster", name.c_str());
    if (cluster.issueSlots < 1) {
        return format("%s: cluster needs at least one issue slot",
                      name.c_str());
    }
    if (cluster.numLoadStoreUnits > cluster.issueSlots) {
        return format("%s: %d load/store units but only %d issue slots "
                      "(a slot holds at most one load/store unit)",
                      name.c_str(), cluster.numLoadStoreUnits,
                      cluster.issueSlots);
    }
    if (cluster.regFilePorts < 3 * cluster.issueSlots) {
        return format("%s: %d issue slots need %d register-file "
                      "ports, only %d provided",
                      name.c_str(), cluster.issueSlots,
                      3 * cluster.issueSlots, cluster.regFilePorts);
    }
    if (cluster.numAlus < 1) {
        return format("%s: cluster needs at least one ALU",
                      name.c_str());
    }
    if (cluster.memBanks < 1) {
        return format("%s: cluster needs at least one memory bank",
                      name.c_str());
    }
    if (cluster.localMemBytes % cluster.memBanks != 0) {
        return format("%s: %d B of local memory not divisible into "
                      "%d banks",
                      name.c_str(), cluster.localMemBytes,
                      cluster.memBanks);
    }
    if (cluster.localMemBytes / cluster.memBanks <
        cluster.memModuleBytes) {
        return format("%s: memory bank smaller than its %d-byte "
                      "module",
                      name.c_str(), cluster.memModuleBytes);
    }
    if (pipelineStages != 4 && pipelineStages != 5) {
        return format("%s: only 4- and 5-stage pipelines are modeled",
                      name.c_str());
    }
    if (multiplier == MultiplierKind::Mul16x16Pipelined &&
        pipelineStages != 5) {
        return format("%s: the 2-stage 16x16 multiplier requires the "
                      "5-stage pipeline (Table 2)",
                      name.c_str());
    }
    if (multiplier == MultiplierKind::Mul16x16Pipelined &&
        multiplyStages != 2) {
        return format("%s: the 16x16 multiplier is a 2-stage design",
                      name.c_str());
    }
    if (multiplyStages < 1 || multiplyStages > 2) {
        return format("%s: only 1- and 2-stage multipliers are "
                      "modeled",
                      name.c_str());
    }
    if (crossbarPortsPerCluster < 1) {
        return format("%s: cluster needs a crossbar port",
                      name.c_str());
    }
    if (icacheInstructions < 16) {
        return format("%s: icache of %d instructions is too small",
                      name.c_str(), icacheInstructions);
    }
    return "";
}

void
DatapathConfig::validate() const
{
    std::string err = validationError();
    if (!err.empty())
        vvsp_fatal("%s", err.c_str());
}

} // namespace vvsp
