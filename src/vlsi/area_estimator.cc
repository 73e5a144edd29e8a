#include "vlsi/area_estimator.hh"

#include <sstream>

#include "support/logging.hh"
#include "support/table.hh"
#include "vlsi/technology.hh"

namespace vvsp
{

AreaBreakdown
AreaEstimator::estimate(const DatapathConfig &cfg) const
{
    const Technology &tech = Technology::um025();
    cfg.validate();
    const ClusterConfig &cl = cfg.cluster;
    AreaBreakdown b;

    b.registerFile = rf_.areaMm2(cl.registers, cl.regFilePorts);

    b.alus = cl.numAlus * fu_.aluAreaMm2(false);
    if (cl.hasAbsDiff)
        b.alus += tech.absDiffExtraArea; // one ALU doubles in area.

    double mult = cfg.multiplier == MultiplierKind::Mul16x16Pipelined
                      ? fu_.mult16AreaMm2()
                      : fu_.mult8AreaMm2();
    b.multipliers = cl.numMultipliers * mult;
    b.shifters = cl.numShifters * fu_.shifterAreaMm2();

    SramDesign design = cl.fastMemoryCell ? SramDesign::HighDensityFast
                                          : SramDesign::HighDensity;
    int bank_bytes = cl.localMemBytes / cl.memBanks;
    b.localRam = cl.memBanks *
                 sram_.composedAreaMm2(bank_bytes, cl.memModuleBytes,
                                       cl.memPortsPerBank, design);

    b.bypass = tech.bypassAreaPerSlot * cl.issueSlots;
    if (cfg.pipelineStages >= 5) {
        // One extra bypass path per issue slot for the MEM stage.
        b.bypass += tech.bypassAreaPerExtraPath * cl.issueSlots;
    }

    double raw = b.registerFile + b.alus + b.multipliers + b.shifters +
                 b.localRam + b.bypass;
    b.localRouting = raw * (tech.localRoutingFactor - 1.0);
    b.clusterTotal = raw + b.localRouting;

    b.crossbar = xbar_.routedAreaMm2(cfg.crossbarPorts(),
                                     cfg.crossbarDriverUm);
    b.datapathTotal = cfg.clusters * b.clusterTotal + b.crossbar;
    return b;
}

double
AreaEstimator::datapathMm2(const DatapathConfig &cfg) const
{
    return estimate(cfg).datapathTotal;
}

double
AreaEstimator::powerWatts(const DatapathConfig &cfg, double clockGhz) const
{
    const Technology &tech = Technology::um025();
    vvsp_assert(clockGhz > 0.0, "bad clock");
    double area = datapathMm2(cfg);
    double v = tech.supplyVolts;
    // P = alpha * C * V^2 * f; C in nF, f in GHz -> watts.
    return tech.activityFactor * tech.switchedCapPerMm2 * area * v * v *
           clockGhz;
}

double
AreaEstimator::chipPowerWatts(const DatapathConfig &cfg,
                              double clockGhz) const
{
    return powerWatts(cfg, clockGhz) * Technology::um025().chipPowerFactor;
}

std::string
AreaBreakdown::str(const DatapathConfig &cfg) const
{
    const ClusterConfig &cl = cfg.cluster;
    TextTable t;
    auto mm2 = [](double v) { return TextTable::num(v, 2) + " mm^2"; };
    t.row({format("%d-ported register file - %d registers",
                  cl.regFilePorts, cl.registers),
           mm2(registerFile)});
    t.row({format("%d ALUs%s", cl.numAlus,
                  cl.hasAbsDiff ? " (one with abs-diff)" : ""),
           mm2(alus)});
    t.row({cfg.multiplier == MultiplierKind::Mul16x16Pipelined
               ? "16-bit 2-stage multiplier"
               : "8-bit multiplier",
           mm2(multipliers)});
    t.row({"shifter", mm2(shifters)});
    t.row({format("%dK local RAM (%d bank%s)",
                  cl.localMemBytes / 1024, cl.memBanks,
                  cl.memBanks > 1 ? "s" : ""),
           mm2(localRam)});
    t.row({"Bypass logic, pipeline registers, etc.", mm2(bypass)});
    t.row({"Local routing overhead", mm2(localRouting)});
    t.separator();
    t.row({"Cluster area", mm2(clusterTotal)});
    t.row({format("%dx%d crossbar (routed)", cfg.crossbarPorts(),
                  cfg.crossbarPorts()),
           mm2(crossbar)});
    t.row({format("%d clusters + crossbar datapath", cfg.clusters),
           mm2(datapathTotal)});
    return t.str();
}

} // namespace vvsp
