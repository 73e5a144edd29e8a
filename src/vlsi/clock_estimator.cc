#include "vlsi/clock_estimator.hh"

#include <algorithm>
#include <sstream>

#include "support/logging.hh"
#include "vlsi/technology.hh"

namespace vvsp
{

int
ClockEstimator::bypassInputs(const DatapathConfig &cfg)
{
    const ClusterConfig &cl = cfg.cluster;
    int fus = cl.numAlus + cl.numMultipliers + cl.numShifters +
              cl.numLoadStoreUnits;
    // Wide clusters bypass the register read, writeback, and
    // crossbar-in paths as well (the paper's 10-input muxes on
    // I4C8S4); 2-slot clusters share a single crossbar port and
    // write port, needing only the register-read path.
    int inputs = fus + (cl.issueSlots >= 4 ? 3 : 1);
    if (cfg.pipelineStages >= 5 && cl.issueSlots >= 4) {
        // One extra MEM-stage bypass path per issue slot.
        inputs += cl.issueSlots;
    }
    return inputs;
}

ClockBreakdown
ClockEstimator::estimate(const DatapathConfig &cfg) const
{
    const Technology &tech = Technology::um025();
    cfg.validate();
    const ClusterConfig &cl = cfg.cluster;
    ClockBreakdown b;

    b.regFileNs = rf_.delayNs(cl.registers, cl.regFilePorts);

    double mux = fu_.bypassMuxDelayNs(bypassInputs(cfg));
    b.executeNs = fu_.aluDelayNs(cl.hasAbsDiff) + mux;
    b.executeNs = std::max(b.executeNs, fu_.shifterDelayNs() + mux);

    SramDesign design = cl.fastMemoryCell ? SramDesign::HighDensityFast
                                          : SramDesign::HighDensity;
    int bank_bytes = cl.localMemBytes / cl.memBanks;
    b.memoryNs = sram_.composedDelayNs(bank_bytes, cl.memModuleBytes,
                                       cl.memPortsPerBank, design);
    if (cfg.addressing == AddressingModes::Complex &&
        cfg.pipelineStages == 4) {
        // I4C8S4C: address addition and memory access share a stage.
        b.memoryNs += fu_.aluDelayNs(false) + tech.agenFoldOverhead;
    }

    b.multiplyNs = cfg.multiplier == MultiplierKind::Mul16x16Pipelined
                       ? fu_.mult16StageDelayNs()
                       : fu_.mult8DelayNs() / cfg.multiplyStages;

    b.crossbarNs = xbar_.delayNs(cfg.crossbarPorts(),
                                 cfg.crossbarDriverUm);

    double stage = std::max({b.regFileNs, b.executeNs, b.memoryNs,
                             b.multiplyNs});
    b.cycleNs = std::max(stage + tech.clockOverhead, b.crossbarNs);
    if (cfg.pipelineStages >= 5 && cl.issueSlots >= 4)
        b.cycleNs *= tech.fiveStageBypassPenalty;
    b.clockMhz = 1000.0 / b.cycleNs;
    return b;
}

double
ClockEstimator::clockMhz(const DatapathConfig &cfg) const
{
    return estimate(cfg).clockMhz;
}

double
ClockEstimator::relativeClock(const DatapathConfig &cfg,
                              const DatapathConfig &reference) const
{
    return clockMhz(cfg) / clockMhz(reference);
}

std::string
ClockBreakdown::str() const
{
    std::ostringstream os;
    os << "regfile " << regFileNs << " ns, execute " << executeNs
       << " ns, memory " << memoryNs << " ns, multiply " << multiplyNs
       << " ns, crossbar " << crossbarNs << " ns -> cycle " << cycleNs
       << " ns (" << clockMhz << " MHz)";
    return os.str();
}

} // namespace vvsp
