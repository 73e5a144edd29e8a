#include "vlsi/sram_model.hh"

#include <cmath>

#include "support/logging.hh"
#include "vlsi/technology.hh"

namespace vvsp
{

const std::vector<int> &
SramModel::standardPorts()
{
    static const std::vector<int> ports{1, 2, 3, 4, 5};
    return ports;
}

const std::vector<int> &
SramModel::standardSizes()
{
    static const std::vector<int> sizes{2,    8,    32,   128,
                                        512,  2048, 8192, 32768};
    return sizes;
}

double
SramModel::delayNs(int bytes, int ports, SramDesign design) const
{
    const Technology &tech = Technology::um025();
    vvsp_assert(bytes >= 2, "SRAM too small: %d bytes", bytes);
    vvsp_assert(ports >= 1, "SRAM needs ports");
    if (design != SramDesign::HighPerformance) {
        vvsp_assert(ports <= 2,
                    "high-density cells support at most 2 ports, got %d",
                    ports);
    }
    double bitline = tech.sramBitlineCoeff *
                     std::sqrt(static_cast<double>(bytes)) *
                     (1.0 + tech.sramPortLoadFactor * (ports - 1));
    double d = tech.sramBaseDelay + tech.sramPortDelay * ports + bitline;
    if (design != SramDesign::HighPerformance)
        d *= tech.sramHdDelayFactor;
    // The speed-binned dense cell recovers the high-perf speed.
    if (design == SramDesign::HighDensityFast)
        d /= tech.sramHdDelayFactor;
    return d;
}

double
SramModel::cellArea(int ports, SramDesign design) const
{
    const Technology &tech = Technology::um025();
    switch (design) {
      case SramDesign::HighPerformance: {
        double p = ports + 1.2;
        return tech.sramHpCellArea * p * p;
      }
      case SramDesign::HighDensity:
        return ports <= 1 ? tech.sramHd1pCellArea
                          : tech.sramHd2pCellArea;
      case SramDesign::HighDensityFast:
        return (ports <= 1 ? tech.sramHd1pCellArea
                           : tech.sramHd2pCellArea) *
               tech.sramFastCellFactor;
    }
    vvsp_panic("unknown SRAM design");
}

double
SramModel::areaMm2(int bytes, int ports, SramDesign design) const
{
    const Technology &tech = Technology::um025();
    vvsp_assert(bytes >= 2 && ports >= 1, "bad SRAM shape");
    if (design != SramDesign::HighPerformance) {
        vvsp_assert(ports <= 2,
                    "high-density cells support at most 2 ports, got %d",
                    ports);
    }
    double peri = design == SramDesign::HighPerformance
                      ? tech.sramHpPeriBase + tech.sramHpPeriPerPort *
                                                   ports
                      : tech.sramHdPeri;
    return peri + bytes * cellArea(ports, design);
}

double
SramModel::composedDelayNs(int totalBytes, int moduleBytes, int ports,
                           SramDesign design) const
{
    vvsp_assert(totalBytes >= moduleBytes,
                "memory (%d B) smaller than its module (%d B)",
                totalBytes, moduleBytes);
    return delayNs(moduleBytes, ports, design) +
           Technology::um025().sramBankMuxDelay;
}

double
SramModel::composedAreaMm2(int totalBytes, int moduleBytes, int ports,
                           SramDesign design) const
{
    vvsp_assert(totalBytes >= moduleBytes,
                "memory (%d B) smaller than its module (%d B)",
                totalBytes, moduleBytes);
    // Module composition shares decode periphery; the dominant cost is
    // cell area, so the composed array is modeled as one array of the
    // total capacity (module boundaries cost negligible area in the
    // two spare metal layers).
    return areaMm2(totalBytes, ports, design);
}

double
SramModel::densityBytesPerMm2(int ports, SramDesign design) const
{
    return 1.0 / cellArea(ports, design);
}

} // namespace vvsp
