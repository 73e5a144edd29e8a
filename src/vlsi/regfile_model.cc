#include "vlsi/regfile_model.hh"

#include <cmath>

#include "support/logging.hh"
#include "vlsi/technology.hh"

namespace vvsp
{

const std::vector<int> &
RegisterFileModel::standardPorts()
{
    static const std::vector<int> ports{3, 6, 9, 12};
    return ports;
}

const std::vector<int> &
RegisterFileModel::standardSizes()
{
    static const std::vector<int> sizes{16, 32, 64, 128, 256};
    return sizes;
}

double
RegisterFileModel::delayNs(int registers, int ports) const
{
    const Technology &tech = Technology::um025();
    vvsp_assert(registers >= 2, "register file too small: %d", registers);
    vvsp_assert(ports >= 1, "register file needs ports");
    double depth = std::log2(static_cast<double>(registers));
    return tech.rfBaseDelay +
           tech.rfDepthDelay * depth *
               (1.0 + tech.rfPortDelayFactor * ports);
}

double
RegisterFileModel::areaMm2(int registers, int ports) const
{
    const Technology &tech = Technology::um025();
    vvsp_assert(registers >= 2 && ports >= 1, "bad register file shape");
    double pitch = ports + 1.5;
    double cell = tech.rfCellArea * pitch * pitch;
    double bits = 16.0 * registers;
    return bits * cell + tech.rfPeriBase + tech.rfPeriPerPort * ports;
}

int
RegisterFileModel::maxRegistersForDelay(int ports, double budgetNs) const
{
    int best = 0;
    for (int r = 16; r <= 4096; r *= 2) {
        if (delayNs(r, ports) <= budgetNs)
            best = r;
    }
    return best;
}

} // namespace vvsp
