#include "vlsi/crossbar_model.hh"

#include "support/logging.hh"
#include "vlsi/technology.hh"

namespace vvsp
{

const std::vector<double> &
CrossbarModel::standardDriversUm()
{
    static const std::vector<double> drivers{1.8, 2.7, 3.9, 4.5, 5.1};
    return drivers;
}

const std::vector<int> &
CrossbarModel::standardPorts()
{
    static const std::vector<int> ports{4, 8, 16, 32, 64};
    return ports;
}

double
CrossbarModel::delayNs(int ports, double driverUm) const
{
    const Technology &tech = Technology::um025();
    vvsp_assert(ports >= 2, "crossbar needs >= 2 ports, got %d", ports);
    vvsp_assert(driverUm > 0.0, "bad driver width");
    return tech.xbarBaseDelay +
           tech.xbarDriveCoeff * ports / driverUm +
           tech.xbarWireCoeff * ports * ports;
}

double
CrossbarModel::areaMm2(int ports, double driverUm) const
{
    const Technology &tech = Technology::um025();
    vvsp_assert(ports >= 2, "crossbar needs >= 2 ports, got %d", ports);
    return tech.xbarCellArea * ports * ports +
           tech.xbarDriverArea * ports * driverUm;
}

double
CrossbarModel::routedAreaMm2(int ports, double driverUm) const
{
    return areaMm2(ports, driverUm) * Technology::um025().xbarRoutingFactor;
}

double
CrossbarModel::minDriverForCycle(int ports, double cycleNs) const
{
    for (double w : standardDriversUm()) {
        if (delayNs(ports, w) <= cycleNs)
            return w;
    }
    return -1.0;
}

} // namespace vvsp
