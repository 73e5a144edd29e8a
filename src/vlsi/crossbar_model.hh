/**
 * @file
 * Analytic delay/area model of the full 16-bit crossbar switch
 * (paper Sec. 3.1.1, Fig 2; detailed circuit design in [10]).
 *
 * The crossbar is an N x N switch of 16-bit ports with inputs and
 * outputs routed in from both sides. Delay is modeled as a fixed
 * decode/sense term, a driver-limited charging term proportional to
 * the port count divided by the driver width, and a distributed-RC
 * wire term proportional to the square of the port count. Area is a
 * switch matrix growing with ports^2 plus a driver column.
 */

#ifndef VVSP_VLSI_CROSSBAR_MODEL_HH
#define VVSP_VLSI_CROSSBAR_MODEL_HH

#include <vector>

namespace vvsp
{

/** Parameterized 16-bit crossbar megacell (Fig 2). */
class CrossbarModel
{
  public:
    /** Driver widths (um) swept in Fig 2. */
    static const std::vector<double> &standardDriversUm();

    /** Port counts swept in Fig 2. */
    static const std::vector<int> &standardPorts();

    /** Propagation delay in ns through an N-port switch. */
    double delayNs(int ports, double driverUm) const;

    /** Silicon area in mm^2 of an N-port switch. */
    double areaMm2(int ports, double driverUm) const;

    /**
     * Area including the routing needed to connect the switch to the
     * surrounding functional-unit clusters (used when composing a
     * datapath; Sec. 3.2).
     */
    double routedAreaMm2(int ports, double driverUm) const;

    /**
     * Smallest standard driver that meets the given cycle time, or a
     * negative value if none does.
     */
    double minDriverForCycle(int ports, double cycleNs) const;
};

} // namespace vvsp

#endif // VVSP_VLSI_CROSSBAR_MODEL_HH
