/**
 * @file
 * Analytic delay/area models of the local data SRAM
 * (paper Sec. 3.1.3, Fig 4).
 *
 * Two cell designs are modeled, as in the paper:
 *
 *  - HighPerformance: the scaleable 1..5-ported design of Fig 4,
 *    optimized for speed with many ports; density ~400 B/mm^2 at
 *    4 ports. The minimum cell transistor grows with the port count,
 *    so delay degrades slightly less than naively expected while area
 *    grows somewhat more.
 *  - HighDensity: the specially designed 1- and 2-ported cells with
 *    ~2600 and ~2200 B/mm^2 marginal density, ~17% slower than the
 *    high-performance cell. A "fast" speed-binned variant (larger
 *    cell) is used for the single 16 KB memory of I2C16S5.
 *
 * Large memories are composed from fixed-size modules (the paper's
 * 32 KB cluster memory uses 16Kx1-bit modules); the access delay of
 * the composed memory is the module delay plus a bank-select mux.
 */

#ifndef VVSP_VLSI_SRAM_MODEL_HH
#define VVSP_VLSI_SRAM_MODEL_HH

#include <vector>

namespace vvsp
{

/** SRAM cell design choice. */
enum class SramDesign
{
    HighPerformance, ///< Fig 4 multiported design (1..5 ports).
    HighDensity,     ///< dense 1-2 ported design (Sec. 3.1.3).
    HighDensityFast, ///< speed-binned dense cell (I2C16S5's 16 KB).
};

/** Parameterized local-memory megacell (Fig 4). */
class SramModel
{
  public:
    /** Port counts swept in Fig 4. */
    static const std::vector<int> &standardPorts();

    /** Capacities (bytes) swept in Fig 4: 2 .. 32768, x4 steps. */
    static const std::vector<int> &standardSizes();

    /** Access delay in ns of a monolithic array. */
    double delayNs(int bytes, int ports,
                   SramDesign design = SramDesign::HighPerformance) const;

    /** Area in mm^2 of a monolithic array. */
    double areaMm2(int bytes, int ports,
                   SramDesign design = SramDesign::HighPerformance) const;

    /**
     * Access delay of a memory of totalBytes composed from modules of
     * moduleBytes each (bank-select mux included).
     */
    double composedDelayNs(int totalBytes, int moduleBytes, int ports,
                           SramDesign design) const;

    /** Area of a composed memory (modules plus shared periphery). */
    double composedAreaMm2(int totalBytes, int moduleBytes, int ports,
                           SramDesign design) const;

    /** Marginal storage density in bytes per mm^2 (cell only). */
    double densityBytesPerMm2(int ports, SramDesign design) const;

  private:
    double cellArea(int ports, SramDesign design) const;
};

} // namespace vvsp

#endif // VVSP_VLSI_SRAM_MODEL_HH
