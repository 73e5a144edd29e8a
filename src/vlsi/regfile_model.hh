/**
 * @file
 * Analytic delay/area model of the multiported 16-bit local register
 * file (paper Sec. 3.1.2, Fig 3).
 *
 * Delay grows with the depth of the file (word/bit-line length,
 * log2(registers)) and only slightly with the port count, matching the
 * paper's observation. Area is dominated by the storage cell, which
 * grows quadratically with the port count because each port adds a
 * word line and a bit line to the cell pitch in both dimensions.
 */

#ifndef VVSP_VLSI_REGFILE_MODEL_HH
#define VVSP_VLSI_REGFILE_MODEL_HH

#include <vector>

namespace vvsp
{

/** Parameterized multiported register-file megacell (Fig 3). */
class RegisterFileModel
{
  public:
    /** Port counts swept in Fig 3 (3 ports per issue slot). */
    static const std::vector<int> &standardPorts();

    /** Register counts swept in Fig 3. */
    static const std::vector<int> &standardSizes();

    /** Read-access delay in ns of a file with the given geometry. */
    double delayNs(int registers, int ports) const;

    /** Area in mm^2 of 16-bit registers with the given geometry. */
    double areaMm2(int registers, int ports) const;

    /**
     * Largest power-of-two register count whose access fits in the
     * given stage delay budget (ns), or 0 if even 16 does not fit.
     */
    int maxRegistersForDelay(int ports, double budgetNs) const;
};

} // namespace vvsp

#endif // VVSP_VLSI_REGFILE_MODEL_HH
