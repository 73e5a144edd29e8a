/**
 * @file
 * Delay/area figures for the arithmetic units (paper Sec. 3.1.4).
 *
 * The paper bases these on published 0.25 um designs rather than
 * custom layout: a 1.5ns 32-bit double-pass-transistor ALU [9]
 * (0.6 mm^2) and a 4.4ns 54x54 multiplier [8] (12.8 mm^2), scaled to
 * the 16-bit datapath. Fig 5 uses 0.4 mm^2 per 16-bit ALU, 1 mm^2 for
 * the 8x8 multiplier, and 0.5 mm^2 for the shifter.
 */

#ifndef VVSP_VLSI_FU_MODEL_HH
#define VVSP_VLSI_FU_MODEL_HH

namespace vvsp
{

/** Arithmetic-unit area/delay figures from published designs. */
class FunctionalUnitModel
{
  public:
    /** 16-bit ALU delay (ns); absDiff adds ~2 gate delays. */
    double aluDelayNs(bool absDiff = false) const;

    /** 16-bit ALU area (mm^2); the abs-diff ALU doubles in area. */
    double aluAreaMm2(bool absDiff = false) const;

    /** 8x8 multiplier (single cycle at the 650 MHz target). */
    double mult8DelayNs() const;
    double mult8AreaMm2() const;

    /** 16x16 two-stage pipelined multiplier (per-stage delay). */
    double mult16StageDelayNs() const;
    double mult16AreaMm2() const;

    /** Barrel shifter. */
    double shifterDelayNs() const;
    double shifterAreaMm2() const;

    /** Bypass-network multiplexer delay for the given input count. */
    double bypassMuxDelayNs(int inputs) const;
};

} // namespace vvsp

#endif // VVSP_VLSI_FU_MODEL_HH
