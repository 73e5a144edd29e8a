/**
 * @file
 * Process-technology constants for the 0.25 um VLSI models.
 *
 * The paper characterized its megacells (crossbar, register file, SRAM)
 * with transistor-level ADVICE simulations of layouts in an experimental
 * 0.25 um process at 3.0 V. We replace the circuit simulator with
 * analytic RC-style delay models and cell-composition area models whose
 * coefficients are calibrated so that every data point the paper
 * publishes is reproduced:
 *
 *  - Fig 2 crossbar curves (sub-1ns at 16 ports, ~1.5ns at 32,
 *    ~3ns at 64 for the largest drivers; area 0.1..100 mm^2),
 *  - Fig 3 register-file curves (delay only slightly port-dependent,
 *    12-port 128-entry file = 3.0 mm^2 per Fig 5),
 *  - Fig 4 SRAM curves (~400 B/mm^2 4-ported, ~2600 B/mm^2 marginal
 *    density for the high-density single-ported design, 32 KB =
 *    12.9 mm^2 per Fig 5),
 *  - the Table 1 / Table 2 area and relative-clock header rows.
 *
 * All delays are in nanoseconds and all areas in mm^2.
 */

#ifndef VVSP_VLSI_TECHNOLOGY_HH
#define VVSP_VLSI_TECHNOLOGY_HH

namespace vvsp
{

/**
 * Calibration constants for the 0.25 um process models. Every model
 * reads the one instance, um025().
 */
struct Technology
{
    /** Drawn feature size in um (documentation only). */
    double featureUm = 0.25;
    /** Supply voltage in V (documentation only). */
    double supplyVolts = 3.0;

    // ---- Crossbar (Fig 2) ------------------------------------------
    /** Fixed decode + sense overhead of the switch (ns). */
    double xbarBaseDelay = 0.636;
    /** Driver-limited charging term: multiplies ports/driverUm (ns um). */
    double xbarDriveCoeff = 0.0868;
    /** Distributed wire RC term: multiplies ports^2 (ns). */
    double xbarWireCoeff = 0.000311;
    /** Switch-matrix area per port^2 (mm^2). */
    double xbarCellArea = 0.008;
    /** Driver column area per port per um of driver width (mm^2). */
    double xbarDriverArea = 0.004;
    /**
     * Overhead factor for routing the crossbar to the surrounding
     * clusters when composing a datapath (Sec. 3.2).
     */
    double xbarRoutingFactor = 1.28;

    // ---- Local register file (Fig 3) -------------------------------
    /** Access-path base delay (ns). */
    double rfBaseDelay = 0.10;
    /** Word/bit-line delay per log2(registers) (ns). */
    double rfDepthDelay = 0.121;
    /** Fractional delay growth per port (loading of the cell). */
    double rfPortDelayFactor = 0.02;
    /** Storage-cell area per bit per (ports + 1.5)^2 (mm^2). */
    double rfCellArea = 6.5e-6;
    /** Decoder/driver periphery area per port (mm^2). */
    double rfPeriPerPort = 0.04;
    /** Fixed periphery area (mm^2). */
    double rfPeriBase = 0.10;

    // ---- Local data SRAM (Fig 4) ------------------------------------
    /** Sense/decode base delay (ns). */
    double sramBaseDelay = 0.35;
    /** Extra decode delay per port (ns). */
    double sramPortDelay = 0.04;
    /** Bit-line RC delay per sqrt(bytes) (ns). */
    double sramBitlineCoeff = 0.0159;
    /** Fractional bit-line slowdown per port beyond the first. */
    double sramPortLoadFactor = 0.08;
    /** High-performance multiported cell area per byte per (p+1.2)^2. */
    double sramHpCellArea = 9.25e-5;
    /** High-perf periphery: fixed + per-port (mm^2). */
    double sramHpPeriBase = 0.10;
    double sramHpPeriPerPort = 0.08;
    /** High-density 1-port cell area per byte (mm^2); ~2600 B/mm^2. */
    double sramHd1pCellArea = 3.853e-4;
    /** High-density 2-port cell area per byte (mm^2); ~2200 B/mm^2. */
    double sramHd2pCellArea = 4.55e-4;
    /** High-density periphery (mm^2). */
    double sramHdPeri = 0.273;
    /** Delay penalty of the density-optimized cell vs high-perf. */
    double sramHdDelayFactor = 1.17;
    /**
     * Cell-area growth for the speed-binned cell used by the single
     * 16 KB memory of I2C16S5 (Sec. 3.2: "increased the cell size").
     */
    double sramFastCellFactor = 1.365;
    /** Bank-select mux delay added to a module access (ns). */
    double sramBankMuxDelay = 0.04;

    // ---- Functional units (Sec. 3.1.4, published designs) ----------
    /** 16-bit ALU delay (ns); scaled from the 1.5ns 32-bit ALU [9]. */
    double aluDelay = 0.80;
    /** 16-bit ALU area (mm^2); Fig 5 uses 0.4 per ALU. */
    double aluArea = 0.40;
    /** Extra delay of the absolute-difference ALU (~2 gate delays). */
    double absDiffExtraDelay = 0.10;
    /** The abs-diff ALU doubles in area (Sec. 3.3). */
    double absDiffExtraArea = 0.40;
    /** 8x8 multiplier: single cycle at target rates (Fig 5: 1 mm^2). */
    double mult8Area = 1.0;
    double mult8Delay = 1.3;
    /**
     * 16x16 two-stage multiplier ("under 3 mm^2", Table 2 deltas).
     * Per-stage delay fits the 16-cluster cycle time: the 4.4ns
     * 54x54 pass-transistor design [8] scales well below 1ns per
     * stage at 16 bits.
     */
    double mult16Area = 2.8;
    double mult16StageDelay = 0.92;
    /** Barrel shifter (Fig 5: 0.5 mm^2). */
    double shifterArea = 0.5;
    double shifterDelay = 0.45;

    // ---- Bypass / pipeline overhead ---------------------------------
    /** Bypass multiplexer delay per input (ns). */
    double bypassMuxDelayPerInput = 0.025;
    /** Bypass + pipeline register area per issue slot (mm^2). */
    double bypassAreaPerSlot = 0.10;
    /** Additional bypass area per extra 5-stage bypass path (mm^2). */
    double bypassAreaPerExtraPath = 0.06;
    /** Mux/alignment overhead when folding an address add into the
     *  memory stage (the I4C8S4C combined stage), ns. */
    double agenFoldOverhead = 0.22;
    /** Clock skew + latch setup overhead per stage (ns). */
    double clockOverhead = 0.22;
    /**
     * The paper *assumes* complex 5-stage bypassing in 4-slot clusters
     * costs ~5% of cycle time (Sec. 3.2); same assumption here.
     */
    double fiveStageBypassPenalty = 1.05;

    /** Local (intra-cluster) routing overhead factor (Fig 5: 10%). */
    double localRoutingFactor = 1.10;

    // ---- Power (Sec. 3, "in the 50 W range") ------------------------
    /** Switched capacitance per mm^2 of active datapath logic (nF). */
    double switchedCapPerMm2 = 0.055;
    /** Average activity factor of datapath logic. */
    double activityFactor = 0.35;
    /**
     * Whole-chip power relative to the datapath alone (instruction
     * cache, control, I/O, and the clock-distribution network).
     */
    double chipPowerFactor = 2.4;

    /** The experimental 0.25 um process used throughout the paper. */
    static const Technology &um025();
};

} // namespace vvsp

#endif // VVSP_VLSI_TECHNOLOGY_HH
