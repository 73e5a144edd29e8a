/**
 * @file
 * Architectural parameter set of a candidate VLIW VSP datapath
 * (paper Sec. 3.2).
 *
 * A datapath is a ring of identical functional-unit clusters around a
 * central crossbar. Every architectural knob the paper varies is a
 * field here; the seven named models of Tables 1-2 are built by
 * factories in arch/models.hh.
 */

#ifndef VVSP_ARCH_DATAPATH_CONFIG_HH
#define VVSP_ARCH_DATAPATH_CONFIG_HH

#include <string>

namespace vvsp
{

/** Load/store address modes supported by the datapath. */
enum class AddressingModes
{
    Simple,  ///< direct and register-indirect only.
    Complex, ///< adds indexed (reg+reg) and base-displacement.
};

/** Multiplier implementation choice (Sec. 3.4.3, Table 2). */
enum class MultiplierKind
{
    Mul8x8,           ///< single-cycle 8x8 multiplier.
    Mul16x16Pipelined ///< 2-stage 16x16; 16 bits of result per cycle.
};

/** Per-cluster resources. */
struct ClusterConfig
{
    /** Operations issued per cycle by this cluster. */
    int issueSlots = 4;
    /** Number of ALUs ("more FUs than slots keeps utilization high"). */
    int numAlus = 4;
    /** Number of multipliers. */
    int numMultipliers = 1;
    /** Number of barrel shifters. */
    int numShifters = 1;
    /** Number of load/store units. */
    int numLoadStoreUnits = 1;
    /** 16-bit registers in the local register file. */
    int registers = 128;
    /** Register-file ports (3 per issue slot). */
    int regFilePorts = 12;
    /** Total local data RAM in bytes (double-buffered). */
    int localMemBytes = 32 * 1024;
    /** Independent memory banks (address spaces) in the cluster. */
    int memBanks = 1;
    /** Ports per memory bank (2 for the dual-ported ablation). */
    int memPortsPerBank = 1;
    /** VLSI module granularity the RAM is composed from (bytes). */
    int memModuleBytes = 2048;
    /** Use the speed-binned dense cell (I2C16S5's single 16 KB). */
    bool fastMemoryCell = false;
    /** One ALU implements the absolute-difference special op. */
    bool hasAbsDiff = false;

    bool operator==(const ClusterConfig &) const = default;
};

/** Complete datapath description. */
struct DatapathConfig
{
    /** Model name, e.g. "I4C8S4". */
    std::string name;
    /** Number of identical clusters. */
    int clusters = 8;
    /** Per-cluster resources. */
    ClusterConfig cluster;
    /** Pipeline depth: 4 (IF/OF/EX/WB) or 5 (adds a MEM stage). */
    int pipelineStages = 4;
    /** Supported addressing modes. */
    AddressingModes addressing = AddressingModes::Simple;
    /** Multiplier implementation. */
    MultiplierKind multiplier = MultiplierKind::Mul8x8;
    /** Crossbar ports per cluster (1 per slot on I4C8*, 1 on I2C16*). */
    int crossbarPortsPerCluster = 4;
    /** On-chip instruction-cache capacity in long instructions. */
    int icacheInstructions = 1024;
    /** Cycles to refill the icache on a miss (Sec. 3.2: ">100"). */
    int icacheRefillCycles = 128;
    /** Crossbar driver width (um) from the Fig 2 sweep. */
    double crossbarDriverUm = 5.1;
    /**
     * Multiplier pipeline depth. The 16-cluster models must pipeline
     * even the 8x8 multiplier to two stages to reach their clock
     * (Sec. 3.2); the 16x16 multiplier is always 2-stage.
     */
    int multiplyStages = 1;

    /** Total issue slots across the machine (plus the control slot). */
    int totalIssueSlots() const { return clusters * cluster.issueSlots; }

    /** Total crossbar ports (switch size). */
    int crossbarPorts() const
    {
        return clusters * crossbarPortsPerCluster;
    }

    /** Load-use delay in cycles (1 with the 5-stage pipeline). */
    int loadUseDelay() const { return pipelineStages >= 5 ? 1 : 0; }

    /**
     * Branch delay slots exposed to the scheduler. Branches resolve
     * in the operand-fetch/decode stage (the compare value arrives
     * through the bypass network), so both pipelines expose a single
     * delay slot - consistent with the paper's sequential rows being
     * identical across the 4- and 5-stage models.
     */
    int branchDelaySlots() const { return 1; }

    /**
     * Check internal consistency; returns the first problem as a
     * human-readable message, or "" when the config is valid. Lets
     * file-loaded machines be rejected with a diagnostic instead of
     * killing the process.
     */
    std::string validationError() const;

    /** Validate internal consistency; fatal() on user error. */
    void validate() const;

    bool operator==(const DatapathConfig &) const = default;
};

} // namespace vvsp

#endif // VVSP_ARCH_DATAPATH_CONFIG_HH
