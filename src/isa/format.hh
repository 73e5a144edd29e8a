/**
 * @file
 * Long-instruction-word layout of a datapath model.
 *
 * The paper's area argument rests on the shape of the long
 * instruction: one operation field per issue slot of every cluster
 * plus the machine-wide control slot ("operation 33" on the 8x4
 * datapath). An IsaFormat pins that shape down for one
 * DatapathConfig: field widths for opcodes, register specifiers,
 * immediates, buffer ids, and inter-cluster transfer targets, plus
 * the per-word slot-occupancy mask that implements NOP compression
 * (absent slots cost one mask bit, not a full operation field).
 *
 * The format is pure data, derived from the config; every encoded
 * module carries it in its binary header.
 */

#ifndef VVSP_ISA_FORMAT_HH
#define VVSP_ISA_FORMAT_HH

#include "arch/datapath_config.hh"

namespace vvsp
{

/** Smallest field width representing values 0..max_value (0 -> 0). */
int bitsFor(unsigned max_value);

/** Instruction-word field widths for one datapath. */
struct IsaFormat
{
    /** Clusters in the ring (issue-slot groups of the word). */
    int clusters = 8;
    /** Issue slots (operation fields) per cluster. */
    int slotsPerCluster = 4;
    /** Opcode field width (the op set needs 6 bits). */
    int opcodeBits = 6;
    /**
     * Architectural register-specifier width: bitsFor(registers-1).
     * Programs over the unbounded virtual-register pool widen their
     * sections past this floor (no register allocator runs), so the
     * encoded width is max(archRegBits, widest vreg used).
     */
    int archRegBits = 7;
    /** Immediate operand field width (the native 16-bit integer). */
    int immBits = 16;
    /** Transfer-destination field width: bitsFor(clusters-1). */
    int clusterBits = 3;

    /** Operation fields per word, excluding the control slot. */
    int totalSlots() const { return clusters * slotsPerCluster; }

    /** Slot-occupancy mask width: every slot plus the control slot. */
    int maskBits() const { return totalSlots() + 1; }

    bool operator==(const IsaFormat &) const = default;
};

/** Derive the word layout of a datapath model. */
IsaFormat isaFormatFor(const DatapathConfig &cfg);

} // namespace vvsp

#endif // VVSP_ISA_FORMAT_HH
