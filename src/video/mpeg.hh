/**
 * @file
 * MPEG-style encoder pieces shared by the kernels' golden references
 * and the workload generators: macroblock/window extraction, zigzag
 * order, a uniform quantizer, and the run/level code table used by
 * the VBR (run-length + Huffman) coder.
 */

#ifndef VVSP_VIDEO_MPEG_HH
#define VVSP_VIDEO_MPEG_HH

#include <array>
#include <cstdint>
#include <vector>

#include "video/frame.hh"

namespace vvsp
{

/** Zigzag scan order of an 8x8 block (64 raster indices). */
const std::array<uint8_t, 64> &zigzagOrder();

/** Extract a 16x16 macroblock as 16-bit words (row major). */
std::vector<uint16_t> extractMacroblock(const Plane &p, int mbx, int mby);

/**
 * Extract the 32x32 search window centered on macroblock (mbx, mby)
 * offset by (-8, -8), edge-replicated at frame borders: candidate
 * displacements dx, dy in [-8, 7] index it at
 * (8 + dx + x, 8 + dy + y).
 */
std::vector<uint16_t> extractSearchWindow(const Plane &p, int mbx,
                                          int mby);

/**
 * Uniform quantizer: DC step 8, AC step 16. Produces the sparse
 * coefficient blocks the VBR coder consumes.
 */
std::vector<uint16_t> quantizeBlock(const std::vector<uint16_t> &dct);

/**
 * Run/level code table for the VBR coder. Codes cover runs 0..15 and
 * level classes 1..7 (class = min(|level|, 7)); larger runs/levels
 * clamp to the table edge (a lossy simplification of the MPEG escape
 * mechanism that preserves the coder's cycle behavior - see
 * DESIGN.md). Lengths grow with run and level like the MPEG tables,
 * capped at 15 bits. Exposed as flat arrays (run * 8 + cls) so the
 * kernels can load them from local memory.
 */
struct VbrCodeTable
{
    /** Code lengths in bits, indexed run * 8 + cls; [0] unused. */
    std::array<uint16_t, 128> length;
    /** Code values (low `length` bits meaningful). */
    std::array<uint16_t, 128> code;

    static const VbrCodeTable &instance();

    static constexpr int kEscapeBits = 24;
    static constexpr int kEobBits = 4;
    static constexpr uint16_t kEobCode = 0xA;
};

} // namespace vvsp

#endif // VVSP_VIDEO_MPEG_HH
