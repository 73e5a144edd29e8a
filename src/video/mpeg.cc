#include "video/mpeg.hh"

#include <cmath>
#include <cstdlib>

#include "support/logging.hh"

namespace vvsp
{

const std::array<uint8_t, 64> &
zigzagOrder()
{
    static const std::array<uint8_t, 64> order = {
        0,  1,  8,  16, 9,  2,  3,  10, 17, 24, 32, 25, 18, 11, 4,  5,
        12, 19, 26, 33, 40, 48, 41, 34, 27, 20, 13, 6,  7,  14, 21, 28,
        35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51,
        58, 59, 52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63};
    return order;
}

std::vector<uint16_t>
extractMacroblock(const Plane &p, int mbx, int mby)
{
    std::vector<uint16_t> mb(256);
    for (int y = 0; y < 16; ++y) {
        for (int x = 0; x < 16; ++x) {
            mb[static_cast<size_t>(y * 16 + x)] =
                p.at(mbx * 16 + x, mby * 16 + y);
        }
    }
    return mb;
}

std::vector<uint16_t>
extractSearchWindow(const Plane &p, int mbx, int mby)
{
    std::vector<uint16_t> win(32 * 32);
    for (int y = 0; y < 32; ++y) {
        for (int x = 0; x < 32; ++x) {
            win[static_cast<size_t>(y * 32 + x)] =
                p.atClamped(mbx * 16 + x - 8, mby * 16 + y - 8);
        }
    }
    return win;
}

std::vector<uint16_t>
quantizeBlock(const std::vector<uint16_t> &dct)
{
    vvsp_assert(dct.size() == 64, "quantizeBlock needs 64 coefficients");
    std::vector<uint16_t> q(64);
    for (size_t i = 0; i < 64; ++i) {
        int v = static_cast<int16_t>(dct[i]);
        int step = i == 0 ? 8 : 16;
        int sign = v < 0 ? -1 : 1;
        q[i] = static_cast<uint16_t>(sign * (std::abs(v) / step));
    }
    return q;
}

const VbrCodeTable &
VbrCodeTable::instance()
{
    static const VbrCodeTable table = [] {
        VbrCodeTable t{};
        for (int run = 0; run < 16; ++run) {
            for (int cls = 0; cls < 8; ++cls) {
                size_t idx = static_cast<size_t>(run * 8 + cls);
                if (cls == 0) {
                    // (run, 0) is never coded; keep a benign entry.
                    t.length[idx] = 15;
                    t.code[idx] = 0;
                    continue;
                }
                // MPEG-like growth: short codes for short runs and
                // small levels, capped at 15 bits so any codeword
                // fits a single 16-bit append.
                int bits = 2 + run + 2 * cls;
                if (bits > 15)
                    bits = 15;
                t.length[idx] = static_cast<uint16_t>(bits);
                // Deterministic distinct code values.
                t.code[idx] = static_cast<uint16_t>(
                    (run * 37 + cls * 11 + 5) & ((1u << bits) - 1));
            }
        }
        return t;
    }();
    return table;
}

} // namespace vvsp
