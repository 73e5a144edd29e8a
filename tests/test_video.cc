/** @file Video-substrate tests. */

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "video/bitstream.hh"
#include "video/frame.hh"
#include "video/mpeg.hh"
#include "video/synthetic.hh"

namespace vvsp
{
namespace
{

TEST(Plane, AccessAndClamping)
{
    Plane p(4, 3);
    p.set(3, 2, 77);
    EXPECT_EQ(p.at(3, 2), 77);
    EXPECT_EQ(p.atClamped(10, 10), 77); // clamps to (3, 2).
    EXPECT_EQ(p.atClamped(-5, -5), p.at(0, 0));
}

TEST(FrameGeometry, Ccir601Counts)
{
    auto g = FrameGeometry::ccir601();
    EXPECT_EQ(g.macroblocks(), 1350);  // 45 x 30.
    EXPECT_EQ(g.codedBlocks(), 8100);  // 6 per macroblock (4:2:0).
    EXPECT_EQ(g.pixels(), 345600);
}

TEST(Synthetic, Deterministic)
{
    SyntheticVideo a(64, 48, 5), b(64, 48, 5);
    Plane fa = a.lumaFrame(3), fb = b.lumaFrame(3);
    EXPECT_EQ(fa.data(), fb.data());
}

uint64_t
fnv1a(uint64_t h, uint8_t byte)
{
    return (h ^ byte) * 1099511628211ull;
}

TEST(SyntheticVideo, LumaAtMatchesFrame)
{
    // Samples drawn one at a time equal the frames, and the frames
    // keep the FNV-1a digests of the draw-background-then-overlay-
    // objects generator the kernels' inputs were first taken from.
    struct Pin
    {
        uint64_t seed;
        int t;
        uint64_t luma, rgb;
    };
    for (const Pin &pin : {
             Pin{7, 0, 0xd7167096c5b0f5e1ull, 0x379e27e0e2c64e59ull},
             Pin{7, 1, 0x6c1c03fd857575a8ull, 0x345d0b776168e09eull},
             Pin{11, 0, 0x4232929f910d6cbfull, 0x593b040f8f26e2ebull},
             Pin{11, 1, 0x220cc4f3e4e5ce4dull, 0x06d5c28570977a68ull},
             Pin{23, 0, 0x3f8ed9dee1818484ull, 0xc7c1a8c7de612a5cull},
             Pin{23, 1, 0xab2237c62723ad90ull, 0x43a11a5f05c9f46cull},
             Pin{31, 0, 0x690797a9154750f6ull, 0xcb5d4d55c2d31f94ull},
             Pin{31, 1, 0x70fe54ff348dab1dull, 0xf415680de7a8db87ull},
         }) {
        SCOPED_TRACE("seed " + std::to_string(pin.seed) + " t " +
                     std::to_string(pin.t));
        const FrameGeometry g = FrameGeometry::ccir601();
        SyntheticVideo video(g.width, g.height, pin.seed);
        const Plane luma = video.lumaFrame(pin.t);
        const RgbFrame rgb = video.rgbFrame(pin.t);
        uint64_t hl = 1469598103934665603ull, hr = hl;
        size_t mismatches = 0;
        for (int y = 0; y < g.height; ++y) {
            for (int x = 0; x < g.width; ++x) {
                const uint8_t l = video.lumaAt(x, y, pin.t);
                const Rgb c = video.rgbAt(x, y, pin.t);
                mismatches += l != luma.at(x, y) ||
                              c.r != rgb.r.at(x, y) ||
                              c.g != rgb.g.at(x, y) ||
                              c.b != rgb.b.at(x, y);
                hl = fnv1a(hl, l);
                hr = fnv1a(fnv1a(fnv1a(hr, c.r), c.g), c.b);
            }
        }
        EXPECT_EQ(mismatches, 0u);
        EXPECT_EQ(hl, pin.luma);
        EXPECT_EQ(hr, pin.rgb);
    }
}

TEST(Synthetic, FramesChangeOverTime)
{
    SyntheticVideo v(64, 48, 5);
    EXPECT_NE(v.lumaFrame(0).data(), v.lumaFrame(2).data());
}

TEST(Synthetic, MotionIsFindable)
{
    // An object moving a few pixels per frame should make motion
    // search find small non-trivial displacements somewhere.
    SyntheticVideo v(96, 64, 7);
    Plane f0 = v.lumaFrame(0), f1 = v.lumaFrame(1);
    int diff = 0;
    for (int y = 0; y < 64; ++y) {
        for (int x = 0; x < 96; ++x)
            diff += std::abs(f0.at(x, y) - f1.at(x, y));
    }
    EXPECT_GT(diff, 0);
}

TEST(Zigzag, IsAPermutationStartingAtDc)
{
    const auto &z = zigzagOrder();
    std::set<int> seen(z.begin(), z.end());
    EXPECT_EQ(seen.size(), 64u);
    EXPECT_EQ(z[0], 0);
    EXPECT_EQ(z[1], 1);
    EXPECT_EQ(z[2], 8);
    EXPECT_EQ(z[63], 63);
}

TEST(Extract, MacroblockAndWindowGeometry)
{
    Plane p(64, 48);
    for (int y = 0; y < 48; ++y) {
        for (int x = 0; x < 64; ++x)
            p.set(x, y, static_cast<uint8_t>((x + y * 64) & 0xff));
    }
    auto mb = extractMacroblock(p, 1, 1);
    ASSERT_EQ(mb.size(), 256u);
    EXPECT_EQ(mb[0], p.at(16, 16));
    EXPECT_EQ(mb[255], p.at(31, 31));

    auto win = extractSearchWindow(p, 1, 1);
    ASSERT_EQ(win.size(), 1024u);
    // Center of the window (offset 8,8) is the macroblock origin.
    EXPECT_EQ(win[8 * 32 + 8], p.at(16, 16));
    // Border macroblock windows clamp instead of reading outside.
    auto edge = extractSearchWindow(p, 0, 0);
    EXPECT_EQ(edge[0], p.at(0, 0));
}

TEST(Quantizer, ProducesSparseBlocks)
{
    std::vector<uint16_t> dct(64, 0);
    dct[0] = 400;
    dct[1] = static_cast<uint16_t>(-100);
    dct[8] = 15; // below the AC step of 16.
    auto q = quantizeBlock(dct);
    EXPECT_EQ(static_cast<int16_t>(q[0]), 50);   // DC step 8.
    EXPECT_EQ(static_cast<int16_t>(q[1]), -6);   // AC step 16.
    EXPECT_EQ(q[8], 0);
    int zeros = 0;
    for (auto v : q)
        zeros += v == 0;
    EXPECT_EQ(zeros, 62); // the 15 quantizes away too.
}

TEST(VbrTable, ShortCodesForShortRunsSmallLevels)
{
    const auto &t = VbrCodeTable::instance();
    EXPECT_LE(t.length[0 * 8 + 1], t.length[5 * 8 + 1]);
    EXPECT_LE(t.length[0 * 8 + 1], t.length[0 * 8 + 7]);
    for (int run = 0; run < 16; ++run) {
        for (int cls = 1; cls < 8; ++cls) {
            uint16_t len = t.length[static_cast<size_t>(run * 8 + cls)];
            EXPECT_GE(len, 2);
            EXPECT_LE(len, 15);
        }
    }
}

TEST(BitWriter, PacksMsbFirst)
{
    BitWriter w;
    w.put(0b101, 3);
    w.put(0b0000000000001, 13);
    ASSERT_EQ(w.words().size(), 1u);
    EXPECT_EQ(w.words()[0], 0xA001);
    EXPECT_EQ(w.bitCount(), 16u);
    EXPECT_EQ(w.pendingBits(), 0);
}

TEST(BitWriter, FlushPadsWithZeros)
{
    BitWriter w;
    w.put(0xF, 4);
    w.flush();
    ASSERT_EQ(w.words().size(), 1u);
    EXPECT_EQ(w.words()[0], 0xF000);
}

TEST(RgbFrame, ChannelsIndependent)
{
    SyntheticVideo v(32, 32, 3);
    RgbFrame f = v.rgbFrame(0);
    EXPECT_EQ(f.width(), 32);
    bool any_differs = false;
    for (int y = 0; y < 32 && !any_differs; ++y) {
        for (int x = 0; x < 32; ++x) {
            if (f.r.at(x, y) != f.b.at(x, y)) {
                any_differs = true;
                break;
            }
        }
    }
    EXPECT_TRUE(any_differs);
}

} // namespace
} // namespace vvsp
