/**
 * @file
 * Each kernel's prepared unit inputs against the whole-frame oracle:
 * draw the frame (background, then each object over it), extract the
 * unit's macroblock, search window or 8x8 block, and for the VBR
 * coder run the float DCT over every block of the frame. A unit's
 * input must not depend on how much of the frame is drawn to make it.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "kernels/kernel.hh"
#include "video/mpeg.hh"
#include "video/synthetic.hh"

namespace vvsp
{
namespace
{

using Buffers = std::map<std::string, std::vector<uint16_t>>;

/** The quantized float DCT of every 8x8 block of a luma frame. */
std::vector<std::vector<uint16_t>>
allCoefBlocks(const Plane &luma, const FrameGeometry &geom)
{
    std::vector<std::vector<uint16_t>> blocks;
    const int bw = geom.width / 8, bh = geom.height / 8;
    std::array<std::array<double, 8>, 8> ct;
    for (int u = 0; u < 8; ++u) {
        for (int y = 0; y < 8; ++y)
            ct[u][y] = std::cos((2 * y + 1) * u * M_PI / 16.0);
    }
    for (int by = 0; by < bh; ++by) {
        for (int bx = 0; bx < bw; ++bx) {
            std::array<double, 64> d{};
            for (int u = 0; u < 8; ++u) {
                for (int v = 0; v < 8; ++v) {
                    double acc = 0;
                    for (int y = 0; y < 8; ++y) {
                        for (int x = 0; x < 8; ++x) {
                            double px =
                                luma.at(bx * 8 + x, by * 8 + y) - 128;
                            acc += px * ct[u][y] * ct[v][x];
                        }
                    }
                    double au = u == 0 ? std::sqrt(1.0 / 8) : 0.5;
                    double av = v == 0 ? std::sqrt(1.0 / 8) : 0.5;
                    d[static_cast<size_t>(u * 8 + v)] = au * av * acc;
                }
            }
            std::vector<uint16_t> raw(64);
            for (size_t i = 0; i < 64; ++i) {
                raw[i] = static_cast<uint16_t>(
                    static_cast<int16_t>(std::lround(d[i])));
            }
            blocks.push_back(quantizeBlock(raw));
        }
    }
    return blocks;
}

/** The frame-derived buffers of one unit, from whole frames. */
class Oracle
{
  public:
    Oracle(const std::string &kernel, const FrameGeometry &geom)
        : geom_(geom)
    {
        if (kernel == "Full Motion Search" ||
            kernel == "Three-step Search") {
            kind_ = Kind::Search;
            SyntheticVideo video(geom.width, geom.height, 7);
            prev_ = video.lumaFrame(0);
            next_ = video.lumaFrame(1);
        } else if (kernel.rfind("DCT", 0) == 0) {
            kind_ = Kind::Dct;
            prev_ = SyntheticVideo(geom.width, geom.height, 11)
                        .lumaFrame(0);
        } else if (kernel == "RGB:YCrCb converter/subsampler") {
            kind_ = Kind::Csc;
            rgb_ = SyntheticVideo(geom.width, geom.height, 23)
                       .rgbFrame(0);
        } else {
            kind_ = Kind::Vbr;
            blocks_ = allCoefBlocks(
                SyntheticVideo(geom.width, geom.height, 31).lumaFrame(0),
                geom);
        }
    }

    Buffers unit(int index) const
    {
        const int mbx = index % geom_.macroblocksX();
        const int mby =
            (index / geom_.macroblocksX()) % geom_.macroblocksY();
        switch (kind_) {
          case Kind::Search:
            return {{"cur", extractMacroblock(next_, mbx, mby)},
                    {"win", extractSearchWindow(prev_, mbx, mby)}};
          case Kind::Dct: {
            const int bw = geom_.width / 8, bh = geom_.height / 8;
            const int bx = index % bw, by = (index / bw) % bh;
            std::vector<uint16_t> block(64);
            for (int y = 0; y < 8; ++y) {
                for (int x = 0; x < 8; ++x) {
                    block[static_cast<size_t>(y * 8 + x)] =
                        static_cast<uint16_t>(
                            prev_.at(bx * 8 + x, by * 8 + y) - 128);
                }
            }
            return {{"in", block}};
          }
          case Kind::Csc:
            return {{"r", extractMacroblock(rgb_.r, mbx, mby)},
                    {"g", extractMacroblock(rgb_.g, mbx, mby)},
                    {"bch", extractMacroblock(rgb_.b, mbx, mby)}};
          case Kind::Vbr:
            break;
        }
        return {{"coef", blocks_[static_cast<size_t>(index) %
                                 blocks_.size()]}};
    }

  private:
    enum class Kind
    {
        Search,
        Dct,
        Csc,
        Vbr
    };

    Kind kind_ = Kind::Search;
    FrameGeometry geom_;
    Plane prev_, next_;
    RgbFrame rgb_;
    std::vector<std::vector<uint16_t>> blocks_;
};

TEST(KernelInputs, PreparedUnitsMatchWholeFrameOracle)
{
    for (const FrameGeometry geom :
         {FrameGeometry::ccir601(), FrameGeometry{48, 32}}) {
        for (const KernelSpec &k : allKernels()) {
            const Oracle oracle(k.name, geom);
            const int last =
                static_cast<int>(k.unitsPerFrame(geom)) - 1;
            // Units 0-3, the last unit, and the right-hand macroblock
            // of the second row, whose search window clamps.
            const std::vector<int> units{
                0, 1, 2, 3, last, 2 * geom.macroblocksX() - 1};
            // The first and last rows build different buffer sets
            // (replicated or ganged layouts); prepare fills by name.
            for (const VariantSpec *v :
                 {&k.variants.front(), &k.variants.back()}) {
                const Function fn = v->build();
                for (int u : units) {
                    SCOPED_TRACE(k.name + " / " + v->name + " " +
                                 std::to_string(geom.width) + "x" +
                                 std::to_string(geom.height) +
                                 " unit " + std::to_string(u));
                    MemoryImage mem(fn);
                    k.prepare(fn, mem, geom, u);
                    const Buffers want = oracle.unit(u);
                    size_t filled = 0;
                    for (const MemBuffer &b : fn.buffers) {
                        auto it = want.find(b.name);
                        if (it == want.end())
                            continue;
                        ++filled;
                        const std::vector<uint16_t> &got =
                            mem.bufferWords(b.id);
                        ASSERT_GE(got.size(), it->second.size())
                            << b.name;
                        EXPECT_TRUE(std::equal(it->second.begin(),
                                               it->second.end(),
                                               got.begin()))
                            << b.name;
                    }
                    EXPECT_GE(filled, want.size());
                }
            }
        }
    }
}

} // namespace
} // namespace vvsp
