/**
 * @file
 * Frame containers for the video substrate.
 *
 * The paper evaluates on CCIR-601 (720x480) frames; kernels and
 * tests also run reduced geometries. Pixels are 8-bit; the kernels
 * see them as 16-bit words in cluster-local memory.
 */

#ifndef VVSP_VIDEO_FRAME_HH
#define VVSP_VIDEO_FRAME_HH

#include <cstdint>
#include <vector>

namespace vvsp
{

/** One 8-bit sample plane. */
class Plane
{
  public:
    Plane() = default;
    Plane(int width, int height, uint8_t fill = 0);

    int width() const { return width_; }
    int height() const { return height_; }

    uint8_t at(int x, int y) const;
    void set(int x, int y, uint8_t v);

    /** Clamped access (edge replication) for padded windows. */
    uint8_t atClamped(int x, int y) const;

    const std::vector<uint8_t> &data() const { return pix_; }

  private:
    int width_ = 0;
    int height_ = 0;
    std::vector<uint8_t> pix_;
};

/** An RGB frame (4:4:4). */
struct RgbFrame
{
    Plane r, g, b;

    RgbFrame() = default;
    RgbFrame(int width, int height)
        : r(width, height), g(width, height), b(width, height)
    {
    }

    int width() const { return r.width(); }
    int height() const { return r.height(); }
};

/** Frame geometry used by the frame-level composers. */
struct FrameGeometry
{
    int width = 720;
    int height = 480;

    int macroblocksX() const { return width / 16; }
    int macroblocksY() const { return height / 16; }
    /** 16x16 macroblocks per frame (1350 for CCIR-601). */
    int macroblocks() const { return macroblocksX() * macroblocksY(); }
    /** 8x8 coded blocks per frame in 4:2:0 (6 per macroblock). */
    int codedBlocks() const { return macroblocks() * 6; }
    int pixels() const { return width * height; }

    /** The paper's CCIR-601 geometry. */
    static FrameGeometry ccir601() { return FrameGeometry{720, 480}; }
};

} // namespace vvsp

#endif // VVSP_VIDEO_FRAME_HH
