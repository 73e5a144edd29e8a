/**
 * @file
 * Synthetic video generation.
 *
 * The paper used kernels "extracted from real video applications"
 * with "typical data extracted from video"; we have no CCIR-601
 * source material, so a deterministic scene generator provides the
 * same statistical features the kernels are sensitive to: textured
 * background, several objects translating at a few pixels per frame
 * (exercising motion search), smooth gradients plus texture
 * (exercising DCT energy compaction, which drives the VBR coder's
 * zero-run statistics), and full-range color (exercising the color
 * converter). See DESIGN.md, substitutions.
 */

#ifndef VVSP_VIDEO_SYNTHETIC_HH
#define VVSP_VIDEO_SYNTHETIC_HH

#include <cstdint>

#include "video/frame.hh"

namespace vvsp
{

/** One RGB sample. */
struct Rgb
{
    uint8_t r, g, b;
};

/**
 * Deterministic moving-scene generator. Every sample is a pure
 * function of (seed, geometry, x, y, t), so a consumer draws only the
 * pixels it reads.
 */
class SyntheticVideo
{
  public:
    /**
     * @param width,height frame geometry.
     * @param seed scene layout seed (object positions/velocities).
     */
    SyntheticVideo(int width, int height, uint64_t seed = 1);

    /**
     * Luma sample (x, y) of frame t: the textured background, unless
     * an object covers it (the last object listed wins). Inside the
     * frame it is what lumaFrame(t) holds there.
     */
    uint8_t lumaAt(int x, int y, int t) const;

    /** RGB sample (x, y) of frame t (colored gradients over luma). */
    Rgb rgbAt(int x, int y, int t) const;

    /** Luma frame at time t (textured background + moving objects). */
    Plane lumaFrame(int t) const;

    /** RGB frame at time t (colored gradients + moving objects). */
    RgbFrame rgbFrame(int t) const;

  private:
    struct Object
    {
        double x0, y0;   ///< position at t = 0.
        double vx, vy;   ///< velocity, pixels/frame.
        int w, h;        ///< size.
        uint8_t shade;   ///< base brightness.
        uint8_t texture; ///< texture amplitude.
    };

    uint8_t background(int x, int y) const;

    int width_;
    int height_;
    std::vector<Object> objects_;
};

} // namespace vvsp

#endif // VVSP_VIDEO_SYNTHETIC_HH
