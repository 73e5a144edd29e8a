#include "video/synthetic.hh"

#include <cmath>

#include "support/logging.hh"
#include "support/random.hh"

namespace vvsp
{

SyntheticVideo::SyntheticVideo(int width, int height, uint64_t seed)
    : width_(width), height_(height)
{
    vvsp_assert(width >= 16 && height >= 16, "scene too small: %dx%d",
                width, height);
    Rng rng(seed);
    int num_objects = 3 + static_cast<int>(seed % 3);
    for (int i = 0; i < num_objects; ++i) {
        Object o;
        o.x0 = rng.uniform(0, width - 24);
        o.y0 = rng.uniform(0, height - 24);
        o.vx = rng.uniform(-4, 4) * 0.75;
        o.vy = rng.uniform(-3, 3) * 0.75;
        o.w = rng.uniform(16, 48);
        o.h = rng.uniform(16, 48);
        o.shade = static_cast<uint8_t>(rng.uniform(60, 220));
        o.texture = static_cast<uint8_t>(rng.uniform(4, 40));
        objects_.push_back(o);
    }
}

uint8_t
SyntheticVideo::background(int x, int y) const
{
    // Smooth gradient plus a fixed sinusoidal texture: compresses
    // like natural content (most post-quantization DCT terms zero).
    double g = 96.0 + 48.0 * std::sin(x * 0.013) +
               32.0 * std::cos(y * 0.021) +
               10.0 * std::sin(x * 0.19) * std::cos(y * 0.23);
    int v = static_cast<int>(g);
    return static_cast<uint8_t>(v < 0 ? 0 : (v > 255 ? 255 : v));
}

uint8_t
SyntheticVideo::lumaAt(int x, int y, int t) const
{
    uint8_t v = background(x, y);
    for (const auto &o : objects_) {
        int dx = x - static_cast<int>(std::lround(o.x0 + o.vx * t));
        int dy = y - static_cast<int>(std::lround(o.y0 + o.vy * t));
        if (dx < 0 || dx >= o.w || dy < 0 || dy >= o.h)
            continue;
        int s = o.shade + ((dx * 7 + dy * 13) % (o.texture + 1)) -
                o.texture / 2;
        v = static_cast<uint8_t>(s < 0 ? 0 : (s > 255 ? 255 : s));
    }
    return v;
}

Rgb
SyntheticVideo::rgbAt(int x, int y, int t) const
{
    auto clamp8 = [](int v) {
        return static_cast<uint8_t>(v < 0 ? 0 : (v > 255 ? 255 : v));
    };
    int l = lumaAt(x, y, t);
    return Rgb{clamp8(l + (x * 255) / width_ / 3 - 32), clamp8(l),
               clamp8(l + (y * 255) / height_ / 3 - 32)};
}

Plane
SyntheticVideo::lumaFrame(int t) const
{
    Plane p(width_, height_);
    for (int y = 0; y < height_; ++y) {
        for (int x = 0; x < width_; ++x)
            p.set(x, y, lumaAt(x, y, t));
    }
    return p;
}

RgbFrame
SyntheticVideo::rgbFrame(int t) const
{
    RgbFrame f(width_, height_);
    for (int y = 0; y < height_; ++y) {
        for (int x = 0; x < width_; ++x) {
            Rgb c = rgbAt(x, y, t);
            f.r.set(x, y, c.r);
            f.g.set(x, y, c.g);
            f.b.set(x, y, c.b);
        }
    }
    return f;
}

} // namespace vvsp
