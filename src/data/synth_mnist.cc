#include "data/synth_mnist.hh"
#include "data/synth_mnist_detail.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/logging.hh"

namespace vibnn::data
{

namespace detail
{

namespace
{

/** Append an elliptical arc as a polyline (angles in radians, y grows
 *  downward on the canvas). */
Polyline
arc(double cx, double cy, double rx, double ry, double a0, double a1,
    int segments = 14)
{
    Polyline line;
    line.reserve(segments + 1);
    for (int i = 0; i <= segments; ++i) {
        const double t = a0 + (a1 - a0) * i / segments;
        line.push_back({cx + rx * std::cos(t), cy + ry * std::sin(t)});
    }
    return line;
}

Polyline
segment(double x0, double y0, double x1, double y1)
{
    return {{x0, y0}, {x1, y1}};
}

/**
 * Stroke skeletons per digit on a unit canvas ([0,1]^2, y down). These
 * are hand-designed to resemble handwritten digit topology; the random
 * distortions provide the within-class variability.
 */
std::vector<Polyline>
digitStrokes(int digit)
{
    switch (digit) {
      case 0:
        return {arc(0.5, 0.5, 0.26, 0.36, 0.0, 2.0 * M_PI, 22)};
      case 1:
        return {segment(0.38, 0.3, 0.52, 0.16),
                segment(0.52, 0.16, 0.52, 0.84)};
      case 2:
        return {arc(0.5, 0.34, 0.22, 0.2, -M_PI, 0.15 * M_PI, 12),
                segment(0.68, 0.45, 0.32, 0.82),
                segment(0.32, 0.82, 0.72, 0.82)};
      case 3:
        return {arc(0.47, 0.33, 0.2, 0.18, -0.8 * M_PI, 0.5 * M_PI, 12),
                arc(0.47, 0.67, 0.22, 0.18, -0.5 * M_PI, 0.8 * M_PI, 12)};
      case 4:
        return {segment(0.62, 0.16, 0.3, 0.62),
                segment(0.3, 0.62, 0.74, 0.62),
                segment(0.62, 0.16, 0.62, 0.84)};
      case 5:
        return {segment(0.68, 0.18, 0.36, 0.18),
                segment(0.36, 0.18, 0.34, 0.48),
                arc(0.5, 0.64, 0.2, 0.2, -0.55 * M_PI, 0.75 * M_PI, 14)};
      case 6:
        return {arc(0.52, 0.3, 0.3, 0.5, -0.9 * M_PI, -0.5 * M_PI, 10),
                arc(0.5, 0.64, 0.2, 0.19, 0.0, 2.0 * M_PI, 18)};
      case 7:
        return {segment(0.3, 0.18, 0.72, 0.18),
                segment(0.72, 0.18, 0.44, 0.84)};
      case 8:
        return {arc(0.5, 0.33, 0.18, 0.16, 0.0, 2.0 * M_PI, 16),
                arc(0.5, 0.67, 0.22, 0.18, 0.0, 2.0 * M_PI, 16)};
      case 9:
      default:
        return {arc(0.5, 0.36, 0.2, 0.19, 0.0, 2.0 * M_PI, 18),
                arc(0.48, 0.42, 0.32, 0.5, 0.5 * M_PI, 0.1 * M_PI, 10)};
    }
}

} // anonymous namespace

StrokeGeometry
drawStrokes(int digit, const SynthMnistConfig &config, Rng &rng)
{
    VIBNN_ASSERT(digit >= 0 && digit < kMnistClasses, "bad digit");

    // Random distortion parameters.
    const double angle =
        rng.uniform(-config.maxRotation, config.maxRotation);
    const double scale = rng.uniform(config.minScale, config.maxScale);
    const double shear = rng.uniform(-config.maxShear, config.maxShear);
    const double shift_x =
        rng.uniform(-config.maxShift, config.maxShift) / kMnistSide;
    const double shift_y =
        rng.uniform(-config.maxShift, config.maxShift) / kMnistSide;
    const double half_width =
        rng.uniform(config.minThickness, config.maxThickness) / kMnistSide;

    const double ca = std::cos(angle) * scale;
    const double sa = std::sin(angle) * scale;

    // Transform skeleton vertices: jitter, rotate+shear+scale about the
    // canvas center, translate.
    auto strokes = digitStrokes(digit);
    for (auto &line : strokes) {
        for (auto &p : line) {
            const double jx = p.x + rng.gaussian(0.0, config.vertexJitter);
            const double jy = p.y + rng.gaussian(0.0, config.vertexJitter);
            const double cx = jx - 0.5, cy = jy - 0.5;
            const double tx = ca * cx - sa * cy + shear * cy;
            const double ty = sa * cx + ca * cy;
            p.x = tx + 0.5 + shift_x;
            p.y = ty + 0.5 + shift_y;
        }
    }
    return {std::move(strokes), half_width};
}

PixelBox
segmentBox(const Point &a, const Point &b, double reach)
{
    // Pixel i's centre sits at (i + 0.5) / kMnistSide. Clamp in double
    // before converting: a stroke far off the canvas must not overflow
    // the int.
    const double margin = reach + kSlack;
    const auto first = [](double lo) {
        return static_cast<int>(std::clamp(
            std::ceil(lo * kMnistSide - 0.5), 0.0, double(kMnistSide)));
    };
    const auto last = [](double hi) {
        return static_cast<int>(std::clamp(
            std::floor(hi * kMnistSide - 0.5), -1.0, kMnistSide - 1.0));
    };
    return {first(std::min(a.x, b.x) - margin),
            last(std::max(a.x, b.x) + margin),
            first(std::min(a.y, b.y) - margin),
            last(std::max(a.y, b.y) + margin)};
}

void
rasterize(const StrokeGeometry &geometry, const SynthMnistConfig &config,
          Rng &rng, float *out)
{
    const double inv_side = 1.0 / kMnistSide;
    const double half_width = geometry.halfWidth;
    const double reach = half_width + kFalloff;

    // Segment-major: each segment keeps, in every pixel of its box, the
    // smallest squared distance to a stroke so far. A segment skips only
    // pixels farther from it than `reach`, which it cannot light, so the
    // image equals the one from testing every segment against every
    // pixel (docs/ARCHITECTURE.md, "Substitutions").
    double dist2[kMnistPixels];
    std::fill(dist2, dist2 + kMnistPixels, HUGE_VAL);
    for (const auto &line : geometry.strokes) {
        for (std::size_t i = 0; i + 1 < line.size(); ++i) {
            const Point &a = line[i], &b = line[i + 1];
            const double vx = b.x - a.x, vy = b.y - a.y;
            const double vv = vx * vx + vy * vy;
            const PixelBox box = segmentBox(a, b, reach);
            for (int py = box.y0; py <= box.y1; ++py) {
                const double y = (py + 0.5) * inv_side;
                const double wy = y - a.y;
                double *row = dist2 + py * kMnistSide;
                for (int px = box.x0; px <= box.x1; ++px) {
                    const double x = (px + 0.5) * inv_side;
                    const double wx = x - a.x;
                    double t = vv > 0.0 ? (wx * vx + wy * vy) / vv : 0.0;
                    t = std::clamp(t, 0.0, 1.0);
                    const double dx = x - (a.x + t * vx);
                    const double dy = y - (a.y + t * vy);
                    row[px] = std::min(row[px], dx * dx + dy * dy);
                }
            }
        }
    }

    // Intensity = smooth falloff of distance to the nearest stroke,
    // plus additive noise. sqrt is monotone and correctly rounded, so
    // the root of the smallest squared distance is the smallest
    // distance. Soft-edged stroke: full intensity inside half_width,
    // linear falloff over 1.2 more pixels; a pixel no segment reached
    // is 0 before its noise.
    for (int i = 0; i < kMnistPixels; ++i) {
        double value = 0.0;
        if (dist2[i] != HUGE_VAL) {
            const double distance = std::sqrt(dist2[i]);
            if (distance <= half_width)
                value = 1.0;
            else if (distance <= reach)
                value = 1.0 - (distance - half_width) / kFalloff;
        }
        value += rng.gaussian(0.0, config.pixelNoise);
        out[i] = static_cast<float>(std::clamp(value, 0.0, 1.0));
    }
}

} // namespace detail

void
renderDigit(int digit, const SynthMnistConfig &config, Rng &rng,
            float *out)
{
    detail::rasterize(detail::drawStrokes(digit, config, rng), config, rng,
                      out);
}

Dataset
makeSynthMnist(const SynthMnistConfig &config)
{
    Dataset ds;
    ds.name = "synth-mnist";
    Rng rng(config.seed);

    auto fill = [&](LabeledData &block, std::size_t count) {
        block.dim = kMnistPixels;
        block.numClasses = kMnistClasses;
        block.features.resize(count * kMnistPixels);
        block.labels.resize(count);
        for (std::size_t i = 0; i < count; ++i) {
            const int digit = static_cast<int>(i % kMnistClasses);
            block.labels[i] = digit;
            renderDigit(digit, config, rng,
                        block.features.data() + i * kMnistPixels);
        }
        // Shuffle sample order (labels were assigned round-robin).
        std::vector<std::size_t> order(count);
        for (std::size_t i = 0; i < count; ++i)
            order[i] = i;
        rng.shuffle(order);
        LabeledData shuffled;
        shuffled.dim = block.dim;
        shuffled.numClasses = block.numClasses;
        shuffled.features.reserve(block.features.size());
        shuffled.labels.reserve(count);
        for (std::size_t i : order)
            shuffled.push(block.sample(i), block.labels[i]);
        block = std::move(shuffled);
    };

    fill(ds.train, config.trainCount);
    fill(ds.test, config.testCount);
    return ds;
}

std::string
asciiDigit(const float *pixels)
{
    static const char shades[] = " .:-=+*#%@";
    std::ostringstream out;
    for (int y = 0; y < kMnistSide; ++y) {
        for (int x = 0; x < kMnistSide; ++x) {
            const float v =
                std::clamp(pixels[y * kMnistSide + x], 0.0f, 1.0f);
            out << shades[static_cast<int>(v * 9.0f)];
        }
        out << '\n';
    }
    return out.str();
}

} // namespace vibnn::data
