/**
 * @file
 * Internals of the synth-MNIST renderer, shared only with its tests.
 *
 * renderDigit() is drawStrokes() followed by rasterize(). The split
 * lets a test draw an image's stroke geometry, rasterize it with a
 * brute-force loop of its own, and compare the bytes.
 */

#ifndef VIBNN_DATA_SYNTH_MNIST_DETAIL_HH
#define VIBNN_DATA_SYNTH_MNIST_DETAIL_HH

#include <vector>

#include "data/synth_mnist.hh"

namespace vibnn::data::detail
{

struct Point
{
    double x, y;
};

using Polyline = std::vector<Point>;

/** One image's strokes on the unit canvas ([0,1]^2, y down). */
struct StrokeGeometry
{
    std::vector<Polyline> strokes;
    /** Half width of every stroke, in canvas units. */
    double halfWidth = 0.0;
};

/** Width of the linear falloff band outside a stroke's half width:
 *  1.2 pixels. */
constexpr double kFalloff = 1.2 * (1.0 / kMnistSide);

/** How much farther than its reach a segment's pixel box extends:
 *  one pixel, so no rounding can drop a pixel the segment reaches. */
constexpr double kSlack = 1.0 / kMnistSide;

/** Draw a digit's random distortion and per-vertex jitter from `rng`
 *  and return its transformed strokes. These are all the draws
 *  renderDigit() makes before the per-pixel noise. */
StrokeGeometry drawStrokes(int digit, const SynthMnistConfig &config,
                           Rng &rng);

/** An inclusive range of pixel columns and rows; empty when
 *  x0 > x1 or y0 > y1. */
struct PixelBox
{
    int x0, x1, y0, y1;
};

/** The canvas pixels whose centres lie within `reach` + kSlack of
 *  segment ab's bounding box. Every pixel outside it is farther than
 *  `reach` + kSlack from the segment. */
PixelBox segmentBox(const Point &a, const Point &b, double reach);

/**
 * Rasterize `geometry` into `out` (kMnistPixels floats) and add
 * per-pixel noise drawn from `rng` in row-major order. A pixel's
 * intensity is 1 within halfWidth of the nearest stroke segment,
 * falls off linearly over kFalloff beyond it, and is 0 farther out.
 */
void rasterize(const StrokeGeometry &geometry,
               const SynthMnistConfig &config, Rng &rng,
               float *out);

} // namespace vibnn::data::detail

#endif // VIBNN_DATA_SYNTH_MNIST_DETAIL_HH
