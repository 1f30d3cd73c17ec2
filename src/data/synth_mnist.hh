/**
 * @file
 * Procedural synthetic MNIST.
 *
 * The real MNIST files are not available in this offline environment, so
 * the image-classification experiments (Tables 5/6, Figures 16-18) run
 * on a synthetic stand-in with identical dimensionality and task
 * structure: 28x28 grayscale digits, ten classes, rendered from
 * per-class stroke skeletons with randomized affine distortion
 * (rotation, scale, shear, translation), per-vertex jitter, stroke
 * thickness variation and pixel noise. Every image is a genuinely
 * distinct sample; the within-class variation is tuned so a
 * 784-200-200-10 MLP lands in the high-90s accuracy regime like real
 * MNIST, which is the regime the paper's comparisons live in. See
 * docs/ARCHITECTURE.md ("Substitutions") for the fidelity argument and
 * how the digits are rasterized.
 */

#ifndef VIBNN_DATA_SYNTH_MNIST_HH
#define VIBNN_DATA_SYNTH_MNIST_HH

#include <cstdint>

#include "data/dataset.hh"

namespace vibnn::data
{

/** Image geometry constants. */
constexpr int kMnistSide = 28;
constexpr int kMnistPixels = kMnistSide * kMnistSide;
constexpr int kMnistClasses = 10;

/** Generation parameters. */
struct SynthMnistConfig
{
    std::size_t trainCount = 8000;
    std::size_t testCount = 2000;
    /** Max |rotation| in radians. */
    double maxRotation = 0.35;
    /** Scale range multiplier. */
    double minScale = 0.78, maxScale = 1.1;
    /** Max |shear|. */
    double maxShear = 0.22;
    /** Max |translation| in pixels. */
    double maxShift = 2.2;
    /** Std-dev of per-vertex stroke jitter (in canvas units). */
    double vertexJitter = 0.03;
    /** Stroke half-width range in pixels. */
    double minThickness = 0.8, maxThickness = 1.7;
    /** Additive pixel noise std-dev. */
    double pixelNoise = 0.10;
    std::uint64_t seed = 1;
};

/** Render one digit into a 784-float buffer (values in [0, 1]). */
void renderDigit(int digit, const SynthMnistConfig &config, Rng &rng,
                 float *out);

/** Generate a full train/test dataset with balanced classes. */
Dataset makeSynthMnist(const SynthMnistConfig &config);

/** ASCII-art rendering of one 28x28 image (for examples/tests). */
std::string asciiDigit(const float *pixels);

} // namespace vibnn::data

#endif // VIBNN_DATA_SYNTH_MNIST_HH
