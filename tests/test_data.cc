/**
 * @file
 * Tests for the dataset substrates: synthetic MNIST rendering, tabular
 * generators matched to the Table 7 specs, and the split/fraction/
 * standardization utilities behind the small-data study.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>

#include "data/dataset.hh"
#include "data/synth_mnist.hh"
#include "data/synth_mnist_detail.hh"
#include "data/tabular.hh"

using namespace vibnn;
using namespace vibnn::data;

TEST(SynthMnist, ShapesAndRanges)
{
    SynthMnistConfig config;
    config.trainCount = 100;
    config.testCount = 40;
    config.seed = 3;
    const auto ds = makeSynthMnist(config);
    EXPECT_EQ(ds.train.count(), 100u);
    EXPECT_EQ(ds.test.count(), 40u);
    EXPECT_EQ(ds.train.dim, 784u);
    EXPECT_EQ(ds.train.numClasses, 10);
    for (float v : ds.train.features) {
        ASSERT_GE(v, 0.0f);
        ASSERT_LE(v, 1.0f);
    }
}

TEST(SynthMnist, DeterministicGivenSeed)
{
    SynthMnistConfig config;
    config.trainCount = 20;
    config.testCount = 10;
    config.seed = 11;
    const auto a = makeSynthMnist(config);
    const auto b = makeSynthMnist(config);
    EXPECT_EQ(a.train.features, b.train.features);
    EXPECT_EQ(a.train.labels, b.train.labels);
}

TEST(SynthMnist, ClassesBalanced)
{
    SynthMnistConfig config;
    config.trainCount = 500;
    config.testCount = 10;
    config.seed = 7;
    const auto ds = makeSynthMnist(config);
    const auto hist = classHistogram(ds.train);
    for (std::size_t c = 0; c < 10; ++c)
        EXPECT_EQ(hist[c], 50u);
}

TEST(SynthMnist, SamplesVaryWithinClass)
{
    SynthMnistConfig config;
    Rng rng(5);
    float a[784], b[784];
    renderDigit(3, config, rng, a);
    renderDigit(3, config, rng, b);
    double diff = 0.0;
    for (int i = 0; i < 784; ++i)
        diff += std::fabs(a[i] - b[i]);
    EXPECT_GT(diff, 1.0); // genuinely distinct renderings
}

TEST(SynthMnist, DigitsHaveInk)
{
    SynthMnistConfig config;
    config.pixelNoise = 0.0;
    Rng rng(9);
    for (int digit = 0; digit < 10; ++digit) {
        float img[784];
        renderDigit(digit, config, rng, img);
        double ink = 0.0;
        for (float v : img)
            ink += v;
        EXPECT_GT(ink, 15.0) << "digit " << digit;
        EXPECT_LT(ink, 400.0) << "digit " << digit;
    }
}

TEST(SynthMnist, DigitsAreDistinguishable)
{
    // Mean images of different classes must differ substantially —
    // the task must be learnable.
    SynthMnistConfig config;
    config.pixelNoise = 0.02;
    Rng rng(13);
    std::vector<std::vector<double>> means(10,
                                           std::vector<double>(784, 0));
    const int per_class = 20;
    for (int digit = 0; digit < 10; ++digit) {
        float img[784];
        for (int i = 0; i < per_class; ++i) {
            renderDigit(digit, config, rng, img);
            for (int p = 0; p < 784; ++p)
                means[digit][p] += img[p] / per_class;
        }
    }
    for (int a = 0; a < 10; ++a) {
        for (int b = a + 1; b < 10; ++b) {
            double l1 = 0.0;
            for (int p = 0; p < 784; ++p)
                l1 += std::fabs(means[a][p] - means[b][p]);
            EXPECT_GT(l1, 8.0) << "digits " << a << " vs " << b;
        }
    }
}

TEST(SynthMnist, AsciiRendering)
{
    SynthMnistConfig config;
    Rng rng(17);
    float img[784];
    renderDigit(0, config, rng, img);
    const std::string art = asciiDigit(img);
    EXPECT_EQ(std::count(art.begin(), art.end(), '\n'), 28);
    EXPECT_NE(art.find('@'), std::string::npos); // some full-intensity ink
}

namespace
{

/** Distance from point p to segment ab: the rasterizer's projection,
 *  clamp and squared remainder, then one square root. */
double
pointSegmentDistance(const detail::Point &p, const detail::Point &a,
                     const detail::Point &b)
{
    const double vx = b.x - a.x, vy = b.y - a.y;
    const double wx = p.x - a.x, wy = p.y - a.y;
    const double vv = vx * vx + vy * vy;
    double t = vv > 0.0 ? (wx * vx + wy * vy) / vv : 0.0;
    t = std::clamp(t, 0.0, 1.0);
    const double dx = p.x - (a.x + t * vx);
    const double dy = p.y - (a.y + t * vy);
    return std::sqrt(dx * dx + dy * dy);
}

bool
inBox(const detail::PixelBox &box, int px, int py)
{
    return px >= box.x0 && px <= box.x1 && py >= box.y0 && py <= box.y1;
}

/**
 * Brute-force rasterizer: every pixel against every segment, one sqrt
 * each, then the minimum, then the falloff rule and one noise draw per
 * pixel in row-major order. Also checks the premise of the library's
 * segment-major loop: a pixel outside a segment's box is farther from
 * the segment than half width + falloff, by the slack.
 */
void
bruteForceRasterize(const detail::StrokeGeometry &geometry,
                    const SynthMnistConfig &config, Rng &rng, float *out)
{
    struct Segment
    {
        detail::Point a, b;
        detail::PixelBox box;
    };
    const double inv_side = 1.0 / kMnistSide;
    const double half_width = geometry.halfWidth;
    const double falloff = 1.2 * inv_side;
    std::vector<Segment> segments;
    for (const auto &line : geometry.strokes) {
        for (std::size_t i = 0; i + 1 < line.size(); ++i) {
            segments.push_back(
                {line[i], line[i + 1],
                 detail::segmentBox(line[i], line[i + 1],
                                    half_width + falloff)});
        }
    }
    for (int py = 0; py < kMnistSide; ++py) {
        for (int px = 0; px < kMnistSide; ++px) {
            const detail::Point p{(px + 0.5) * inv_side,
                                  (py + 0.5) * inv_side};
            double distance = 1e9;
            for (const auto &s : segments) {
                const double d = pointSegmentDistance(p, s.a, s.b);
                distance = std::min(distance, d);
                if (!inBox(s.box, px, py)) {
                    // Up to rounding, which the slack absorbs.
                    ASSERT_GT(d, half_width + falloff + detail::kSlack -
                                     1e-9)
                        << "pixel (" << px << ", " << py << ")";
                }
            }
            double value;
            if (distance <= half_width)
                value = 1.0;
            else if (distance <= half_width + falloff)
                value = 1.0 - (distance - half_width) / falloff;
            else
                value = 0.0;
            value += rng.gaussian(0.0, config.pixelNoise);
            out[py * kMnistSide + px] =
                static_cast<float>(std::clamp(value, 0.0, 1.0));
        }
    }
}

} // namespace

TEST(SynthMnist, RasterizerMatchesBruteForce)
{
    // The default config, then edge configs: thin to thick strokes
    // under heavy rotation, scaling and shift; strokes that leave the
    // canvas; strokes far off it (the pixel range is bounded before
    // its int conversion); noise-free axis-aligned strokes; and
    // zero-length segments.
    std::vector<SynthMnistConfig> configs(7);
    configs[1].minThickness = 0.1;
    configs[1].maxThickness = 4.0;
    configs[1].maxShift = 6.0;
    configs[1].maxRotation = 1.5;
    configs[1].minScale = 0.3;
    configs[1].maxScale = 1.6;
    configs[2].maxShift = 30.0;
    configs[2].vertexJitter = 0.2;
    configs[2].maxThickness = 4.0;
    configs[3].maxShift = 1e7;
    configs[4].vertexJitter = 50.0;
    configs[5].vertexJitter = 0.0;
    configs[5].maxRotation = configs[5].maxShear = 0.0;
    configs[5].minScale = configs[5].maxScale = 1.0;
    configs[5].maxShift = 0.0;
    configs[5].pixelNoise = 0.0;
    configs[6].vertexJitter = 0.0;
    configs[6].minScale = configs[6].maxScale = 0.0;
    configs[6].pixelNoise = 0.0;

    for (std::size_t c = 0; c < configs.size(); ++c) {
        for (int digit = 0; digit < kMnistClasses; ++digit) {
            for (std::uint64_t seed = 1; seed <= 50; ++seed) {
                Rng lib(seed), ref(seed);
                float got[kMnistPixels], want[kMnistPixels];
                renderDigit(digit, configs[c], lib, got);
                bruteForceRasterize(
                    detail::drawStrokes(digit, configs[c], ref),
                    configs[c], ref, want);
                ASSERT_FALSE(HasFatalFailure())
                    << "config " << c << " digit " << digit << " seed "
                    << seed;
                ASSERT_EQ(std::memcmp(got, want, sizeof got), 0)
                    << "config " << c << " digit " << digit << " seed "
                    << seed;
                // Same number of draws on both sides.
                ASSERT_EQ(lib.next(), ref.next());
            }
        }
    }

    // Boxes of segments far off the canvas are empty; one across it
    // spans it.
    const double reach = 2.0 / kMnistSide;
    for (const double far : {2.0, 1e7, 1e300}) {
        for (const auto &[a, b] :
             {std::pair<detail::Point, detail::Point>{{far, 0.5},
                                                      {far, 0.6}},
              {{-far, 0.5}, {-far, 0.6}},
              {{0.5, far}, {0.6, far}},
              {{0.5, -far}, {0.6, -far}}}) {
            const auto box = detail::segmentBox(a, b, reach);
            EXPECT_TRUE(box.x0 > box.x1 || box.y0 > box.y1) << far;
        }
        const auto across =
            detail::segmentBox({-far, 0.5}, {far, 0.5}, reach);
        EXPECT_EQ(across.x0, 0);
        EXPECT_EQ(across.x1, kMnistSide - 1);
    }
}

TEST(StratifiedFraction, KeepsPerClassShare)
{
    LabeledData full;
    full.dim = 1;
    full.numClasses = 2;
    for (int i = 0; i < 100; ++i) {
        const float x = static_cast<float>(i);
        full.push(&x, i < 80 ? 0 : 1); // 80/20 imbalance
    }
    Rng rng(19);
    const auto subset = stratifiedFraction(full, 0.25, rng);
    const auto hist = classHistogram(subset);
    EXPECT_EQ(hist[0], 20u);
    EXPECT_EQ(hist[1], 5u);
}

TEST(StratifiedFraction, FullFractionKeepsAll)
{
    LabeledData full;
    full.dim = 1;
    full.numClasses = 3;
    for (int i = 0; i < 30; ++i) {
        const float x = 0;
        full.push(&x, i % 3);
    }
    Rng rng(23);
    EXPECT_EQ(stratifiedFraction(full, 1.0, rng).count(), 30u);
}

TEST(Standardize, ZeroMeanUnitVariance)
{
    LabeledData block;
    block.dim = 2;
    block.numClasses = 2;
    Rng rng(29);
    for (int i = 0; i < 500; ++i) {
        const float x[2] = {
            static_cast<float>(rng.gaussian(5.0, 3.0)),
            static_cast<float>(rng.gaussian(-2.0, 0.5)),
        };
        block.push(x, i % 2);
    }
    standardize(block, {&block});
    double mean0 = 0, var0 = 0;
    for (std::size_t i = 0; i < block.count(); ++i)
        mean0 += block.sample(i)[0];
    mean0 /= block.count();
    for (std::size_t i = 0; i < block.count(); ++i) {
        const double d = block.sample(i)[0] - mean0;
        var0 += d * d;
    }
    var0 /= (block.count() - 1);
    EXPECT_NEAR(mean0, 0.0, 1e-4);
    EXPECT_NEAR(var0, 1.0, 1e-3);
}

TEST(Tabular, SpecShapesMatchPaperDatasets)
{
    const auto specs = table7Specs(31);
    ASSERT_EQ(specs.size(), 9u);
    EXPECT_EQ(specs[0].features, 26u); // Parkinson
    EXPECT_EQ(specs[2].features, 19u); // Retinopathy
    EXPECT_EQ(specs[3].features, 16u); // Thoracic
    EXPECT_EQ(specs[4].features, 100u); // Tox21
    // Modified Parkinson is the small-train scenario.
    EXPECT_LT(specs[0].trainCount, specs[1].trainCount);
}

TEST(Tabular, GeneratedImbalanceTracksWeights)
{
    auto spec = thoracicSpec(37);
    spec.trainCount = 4000;
    const auto ds = makeTabular(spec);
    const auto hist = classHistogram(ds.train);
    const double share =
        static_cast<double>(hist[1]) / ds.train.count();
    EXPECT_NEAR(share, 0.15, 0.04);
}

TEST(Tabular, Deterministic)
{
    const auto a = makeTabular(retinopathySpec(41));
    const auto b = makeTabular(retinopathySpec(41));
    EXPECT_EQ(a.train.features, b.train.features);
    EXPECT_EQ(a.test.labels, b.test.labels);
}

TEST(Tabular, DifferentTasksDiffer)
{
    const auto a = makeTabular(tox21Spec("NR.AhR", 43));
    const auto b = makeTabular(tox21Spec("SR.P53", 43));
    EXPECT_NE(a.train.features, b.train.features);
}

TEST(Tabular, StandardizedFeatures)
{
    const auto ds = makeTabular(retinopathySpec(47));
    double mean = 0.0;
    for (std::size_t i = 0; i < ds.train.count(); ++i)
        mean += ds.train.sample(i)[0];
    mean /= ds.train.count();
    EXPECT_NEAR(mean, 0.0, 0.05);
}

TEST(DataView, BorrowsCorrectly)
{
    LabeledData block;
    block.dim = 2;
    block.numClasses = 2;
    const float x[2] = {1.0f, 2.0f};
    block.push(x, 1);
    const auto view = block.view();
    EXPECT_EQ(view.count, 1u);
    EXPECT_EQ(view.dim, 2u);
    EXPECT_FLOAT_EQ(view.sample(0)[1], 2.0f);
    EXPECT_EQ(view.labels[0], 1);
}
