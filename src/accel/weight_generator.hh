/**
 * @file
 * Weight generator: GRNG + weight updater (paper Figure 12).
 *
 * Per weight lane and cycle, the updater receives an 8-bit unit-Gaussian
 * eps from the GRNG, reads (mu, sigma) from the WPMem word, and emits
 * w = mu + sigma * eps on the weight grid. A DFF tier between the GRNG
 * and the updater and a register tier holding the sampled weights
 * (Figure 14) give it a two-stage pipeline, modeled as latency in the
 * simulator's cycle accounting.
 *
 * The eps stream is produced in blocks: the GRNG's block fill() API
 * refills a ring of pre-converted fixed-point eps values, and the
 * float->fixed conversion runs through the SIMD kernel layer's
 * quantizeDouble once per refill (eps formats are <= 32 bits, so the
 * ring holds int32). Consumers either draw scalars (nextEpsRaw),
 * sample whole WPMem words at once (sampleBlock), or use the fused
 * sampleBlockFused path that emits int32 arena weights straight from
 * the vectorized mu + sigma * eps kernel; all observe the identical
 * stream a per-sample next() implementation would, because fill() is
 * bit-compatible with next() by contract and the kernel tiers are
 * bit-exact against the scalar reference.
 */

#ifndef VIBNN_ACCEL_WEIGHT_GENERATOR_HH
#define VIBNN_ACCEL_WEIGHT_GENERATOR_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "accel/config.hh"
#include "accel/kernels/kernels.hh"
#include "grng/generator.hh"

namespace vibnn::accel
{

/** GRNG + weight updater for a bank of weight lanes. */
class WeightGenerator
{
  public:
    /** Eps values prefetched per GRNG block refill. */
    static constexpr std::size_t epsBlock = 4096;

    /**
     * @param kernel Shared datapath arithmetic.
     * @param generator The eps source (RLF, BNNWallace, or any
     *        GaussianGenerator). Not owned.
     */
    WeightGenerator(const DatapathKernel &kernel,
                    grng::GaussianGenerator *generator);

    /** Draw one eps on the eps grid (8-bit). */
    std::int64_t
    nextEpsRaw()
    {
        if (epsPos_ >= epsFill_)
            refill();
        ++samplesDrawn_;
        return epsRaw_[epsPos_++];
    }

    /** Produce one sampled weight. */
    std::int64_t
    sample(std::int64_t mu_raw, std::int64_t sigma_raw)
    {
        return kernel_.sampleWeight(mu_raw, sigma_raw, nextEpsRaw());
    }

    /**
     * Sample `count` weights in one call: w[i] = mu[i] + sigma[i] *
     * eps, consuming `count` consecutive eps from the stream. This is
     * the per-chunk-cycle path of the simulator — one call covers a
     * whole WPMem word (all lanes of a PE set).
     */
    void
    sampleBlock(const std::int32_t *mu_raw, const std::int32_t *sigma_raw,
                std::int64_t *weights, std::size_t count)
    {
        std::size_t i = 0;
        while (i < count) {
            if (epsPos_ >= epsFill_)
                refill();
            const std::size_t take =
                std::min(count - i, epsFill_ - epsPos_);
            const std::int32_t *eps = epsRaw_.data() + epsPos_;
            for (std::size_t j = 0; j < take; ++j)
                weights[i + j] = kernel_.sampleWeight(
                    mu_raw[i + j], sigma_raw[i + j], eps[j]);
            epsPos_ += take;
            i += take;
        }
        samplesDrawn_ += count;
    }

    /**
     * The fused arena path: identical eps consumption and updater
     * arithmetic as sampleBlock (bit-exact, ctest-pinned), but the
     * sampled weights land directly in an int32 destination through
     * the dispatched SIMD kernel — no int64 staging, no second
     * narrowing pass. Weight grids are <= 32 bits, so the narrowing is
     * lossless by construction (the updater saturates on the weight
     * grid before the store).
     */
    void
    sampleBlockFused(const std::int32_t *mu_raw,
                     const std::int32_t *sigma_raw,
                     std::int32_t *weights, std::size_t count)
    {
        const auto &ops = kernels::activeKernels();
        std::size_t i = 0;
        while (i < count) {
            if (epsPos_ >= epsFill_)
                refill();
            const std::size_t take =
                std::min(count - i, epsFill_ - epsPos_);
            ops.sampleWeights(mu_raw + i, sigma_raw + i,
                              epsRaw_.data() + epsPos_, weights + i,
                              take, sampleParams_);
            epsPos_ += take;
            i += take;
        }
        samplesDrawn_ += count;
    }

    /**
     * The generator's freshStreamKey() while this WeightGenerator has
     * fetched nothing from it (and skipped nothing); "" otherwise. A
     * non-empty key names every eps the next draws will read.
     */
    std::string
    freshStreamKey() const
    {
        return fetched_ == 0 ? generator_->freshStreamKey()
                             : std::string();
    }

    /**
     * Book the next `n` eps as consumed without generating them: the
     * caller already holds what they would produce (a cached weight
     * arena). Needs an empty ring, which a fresh stream has. The
     * generator catches up lazily, on the next refill, by generating
     * and discarding the skipped eps, so a later draw reads exactly
     * the eps it would have read had the skipped ones been drawn.
     */
    void skipFresh(std::uint64_t n);

    /**
     * Swap the eps source. Prefetched-but-unconsumed eps from the old
     * stream are discarded, so the next draw comes from the new
     * generator's stream start. samplesDrawn() (consumed eps) is
     * unaffected.
     */
    void setGenerator(grng::GaussianGenerator *generator);

    /** Pipeline depth in cycles (GRNG DFF tier + weight tier). */
    static constexpr int pipelineDepth = 2;

    /** Eps samples consumed so far. */
    std::uint64_t samplesDrawn() const { return samplesDrawn_; }

  private:
    /** Block-refill the ring: the generator's fused fillFixed() when it
     *  has one, else one GRNG fill() plus one batch float->fixed
     *  conversion pass (bit-identical either way). Catches up on
     *  skipped eps first. */
    void refill();

    DatapathKernel kernel_;
    grng::GaussianGenerator *generator_;
    /** Precomputed fused-sampling kernel parameters (from kernel_). */
    kernels::SampleParams sampleParams_;
    std::uint64_t samplesDrawn_ = 0;
    /** Eps pulled from the generator or skipped since it was set
     *  (consumed + ring + skipped). */
    std::uint64_t fetched_ = 0;
    /** Skipped eps the generator has not stepped past yet. */
    std::uint64_t lag_ = 0;

    /** Real-valued staging for the GRNG block fill. */
    std::vector<double> epsReal_;
    /** The fixed-point eps ring (eps grids are <= 32 bits; aligned for
     *  the SIMD tiers). */
    kernels::AlignedVector<std::int32_t> epsRaw_;
    std::size_t epsPos_ = 0;
    std::size_t epsFill_ = 0;
};

} // namespace vibnn::accel

#endif // VIBNN_ACCEL_WEIGHT_GENERATOR_HH
