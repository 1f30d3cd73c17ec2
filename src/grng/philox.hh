/**
 * @file
 * Counter-based Gaussian generator (Philox-4x32-10 + Box-Muller).
 *
 * Every stateful generator in this project (RLF walks, Wallace pools)
 * reaches sample i only by stepping through samples 0..i-1, and a new
 * stream costs a seeding walk. A counter-based generator has neither
 * constraint: sample i is a pure function of (seed, i), so a new
 * round's stream is only a new key — construction is one splitmix64
 * step and no state walk — and the block fill computes each sample
 * straight from its index.
 *
 * The counter transform is Philox-4x32-10 (Salmon et al., SC'11): ten
 * rounds of 32x32->64 multiplies and XORs over a 128-bit counter under
 * a 64-bit key, passing BigCrush. Each counter block yields two
 * doubles via Box-Muller, so sample i consumes block i/2, phase i%2.
 */

#ifndef VIBNN_GRNG_PHILOX_HH
#define VIBNN_GRNG_PHILOX_HH

#include <cstdint>

#include "grng/generator.hh"

namespace vibnn::grng
{

/** Counter-based GRNG: Philox-4x32-10 + Box-Muller. */
class PhiloxGrng : public GaussianGenerator
{
  public:
    explicit PhiloxGrng(std::uint64_t seed);

    double next() override;
    void fill(double *out, std::size_t n) override;
    using GaussianGenerator::fill;

    bool fillFixed(std::int32_t *out, std::size_t n,
                   const fixed::FixedPointFormat &format) override;

    /** The key words; fresh while the cursor is at 0. */
    std::string freshStreamKey() const override;

    std::string name() const override { return "Philox"; }

  private:
    /** Both Box-Muller phases of counter block `block`. */
    void sampleBlock(std::uint64_t block, double out2[2]) const;

    /** Both phases of `block` via the one-block cache: the sequential
     *  phase-at-a-time consumer (next()) pays the Philox + Box-Muller
     *  transform once per PAIR instead of once per sample (~2x). Pure
     *  memoization of a deterministic function of (key, block), so
     *  stream values are unchanged. */
    const double *ensureBlock(std::uint64_t block) const;

    /** Core of fill()/fillFixed(): samples `offset .. offset + n` of
     *  the keyed stream. Leaves the pair cache to next(): a block fill
     *  computes whole pairs, so the cache could serve only its
     *  stranded end phases. */
    void fillAt(std::uint64_t offset, double *out, std::size_t n) const;

    std::uint32_t key0_;
    std::uint32_t key1_;
    std::uint64_t pos_ = 0;

    /** One-block Box-Muller pair cache (invalid until the first
     *  use). */
    mutable bool cacheValid_ = false;
    mutable std::uint64_t cachedBlock_ = 0;
    mutable double cachedPair_[2] = {0.0, 0.0};
};

} // namespace vibnn::grng

#endif // VIBNN_GRNG_PHILOX_HH
