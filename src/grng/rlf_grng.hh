/**
 * @file
 * The parallel RLF-GRNG (Figure 8 of the paper).
 *
 * m LF-updater lanes run in lockstep: the seed memory (SeMem) is a RAM
 * of `length` words, each m bits wide, so lane j owns bit column j and
 * the indexer/controller is shared by all lanes — the key hardware
 * economy of the design. Every cycle each lane emits its state popcount,
 * an approximately N(n/2, n/4) binomial sample.
 *
 * A raw lane stream is useless on its own: consecutive popcounts differ
 * by at most 5, so the stream is massively autocorrelated. The block
 * diagram fixes this with output multiplexers: lanes are grouped in
 * fours, and each group's four outputs are permuted by a rotating select
 * shared across groups, so any single output port hops between four
 * independent lanes on consecutive cycles. The serial stream exposed by
 * next() walks output ports cycle-major, which reproduces exactly what a
 * consumer wired to the multiplexer outputs would see. The ablation
 * bench (bench_ablation_rlf) shows the multiplexer is what makes the
 * runs test pass.
 */

#ifndef VIBNN_GRNG_RLF_GRNG_HH
#define VIBNN_GRNG_RLF_GRNG_HH

#include <cstdint>
#include <memory>

#include "grng/generator.hh"
#include "grng/rlf.hh"

namespace vibnn::grng
{

/** Configuration for RlfGrng. */
struct RlfGrngConfig
{
    /** Seed bits per lane (the paper's SeMem depth); 255 default. */
    int length = 255;
    /** Number of parallel LF-updater lanes (SeMem word width). */
    int lanes = 8;
    /** Update mode; Combined is the paper's optimized design. */
    RlfUpdateMode mode = RlfUpdateMode::Combined;
    /** Enable the output multiplexing stage (Figure 8). Disabling it is
     *  only for the ablation study. */
    bool outputMux = true;
    /**
     * Balance every lane's seed to popcount floor(n/2) or ceil(n/2)
     * (alternating across lanes). The seeds live in an initialization
     * ROM whose image the designer is free to choose; starting each
     * lane at the stationary mode of the binomial walk removes the
     * start-up transient from the output distribution.
     */
    bool balancedSeeds = true;
    /** Master seed; each lane derives an independent seed from it. */
    std::uint64_t seed = 1;
};

/** Parallel RAM-based Linear Feedback GRNG. */
class RlfGrng : public GaussianGenerator
{
  public:
    explicit RlfGrng(const RlfGrngConfig &config);

    /** Next normalized sample. */
    double next() override;

    /** Block fill: steps whole lane cycles directly into `out`. */
    void fill(double *out, std::size_t n) override;
    using GaussianGenerator::fill;

    /**
     * Fused generation + quantization: counts map to fixed-point raws
     * through a 256-entry count -> fromReal(normalize(count)) table, so
     * the double intermediate disappears entirely from the eps supply.
     * Available on the transposed kernel path only (returns false
     * otherwise, and callers fall back to fill() + quantize).
     */
    bool fillFixed(std::int32_t *out, std::size_t n,
                   const fixed::FixedPointFormat &format) override;

    std::string name() const override;

    /** Every config field (the seed included): the stream is a pure
     *  function of them. Fresh until the first cycle is generated. */
    std::string freshStreamKey() const override;

    /** Next raw binomial count in [0, length]. */
    int nextCount();

    /**
     * Produce one full cycle of counts, one per lane, in multiplexed
     * output-port order. Matches the hardware's per-cycle bandwidth of
     * `lanes` samples.
     */
    void nextCycleCounts(std::vector<int> &out);

    const RlfGrngConfig &config() const { return config_; }

    /** Normalization helpers: count -> approximately N(0,1). */
    double normalize(int count) const;

    /** True when the transposed lane-parallel kernel path drives this
     *  instance (Combined mode with the {n-5, n-3, n-2} tap pattern);
     *  false means the per-lane RlfLogic fallback. Either way the
     *  stream is identical — the kernel tiers are ctest-pinned
     *  bit-exact against RlfLogic. */
    bool usesKernelPath() const { return kernelPath_; }

  private:
    void refillBuffer();

    /** Kernel path: run `cycles` transposed iterations and emit
     *  post-mux counts (cycles x lanes, port-major within a cycle)
     *  into `counts`; advances cycle_. */
    void generateMuxedCycles(std::size_t cycles, std::int32_t *counts);

    /** The count -> fixed-point raw table for fillFixed (rebuilt when
     *  the requested format changes). */
    const std::int32_t *fixedLut(const fixed::FixedPointFormat &format);

    RlfGrngConfig config_;
    /** Per-lane functional models — the fallback path (Single mode or
     *  non-{n-5, n-3, n-2} tap patterns); empty on the kernel path. */
    std::vector<RlfLogic> lanes_;
    std::vector<int> cycleBuffer_;
    /** Pre-mux lane counts, reused every cycle (no per-cycle alloc). */
    std::vector<int> rawScratch_;
    std::size_t bufferPos_ = 0;
    std::uint64_t cycle_ = 0;
    double mean_;
    double invStddev_;

    /** Transposed bit-plane state (kernel path; see
     *  accel/kernels RlfState): groups planes of `length` bytes. */
    bool kernelPath_ = false;
    int planeGroups_ = 0;
    int planeHead_ = 0;
    std::vector<std::uint8_t> planes_;
    std::vector<std::int32_t> planeSums_;
    /** Burst scratch: raw (pre-mux) counts from the kernel. */
    std::vector<std::int32_t> burstRaw_;
    /** Burst scratch: post-mux counts handed to fill()/fillFixed(). */
    std::vector<std::int32_t> burstMuxed_;
    /** fillFixed count -> raw table and the format it was built for. */
    std::vector<std::int32_t> lut_;
    int lutTotalBits_ = -1;
    int lutFracBits_ = -1;
};

} // namespace vibnn::grng

#endif // VIBNN_GRNG_RLF_GRNG_HH
