/**
 * @file
 * Batched weight-reuse inference path — the "batched" executor backend.
 *
 * The fidelity executors (Simulator, FunctionalRunner) draw a fresh
 * weight sample for every MAC lane of every pass: an MC-ensemble
 * classification of B images at T samples costs T x B full
 * sample-and-compute passes. Fan et al.'s FPGA BNN accelerator
 * (PAPERS.md, arXiv:2105.09163) shows the dominant serving win is to
 * reuse ONE sampled weight set across a whole input batch per
 * Monte-Carlo round: the ensemble estimate then costs T blocked-GEMM
 * rounds, and the per-round weight draw amortizes over B images.
 *
 * Per runRoundBatch call this backend:
 *
 *   1. draws one weight sample per compute op — the bank's (mu, sigma)
 *      planes go through the fused WeightGenerator::sampleBlockFused
 *      path (w = mu + sigma * eps on the weight grid, eps from the
 *      block GRNG fill() ring, identical stream and arithmetic as the
 *      fidelity executors' per-lane draws) straight into a reusable,
 *      64-byte-aligned int32 SoA arena — no staging copy;
 *   2. walks the op list over batch-major int32 activation buffers
 *      (count x width on the activation grid — every admissible
 *      format is <= 32 bits, so the narrowing is lossless; products
 *      still accumulate in int64): Dense runs as image-tiled GEMM
 *      against the arena through the dispatched SIMD kernel layer
 *      (accel/kernels/), ConvLowered as per-image im2col + an
 *      (outChannels x patchSize) GEMM over positions, and Pool/
 *      Flatten per image. The image tile is cache-aware (sized from
 *      the host L1/L2, VIBNN_GEMM_TILE overrides), and when the
 *      operand formats fit int16 the arena keeps a packed copy so the
 *      AVX2 tier can run its madd fast path.
 *
 * The datapath arithmetic (DatapathKernel: sampleWeight, finishNeuron,
 * finishOutputNeuron) is compiled into the kernel layer's scalar
 * reference and every SIMD tier is ctest-pinned bit-exact against it,
 * so each neuron evaluation is exact fixed point regardless of the
 * dispatched tier; what changes is the *sampling schedule*: one weight
 * draw per op per round, shared across the batch and across conv
 * positions (the software direct estimator's semantics) instead of
 * fresh draws per pass and per position. Results are therefore
 * statistically equivalent — the per-round weights come from the same
 * variational posterior — but not bit-identical to the canonical eps
 * order (with sigma = 0 the two paths coincide exactly; a ctest pins
 * that down). VIBNN's per-pass sampling contract holds per round:
 * every round is one independent posterior draw.
 *
 * Intra-pass parallelism: setWorkPool() hands the runner a ThreadPool;
 * rounds then shard the image dimension across it. Weights are frozen
 * for the whole round and every image's pipeline is independent, so
 * outputs are bit-identical for any shard count (ctest-pinned across
 * 1/2/5 threads). McEngine revokes the pool whenever its round-level
 * scheduling already owns the workers (oversubscription guard).
 *
 * Weight-ensemble cache: a round's arena is a pure function of the
 * program and the eps stream it reads. When a round starts on a fresh
 * stream — a generator that has drawn nothing since construction,
 * named by GaussianGenerator::freshStreamKey() — the runner keeps the
 * clean arena (int32 plus the int16 mirror) under that key. A later
 * round on an equal-keyed stream skips the GRNG and the weight
 * sampling: it books the round's eps as consumed (skipFresh) and runs
 * its GEMMs straight on the cached arena. A session serves every
 * request from one seed on one McEngine, so round r reads the
 * identical stream (roundSeed(seedBase, r)) on every pass, whatever
 * its T, and a warm pass is only GEMMs. Results are bit-identical by
 * construction. Entries live as long as the runner; all runners of
 * the process share one budget of kDrawCacheBudget bytes, and a round
 * that cannot reserve its entry regenerates as before. Generators
 * without a key (BNNWallace, the baselines) always regenerate.
 */

#ifndef VIBNN_ACCEL_BATCHED_RUNNER_HH
#define VIBNN_ACCEL_BATCHED_RUNNER_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "accel/config.hh"
#include "accel/executor.hh"
#include "accel/kernels/kernels.hh"
#include "accel/program.hh"
#include "accel/weight_generator.hh"

namespace vibnn
{
class ThreadPool;
}

namespace vibnn::accel
{

/** Throughput-first weight-reuse executor backend. */
class BatchedRunner : public Executor
{
  public:
    /** Bytes of cached draws all runners of the process may hold
     *  together (see the file comment). */
    static constexpr std::size_t kDrawCacheBudget = std::size_t{256} << 20;

    BatchedRunner(const QuantizedProgram &program,
                  const AcceleratorConfig &config,
                  grng::GaussianGenerator *generator);

    /** Releases this runner's share of the draw-cache budget. */
    ~BatchedRunner() override;

    BatchedRunner(const BatchedRunner &) = delete;
    BatchedRunner &operator=(const BatchedRunner &) = delete;
    BatchedRunner(BatchedRunner &&) = delete;
    BatchedRunner &operator=(BatchedRunner &&) = delete;

    /** Budget bytes the cached draws of every runner hold now. */
    static std::size_t drawCacheBytes();

    /** Take `bytes` of the draw-cache budget; false (taking nothing)
     *  when they do not fit. Each cached draw reserves its size here,
     *  and a caller may hold budget back the same way. */
    static bool reserveDrawCache(std::size_t bytes);

    /** Return `bytes` taken by reserveDrawCache. */
    static void releaseDrawCache(std::size_t bytes);

    /** One forward pass == a one-image round (the weight sample is
     *  still shared across conv positions — this backend's sampling
     *  semantics, not the canonical per-position order). */
    std::vector<std::int64_t> runPass(const float *x) override;

    /** One MC round over a batch: `count` images of `stride` floats
     *  each, row-major; `out` receives count * outputDim raw values.
     *  One weight sample per compute op, reused across all `count`
     *  images (and across conv positions). */
    void runRoundBatch(const float *xs, std::size_t count,
                       std::size_t stride, std::int64_t *out);

    /** One MC round over an active subset of a batch (adaptive
     *  early-exit compaction): image i of the round is row indices[i]
     *  of `xs`, and `out` receives count * outputDim raw values in
     *  index order. Retired images simply stop appearing in `indices`,
     *  so they no longer occupy GEMM tiles. The gather folds into
     *  input quantization — no float-row staging copy — and the weight
     *  draw and per-image arithmetic are those of runRoundBatch
     *  exactly, so each selected image's output is bit-identical to
     *  its row of a round over any superset. */
    void runRoundBatchGather(const float *xs, std::size_t stride,
                             const std::uint32_t *indices,
                             std::size_t count, std::int64_t *out);

    /** Swap the eps source (per-round scheduling). Not owned. */
    void setGenerator(grng::GaussianGenerator *generator) override;

    /** Intra-pass image-dimension parallelism (see file comment).
     *  Not owned; nullptr (the default) runs rounds serially. Results
     *  are bit-identical with any pool or none. */
    void setWorkPool(ThreadPool *pool);

    /** Pass/sample counters only (untimed backend). */
    const CycleStats &stats() const override { return stats_; }

    const QuantizedProgram &program() const override { return program_; }
    const AcceleratorConfig &config() const override { return config_; }

    /** The GEMM image-tile in effect (cache-derived or
     *  VIBNN_GEMM_TILE) — introspection for benches/tests. */
    std::size_t imageTile() const { return imageTile_; }

  private:
    /** Shared round body: slot b of the round reads source row
     *  (indices ? indices[b] : b) of `xs`. Both public round entry
     *  points funnel here. */
    void runRoundImpl(const float *xs, std::size_t stride,
                      const std::uint32_t *indices, std::size_t count,
                      std::int64_t *out);

    /** Point roundWeights_ at this round's arena: the cached draw of a
     *  recurring fresh stream, else a new draw — into a new cache
     *  entry when the stream is fresh and the budget allows, into the
     *  scratch arena otherwise. Then injects faults. */
    void prepareRoundWeights();

    /** Draw this round's weight set into roundWeights_, serially in op
     *  order: eps is never drawn inside a parallel region, so a work
     *  pool shards only the round's images. */
    void sampleRoundWeights();

    /** Chaos-only bit-flip injection over the round's weight arena
     *  (the "accel.weights.bitflip" fault site, p = per-bit flip
     *  rate). No-op unless the fault registry is armed. The flip
     *  pattern is seeded from a content hash of the clean arena, so it
     *  is deterministic across thread counts, shard assignments and
     *  cache hits (the arena is bit-identical by contract). Flips land
     *  in the scratch arena, never in a cached draw, and do not
     *  accumulate — every round starts from a clean copy. */
    void injectWeightFaults();

    /** Run body(shard, begin, end) over a static partition of
     *  [0, count) — parallel when a work pool is set, serial (one
     *  shard) otherwise. Outputs are per-image, so the partition is
     *  invisible in the results. */
    template <typename Body>
    void forImageShards(std::size_t count, const Body &body);

    /** Dense bank over images [begin, end): image-tiled GEMM through
     *  the kernel layer. */
    void runDenseBatch(const ProgramOp &op, std::size_t op_index,
                       std::size_t begin, std::size_t end,
                       const std::int32_t *act_in, std::int32_t *act_out);

    /** ConvLowered with the shared filter sample over images
     *  [begin, end): per image im2col + (outChannels x patchSize)
     *  GEMM over positions, using shard-local patch scratch. */
    void runConvBatch(const ProgramOp &op, std::size_t op_index,
                      std::size_t shard, std::size_t begin,
                      std::size_t end, const std::int32_t *act_in,
                      std::int32_t *act_out);

    QuantizedProgram program_;
    AcceleratorConfig config_;
    DatapathKernel kernel_;
    WeightGenerator weightGen_;
    CycleStats stats_;

    /** Scratch SoA weight arena: one flat int32 slab per compute op
     *  (offsets indexed like program_.ops; non-compute ops share the
     *  next base), reused across rounds; 64-byte-aligned for the SIMD
     *  tiers. Holds rounds that are not cached and fault copies. */
    kernels::AlignedVector<std::int32_t> weightArena_;
    std::vector<std::size_t> opWeightBase_;
    /** int16-packed arena mirror for ops eligible for the madd fast
     *  path (same offsets; untouched for ineligible ops). */
    kernels::AlignedVector<std::int16_t> weightArena16_;

    /** A cached draw: the clean arena and mirror of one fresh stream. */
    struct CachedDraw
    {
        kernels::AlignedVector<std::int32_t> weights;
        kernels::AlignedVector<std::int16_t> weights16;
    };
    /** The weight-ensemble cache, keyed by freshStreamKey(). */
    std::unordered_map<std::string, CachedDraw> drawCache_;
    /** Budget bytes drawCache_ holds. */
    std::size_t drawCacheBytes_ = 0;
    /** The arena (and mirror) the current round's GEMMs read: a cached
     *  draw or the scratch arena. */
    std::int32_t *roundWeights_ = nullptr;
    std::int16_t *roundWeights16_ = nullptr;
    /** Per-op madd-path eligibility: operands fit int16 and
     *  inDim * max|w| * max|x| < 2^31 (see GemmArgs::weights16). */
    std::vector<bool> opInt16_;
    /** Any op eligible? Gates the int16 mirror/staging allocations. */
    bool anyInt16_ = false;
    /** Finish-stage parameters shared by every op (relu varies). */
    kernels::GemmFinish finishBase_;

    /** Widest activation window any op stages (buffer row width). */
    std::size_t laneWidth_ = 0;
    /** GEMM image tile (cache-aware; VIBNN_GEMM_TILE overrides). */
    std::size_t imageTile_ = 16;
    /** Batch-major ping-pong activation buffers (count x laneWidth_),
     *  int32 on the activation grid, 64-byte-aligned. */
    kernels::AlignedVector<std::int32_t> actA_, actB_;
    /** int16-packed staging of the current op's input activations
     *  (madd fast path only). */
    kernels::AlignedVector<std::int16_t> act16_;
    /** Per-shard im2col patch scratch (shard-local so parallel conv
     *  images never share staging). */
    std::vector<std::vector<std::int32_t>> patches_;
    std::vector<std::vector<std::int16_t>> patches16_;
    /** Compute ops in op order, for the weight draw. */
    std::vector<std::size_t> computeOps_;

    /** Intra-pass worker pool (not owned; nullptr = serial). */
    ThreadPool *workPool_ = nullptr;
};

} // namespace vibnn::accel

#endif // VIBNN_ACCEL_BATCHED_RUNNER_HH
