#include "accel/batched_runner.hh"

#include <algorithm>
#include <atomic>
#include <cmath>

#include <unistd.h>

#include "accel/conv_lowering.hh"
#include "common/env.hh"
#include "common/fault.hh"
#include "common/logging.hh"
#include "common/thread_pool.hh"

namespace vibnn::accel
{

namespace
{

/** A cache size from sysconf, or `fallback` when the kernel does not
 *  report one (containers frequently do not). */
long
cacheSize(int name, long fallback)
{
    const long reported = sysconf(name);
    return reported > 0 ? reported : fallback;
}

/**
 * Images per GEMM tile: the weight slab streams through cache once per
 * tile instead of once per image, so the tile should be as large as
 * the activation working set (one int32 in-row plus one out-row per
 * image) allows while staying cache-resident. Derived from the host
 * L2 (fallback: 8x a 32 KiB L1) with a VIBNN_GEMM_TILE override for
 * benchmarking; purely a performance choice — the kernels are
 * tile-order-invariant, so any tile gives bit-identical results.
 */
std::size_t
pickImageTile(std::size_t lane_width)
{
    const std::int64_t forced = envInt("VIBNN_GEMM_TILE", 0);
    if (forced > 0)
        return static_cast<std::size_t>(forced);

#if defined(_SC_LEVEL1_DCACHE_SIZE) && defined(_SC_LEVEL2_CACHE_SIZE)
    const long l1 = cacheSize(_SC_LEVEL1_DCACHE_SIZE, 32 * 1024);
    const long l2 = cacheSize(_SC_LEVEL2_CACHE_SIZE, 8 * l1);
#else
    const long l1 = 32 * 1024;
    const long l2 = 8 * l1;
#endif
    // Half the L2 for activations; the other half keeps the head of
    // the streaming weight slab and the int16 staging warm.
    const std::size_t row_bytes = 2 * lane_width * sizeof(std::int32_t);
    const std::size_t tile =
        static_cast<std::size_t>(l2) / (2 * std::max<std::size_t>(
                                                row_bytes, 1));
    return std::clamp<std::size_t>(tile, 8, 256);
}

/** Draw-cache budget bytes reserved by every runner of the process. */
std::atomic<std::size_t> g_drawCacheBytes{0};

} // namespace

std::size_t
BatchedRunner::drawCacheBytes()
{
    return g_drawCacheBytes.load(std::memory_order_relaxed);
}

bool
BatchedRunner::reserveDrawCache(std::size_t bytes)
{
    std::size_t held = g_drawCacheBytes.load(std::memory_order_relaxed);
    do {
        if (bytes > kDrawCacheBudget - held)
            return false;
    } while (!g_drawCacheBytes.compare_exchange_weak(
        held, held + bytes, std::memory_order_relaxed));
    return true;
}

void
BatchedRunner::releaseDrawCache(std::size_t bytes)
{
    g_drawCacheBytes.fetch_sub(bytes, std::memory_order_relaxed);
}

BatchedRunner::BatchedRunner(const QuantizedProgram &program,
                             const AcceleratorConfig &config,
                             grng::GaussianGenerator *generator)
    : program_(program), config_(config),
      kernel_(program_.activationFormat, program_.weightFormat,
              program_.epsFormat),
      weightGen_(kernel_, generator)
{
    validateProgram(program_, config_);

    // The narrowed SoA layout stores activations and weights as int32:
    // every admissible fixed-point format (<= 32 bits) fits, and the
    // finish/updater stages saturate onto their grids before any
    // store. Range-check the formats once so a future wider format
    // fails loudly here instead of truncating silently.
    VIBNN_ASSERT(kernel_.activation.rawMax() <= INT32_MAX &&
                     kernel_.activation.rawMin() >= INT32_MIN,
                 "activation format exceeds the int32 SoA layout");
    VIBNN_ASSERT(kernel_.weight.rawMax() <= INT32_MAX &&
                     kernel_.weight.rawMin() >= INT32_MIN,
                 "weight format exceeds the int32 arena layout");

    finishBase_.biasShift = kernel_.activation.fracBits();
    finishBase_.outShift = kernel_.weight.fracBits();
    finishBase_.outMin =
        static_cast<std::int32_t>(kernel_.activation.rawMin());
    finishBase_.outMax =
        static_cast<std::int32_t>(kernel_.activation.rawMax());

    // Arena layout: one contiguous slab of outDim x inDim weights per
    // compute op.
    const std::int64_t w_abs = -kernel_.weight.rawMin();
    const std::int64_t a_abs = -kernel_.activation.rawMin();
    std::size_t total = 0;
    laneWidth_ = program_.inputDim();
    for (const auto &op : program_.ops) {
        opWeightBase_.push_back(total);
        laneWidth_ = std::max({laneWidth_, op.inSize, op.outSize});
        if (!op.isCompute()) {
            opInt16_.push_back(false);
            continue;
        }
        total += op.bank.outDim * op.bank.inDim;
        // madd fast-path eligibility (see GemmArgs::weights16): both
        // operands fit int16 and the int32 pair-sum accumulator
        // provably cannot overflow over this op's reduction depth.
        // Divide instead of multiplying out inDim * w_abs * a_abs:
        // 32-bit formats would overflow the int64 product itself.
        const bool fits16 = w_abs <= INT16_MAX && a_abs <= INT16_MAX &&
            static_cast<std::int64_t>(op.bank.inDim) <=
                INT32_MAX / (w_abs * a_abs);
        opInt16_.push_back(fits16);
    }
    weightArena_.resize(total);
    for (std::size_t oi = 0; oi < program_.ops.size(); ++oi)
        if (program_.ops[oi].isCompute())
            computeOps_.push_back(oi);
    for (const bool eligible : opInt16_)
        anyInt16_ = anyInt16_ || eligible;
    if (anyInt16_)
        weightArena16_.resize(total);
    imageTile_ = pickImageTile(laneWidth_);
    patches_.resize(1);
    patches16_.resize(1);
}

BatchedRunner::~BatchedRunner()
{
    releaseDrawCache(drawCacheBytes_);
}

void
BatchedRunner::setGenerator(grng::GaussianGenerator *generator)
{
    weightGen_.setGenerator(generator);
}

void
BatchedRunner::setWorkPool(ThreadPool *pool)
{
    workPool_ = pool;
    const std::size_t shards = pool ? pool->parties() : 1;
    patches_.resize(std::max<std::size_t>(shards, 1));
    patches16_.resize(patches_.size());
}

template <typename Body>
void
BatchedRunner::forImageShards(std::size_t count, const Body &body)
{
    ThreadPool *pool = workPool_;
    const std::size_t shards =
        pool ? std::min(pool->parties(), count) : 1;
    if (shards <= 1) {
        if (count > 0)
            body(std::size_t{0}, std::size_t{0}, count);
        return;
    }
    // Static contiguous partition; every image's result depends only
    // on the frozen round weights and its own row, so the partition
    // (and the thread count behind it) is invisible in the output.
    pool->parallelFor(shards, [&](std::size_t s) {
        const std::size_t begin = s * count / shards;
        const std::size_t end = (s + 1) * count / shards;
        if (begin < end)
            body(s, begin, end);
    });
}

void
BatchedRunner::sampleRoundWeights()
{
    // One posterior draw per compute op, in op order: the identical
    // w = mu + sigma * eps updater arithmetic as the fidelity
    // executors, but one eps per *weight* instead of one per lane per
    // chunk cycle (no padding lanes, no per-position redraw), fused
    // straight into the int32 arena by the dispatched kernel.
    const auto &ops = kernels::activeKernels();
    for (const std::size_t oi : computeOps_) {
        const auto &op = program_.ops[oi];
        const std::size_t n = op.bank.outDim * op.bank.inDim;
        std::int32_t *slab = roundWeights_ + opWeightBase_[oi];
        weightGen_.sampleBlockFused(op.bank.muWeight.data(),
                                    op.bank.sigmaWeight.data(), slab, n);
        if (opInt16_[oi])
            ops.packInt16(slab, roundWeights16_ + opWeightBase_[oi], n);
    }
}

void
BatchedRunner::prepareRoundWeights()
{
    const std::size_t total = weightArena_.size();
    roundWeights_ = weightArena_.data();
    roundWeights16_ = weightArena16_.data();
    std::string key = weightGen_.freshStreamKey();
    if (!key.empty()) {
        const auto hit = drawCache_.find(key);
        if (hit != drawCache_.end()) {
            // A recurring stream: its draw is already here. Book the
            // round's eps as consumed so the stream stays aligned for
            // whatever the generator draws next.
            weightGen_.skipFresh(total);
            roundWeights_ = hit->second.weights.data();
            roundWeights16_ = hit->second.weights16.data();
            injectWeightFaults();
            return;
        }
        const std::size_t bytes = total * sizeof(std::int32_t) +
            weightArena16_.size() * sizeof(std::int16_t);
        if (reserveDrawCache(bytes)) {
            drawCacheBytes_ += bytes;
            CachedDraw &draw = drawCache_[std::move(key)];
            draw.weights.resize(total);
            draw.weights16.resize(weightArena16_.size());
            roundWeights_ = draw.weights.data();
            roundWeights16_ = draw.weights16.data();
        }
    }
    sampleRoundWeights();
    injectWeightFaults();
}

void
BatchedRunner::injectWeightFaults()
{
    if (!fault::anyArmed())
        return;
    const double rate = fault::siteRate("accel.weights.bitflip");
    if (rate <= 0.0 || weightArena_.empty())
        return;

    // Seed the flip stream from a content hash of the round's clean
    // arena XOR the site seed. The arena is bit-identical per round
    // regardless of thread count, shard assignment or cache hit (the
    // determinism contract), so the flip pattern is too — a chaos run
    // replays exactly on any machine configuration.
    std::uint64_t hash = 1469598103934665603ull; // FNV-1a basis
    const auto *bytes =
        reinterpret_cast<const unsigned char *>(roundWeights_);
    const std::size_t nbytes =
        weightArena_.size() * sizeof(std::int32_t);
    for (std::size_t i = 0; i < nbytes; ++i) {
        hash ^= bytes[i];
        hash *= 1099511628211ull;
    }
    std::uint64_t state =
        hash ^ fault::siteSeed("accel.weights.bitflip");

    // Geometric-skip sampling over the (slot x weight-bit) space:
    // each of the arena's total_bits-wide payload bits flips with
    // probability `rate`, independently, without visiting every bit.
    const unsigned total_bits =
        static_cast<unsigned>(kernel_.weight.totalBits());
    const std::uint64_t space_bits =
        static_cast<std::uint64_t>(weightArena_.size()) * total_bits;
    const double log_keep =
        std::log1p(-std::min(rate, 1.0 - 1e-9));
    const unsigned extend_shift = 32 - total_bits;
    std::uint64_t pos = 0;
    std::uint64_t flips = 0;
    for (;;) {
        state = fault::mix64(state);
        const double u =
            std::max(fault::mixToUnit(state), 1e-300);
        const double skip_f = std::log(u) / log_keep;
        if (skip_f >= static_cast<double>(space_bits))
            break;
        pos += static_cast<std::uint64_t>(skip_f) + 1;
        if (pos > space_bits)
            break;
        if (flips == 0 && roundWeights_ != weightArena_.data()) {
            // Flip a copy: the cached draw must stay clean.
            std::copy(roundWeights_, roundWeights_ + weightArena_.size(),
                      weightArena_.data());
            roundWeights_ = weightArena_.data();
            roundWeights16_ = weightArena16_.data();
        }
        const std::uint64_t bit_index = pos - 1;
        const std::size_t slot =
            static_cast<std::size_t>(bit_index / total_bits);
        const unsigned bit =
            static_cast<unsigned>(bit_index % total_bits);
        std::uint32_t raw =
            static_cast<std::uint32_t>(weightArena_[slot]);
        raw ^= 1u << bit;
        // Re-sign-extend from the payload width: every total_bits
        // pattern is a valid two's-complement weight, so the flipped
        // value needs no saturation, only a consistent upper half.
        weightArena_[slot] = static_cast<std::int32_t>(
            raw << extend_shift) >> extend_shift;
        ++flips;
    }
    if (flips == 0)
        return;
    fault::recordFires("accel.weights.bitflip", flips);
    // The int16 mirror must match the corrupted arena or the madd
    // fast path would silently serve the uncorrupted weights.
    if (anyInt16_) {
        const auto &ops = kernels::activeKernels();
        for (const std::size_t oi : computeOps_) {
            if (!opInt16_[oi])
                continue;
            const auto &op = program_.ops[oi];
            const std::size_t n = op.bank.outDim * op.bank.inDim;
            ops.packInt16(weightArena_.data() + opWeightBase_[oi],
                          weightArena16_.data() + opWeightBase_[oi],
                          n);
        }
    }
}

void
BatchedRunner::runDenseBatch(const ProgramOp &op, std::size_t op_index,
                             std::size_t begin, std::size_t end,
                             const std::int32_t *act_in,
                             std::int32_t *act_out)
{
    const auto &ops = kernels::activeKernels();
    const std::size_t in_dim = op.bank.inDim;
    const bool use16 = opInt16_[op_index];

    // madd staging: pack this shard's input rows once; the packed row
    // is reused by every output neuron.
    if (use16) {
        for (std::size_t b = begin; b < end; ++b)
            ops.packInt16(act_in + b * laneWidth_,
                          act16_.data() + b * laneWidth_, in_dim);
    }

    kernels::GemmArgs args;
    args.weights = roundWeights_ + opWeightBase_[op_index];
    args.ldw = in_dim;
    args.lda = laneWidth_;
    args.bias = op.bank.muBias.data();
    args.outNeuronStride = 1;
    args.outImageStride = laneWidth_;
    args.inDim = in_dim;
    args.outDim = op.bank.outDim;
    args.finish = finishBase_;
    args.finish.relu = op.relu;
    if (use16)
        args.weights16 = roundWeights16_ + opWeightBase_[op_index];

    for (std::size_t b0 = begin; b0 < end; b0 += imageTile_) {
        const std::size_t b1 = std::min(b0 + imageTile_, end);
        args.acts = act_in + b0 * laneWidth_;
        args.acts16 = use16 ? act16_.data() + b0 * laneWidth_ : nullptr;
        args.out = act_out + b0 * laneWidth_;
        args.images = b1 - b0;
        ops.gemmBatch(args);
    }
}

void
BatchedRunner::runConvBatch(const ProgramOp &op, std::size_t op_index,
                            std::size_t shard, std::size_t begin,
                            std::size_t end, const std::int32_t *act_in,
                            std::int32_t *act_out)
{
    const auto &ops = kernels::activeKernels();
    const std::size_t positions = op.conv.positions();
    const std::size_t patch = op.conv.patchSize();
    const bool use16 = opInt16_[op_index];
    auto &patches = patches_[shard];
    auto &patches16 = patches16_[shard];

    kernels::GemmArgs args;
    args.weights = roundWeights_ + opWeightBase_[op_index];
    args.ldw = patch;
    args.lda = patch;
    args.bias = op.bank.muBias.data();
    // Conv maps are neuron-major: out[oc][position].
    args.outNeuronStride = positions;
    args.outImageStride = 1;
    args.inDim = patch;
    args.outDim = op.conv.outChannels;
    args.finish = finishBase_;
    args.finish.relu = op.relu;
    if (use16)
        args.weights16 = roundWeights16_ + opWeightBase_[op_index];

    for (std::size_t b = begin; b < end; ++b) {
        im2colRaw(op.conv, act_in + b * laneWidth_, patches);
        if (use16) {
            patches16.resize(patches.size());
            ops.packInt16(patches.data(), patches16.data(),
                          patches.size());
        }
        args.acts = patches.data();
        args.acts16 = use16 ? patches16.data() : nullptr;
        args.out = act_out + b * laneWidth_;
        args.images = positions; // the GEMM batch axis is positions
        ops.gemmBatch(args);
    }
}

void
BatchedRunner::runRoundImpl(const float *xs, std::size_t stride,
                            const std::uint32_t *indices,
                            std::size_t count, std::int64_t *out)
{
    const std::size_t out_dim = program_.outputDim();
    if (count == 0)
        return;

    prepareRoundWeights();

    // Quantize the batch onto the activation grid, batch-major. With an
    // index set (adaptive active-set compaction) the gather happens
    // right here — image slot b of the round reads source row
    // indices[b] — so retired images cost nothing downstream and no
    // staging copy of the float rows is ever made.
    const auto &ops = kernels::activeKernels();
    const auto &act = program_.activationFormat;
    const int act_frac = act.fracBits();
    const auto act_min = static_cast<std::int32_t>(act.rawMin());
    const auto act_max = static_cast<std::int32_t>(act.rawMax());
    const std::size_t in_dim = program_.inputDim();
    actA_.assign(count * laneWidth_, 0);
    actB_.assign(count * laneWidth_, 0);
    if (anyInt16_)
        act16_.resize(count * laneWidth_);
    forImageShards(count, [&](std::size_t, std::size_t begin,
                              std::size_t end) {
        for (std::size_t b = begin; b < end; ++b) {
            const std::size_t src = indices ? indices[b] : b;
            ops.quantizeFloat(xs + src * stride,
                              actA_.data() + b * laneWidth_, in_dim,
                              act_frac, act_min, act_max);
        }
    });

    std::int32_t *in_buf = actA_.data();
    std::int32_t *out_buf = actB_.data();
    for (std::size_t oi = 0; oi < program_.ops.size(); ++oi) {
        const auto &op = program_.ops[oi];
        switch (op.kind) {
          case OpKind::Dense:
            forImageShards(count, [&](std::size_t, std::size_t begin,
                                      std::size_t end) {
                runDenseBatch(op, oi, begin, end, in_buf, out_buf);
            });
            stats_.macs += count * op.bank.outDim * op.bank.inDim;
            std::swap(in_buf, out_buf);
            break;
          case OpKind::ConvLowered:
            forImageShards(count, [&](std::size_t shard,
                                      std::size_t begin,
                                      std::size_t end) {
                runConvBatch(op, oi, shard, begin, end, in_buf,
                             out_buf);
            });
            stats_.macs += count * op.conv.outChannels *
                op.conv.positions() * op.conv.patchSize();
            std::swap(in_buf, out_buf);
            break;
          case OpKind::Pool:
            forImageShards(count, [&](std::size_t, std::size_t begin,
                                      std::size_t end) {
                for (std::size_t b = begin; b < end; ++b)
                    maxPoolRaw(op.pool, in_buf + b * laneWidth_,
                               out_buf + b * laneWidth_);
            });
            std::swap(in_buf, out_buf);
            break;
          case OpKind::Flatten:
          case OpKind::Output:
            // Pure relabeling / staging.
            break;
        }
    }

    for (std::size_t b = 0; b < count; ++b) {
        const std::int32_t *row = in_buf + b * laneWidth_;
        std::int64_t *out_row = out + b * out_dim;
        for (std::size_t i = 0; i < out_dim; ++i)
            out_row[i] = row[i];
    }

    stats_.grnSamples = weightGen_.samplesDrawn();
    stats_.images += count;
}

void
BatchedRunner::runRoundBatch(const float *xs, std::size_t count,
                             std::size_t stride, std::int64_t *out)
{
    runRoundImpl(xs, stride, /*indices=*/nullptr, count, out);
}

void
BatchedRunner::runRoundBatchGather(const float *xs, std::size_t stride,
                                   const std::uint32_t *indices,
                                   std::size_t count, std::int64_t *out)
{
    runRoundImpl(xs, stride, indices, count, out);
}

std::vector<std::int64_t>
BatchedRunner::runPass(const float *x)
{
    std::vector<std::int64_t> out(program_.outputDim());
    runRoundBatch(x, 1, program_.inputDim(), out.data());
    return out;
}

} // namespace vibnn::accel
