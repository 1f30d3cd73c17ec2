/**
 * @file
 * SIMD kernel layer with runtime dispatch — the vectorized inner loops
 * of the throughput inference path.
 *
 * The hot arithmetic of the batched weight-reuse executor is four flat
 * loops: quantizing real inputs onto the activation grid, converting
 * GRNG eps samples onto the eps grid, the fused weight draw
 * w = mu + (sigma * eps >> epsFrac), and the batched fixed-point GEMM
 * with the bias/ReLU/requantize finish stage. This layer packages each
 * of them as a free function behind a per-tier function table
 * (KernelOps) with three implementations:
 *
 *   "scalar"  portable reference — the semantic ground truth, compiled
 *             everywhere, and the definition every other tier must
 *             match bit for bit,
 *   "sse4"    128-bit x86 (SSE4.1),
 *   "avx2"    256-bit x86 (AVX2), with an additional int16 madd GEMM
 *             fast path when the operand formats allow it.
 *
 * activeKernels() picks the widest tier the running CPU supports once
 * per process; VIBNN_KERNELS=<name> selects one explicitly (fatal if
 * that tier is not available on this CPU/build; VIBNN_KERNELS=scalar
 * pins the reference). Tests iterate availableKernels()
 * and assert bit-exactness of every tier against scalarKernels() —
 * including saturation and odd-size tail lanes — so the dispatch
 * decision is a pure performance choice, never a semantic one
 * (docs/ARCHITECTURE.md documents the contract).
 *
 * The training path adds the f32 GEMMs, the fused Adam step, and the
 * plane and KL ops built on this layer's softplus / logistic / ln, the
 * repository's one definition of those functions (see softplus()
 * below).
 *
 * Integer dot products are order-invariant (64-bit accumulation never
 * overflows for any format the datapath admits, and saturation happens
 * only in the finish stage), which is what makes wide/reordered SIMD
 * accumulation bit-compatible with the sequential scalar loop. The
 * int16 madd path additionally needs the caller's guarantee that every
 * 32-bit partial fits (see GemmArgs::weights16).
 */

#ifndef VIBNN_ACCEL_KERNELS_KERNELS_HH
#define VIBNN_ACCEL_KERNELS_KERNELS_HH

#include <cstddef>
#include <cstdint>
#include <new>
#include <string>
#include <vector>

namespace vibnn::accel::kernels
{

/** Minimal 64-byte-aligning allocator: SIMD tiers may use aligned
 *  loads on arena data, and cache-line alignment keeps tile edges off
 *  shared lines when image shards run on different threads. */
template <typename T>
struct AlignedAllocator
{
    using value_type = T;
    static constexpr std::size_t alignment = 64;

    AlignedAllocator() = default;
    template <typename U>
    AlignedAllocator(const AlignedAllocator<U> &)
    {
    }

    T *
    allocate(std::size_t n)
    {
        if (n == 0)
            return nullptr;
        return static_cast<T *>(::operator new(
            n * sizeof(T), std::align_val_t(alignment)));
    }

    void
    deallocate(T *p, std::size_t)
    {
        ::operator delete(p, std::align_val_t(alignment));
    }

    template <typename U>
    bool
    operator==(const AlignedAllocator<U> &) const
    {
        return true;
    }
};

/** 64-byte-aligned vector for weight/activation arenas. */
template <typename T>
using AlignedVector = std::vector<T, AlignedAllocator<T>>;

/** Finish-stage parameters of the GEMM kernels — the exact arithmetic
 *  of DatapathKernel::finishNeuron / finishOutputNeuron. */
struct GemmFinish
{
    /** Bias alignment shift onto the accumulator grid
     *  (activation fracBits). */
    int biasShift = 0;
    /** Requantization shift back to the activation grid
     *  (weight fracBits). */
    int outShift = 0;
    /** Activation-grid saturation bounds. */
    std::int32_t outMin = 0;
    std::int32_t outMax = 0;
    /** ReLU before requantization (hidden layers). */
    bool relu = true;
};

/**
 * One batched GEMM call: out[o, b] = finish(sum_k w[o, k] * x[b, k],
 * bias[o]) for o in [0, outDim), b in [0, images). The two output
 * strides express both activation layouts the executors use:
 * image-major Dense buffers (outNeuronStride = 1, outImageStride =
 * laneWidth) and neuron-major conv maps (outNeuronStride = positions,
 * outImageStride = 1).
 */
struct GemmArgs
{
    /** Weight slab, outDim rows of stride ldw (>= inDim). */
    const std::int32_t *weights = nullptr;
    std::size_t ldw = 0;
    /** Activations, images rows of stride lda (>= inDim). */
    const std::int32_t *acts = nullptr;
    std::size_t lda = 0;
    /** Raw mu-bias values, outDim entries. */
    const std::int32_t *bias = nullptr;
    /** Output, written at out[o * outNeuronStride + b * outImageStride]. */
    std::int32_t *out = nullptr;
    std::size_t outNeuronStride = 1;
    std::size_t outImageStride = 0;
    std::size_t inDim = 0;
    std::size_t outDim = 0;
    std::size_t images = 0;
    GemmFinish finish;

    /**
     * Optional int16-packed copies of weights/acts (same strides).
     * Setting BOTH non-null is the caller's guarantee that (a) every
     * weight and activation raw value fits int16 and (b)
     * inDim * max|w| * max|x| < 2^31, so 32-bit madd partials cannot
     * overflow. Tiers without an int16 path ignore them.
     */
    const std::int16_t *weights16 = nullptr;
    const std::int16_t *acts16 = nullptr;
};

/**
 * Transposed lane-parallel RLF state — the eps-generation kernel's view
 * of a whole RLF-GRNG (all lanes of rlf_grng.hh's RlfGrng at once).
 *
 * Instead of one byte-per-bit state vector per lane, lanes are packed
 * eight to a bit-plane group: `planes` holds `groups` planes of
 * `length` bytes each, and bit j of byte p in plane g is the state bit
 * of lane (8 g + j) at position p. All lanes share one head index (the
 * hardware's shared indexer), so one combined-update iteration is five
 * byte-wide XOR/mask operations per group — every lane advances in the
 * same pass, and the per-lane popcounts update incrementally from the
 * flipped bits. Only the paper's combined update with the
 * {n-5, n-3, n-2} tap pattern (true for length 255) is expressible in
 * this layout; RlfGrng falls back to its per-lane RlfLogic path for
 * anything else.
 */
struct RlfState
{
    /** Bit-plane state: groups planes of `length` bytes (see above). */
    std::uint8_t *planes = nullptr;
    /** Per-lane popcounts, groups * 8 entries, updated in place. */
    std::int32_t *sums = nullptr;
    /** State bits per lane (255 in the paper). */
    int length = 0;
    /** ceil(lanes / 8) bit-plane groups. */
    int groups = 0;
    /** Shared head position in [0, length); advanced by the kernel. */
    int head = 0;
};

/** Parameters of the fused weight-sampling kernel — the arithmetic of
 *  DatapathKernel::sampleWeight. */
struct SampleParams
{
    /** Product requantization shift (eps fracBits). */
    int epsShift = 0;
    /** Weight-grid saturation bounds. */
    std::int32_t wMin = 0;
    std::int32_t wMax = 0;
    /**
     * Conservative operand magnitude bounds implied by the formats
     * (|sigma| <= sigmaAbsMax, |eps| <= epsAbsMax). SIMD tiers use
     * them to prove the 32-bit product/sum fast path safe; when the
     * bounds do not fit they fall back to the scalar reference.
     */
    std::int64_t sigmaAbsMax = 0;
    std::int64_t epsAbsMax = 0;
};

/**
 * One float32 batched GEMM call for the training path. The same
 * argument block serves three contraction shapes (the fields are
 * interpreted per entry point, see the KernelOps members):
 *
 *   gemmBatchF32  c[i][j]  = dot(aRow i, bRow j, k) + bias[j]
 *                 (forward: activations (m x k) times weight rows
 *                 (n x k) — both operands contiguous in the reduction
 *                 index)
 *   gemmAtBF32    c[j][:k] += sum_i a[i][j] * b[i][:k], and
 *                 colSums[j] += a[i][j]
 *                 (backward weight grads dW = dyT . X with the bias
 *                 grad — the column sum of dy — folded in)
 *   gemmABF32     c[i][:k]  = sum_j a[i][j] * b[j][:k]
 *                 (backward delta dx = dy . W; overwrites c)
 *
 * Unlike the integer GEMM, float accumulation is order-sensitive, so
 * each entry point fixes a canonical accumulation order that every
 * tier reproduces bit for bit: gemmBatchF32 accumulates into eight
 * strided lanes (lane k mod 8) reduced by a fixed tree
 * (reduceLanes8F32), and the two backward shapes keep the reduction
 * index sequential per output element (vectorizing across independent
 * output elements only). Kernel translation units are compiled with
 * -ffp-contract=off so no tier silently fuses the multiply-add.
 */
struct GemmF32Args
{
    /** A, m rows of stride lda. */
    const float *a = nullptr;
    std::size_t lda = 0;
    /** B, rows of stride ldb (n rows for gemmBatchF32/gemmABF32,
     *  m rows for gemmAtBF32). */
    const float *b = nullptr;
    std::size_t ldb = 0;
    /** C, rows of stride ldc (m rows of n for gemmBatchF32, n rows of
     *  k for gemmAtBF32, m rows of k for gemmABF32). */
    float *c = nullptr;
    std::size_t ldc = 0;
    std::size_t m = 0;
    std::size_t n = 0;
    std::size_t k = 0;
    /** gemmBatchF32 only: optional bias, n entries, added once per
     *  output (out = dot + bias[j], a single rounding). */
    const float *bias = nullptr;
    /** gemmAtBF32 only: optional column-sum accumulator, n entries
     *  (the bias gradient), accumulated in the same i order as c. */
    float *colSums = nullptr;
};

/** One fused Adam step over a parameter segment. The caller owns the
 *  timestep and passes the bias corrections explicitly so a segmented
 *  sweep over many tensors shares one logical step. Arithmetic per
 *  element (IEEE single, no contraction — identical on every tier):
 *    g = grad * gradScale
 *    m = beta1 * m + (1 - beta1) * g
 *    v = beta2 * v + (1 - beta2) * g * g
 *    p -= lr * (m / bc1) / (sqrt(v / bc2) + epsilon)
 */
struct AdamStepArgs
{
    float lr = 1e-3f;
    float beta1 = 0.9f;
    float beta2 = 0.999f;
    float epsilon = 1e-8f;
    /** Bias corrections 1 - beta^t for the current step. */
    float bc1 = 1.0f;
    float bc2 = 1.0f;
    /** Applied to every gradient before the moment updates (minibatch
     *  1/N scaling without a separate pass). */
    float gradScale = 1.0f;
};

/**
 * Constants of the KL op: per element, the KL term of a factorized
 * Gaussian posterior against a zero-mean Gaussian prior,
 *   KL(N(mu, s^2) || N(0, p^2)) = ((ln p - ln s) + (s^2 + mu^2) / (2 p^2))
 *                                 - 1/2
 * in double (s^2 and mu^2 exact, ln by kernels::ln), and its gradient
 * in float (no contraction, identical on every tier):
 *   gmu  += (scale * mu) * (1 / p^2)
 *   grho += (scale * (s * (1 / p^2) - 1 / s)) * ds
 * A NaN term is returned as quiet_NaN(), so a sum holding one is the
 * same NaN on every tier. Build with klArgs().
 */
struct KlArgs
{
    double logPrior = 0.0;
    double twoPriorVar = 2.0;
    float invPriorVar = 1.0f;
    float scale = 0.0f;
};

/** One dispatch tier: a named table of kernel entry points. */
struct KernelOps
{
    const char *name;

    /** Quantize doubles onto a fixed-point grid: round to nearest,
     *  ties away from zero, saturating — bit-identical to
     *  FixedPointFormat::fromReal(value, RoundMode::Nearest). */
    void (*quantizeDouble)(const double *in, std::int32_t *out,
                           std::size_t n, int fracBits,
                           std::int32_t rawMin, std::int32_t rawMax);

    /** Same grid mapping for float inputs (batch activation
     *  quantization; floats go through the identical double path). */
    void (*quantizeFloat)(const float *in, std::int32_t *out,
                          std::size_t n, int fracBits,
                          std::int32_t rawMin, std::int32_t rawMax);

    /** Fused weight draw: out[i] = sat(mu[i] +
     *  ((sigma[i] * eps[i]) >> epsShift)) on the weight grid. */
    void (*sampleWeights)(const std::int32_t *mu,
                          const std::int32_t *sigma,
                          const std::int32_t *eps, std::int32_t *out,
                          std::size_t n, const SampleParams &params);

    /** Narrow int32 -> int16 (caller guarantees the values fit). */
    void (*packInt16)(const std::int32_t *in, std::int16_t *out,
                      std::size_t n);

    /** Batched GEMM + finish stage (see GemmArgs). */
    void (*gemmBatch)(const GemmArgs &args);

    /**
     * Advance `cycles` combined-update RLF iterations on every lane at
     * once and record the post-iteration per-lane popcounts:
     * counts[c * groups * 8 + lane] is lane's popcount after cycle c,
     * in raw (pre-output-mux) lane order. Semantically identical to
     * stepping `groups * 8` RlfLogic lanes (Combined mode,
     * {n-5, n-3, n-2} taps) `cycles` times each — ctest-pinned
     * bit-exact against exactly that. Updates st.planes, st.sums and
     * st.head in place.
     */
    void (*rlfCycleCounts)(RlfState &st, std::size_t cycles,
                           std::int32_t *counts);

    /**
     * One Wallace transform pass over the pool (WallaceGrng's hot
     * loop): walk poolSize/4 quadruples of the stride permutation
     * offset + m * stride (mod poolSize), Hadamard-transform each in
     * place, and optionally stream the transformed values to `out`
     * (4 * (poolSize / 4) entries, quadruple-major). The caller
     * guarantees gcd(stride, poolSize) == 1, so every slot is distinct
     * and vector tiers may process several quadruples concurrently;
     * per-lane arithmetic order matches the scalar reference, so every
     * tier is bit-exact.
     */
    void (*wallacePass)(double *pool, std::size_t poolSize,
                        std::size_t offset, std::size_t stride,
                        double *out);

    /** Batched f32 forward GEMM: c[i][j] = lane-8 dot(aRow i, bRow j)
     *  + bias[j] (see GemmF32Args). */
    void (*gemmBatchF32)(const GemmF32Args &args);

    /** f32 AT.B accumulation (weight grads + bias-grad column sums,
     *  see GemmF32Args). */
    void (*gemmAtBF32)(const GemmF32Args &args);

    /** f32 A.B overwrite (delta backprop, see GemmF32Args). */
    void (*gemmABF32)(const GemmF32Args &args);

    /** Fused Adam update over a contiguous segment: params, grads and
     *  both moment vectors advance element-wise per AdamStepArgs. */
    void (*adamStepF32)(float *params, const float *grads, float *m,
                        float *v, std::size_t n,
                        const AdamStepArgs &args);

    /** The plane op: sigma[i] = softplus(rho[i]) and dsigma[i] =
     *  logistic(rho[i]), bitwise kernels::softplusLogistic, plus
     *  sigmaSq[i] = sigma[i] * sigma[i] when sigmaSq is non-null. */
    void (*sigmaPlanes)(const float *rho, float *sigma, float *dsigma,
                        float *sigmaSq, std::size_t n);

    /** The KL op: adds each element's KL gradient (see KlArgs) to
     *  gmu[i] and grho[i] and returns acc plus the elements' KL terms,
     *  added one at a time in index order — KlSum's sum, so a layer's
     *  weights then biases continue one accumulator. */
    double (*klSumGrad)(const float *mu, const float *sigma,
                        const float *dsigma, float *gmu, float *grho,
                        std::size_t n, const KlArgs &args, double acc);
};

/** The shared finish stage: bias add on the accumulator grid, optional
 *  ReLU, arithmetic-shift requantization, activation-grid saturation.
 *  Inline so every tier compiles the identical arithmetic. */
inline std::int32_t
gemmFinish(std::int64_t acc, std::int64_t bias_raw, const GemmFinish &f)
{
    std::int64_t v = acc + (bias_raw << f.biasShift);
    if (f.relu && v < 0)
        v = 0;
    v >>= f.outShift; // arithmetic shift floors negative values
    if (v > f.outMax)
        return f.outMax;
    if (v < f.outMin)
        return f.outMin;
    return static_cast<std::int32_t>(v);
}

/**
 * The repository's one definition of softplus, logistic and ln — the
 * scalar reference the plane and KL ops of every tier match bit for
 * bit. Each is evaluated in double with a fixed operation sequence (a
 * range-reduced exp polynomial, an atanh-series log) and rounded to
 * float once; no libm call, so no result depends on the host's libm.
 *
 *   softplus(x) = ln(1 + e^x): x for x > 20, e^x for x < -20;
 *                 softplus(+inf) = +inf, softplus(-inf) = 0
 *   logistic(x) = 1 / (1 + e^-x) = d softplus / dx
 *   ln(x)       = natural log of a float, in double; ln(0) = -inf,
 *                 ln(+inf) = +inf, NaN for x < 0
 *
 * NaN maps to NaN. softplusLogistic computes both of the first two
 * from one exp, bitwise equal to the single functions.
 */
float softplus(float x);
float logistic(float x);
void softplusLogistic(float x, float &sp, float &lg);
double ln(float x);

/** KlArgs for prior standard deviation `prior_sigma` (fatal unless
 *  positive) and a finite gradient scale `scale`. */
KlArgs klArgs(float prior_sigma, float scale);

/** One element's KL term (see KlArgs), in double. */
double klTerm(float mu, float sigma, const KlArgs &args);

/** One element's KL gradient (see KlArgs), added to gmu and grho. */
void klGrad(float mu, float sigma, float dsigma, float &gmu, float &grho,
            const KlArgs &args);

/** The portable reference tier (always available). */
const KernelOps &scalarKernels();

/** The tier activeKernels() selected for this process (sticky: the
 *  first call reads VIBNN_KERNELS and probes the CPU once). */
const KernelOps &activeKernels();

/** Name of the active tier ("scalar", "sse4", "avx2"). */
const char *activeKernelName();

/** Every tier compiled into this binary AND supported by the running
 *  CPU, widest last — what the bit-exactness tests iterate. */
std::vector<const KernelOps *> availableKernels();

/** Look up an available tier by name; nullptr when that tier is not
 *  compiled in or the CPU lacks it. */
const KernelOps *kernelsByName(const std::string &name);

} // namespace vibnn::accel::kernels

#endif // VIBNN_ACCEL_KERNELS_KERNELS_HH
