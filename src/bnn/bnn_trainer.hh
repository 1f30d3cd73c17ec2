/**
 * @file
 * Bayes-by-Backprop training (paper reference [9]) and MC-ensemble
 * evaluation. The minimized objective is the negative ELBO:
 *     E_q[-log p(D|w)] + KL(q || prior) / (dataset size)
 * with the KL term distributed evenly over minibatches, the weighting
 * used by Blundell et al.
 *
 * Two training paths share that objective:
 *
 *  - trainBnn: the historical per-sample loop (scalar forward/backward
 *    per image). Kept as the semantic reference; its optimizer now
 *    steps layer storage in place through the segmented Adam protocol
 *    instead of gather/scatter copies, with an unchanged trajectory.
 *
 *  - trainBnnBatched: the minibatch engine. Forward and backward run
 *    as whole-minibatch f32 GEMM on the SIMD kernel layer
 *    (gemmBatchF32 / gemmAtBF32 / gemmABF32), eps comes as one block
 *    per minibatch from the counter-based Philox stream (drawn
 *    serially up front, then consumed by GEMMs sharded over disjoint
 *    rows — so results are bit-identical for any ThreadPool
 *    partition), the KL term is a single fused pass per layer, and the
 *    Adam step walks the layers' own storage. The same engine hosts
 *    quantization-aware fine-tuning: forward through the eq-(15)
 *    fixed-point grids (raw-domain weight draws via the integer
 *    sampleWeights kernel, floor-quantized activations) with
 *    straight-through gradients, so a net can be tuned for exactly
 *    the arithmetic the compiled QuantizedProgram will execute.
 */

#ifndef VIBNN_BNN_BNN_TRAINER_HH
#define VIBNN_BNN_BNN_TRAINER_HH

#include <functional>
#include <memory>

#include "accel/kernels/kernels.hh"
#include "bnn/bayesian_mlp.hh"
#include "common/thread_pool.hh"
#include "fixed/fixed_point.hh"
#include "grng/philox.hh"
#include "nn/optimizer.hh"
#include "nn/trainer.hh"

namespace vibnn::bnn
{

/** BNN training hyper-parameters. */
struct BnnTrainConfig
{
    std::size_t epochs = 10;
    std::size_t batchSize = 32;
    float learningRate = 1e-3f;
    /** Standard deviation of the zero-mean Gaussian prior. */
    float priorSigma = 0.3f;
    /**
     * Multiplier on the KL term (1 = the exact ELBO). Values < 1
     * temper the prior — standard practice when the dataset is tiny
     * and the exact posterior would stay at the prior.
     */
    float klWeight = 1.0f;
    /** Use the local reparameterization estimator (fast path); the
     *  direct per-weight estimator matches the hardware's sampling
     *  semantics and is used by the equivalence tests. */
    bool useLocalReparameterization = true;
    /** MC samples per prediction during evaluation. */
    std::size_t evalSamples = 8;
    std::uint64_t seed = 1;
    const nn::DataView *evalSet = nullptr;
    std::function<void(std::size_t, double, double)> onEpoch;
};

/**
 * MC-ensemble classification accuracy, parallelized over images on
 * `pool` (nullptr = the process-wide pool). Every image draws from its
 * own splitmix64-derived Rng stream keyed on (seed, image index), so
 * the result is deterministic and independent of the thread count or
 * partition.
 */
double evaluateBnnAccuracy(const BayesianMlp &net, const nn::DataView &data,
                           std::size_t mc_samples, std::uint64_t seed,
                           ThreadPool *pool = nullptr);

/** Train a BNN; returns per-epoch history (loss includes the scaled
 *  KL term; evalAccuracy uses MC-ensemble prediction). */
nn::TrainHistory trainBnn(BayesianMlp &net, const nn::DataView &train,
                          const BnnTrainConfig &config);

/** Gradient estimator of the batched trainer. */
enum class BnnEstimator
{
    /** Per-activation noise (one eps per pre-activation): mean/var
     *  GEMMs over (mu, sigma^2) — the fast host-training path. */
    LocalReparam,
    /** Per-weight noise shared across the minibatch (one sampled
     *  weight tensor per step) — the estimator whose forward is
     *  exactly the accelerator's sampling semantics, and the one QAT
     *  uses. */
    DirectWeightSample,
};

/** Hyper-parameters of the batched (and QAT) training path. */
struct BnnBatchedTrainConfig
{
    std::size_t epochs = 10;
    std::size_t batchSize = 32;
    float learningRate = 1e-3f;
    float priorSigma = 0.3f;
    float klWeight = 1.0f;
    BnnEstimator estimator = BnnEstimator::LocalReparam;
    std::size_t evalSamples = 8;
    std::uint64_t seed = 1;
    const nn::DataView *evalSet = nullptr;
    std::function<void(std::size_t, double, double)> onEpoch;

    /**
     * Draw eps from the epoch loop's host Rng (the same xoshiro stream
     * trainBnn uses) instead of the Philox block stream.
     * At batchSize = 1 with the LRT estimator this makes the batched
     * trainer consume exactly the per-sample trainer's draws — the
     * trajectory-parity pin. Production runs leave this off.
     */
    bool hostRngEps = false;

    /** Worker pool for sharding the GEMMs over minibatch/output rows;
     *  nullptr = serial. Any pool yields bit-identical results. */
    ThreadPool *pool = nullptr;

    /** Kernel tier override (benches sweep tiers in-process);
     *  nullptr = activeKernels(). */
    const accel::kernels::KernelOps *kernels = nullptr;

    /**
     * Quantization-aware fine-tuning: run forward through the eq-(15)
     * fixed-point grids — mu/sigma/eps quantized to raw integers, the
     * weight draw computed in the raw domain exactly like
     * DatapathKernel::sampleWeight, activations floor-quantized onto
     * the activation grid like finishNeuron — with straight-through
     * gradients onto the underlying (mu, rho). Forces the
     * DirectWeightSample estimator (the LRT moments have no raw-domain
     * counterpart on the datapath).
     */
    bool quantizeAware = false;
    /** The eq-(15) grids; callers deploying to an AcceleratorConfig
     *  pass its activationFormat()/weightFormat()/epsFormat(). */
    fixed::FixedPointFormat qatActivation{8, 4};
    fixed::FixedPointFormat qatWeight{8, 6};
    fixed::FixedPointFormat qatEps{8, 5};
};

/**
 * The minibatch forward/backward engine behind trainBnnBatched,
 * exposed so tests can drive single steps (finite-difference gradient
 * checks) and benches can reuse one instance across configurations.
 * Typical cycle per minibatch:
 *     engine.zeroGrads();
 *     loss = engine.forwardBackward(data, indices, batch, hostRng);
 *     kl = engine.applyKlAndStep(batch, data.count);
 * applyKlAndStep leaves the net's parameters updated in place and
 * refreshes the derived per-step planes for the next minibatch.
 */
class BnnBatchTrainer
{
  public:
    BnnBatchTrainer(BayesianMlp &net, const BnnBatchedTrainConfig &config);
    ~BnnBatchTrainer();

    /** Recompute the derived parameter planes (sigma, dsigma/drho,
     *  sigma^2, QAT raw tensors) from the net's current (mu, rho).
     *  forwardBackward, forwardLoss and the KL pass read these planes
     *  and never evaluate softplus/logistic of rho themselves. Called
     *  by the constructor and after applyKlAndStep's step; call
     *  manually after external param edits. */
    void refreshParams();

    void zeroGrads();

    /** Forward + backward over one minibatch (rows `indices[0..batch)`
     *  of `data`); accumulates parameter gradients, returns the summed
     *  data loss. Fresh eps from `host_rng` when given, else from the
     *  Philox block stream. */
    double forwardBackward(const nn::DataView &data,
                           const std::size_t *indices, std::size_t batch,
                           Rng *host_rng = nullptr);

    /** Forward only, REUSING the eps of the last forwardBackward —
     *  the loss surface finite-difference checks probe. */
    double forwardLoss(const nn::DataView &data,
                       const std::size_t *indices, std::size_t batch);

    /** Add the KL term (value returned, gradients scaled by
     *  klWeight * batch / datasetSize) through the kernel layer's KL
     *  op over the sigma and dsigma/drho planes — bitwise the net's
     *  klDivergence — then step every layer's storage in place
     *  (gradScale 1/batch) and refresh the derived planes. */
    double applyKlAndStep(std::size_t batch, std::size_t dataset_size);

    /** Accumulated gradients (pre-KL until applyKlAndStep). */
    const std::vector<VariationalGradients> &gradients() const;

    nn::AdamOptimizer &optimizer();

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/** Train on the batched engine; returns the same history shape as
 *  trainBnn. */
nn::TrainHistory trainBnnBatched(BayesianMlp &net,
                                 const nn::DataView &train,
                                 const BnnBatchedTrainConfig &config);

/** Post-training quantization-aware fine-tuning: trainBnnBatched with
 *  quantizeAware forced on (and therefore the direct estimator), so
 *  the net's (mu, rho) adapt to the eq-(15) grids they will be
 *  compiled onto. */
nn::TrainHistory qatFineTune(BayesianMlp &net, const nn::DataView &train,
                             BnnBatchedTrainConfig config);

} // namespace vibnn::bnn

#endif // VIBNN_BNN_BNN_TRAINER_HH
