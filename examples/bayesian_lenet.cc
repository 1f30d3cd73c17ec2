/**
 * @file
 * Bayesian convolutional network on synthetic MNIST, deployed to the
 * modeled accelerator — the CNN instantiation the paper's Section 1
 * claims VIBNN's principles extend to ("the design principles of VIBNN
 * are orthogonal to the optimization techniques on convolutional
 * layers ... and can be applied to CNNs as well").
 *
 * The example:
 *   1. trains a small LeNet-style Bayesian CNN with Bayes-by-Backprop,
 *   2. compares it against the point-estimate CNN on the same split,
 *   3. shows the Monte-Carlo ensemble at work: predictive entropy
 *      separates clean digits from corrupted ones,
 *   4. saves the trained model and reloads it bit-exactly (the
 *      train-once / deploy-anywhere flow of Section 2.2),
 *   5. compiles the CNN into a QuantizedProgram and runs it on the
 *      accelerator: per-op cycle breakdown from the cycle-level
 *      simulator, bit-exactness against the fast functional path, and
 *      MC-ensemble accuracy on the hardware grids vs. the float
 *      software estimator.
 *
 * Run:  ./build/examples/bayesian_lenet
 * Knobs: VIBNN_SCALE (dataset size multiplier), VIBNN_SEED.
 * Exits 1 when the reload or the simulator-vs-functional check fails.
 */

#include <cstdio>

#include "accel/design_space.hh"
#include "bnn/bayesian_cnn.hh"
#include "common/env.hh"
#include "core/model_io.hh"
#include "core/vibnn.hh"
#include "data/synth_mnist.hh"
#include "nn/cnn.hh"
#include "serve/session.hh"

using namespace vibnn;

int
main()
{
    const double scale = envScale();
    const std::uint64_t seed = envSeed();

    // 1. A small synthetic-MNIST split (CNNs need fewer samples than
    // the 784-200-200-10 MLP benches, so default scale stays quick).
    data::SynthMnistConfig mnist;
    mnist.trainCount = static_cast<std::size_t>(600 * scale);
    mnist.testCount = static_cast<std::size_t>(300 * scale);
    mnist.seed = seed;
    const auto dataset = data::makeSynthMnist(mnist);
    std::printf("synthetic MNIST: %zu train / %zu test\n",
                dataset.train.count(), dataset.test.count());

    // 2. Shared LeNet-ish topology: conv5x5(8)-pool2 ->
    //    conv5x5(16)-pool2 -> dense 64 -> 10.
    const auto topology = nn::ConvNetConfig::lenetLike(10);

    // Point-estimate CNN baseline.
    {
        Rng init(seed + 1);
        nn::ConvNet fnn(topology, init);
        nn::TrainConfig cfg;
        cfg.epochs = 6;
        cfg.batchSize = 32;
        cfg.learningRate = 2e-3f;
        cfg.seed = seed + 2;
        trainConvNet(fnn, dataset.train.view(), cfg);
        std::printf("point-estimate CNN test accuracy:  %.2f%%\n",
                    100 * evaluateAccuracy(fnn, dataset.test.view()));
    }

    // Bayesian CNN, trained with Bayes-by-Backprop (LRT estimator).
    Rng init(seed + 3);
    bnn::BayesianConvNet bcnn(topology, init, /*rho_init=*/-5.0f);
    bnn::BnnTrainConfig cfg;
    cfg.epochs = 6;
    cfg.batchSize = 32;
    cfg.learningRate = 2e-3f;
    cfg.priorSigma = 0.3f;
    cfg.klWeight = 0.3f;
    cfg.evalSamples = 8;
    cfg.seed = seed + 4;
    trainBcnn(bcnn, dataset.train.view(), cfg);
    const double acc =
        evaluateBcnnAccuracy(bcnn, dataset.test.view(), 8, seed + 5);
    std::printf("Bayesian CNN test accuracy (MC-8):  %.2f%%\n",
                100 * acc);

    // 3. Uncertainty: clean digits vs. digits drowned in noise. The MC
    // ensemble's predictive entropy (paper equation (6) machinery)
    // flags the corrupted inputs a point estimate would silently
    // misclassify.
    auto ws = bcnn.makeWorkspace();
    Rng eval_rng(seed + 6);
    double clean_entropy = 0.0, noisy_entropy = 0.0;
    const std::size_t probes = 20;
    Rng noise_rng(seed + 7);
    std::vector<float> corrupted(bcnn.inputDim());
    for (std::size_t i = 0; i < probes; ++i) {
        const float *x = dataset.test.sample(i);
        clean_entropy +=
            bcnn.predictiveEntropy(x, 24, ws, eval_rng);
        for (std::size_t p = 0; p < corrupted.size(); ++p) {
            corrupted[p] = 0.5f * x[p] +
                static_cast<float>(noise_rng.uniform(0, 0.9));
        }
        noisy_entropy +=
            bcnn.predictiveEntropy(corrupted.data(), 24, ws, eval_rng);
    }
    std::printf("mean predictive entropy: clean %.3f nats, "
                "corrupted %.3f nats\n",
                clean_entropy / probes, noisy_entropy / probes);

    // 4. Deployment hand-off: save, reload, verify.
    int failures = 0;
    const char *path = "/tmp/vibnn_bayesian_lenet.bin";
    if (core::saveBayesianConvNet(bcnn, path)) {
        auto reloaded = core::loadBayesianConvNet(path);
        if (reloaded) {
            const double racc = evaluateBcnnAccuracy(
                *reloaded, dataset.test.view(), 8, seed + 5);
            failures += racc != acc;
            std::printf("reloaded from %s: accuracy %.2f%% "
                        "(%s)\n",
                        path, 100 * racc,
                        racc == acc ? "bit-exact" : "MISMATCH");
        } else {
            ++failures;
            std::printf("reload from %s FAILED\n", path);
        }
    }

    // 5. Compile to the accelerator and run the whole CNN on the
    // modeled hardware. Geometry: the write-drain condition (equation
    // 14a) bounds T by the smallest bank input — conv1's 25-value
    // patch gives ceil(25/8) = 4 chunks, so T = 4 PE sets of S = N = 8.
    accel::AcceleratorConfig accel_cfg;
    accel_cfg.peSets = 4;
    accel_cfg.pesPerSet = 8;
    accel_cfg.bits = 8;
    accel_cfg.mcSamples = 8;
    const core::VibnnSystem sys(bcnn, accel_cfg, "rlf", seed + 8);

    std::printf("\ncompiled program (%zu ops) on %dx%dx%d @ %d-bit:\n",
                sys.program().ops.size(), accel_cfg.peSets,
                accel_cfg.pesPerSet, accel_cfg.peInputs(),
                accel_cfg.bits);
    const auto stats = sys.simulateTiming(dataset.test.view(), 1);
    for (std::size_t o = 0; o < sys.program().ops.size(); ++o) {
        const auto &op = sys.program().ops[o];
        std::printf("  %-24s %6zu -> %6zu  %8llu cycles\n",
                    op.label.c_str(), op.inSize, op.outSize,
                    static_cast<unsigned long long>(stats.opCycles[o]));
    }
    std::printf("  total %llu cycles/pass (analytic model: %llu)\n",
                static_cast<unsigned long long>(stats.totalCycles),
                static_cast<unsigned long long>(
                    predictProgramCycles(sys.program(), accel_cfg)));

    // Bit-exactness of the two executors on this program.
    {
        auto sim = sys.makeExecutor("simulator");
        auto fun = sys.makeExecutor("functional");
        bool exact = true;
        for (int i = 0; i < 3; ++i) {
            exact = exact &&
                sim->runPass(dataset.test.sample(i)) ==
                    fun->runPass(dataset.test.sample(i));
        }
        failures += !exact;
        std::printf("  simulator vs functional path: %s\n",
                    exact ? "bit-exact" : "MISMATCH");
    }

    // MC-ensemble accuracy on the 8-bit hardware path, served through
    // the InferenceSession request/response surface, vs. the float
    // software estimator above.
    nn::DataView hw_view = dataset.test.view();
    hw_view.count = std::min<std::size_t>(
        hw_view.count, static_cast<std::size_t>(60 * scale));
    const double sw_acc = evaluateBcnnAccuracy(bcnn, hw_view, 8,
                                               seed + 5);
    const auto serve_mode = [&](serve::ExecMode mode, double &acc) {
        serve::SessionOptions opts;
        opts.mode = mode;
        auto session = sys.makeSession(opts);
        const auto result =
            session->run(serve::InferenceRequest::borrow(hw_view));
        acc = result.accuracy(hw_view.labels);
        return result.micros / 1e6;
    };
    double fid_acc = 0.0, thr_acc = 0.0;
    const double fid_seconds = serve_mode(serve::ExecMode::Fidelity,
                                          fid_acc);
    std::printf("  accuracy on %zu images: software (float, direct) "
                "%.2f%%, accelerator (8-bit MC-8) %.2f%%\n",
                hw_view.count, 100 * sw_acc, 100 * fid_acc);

    // The same batch through the weight-reuse throughput mode: one
    // filter/weight sample per compute op per MC round, shared across
    // all images — T rounds instead of T x B passes.
    const double thr_seconds = serve_mode(serve::ExecMode::Throughput,
                                          thr_acc);
    std::printf("  throughput mode (weight reuse, MC-8 rounds): "
                "%.2f%% accuracy, %.1fx faster than fidelity mode\n",
                100 * thr_acc, fid_seconds / thr_seconds);
    return failures == 0 ? 0 : 1;
}
