/**
 * @file
 * Training-path benchmark: samples/s and converged accuracy of the
 * per-sample reference BNN trainer against the batched SIMD trainer
 * (bnn/bnn_trainer.hh) across every kernel tier compiled into this
 * binary, on the paper's 784-200-200-10 MLP over synthetic MNIST —
 * plus the quantization-aware fine-tuning section: accelerator
 * accuracy of the compiled program after post-hoc quantization vs
 * after QAT through the same eq-(15) grids. VIBNN_BENCH_JSON=<path>
 * records the rows machine-readably (sections "training" and "qat").
 */

#include <string>
#include <vector>

#include "bench_util.hh"
#include "accel/config.hh"
#include "accel/kernels/kernels.hh"
#include "accel/mc_engine.hh"
#include "accel/program.hh"
#include "bnn/bayesian_mlp.hh"
#include "bnn/bnn_trainer.hh"
#include "common/env.hh"
#include "common/rng.hh"
#include "common/table.hh"
#include "common/thread_pool.hh"
#include "data/synth_mnist.hh"

using namespace vibnn;
namespace k = vibnn::accel::kernels;

namespace
{

bnn::BayesianMlp
freshNet(std::uint64_t seed)
{
    Rng rng(seed);
    return bnn::BayesianMlp({data::kMnistPixels, 200, 200, 10}, rng,
                            /*rho_init=*/-4.0f);
}

double
accelAccuracy(const bnn::BayesianMlp &net,
              const accel::AcceleratorConfig &config,
              const nn::DataView &test)
{
    const auto program = accel::compile(net, config);
    accel::McEngineConfig mc;
    mc.seedBase = 911;
    mc.backendId = "batched";
    mc.schedule = accel::McSchedule::PerRound;
    accel::McEngine engine(program, config, mc);
    const auto result = engine.classifyBatchDetailed(
        test.features, test.count, test.dim, false);
    const auto &preds = result.predicted;
    std::size_t correct = 0;
    for (std::size_t i = 0; i < test.count; ++i)
        correct +=
            preds[i] == static_cast<std::size_t>(test.labels[i]);
    return static_cast<double>(correct) /
        static_cast<double>(test.count);
}

} // namespace

int
main()
{
    bench::banner("training path",
                  "Batched SIMD minibatch ELBO trainer vs the "
                  "per-sample reference, plus QAT vs post-hoc "
                  "quantization on the compiled program");
    std::printf("dispatch-selected tier: %s\n\n", k::activeKernelName());

    data::SynthMnistConfig synth;
    synth.trainCount = scaledCount(600);
    synth.testCount = scaledCount(400);
    synth.seed = envSeed() + 5;
    const auto ds = data::makeSynthMnist(synth);
    const auto train = ds.train.view();
    const auto test = ds.test.view();
    const std::size_t epochs = std::max<std::size_t>(1, scaledCount(5));
    const std::size_t batch = 32;
    const std::uint64_t net_seed = envSeed() + 17;
    const std::uint64_t train_seed = envSeed() + 23;
    const std::uint64_t eval_seed = envSeed() + 31;

    std::printf("MLP 784-200-200-10, %zu train / %zu test images, "
                "%zu epochs, batch %zu\n\n",
                train.count, test.count, epochs, batch);

    bench::JsonReport report;
    TextTable table;
    table.setHeader({"style", "kernel", "estimator", "samples/s",
                     "train s", "accuracy"});

    const std::size_t trained = train.count * epochs;
    auto emit = [&](const char *style, const char *kernel,
                    const char *estimator, double seconds, double acc) {
        const double rate = static_cast<double>(trained) / seconds;
        table.addRow({style, kernel, estimator,
                      strfmt("%.0f", rate), strfmt("%.2f", seconds),
                      strfmt("%.3f", acc)});
        report.add(bench::JsonRecord()
                       .field("bench", "bench_training")
                       .field("section", "training")
                       .field("style", style)
                       .field("kernel", kernel)
                       .field("estimator", estimator)
                       .field("batch", style == std::string("per-sample")
                                  ? std::size_t(1)
                                  : batch)
                       .field("epochs", epochs)
                       .field("samples_per_s", rate)
                       .field("train_s", seconds)
                       .field("accuracy", acc));
        return rate;
    };

    // Reference: the historical per-sample trainer (host scalar math).
    double per_sample_rate = 0.0, per_sample_acc = 0.0;
    {
        auto net = freshNet(net_seed);
        bnn::BnnTrainConfig cfg;
        cfg.epochs = epochs;
        cfg.batchSize = batch;
        cfg.seed = train_seed;
        bench::Stopwatch clock;
        trainBnn(net, train, cfg);
        const double seconds = clock.seconds();
        per_sample_acc =
            evaluateBnnAccuracy(net, test, /*mc_samples=*/8, eval_seed);
        per_sample_rate = emit("per-sample", "host", "lrt", seconds,
                               per_sample_acc);
    }

    // Batched engine, every tier on this CPU (all tiers ctest-pinned
    // bit-identical: the rows differ only in speed), LRT estimator.
    double batched_rate = 0.0, batched_acc = 0.0;
    for (const k::KernelOps *tier : k::availableKernels()) {
        auto net = freshNet(net_seed);
        bnn::BnnBatchedTrainConfig cfg;
        cfg.epochs = epochs;
        cfg.batchSize = batch;
        cfg.seed = train_seed;
        cfg.kernels = tier;
        bench::Stopwatch clock;
        trainBnnBatched(net, train, cfg);
        const double seconds = clock.seconds();
        const double acc =
            evaluateBnnAccuracy(net, test, 8, eval_seed);
        const double rate =
            emit("batched", tier->name, "lrt", seconds, acc);
        if (std::string(tier->name) == k::activeKernelName()) {
            batched_rate = rate;
            batched_acc = acc;
        }
    }

    // The direct per-weight estimator (the accelerator's sampling
    // semantics) on the active tier.
    {
        auto net = freshNet(net_seed);
        bnn::BnnBatchedTrainConfig cfg;
        cfg.epochs = epochs;
        cfg.batchSize = batch;
        cfg.seed = train_seed;
        cfg.estimator = bnn::BnnEstimator::DirectWeightSample;
        bench::Stopwatch clock;
        trainBnnBatched(net, train, cfg);
        const double seconds = clock.seconds();
        emit("batched", k::activeKernelName(), "direct", seconds,
             evaluateBnnAccuracy(net, test, 8, eval_seed));
    }

    // GEMM sharding over the worker pool on top of the active tier.
    {
        auto net = freshNet(net_seed);
        bnn::BnnBatchedTrainConfig cfg;
        cfg.epochs = epochs;
        cfg.batchSize = batch;
        cfg.seed = train_seed;
        cfg.pool = &ThreadPool::global();
        bench::Stopwatch clock;
        trainBnnBatched(net, train, cfg);
        const double seconds = clock.seconds();
        emit("batched-pool", k::activeKernelName(), "lrt", seconds,
             evaluateBnnAccuracy(net, test, 8, eval_seed));
    }

    table.print();
    if (per_sample_rate > 0.0 && batched_rate > 0.0) {
        std::printf("\nbatched (%s) vs per-sample: %.1fx samples/s, "
                    "accuracy %+.2f pp\n",
                    k::activeKernelName(),
                    batched_rate / per_sample_rate,
                    (batched_acc - per_sample_acc) * 100.0);
    }

    // ------------------------------------------------ QAT section
    // Fine-tune a float-trained net through the eq-(15) grids of an
    // aggressive 5-bit deployment — where post-hoc quantization loses
    // real accuracy — and compare compiled-program accuracy against
    // quantizing the same float net post hoc.
    accel::AcceleratorConfig config;
    config.peSets = 2;
    config.pesPerSet = 4;
    config.bits = 5;
    config.mcSamples = 16;

    auto net = freshNet(net_seed);
    {
        bnn::BnnBatchedTrainConfig cfg;
        cfg.epochs = epochs;
        cfg.batchSize = batch;
        cfg.seed = train_seed;
        trainBnnBatched(net, train, cfg);
    }
    auto tuned = net;
    {
        bnn::BnnBatchedTrainConfig cfg;
        cfg.epochs = std::max<std::size_t>(1, scaledCount(4));
        cfg.batchSize = batch;
        cfg.learningRate = 5e-4f;
        cfg.seed = train_seed + 1;
        cfg.qatActivation = config.activationFormat();
        cfg.qatWeight = config.weightFormat();
        cfg.qatEps = config.epsFormat();
        qatFineTune(tuned, train, cfg);
    }
    const double float_acc = evaluateBnnAccuracy(net, test, 8, eval_seed);
    const double posthoc = accelAccuracy(net, config, test);
    const double qat = accelAccuracy(tuned, config, test);

    std::printf("\nQAT at %d-bit deployment (float net %.3f):\n",
                config.bits, float_acc);
    TextTable qt;
    qt.setHeader({"style", "bits", "accelerator accuracy"});
    qt.addRow({"posthoc", strfmt("%d", config.bits),
               strfmt("%.3f", posthoc)});
    qt.addRow({"qat", strfmt("%d", config.bits), strfmt("%.3f", qat)});
    qt.print();
    std::printf("QAT delta: %+.2f pp\n", (qat - posthoc) * 100.0);
    report.add(bench::JsonRecord()
                   .field("bench", "bench_training")
                   .field("section", "qat")
                   .field("style", "posthoc")
                   .field("bits", config.bits)
                   .field("accuracy", posthoc)
                   .field("accuracy_float", float_acc));
    report.add(bench::JsonRecord()
                   .field("bench", "bench_training")
                   .field("section", "qat")
                   .field("style", "qat")
                   .field("bits", config.bits)
                   .field("accuracy", qat)
                   .field("accuracy_float", float_acc));

    report.write();
    return 0;
}
