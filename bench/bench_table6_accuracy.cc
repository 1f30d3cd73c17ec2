/**
 * @file
 * Reproduces Table 6: accuracy on the MNIST task for FNN+Dropout
 * (software), BNN (software) and VIBNN (8-bit hardware path).
 *
 * Substitution: procedural synthetic MNIST (docs/ARCHITECTURE.md,
 * "Substitutions") with the paper's 784-200-200-10 topology. Default
 * scale trains on 4000 images and tests on 1000; VIBNN_SCALE=4
 * roughly matches a full-size run.
 */

#include "bench_util.hh"
#include "core/vibnn.hh"
#include "data/synth_mnist.hh"
#include "nn/trainer.hh"
#include "serve/session.hh"

using namespace vibnn;

int
main()
{
    bench::banner("Table 6",
                  "MNIST accuracy: FNN+Dropout vs BNN vs VIBNN "
                  "(784-200-200-10)");

    data::SynthMnistConfig mnist_config;
    mnist_config.trainCount = scaledCount(1600);
    mnist_config.testCount = scaledCount(600);
    mnist_config.seed = envSeed();
    const auto ds = data::makeSynthMnist(mnist_config);
    std::printf("dataset: %zu train / %zu test synthetic MNIST images\n",
                ds.train.count(), ds.test.count());

    const std::size_t epochs = scaledCount(5);
    bench::Stopwatch clock;

    // --- FNN + dropout --------------------------------------------------
    Rng fnn_rng(envSeed() + 1);
    nn::Mlp fnn({784, 200, 200, 10}, fnn_rng, 0.2f);
    nn::TrainConfig fnn_config;
    fnn_config.epochs = epochs;
    fnn_config.batchSize = 32;
    fnn_config.learningRate = 1e-3f;
    fnn_config.seed = envSeed() + 2;
    trainMlp(fnn, ds.train.view(), fnn_config);
    const double fnn_acc = evaluateAccuracy(fnn, ds.test.view());
    std::printf("[%6.1fs] FNN trained, accuracy %.4f\n", clock.seconds(),
                fnn_acc);

    // --- BNN (Bayes-by-Backprop) ----------------------------------------
    bnn::BnnTrainConfig bnn_config;
    bnn_config.epochs = epochs;
    bnn_config.batchSize = 32;
    bnn_config.learningRate = 1e-3f;
    bnn_config.priorSigma = 0.3f;
    bnn_config.seed = envSeed() + 3;
    accel::AcceleratorConfig accel_config; // 16x8x8 @ 8-bit
    accel_config.mcSamples = 8; // match the software MC ensemble
    const auto sys = core::VibnnSystem::train(ds, {200, 200}, bnn_config,
                                              accel_config, "rlf");
    const double bnn_acc =
        sys.softwareAccuracy(ds.test.view(), 8, envSeed() + 4);
    std::printf("[%6.1fs] BNN trained, software accuracy %.4f\n",
                clock.seconds(), bnn_acc);

    // --- VIBNN hardware path, served through an InferenceSession ---------
    // VIBNN_SERVE_* knobs select mode/backend/T without recompiling
    // (e.g. VIBNN_SERVE_MODE=throughput for the weight-reuse path).
    const auto serve_opts = serve::SessionOptions::fromEnv();
    auto session = sys.makeSession(serve_opts);
    const auto response = session->run(
        serve::InferenceRequest::borrow(ds.test.view()));
    const double hw_acc = response.accuracy(ds.test.view().labels);
    double mean_entropy = 0.0, mean_mi = 0.0;
    for (const auto &p : response.predictions) {
        mean_entropy += p.entropy;
        mean_mi += p.mutualInformation;
    }
    mean_entropy /= static_cast<double>(response.predictions.size());
    mean_mi /= static_cast<double>(response.predictions.size());
    std::printf("[%6.1fs] VIBNN hardware path served (%s backend, "
                "%s mode, T=%d)\n",
                clock.seconds(), session->backendId().c_str(),
                execModeName(session->options().mode),
                response.mcSamples);

    TextTable table;
    table.setHeader({"Model", "Testing Accuracy", "Paper"});
    table.addRow({"FNN+Dropout (Software)", strfmt("%.2f%%",
                                                   100 * fnn_acc),
                  "97.50%"});
    table.addRow({"BNN (Software)", strfmt("%.2f%%", 100 * bnn_acc),
                  "98.10%"});
    table.addRow({"VIBNN (Hardware, 8-bit)", strfmt("%.2f%%",
                                                    100 * hw_acc),
                  "97.81%"});
    table.print();

    std::printf("\nhardware-vs-software degradation: %.2f%% "
                "(paper: 0.29%%)\n",
                100.0 * (bnn_acc - hw_acc));
    std::printf("served uncertainty: mean predictive entropy %.3f "
                "nats, mean mutual information %.3f nats\n",
                mean_entropy, mean_mi);
    return 0;
}
