/**
 * @file
 * Quickstart: the canonical VIBNN flow in ~60 lines of user code.
 *
 *   1. Build (or load) a dataset.
 *   2. Train a Bayesian neural network with Bayes-by-Backprop.
 *   3. Wrap it in a VibnnSystem: this quantizes the variational
 *      parameters onto the accelerator's 8-bit grids.
 *   4. Serve inference through an InferenceSession — the request /
 *      response surface with per-image uncertainty — next to the float
 *      software ensemble and the cycle-level simulator, and query the
 *      FPGA resource/performance estimates.
 *
 * Run:  ./build/examples/quickstart
 */

#include <algorithm>
#include <cstdio>

#include "core/vibnn.hh"
#include "data/tabular.hh"
#include "serve/session.hh"

using namespace vibnn;

int
main()
{
    // 1. A small synthetic diagnosis dataset (19 features, 2 classes).
    auto spec = data::retinopathySpec(/*seed=*/7);
    spec.trainCount = 400;
    spec.testCount = 200;
    const auto dataset = data::makeTabular(spec);
    std::printf("dataset: %s — %zu train / %zu test, %zu features\n",
                dataset.name.c_str(), dataset.train.count(),
                dataset.test.count(), dataset.train.dim);

    // 2 + 3. Train a 19-32-32-2 BNN and lower it onto a small
    // accelerator (2 PE-sets of 8 PEs, 8-bit operands, RLF-GRNG).
    bnn::BnnTrainConfig train_config;
    train_config.epochs = 30;
    train_config.learningRate = 2e-3f;
    train_config.seed = 1;

    accel::AcceleratorConfig accel_config;
    accel_config.peSets = 2;
    accel_config.pesPerSet = 8;
    accel_config.bits = 8;
    accel_config.mcSamples = 8;

    const auto system = core::VibnnSystem::train(
        dataset, {32, 32}, train_config, accel_config, "rlf");

    // 4a. Software (float) Monte-Carlo ensemble accuracy.
    const double sw =
        system.softwareAccuracy(dataset.test.view(), 8, /*seed=*/99);

    // 4b. Hardware path, served through an InferenceSession: one
    // request for the whole test batch, one response carrying the
    // prediction AND the uncertainty decomposition per image.
    auto session = system.makeSession();
    const auto response = session->run(
        serve::InferenceRequest::borrow(dataset.test.view()));
    const double hw = response.accuracy(dataset.test.view().labels);
    std::size_t uncertain = 0;
    double worst_entropy = 0.0;
    for (const auto &p : response.predictions) {
        if (p.confidence < 0.6f)
            ++uncertain;
        worst_entropy = std::max(worst_entropy, p.entropy);
    }
    std::printf("accuracy: software %.2f%%, 8-bit hardware %.2f%%\n",
                100 * sw, 100 * hw);
    std::printf("serving: %zu images in %.1f ms (T=%d MC samples); "
                "%zu flagged uncertain (confidence < 0.60), "
                "max predictive entropy %.3f nats\n",
                response.predictions.size(), response.micros / 1000.0,
                response.mcSamples, uncertain, worst_entropy);

    // 4c. Cycle-level timing of one inference pass.
    auto simulator = system.makeExecutor("simulator");
    simulator->runPass(dataset.test.sample(0));
    std::printf("cycle-level simulator: %llu cycles per pass, "
                "PE utilization %.1f%%\n",
                static_cast<unsigned long long>(
                    simulator->stats().totalCycles),
                100 * simulator->stats().utilization(
                          accel_config.totalPes(),
                          accel_config.peInputs()));

    // 4d. FPGA deployment estimate.
    const auto estimate = system.resourceEstimate();
    const auto perf = system.performance(
        simulator->stats().cyclesPerPass());
    std::printf("FPGA estimate: %.0f ALMs, %d DSPs, %.2f W @ %.1f MHz "
                "-> %.0f images/s, %.0f images/J\n",
                estimate.total().alms, estimate.total().dsps,
                estimate.powerMw / 1000.0, estimate.fmaxMhz,
                perf.imagesPerSecond, perf.imagesPerJoule);
    return 0;
}
