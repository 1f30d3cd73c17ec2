/**
 * @file
 * Reproduces Table 7: accuracy comparison on the disease-diagnosis
 * tasks — FNN (software) vs BNN (software) vs VIBNN (hardware).
 *
 * Substitution: synthetic generators matched to each dataset's feature
 * count, sample count, and class imbalance (docs/ARCHITECTURE.md,
 * "Substitutions"). The paper's reported accuracies are printed
 * alongside.
 */

#include "bench_util.hh"
#include "core/vibnn.hh"
#include "data/tabular.hh"
#include "nn/trainer.hh"

using namespace vibnn;

namespace
{

struct PaperRow
{
    double fnn, bnn, vibnn;
};

// Table 7 reference values, in table7Specs order.
const PaperRow paper_rows[] = {
    {60.28, 95.68, 95.33}, {85.71, 95.23, 94.67},
    {70.56, 75.76, 75.21}, {76.69, 82.98, 82.54},
    {91.10, 90.42, 90.11}, {83.41, 83.24, 83.01},
    {93.36, 94.05, 93.67}, {89.69, 88.76, 88.43},
    {91.88, 93.33, 92.87},
};

} // anonymous namespace

int
main()
{
    bench::banner("Table 7",
                  "Accuracy on disease-diagnosis tasks: FNN vs BNN vs "
                  "VIBNN hardware (synthetic dataset substitutes)");

    TextTable table;
    table.setHeader({"Dataset", "FNN", "BNN", "VIBNN", "paper F/B/V"});

    const auto specs = data::table7Specs(envSeed());
    int row_index = 0;

    for (const auto &spec : specs) {
        const auto ds = data::makeTabular(spec);

        // Train to convergence: small sets get more epochs (they are
        // cheap), large sets fewer — a roughly constant step budget.
        const std::size_t epochs = std::min<std::size_t>(
            200,
            std::max<std::size_t>(
                30, scaledCount(12000 / std::max<std::size_t>(
                                    1, ds.train.count()) * 1)));

        // FNN baseline (no dropout on these small nets, as the paper's
        // FNN column).
        Rng fnn_rng(envSeed() + 11);
        nn::Mlp fnn({ds.train.dim, 64, 32,
                     static_cast<std::size_t>(ds.train.numClasses)},
                    fnn_rng);
        nn::TrainConfig fnn_config;
        fnn_config.epochs = epochs;
        fnn_config.learningRate = 2e-3f;
        fnn_config.seed = envSeed() + 12;
        trainMlp(fnn, ds.train.view(), fnn_config);
        const double fnn_acc = evaluateAccuracy(fnn, ds.test.view());

        // BNN + hardware path.
        bnn::BnnTrainConfig bnn_config;
        bnn_config.epochs = epochs;
        bnn_config.learningRate = 2e-3f;
        bnn_config.priorSigma = 0.3f;
        // Tempered ELBO (docs/ARCHITECTURE.md, "Substitutions").
        bnn_config.klWeight = 0.3f;
        bnn_config.seed = envSeed() + 13;
        accel::AcceleratorConfig accel_config;
        accel_config.peSets = 2;
        accel_config.pesPerSet = 8;
        accel_config.mcSamples = 8;
        const auto sys = core::VibnnSystem::train(
            ds, {64, 32}, bnn_config, accel_config, "rlf");
        const double bnn_acc =
            sys.softwareAccuracy(ds.test.view(), 8, envSeed() + 14);
        const double hw_acc = sys.hardwareAccuracy(ds.test.view());

        const auto &paper = paper_rows[row_index++];
        table.addRow({spec.name, strfmt("%.2f%%", 100 * fnn_acc),
                      strfmt("%.2f%%", 100 * bnn_acc),
                      strfmt("%.2f%%", 100 * hw_acc),
                      strfmt("%.1f/%.1f/%.1f", paper.fnn, paper.bnn,
                             paper.vibnn)});
        std::printf("  done: %s\n", spec.name.c_str());
    }
    table.print();

    std::printf(
        "\nShape checks vs the paper: BNN >= FNN on the small/noisy\n"
        "tasks (largest gap on the small-train Parkinson variant), and\n"
        "the 8-bit VIBNN path tracks the software BNN within ~1%%.\n");
    return 0;
}
