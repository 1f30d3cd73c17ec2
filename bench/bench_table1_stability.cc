/**
 * @file
 * Reproduces Table 1: "Stability errors to (mu, sigma) = (0, 1) of
 * Various Wallace Designs".
 *
 * Protocol: each design generates a long sample stream; the stream is
 * cut into windows of 4096 samples; we report the mean absolute
 * deviation of the per-window mean from 0 and of the per-window
 * standard deviation from 1, plus the whole-stream values. The paper's
 * reported numbers are printed alongside. The paper's exact metric is
 * not specified precisely enough to reproduce its absolute values, but
 * the ordering it demonstrates is reproduced: software Wallace
 * improves with pool size, the naive hardware port is the outlier, and
 * the proposed designs match the largest software pool.
 */

#include <cmath>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "grng/registry.hh"
#include "stats/moments.hh"

using namespace vibnn;

namespace
{

struct Row
{
    std::string id;
    std::string label;
    double paperMu;
    double paperSigma;
};

} // anonymous namespace

int
main()
{
    bench::banner("Table 1",
                  "Stability errors to (mu, sigma) = (0, 1) of Wallace "
                  "designs (plus RLF-GRNG)");

    const std::vector<Row> rows = {
        {"wallace-256", "Software 256 Pool Size", 0.0012, 0.3050},
        {"wallace-1024", "Software 1024 Pool Size", 0.0010, 0.0850},
        {"wallace-4096", "Software 4096 Pool Size", 0.0004, 0.0145},
        {"wallace-nss", "Hardware Wallace NSS", 0.0013, 0.4660},
        {"bnnwallace", "BNNWallace-GRNG", 0.0006, 0.0038},
        {"rlf-64", "RLF-GRNG (64 lanes)", 0.0006, 0.0074},
    };

    const std::size_t samples = scaledCount(1 << 18);
    const std::size_t window = 4096;
    const std::size_t restarts = scaledCount(8);

    TextTable table;
    table.setHeader({"GRNG Design", "mu err", "sigma err",
                     "stream |mu|", "stream |sig-1|", "paper mu",
                     "paper sigma"});

    for (const auto &row : rows)
    {
        // Average over independent restarts: the stability of a pool
        // generator is a random variable of its initial pool, so a
        // single seed can invert the pool-size ordering by luck.
        double mu_err = 0.0, sigma_err = 0.0;
        double stream_mu = 0.0, stream_sigma = 0.0;
        std::vector<double> xs(samples);
        for (std::size_t r = 0; r < restarts; ++r) {
            auto gen = grng::makeGenerator(row.id, envSeed() + 131 * r);
            for (auto &x : xs)
                x = gen->next();
            const auto s = stats::measureStability(xs, window);
            mu_err += s.muError;
            sigma_err += s.sigmaError;
            stream_mu += std::fabs(s.streamMean);
            stream_sigma += std::fabs(s.streamStddev - 1.0);
        }
        const double inv = 1.0 / static_cast<double>(restarts);
        table.addRow({row.label, strfmt("%.4f", mu_err * inv),
                      strfmt("%.4f", sigma_err * inv),
                      strfmt("%.4f", stream_mu * inv),
                      strfmt("%.4f", stream_sigma * inv),
                      strfmt("%.4f", row.paperMu),
                      strfmt("%.4f", row.paperSigma)});
    }
    table.print();

    std::printf(
        "\nShape checks vs the paper:\n"
        "  - software Wallace sigma error shrinks as the pool grows\n"
        "  - BNNWallace matches/beats the 4096 software pool\n"
        "  - RLF-GRNG holds sigma tightly (binomial variance is exact\n"
        "    by construction; residual mu drift reflects the popcount\n"
        "    walk the paper acknowledges in Section 4.1.2)\n");
    return 0;
}
