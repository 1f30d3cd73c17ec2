/**
 * @file
 * Host-side GRNG throughput microbenchmark: cost per sample of every
 * generator in the registry (scalar next() and block fill()), plus
 * per-tier rows for the kernel-layer eps paths the weight generator
 * rides on — the transposed RLF cycle kernel, the Wallace pool pass,
 * and the fused fillFixed() generation+quantization fast path — in the
 * same style as bench_kernels (every tier compiled in and supported by
 * this CPU gets a row, dispatch-selected tier marked, all tiers
 * ctest-pinned bit-exact). Software context for the hardware designs;
 * the FPGA-side throughput story lives in bench_table2/bench_table5.
 * VIBNN_BENCH_JSON=<path> records all sections machine-readably
 * (bench "grng_micro").
 */

#include <cstring>
#include <vector>

#include "bench_util.hh"
#include "accel/kernels/kernels.hh"
#include "common/rng.hh"
#include "common/table.hh"
#include "fixed/fixed_point.hh"
#include "grng/lfsr.hh"
#include "grng/registry.hh"
#include "grng/rlf_grng.hh"

using namespace vibnn;
using namespace vibnn::grng;
namespace k = vibnn::accel::kernels;

namespace
{

/** Run body() until ~0.15 s have elapsed; returns iterations/second. */
template <typename Body>
double
rate(const Body &body)
{
    body(); // warm
    std::size_t iters = 0;
    bench::Stopwatch clock;
    double elapsed = 0.0;
    do {
        body();
        ++iters;
        elapsed = clock.seconds();
    } while (elapsed < 0.15);
    return static_cast<double>(iters) / elapsed;
}

/** A seeded 8-lane transposed RLF state (the paper's 255 x 8 shape)
 *  for driving one kernel tier directly. */
struct RlfBenchState
{
    std::vector<std::uint8_t> planes;
    std::vector<std::int32_t> sums;

    explicit RlfBenchState(std::uint64_t seed) : planes(255), sums(8)
    {
        Rng seeder(seed);
        for (int lane = 0; lane < 8; ++lane) {
            const auto bits = expandSeedBits(255, seeder.next());
            for (int p = 0; p < 255; ++p)
                if (bits[p])
                    planes[p] |= static_cast<std::uint8_t>(1u << lane);
            for (std::uint8_t b : bits)
                sums[lane] += b;
        }
    }

    k::RlfState
    state()
    {
        k::RlfState st;
        st.planes = planes.data();
        st.sums = sums.data();
        st.length = 255;
        st.groups = 1;
        st.head = 0;
        return st;
    }
};

} // namespace

int
main()
{
    bench::banner("GRNG microbenchmark",
                  "Per-generator sample cost and per-tier throughput "
                  "of the kernel-layer eps paths");
    std::printf("dispatch-selected tier: %s "
                "(VIBNN_KERNELS=<tier> overrides)\n\n",
                k::activeKernelName());

    bench::JsonReport report;
    const std::size_t block = 4096;
    std::vector<double> reals(block);
    const fixed::FixedPointFormat eps{8, 5};
    std::vector<std::int32_t> raws(block);

    // ------------------------------------------------- generators
    // Scalar next() vs the block fill() hot path, plus the fused
    // fillFixed() rate where the generator has one (0 = no fused path).
    TextTable gens;
    gens.setHeader(
        {"generator", "next M/s", "fill M/s", "fillFixed M/s"});
    for (const auto &id : generatorIds()) {
        auto gen = makeGenerator(id, 42);
        double sink = 0.0;
        const double next_rate = rate([&] {
            for (std::size_t i = 0; i < 1024; ++i)
                sink += gen->next();
        }) * 1024.0 / 1e6;
        const double fill_rate = rate([&] {
            gen->fill(reals.data(), block);
        }) * static_cast<double>(block) / 1e6;
        double fixed_rate = 0.0;
        if (gen->fillFixed(raws.data(), block, eps))
            fixed_rate = rate([&] {
                gen->fillFixed(raws.data(), block, eps);
            }) * static_cast<double>(block) / 1e6;
        if (sink == 0.5)
            std::printf("unlikely\n"); // keep the next() loop live
        gens.addRow({gen->name(), strfmt("%.1f", next_rate),
                     strfmt("%.1f", fill_rate),
                     fixed_rate > 0.0 ? strfmt("%.1f", fixed_rate)
                                      : std::string("-")});
        report.add(bench::JsonRecord()
                       .field("bench", "grng_micro")
                       .field("section", "generators")
                       .field("generator", id)
                       .field("next_ms", next_rate)
                       .field("fill_ms", fill_rate)
                       .field("fill_fixed_ms", fixed_rate));
    }
    gens.print();
    std::printf("\n(fill/fillFixed amortize one virtual call over %zu "
                "samples; - = no fused path)\n\n",
                block);

    // ------------------------------------------------- kernel tiers
    // The two eps kernels, one row per tier: the transposed RLF cycle
    // kernel (255 x 8, counts per second = eps per second) and the
    // Wallace pool pass (1024-entry pool, one output per slot).
    const std::size_t cycles = 512;
    std::vector<std::int32_t> counts(cycles * 8);
    std::vector<double> pool(1024);
    {
        Rng rng(3);
        for (auto &x : pool)
            x = rng.gaussian();
    }
    std::vector<double> pass_out(pool.size());

    TextTable tiers;
    tiers.setHeader({"tier", "rlf eps M/s", "wallace eps M/s"});
    for (const auto *tier : k::availableKernels()) {
        RlfBenchState rlf(7);
        const double rlf_rate = rate([&] {
            k::RlfState st = rlf.state();
            tier->rlfCycleCounts(st, cycles, counts.data());
        }) * static_cast<double>(cycles * 8) / 1e6;
        // Fixed offset/stride (coprime with 1024) so every tier walks
        // the identical permutation.
        const double wallace_rate = rate([&] {
            tier->wallacePass(pool.data(), pool.size(), 11, 333,
                              pass_out.data());
        }) * static_cast<double>(pool.size()) / 1e6;

        const bool active =
            std::string(tier->name) == k::activeKernelName();
        tiers.addRow({std::string(tier->name) + (active ? " *" : ""),
                      strfmt("%.1f", rlf_rate),
                      strfmt("%.1f", wallace_rate)});
        report.add(bench::JsonRecord()
                       .field("bench", "grng_micro")
                       .field("section", "tiers")
                       .field("tier", tier->name)
                       .field("active", active ? 1 : 0)
                       .field("rlf_eps_ms", rlf_rate)
                       .field("wallace_eps_ms", wallace_rate));
    }
    tiers.print();
    std::printf("\n(* = dispatch-selected; all tiers bit-exact, the "
                "rows differ only in speed)\n");
    report.write();
    return 0;
}
