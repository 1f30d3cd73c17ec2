/**
 * @file
 * SIMD kernel-layer microbenchmark: per-tier throughput of the three
 * hot kernels the batched inference path is built on — the batched
 * fixed-point GEMM (with and without the int16 madd fast path), the
 * fused mu + sigma * eps weight draw, and the double->fixed eps
 * conversion — plus the three float32 GEMMs of batched training
 * (forward, dW = dy^T x, dx = dy W) at the layer-0 training shape, and
 * the training step's plane op (rho -> sigma, dsigma/drho, sigma^2) and
 * KL op over the 784-200-200-10 network's 199,210 parameters.
 * Every tier compiled into the binary and supported by
 * this CPU gets a row, with the dispatch-selected tier marked; all
 * tiers are ctest-pinned bit-exact, so the only difference between
 * rows is speed. VIBNN_BENCH_JSON=<path> records the table
 * machine-readably (section "kernels").
 */

#include <vector>

#include "bench_util.hh"
#include "accel/kernels/kernels.hh"
#include "common/rng.hh"
#include "common/table.hh"
#include "fixed/fixed_point.hh"

using namespace vibnn;
namespace k = vibnn::accel::kernels;

namespace
{

std::vector<std::int32_t>
randomRaws(const fixed::FixedPointFormat &fmt, std::uint64_t seed,
           std::size_t count)
{
    Rng rng(seed);
    const auto lo = fmt.rawMin();
    const auto span =
        static_cast<std::uint64_t>(fmt.rawMax() - fmt.rawMin() + 1);
    std::vector<std::int32_t> raws(count);
    for (auto &r : raws)
        r = static_cast<std::int32_t>(
            lo + static_cast<std::int64_t>(rng.uniformInt(span)));
    return raws;
}

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

} // namespace

int
main()
{
    bench::banner("SIMD kernels",
                  "Per-tier throughput of the batched-path hot loops "
                  "(GEMM, fused weight sampling, eps conversion) and "
                  "of the f32 training GEMMs");
    std::printf("dispatch-selected tier: %s "
                "(VIBNN_KERNELS=<tier> overrides)\n\n",
                k::activeKernelName());

    // The MNIST throughput shape: 200 neurons x 784 inputs over a
    // 60-image batch — the first (dominant) Dense op of the Table 5
    // network.
    const fixed::FixedPointFormat act{8, 4}, weight{8, 6}, eps{8, 5};
    const std::size_t in_dim = 784, out_dim = 200, images = 60;
    const auto weights = randomRaws(weight, 1, out_dim * in_dim);
    const auto acts = randomRaws(act, 2, images * in_dim);
    const auto bias = randomRaws(weight, 3, out_dim);
    std::vector<std::int16_t> w16(weights.size()), a16(acts.size());
    k::scalarKernels().packInt16(weights.data(), w16.data(),
                                 weights.size());
    k::scalarKernels().packInt16(acts.data(), a16.data(), acts.size());
    std::vector<std::int32_t> out(images * out_dim);

    k::GemmArgs gemm;
    gemm.weights = weights.data();
    gemm.ldw = in_dim;
    gemm.acts = acts.data();
    gemm.lda = in_dim;
    gemm.bias = bias.data();
    gemm.out = out.data();
    gemm.outNeuronStride = 1;
    gemm.outImageStride = out_dim;
    gemm.inDim = in_dim;
    gemm.outDim = out_dim;
    gemm.images = images;
    gemm.finish.biasShift = act.fracBits();
    gemm.finish.outShift = weight.fracBits();
    gemm.finish.outMin = static_cast<std::int32_t>(act.rawMin());
    gemm.finish.outMax = static_cast<std::int32_t>(act.rawMax());
    const double macs_per_call = static_cast<double>(in_dim) * out_dim *
        images;

    // Fused sampling + conversion shapes: one 64K block per call.
    const std::size_t n = 1 << 16;
    const auto mu = randomRaws(weight, 4, n);
    const auto sigma = randomRaws(weight, 5, n);
    const auto eps_raw = randomRaws(eps, 6, n);
    std::vector<std::int32_t> sampled(n);
    k::SampleParams sp;
    sp.epsShift = eps.fracBits();
    sp.wMin = static_cast<std::int32_t>(weight.rawMin());
    sp.wMax = static_cast<std::int32_t>(weight.rawMax());
    sp.sigmaAbsMax = -weight.rawMin();
    sp.epsAbsMax = -eps.rawMin();

    Rng real_rng(7);
    std::vector<double> reals(n);
    for (auto &v : reals)
        v = real_rng.gaussian();
    std::vector<std::int32_t> converted(n);

    // Eps generation: the transposed RLF cycle kernel (paper shape,
    // 255 x 8 lanes), counts per second == eps per second.
    const std::size_t rlf_cycles = 512;
    std::vector<std::uint8_t> rlf_planes(255, 0);
    std::vector<std::int32_t> rlf_sums(8, 0);
    {
        Rng seeder(11);
        for (int lane = 0; lane < 8; ++lane) {
            for (int p = 0; p < 255; ++p)
                if (seeder.next() & 1) {
                    rlf_planes[p] |=
                        static_cast<std::uint8_t>(1u << lane);
                    ++rlf_sums[lane];
                }
        }
    }
    std::vector<std::int32_t> rlf_counts(rlf_cycles * 8);

    // The f32 training GEMMs at layer 0 of the 784-200-200-10 network
    // under a 64-sample minibatch: m = batch, n = outputs, k = inputs.
    const std::size_t fm = 64, fn = 200, fk = 784;
    const auto f32 = [](std::size_t count, std::uint64_t seed) {
        Rng rng(seed);
        std::vector<float> v(count);
        for (auto &x : v)
            x = static_cast<float>(rng.uniform() * 2.0 - 1.0);
        return v;
    };
    const auto x_f = f32(fm * fk, 12), w_f = f32(fn * fk, 13),
               dy_f = f32(fm * fn, 14);
    std::vector<float> y_f(fm * fn), dw_f(fn * fk, 0.0f), db_f(fn, 0.0f),
        dx_f(fm * fk);
    k::GemmF32Args fwd; // y = x . W^T
    fwd.a = x_f.data();
    fwd.lda = fk;
    fwd.b = w_f.data();
    fwd.ldb = fk;
    fwd.c = y_f.data();
    fwd.ldc = fn;
    fwd.m = fm;
    fwd.n = fn;
    fwd.k = fk;
    k::GemmF32Args atb; // dW += dy^T . x, db += colsum(dy)
    atb.a = dy_f.data();
    atb.lda = fn;
    atb.b = x_f.data();
    atb.ldb = fk;
    atb.c = dw_f.data();
    atb.ldc = fk;
    atb.m = fm;
    atb.n = fn;
    atb.k = fk;
    atb.colSums = db_f.data();
    k::GemmF32Args ab = atb; // dx = dy . W
    ab.b = w_f.data();
    ab.c = dx_f.data();
    ab.colSums = nullptr;
    const double f32_macs = static_cast<double>(fm) * fn * fk;

    // The plane and KL ops over every parameter of 784-200-200-10 as
    // one flat call each; rho around the trainer's initial -5.
    const std::size_t np =
        784 * 200 + 200 + 200 * 200 + 200 + 200 * 10 + 10;
    std::vector<float> rho_p(np), sig_p(np), dsig_p(np), sig_sq_p(np),
        gmu_p(np, 0.0f), grho_p(np, 0.0f);
    {
        Rng rng(16);
        for (auto &r : rho_p)
            r = static_cast<float>(rng.uniform(-6.0, -3.0));
    }
    const auto mu_p = f32(np, 17);
    const k::KlArgs kl_args = k::klArgs(0.3f, 1e-4f);

    bench::JsonReport report;
    TextTable table;
    table.setHeader({"tier", "GEMM s32 GMAC/s", "GEMM s16 GMAC/s",
                     "sample M/s", "eps conv M/s", "rlf eps M/s",
                     "f32 fwd GMAC/s", "f32 AtB GMAC/s",
                     "f32 AB GMAC/s", "planes M/s", "KL M/s"});
    for (const auto *tier : k::availableKernels()) {
        gemm.weights16 = nullptr;
        gemm.acts16 = nullptr;
        const double gemm32 =
            rate([&] { tier->gemmBatch(gemm); }) * macs_per_call / 1e9;
        gemm.weights16 = w16.data();
        gemm.acts16 = a16.data();
        const double gemm16 =
            rate([&] { tier->gemmBatch(gemm); }) * macs_per_call / 1e9;
        const double sample = rate([&] {
            tier->sampleWeights(mu.data(), sigma.data(), eps_raw.data(),
                                sampled.data(), n, sp);
        }) * static_cast<double>(n) / 1e6;
        const double conv = rate([&] {
            tier->quantizeDouble(reals.data(), converted.data(), n,
                                 eps.fracBits(),
                                 static_cast<std::int32_t>(eps.rawMin()),
                                 static_cast<std::int32_t>(eps.rawMax()));
        }) * static_cast<double>(n) / 1e6;
        const double rlf_eps = rate([&] {
            k::RlfState st;
            st.planes = rlf_planes.data();
            st.sums = rlf_sums.data();
            st.length = 255;
            st.groups = 1;
            st.head = 0;
            tier->rlfCycleCounts(st, rlf_cycles, rlf_counts.data());
        }) * static_cast<double>(rlf_cycles * 8) / 1e6;
        const double f32_fwd =
            rate([&] { tier->gemmBatchF32(fwd); }) * f32_macs / 1e9;
        const double f32_atb =
            rate([&] { tier->gemmAtBF32(atb); }) * f32_macs / 1e9;
        const double f32_ab =
            rate([&] { tier->gemmABF32(ab); }) * f32_macs / 1e9;
        const double planes = rate([&] {
            tier->sigmaPlanes(rho_p.data(), sig_p.data(), dsig_p.data(),
                              sig_sq_p.data(), np);
        }) * static_cast<double>(np) / 1e6;
        const double kl = rate([&] {
            tier->klSumGrad(mu_p.data(), sig_p.data(), dsig_p.data(),
                            gmu_p.data(), grho_p.data(), np, kl_args, 0.0);
        }) * static_cast<double>(np) / 1e6;

        const bool active =
            std::string(tier->name) == k::activeKernelName();
        table.addRow({std::string(tier->name) + (active ? " *" : ""),
                      strfmt("%.2f", gemm32), strfmt("%.2f", gemm16),
                      strfmt("%.1f", sample), strfmt("%.1f", conv),
                      strfmt("%.1f", rlf_eps), strfmt("%.2f", f32_fwd),
                      strfmt("%.2f", f32_atb), strfmt("%.2f", f32_ab),
                      strfmt("%.1f", planes), strfmt("%.1f", kl)});
        report.add(bench::JsonRecord()
                       .field("bench", "kernels")
                       .field("section", "kernels")
                       .field("tier", tier->name)
                       .field("active", active ? 1 : 0)
                       .field("gemm_s32_gmacs", gemm32)
                       .field("gemm_s16_gmacs", gemm16)
                       .field("sample_ms", sample)
                       .field("eps_conv_ms", conv)
                       .field("rlf_eps_ms", rlf_eps)
                       .field("gemm_f32_gmacs", f32_fwd)
                       .field("gemm_atb_f32_gmacs", f32_atb)
                       .field("gemm_ab_f32_gmacs", f32_ab)
                       .field("sigma_planes_ms", planes)
                       .field("kl_sum_grad_ms", kl));
    }
    table.print();
    std::printf("\n(* = dispatch-selected; s16 column falls back to the "
                "s32 path on tiers without a madd kernel; planes and KL "
                "count parameters, %zu per call)\n",
                np);
    report.write();
    return 0;
}
