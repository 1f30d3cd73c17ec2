/**
 * @file
 * Accelerator deep-dive: load the paper's 784-200-200-10 network onto
 * the cycle-level simulator and dissect one inference pass — per-layer
 * cycle counts, memory traffic, GRN consumption, utilization — then
 * print the full itemized FPGA resource estimate and the Table 5
 * operating point.
 *
 * Run:  ./build/examples/accelerator_demo
 */

#include <cstdio>

#include "accel/program.hh"
#include "accel/simulator.hh"
#include "bnn/bayesian_mlp.hh"
#include "grng/registry.hh"
#include "hwmodel/network_hw.hh"

using namespace vibnn;

int
main()
{
    // Timing is weight-independent; an untrained network suffices.
    Rng rng(1);
    bnn::BayesianMlp net({784, 200, 200, 10}, rng);

    accel::AcceleratorConfig config; // the paper's 16x8x8 @ 8 bits
    const auto program = accel::compile(net, config);
    auto grng_instance = grng::makeGenerator("rlf", 7);
    accel::Simulator sim(program, config, grng_instance.get());

    std::vector<float> image(784, 0.5f);
    sim.runPass(image.data());
    const auto &stats = sim.stats();

    std::printf("VIBNN cycle-level simulation — one inference pass\n");
    std::printf("geometry: %d PE-sets x %d PEs x %d inputs @ %d-bit\n\n",
                config.peSets, config.pesPerSet, config.peInputs(),
                config.bits);
    for (std::size_t o = 0; o < stats.opCycles.size(); ++o) {
        const auto &op = sim.program().ops[o];
        std::printf("  op %zu %-16s (%4zu -> %4zu): %llu cycles\n",
                    o + 1, op.label.c_str(), op.inSize, op.outSize,
                    static_cast<unsigned long long>(
                        stats.opCycles[o]));
    }
    std::printf("  total: %llu cycles, %.1f%% PE utilization\n",
                static_cast<unsigned long long>(stats.totalCycles),
                100 * stats.utilization(config.totalPes(),
                                        config.peInputs()));
    std::printf("  IFMem reads %llu, writes %llu; WPMem reads %llu; "
                "GRN samples %llu; MACs %llu\n\n",
                static_cast<unsigned long long>(stats.ifmemReads),
                static_cast<unsigned long long>(stats.ifmemWrites),
                static_cast<unsigned long long>(stats.wpmemReads),
                static_cast<unsigned long long>(stats.grnSamples),
                static_cast<unsigned long long>(stats.macs));

    hw::NetworkHwConfig hw_config;
    hw_config.grng = hw::GrngKind::Rlf;
    const auto design = networkEstimate(hw_config);
    std::printf("FPGA resource estimate (%s):\n", design.name.c_str());
    for (const auto &c : design.components) {
        std::printf("  %-26s ALMs %8.0f  regs %7.0f  bits %9lld  "
                    "DSP %3d\n",
                    c.label.c_str(), c.resources.alms,
                    c.resources.registers,
                    static_cast<long long>(c.resources.memoryBits),
                    c.resources.dsps);
    }
    const auto perf =
        performanceFromCycles(design, stats.cyclesPerPass());
    std::printf("\noperating point: %.1f MHz, %.2f W -> %.0f images/s, "
                "%.0f images/J\n",
                perf.fsysMhz, perf.powerMw / 1000.0,
                perf.imagesPerSecond, perf.imagesPerJoule);
    return 0;
}
