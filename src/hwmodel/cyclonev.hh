/**
 * @file
 * Component-level cost model for the Altera Cyclone V FPGA the paper
 * evaluates on (model 5CGTFD9E5F35C7).
 *
 * The primitives below translate logical structures (adders, XOR banks,
 * multiplexers, multipliers, RAMs) into device resources:
 *
 *  - ALMs: each Cyclone V ALM packs two combinational LUT outputs and a
 *    2-bit carry slice; the per-structure coefficients are standard
 *    synthesis rules of thumb.
 *  - M10K blocks: 10,240 bits each, at most 40 bits wide; wide words
 *    stripe across ceil(width/40) physical blocks.
 *  - DSP blocks: 342 on this device, each able to host three
 *    independent 9x9 multiplies — which is exactly why the paper's
 *    1024-multiplier PE array shows 342/342 (100%) DSP usage.
 *
 * The power model is linear in resource counts and clock frequency with
 * coefficients calibrated against the paper's own Table 2 (the RLF and
 * BNNWallace 64-output GRNG measurements), as documented inline; the
 * frequency model is a two-parameter logic-depth fit through the same
 * table; cyclonev.cc states each calibrated coefficient where it is
 * used.
 */

#ifndef VIBNN_HWMODEL_CYCLONEV_HH
#define VIBNN_HWMODEL_CYCLONEV_HH

#include "hwmodel/resource.hh"

namespace vibnn::hw
{

/** Device capacity constants for the 5CGTFD9E5F35C7. */
struct CycloneVDevice
{
    static constexpr int totalAlms = 113560;
    static constexpr std::int64_t totalMemoryBits = 12492800;
    static constexpr int totalRamBlocks = 1220;
    static constexpr int totalDsps = 342;
    /** M10K geometry. */
    static constexpr int ramBlockBits = 10240;
    static constexpr int ramBlockMaxWidth = 40;
    /** Each DSP hosts three independent 9x9 multipliers. */
    static constexpr int multipliersPerDsp = 3;
};

/** ALMs for a `width`-bit ripple/carry adder or subtractor. */
double adderAlms(int width);

/** ALMs for `count` independent 2-input XOR/AND-level gates. */
double gateAlms(int count);

/** ALMs for a ways:1 multiplexer of `width` bits. */
double muxAlms(int width, int ways);

/** ALMs for an n-input parallel counter (popcount). */
double parallelCounterAlms(int inputs);

/** ALMs for an a x b soft multiplier (when DSPs are exhausted). */
double softMultiplierAlms(int a_bits, int b_bits);

/** Registers for a `width`-bit pipeline/data register. */
double registerCost(int width);

/**
 * Block RAM allocation for a memory of `depth` words x `width` bits:
 * stripes ceil(width/40) wide and ceil over the 10 Kb capacity.
 */
ResourceEstimate blockRam(int depth, int width);

/** DSP blocks to host `count` multipliers of <= 9x9 bits. */
int dspBlocks(int count);

/**
 * Modeled Fmax for a pipeline stage of `logic_levels` LUT levels plus a
 * `carry_bits`-bit carry chain. Calibrated so the RLF-GRNG stage (short
 * popcount + 8-bit accumulate) lands at ~213 MHz and the Wallace stage
 * (16-bit 4-input adder tree + subtract) at ~118 MHz, the paper's
 * Table 2 operating points.
 */
double stageFmaxMhz(int logic_levels, int carry_bits);

/**
 * Power model: static + sum(coefficient_i * count_i) * fMHz.
 * Coefficients (uW/MHz per unit) calibrated on Table 2; see .cc.
 */
double powerMw(const ResourceEstimate &resources, double f_mhz);

} // namespace vibnn::hw

#endif // VIBNN_HWMODEL_CYCLONEV_HH
