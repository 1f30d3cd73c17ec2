#include "grng/rlf_grng.hh"

#include <algorithm>
#include <cmath>

#include "accel/kernels/kernels.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/table.hh"
#include "grng/lfsr.hh"

namespace vibnn::grng
{

namespace
{

/** Cycles generated per kernel burst in fill()/fillFixed(): large
 *  enough to amortize the dispatch call, small enough that the counts
 *  scratch stays L1-resident (512 cycles x 8 lanes x 4 B = 16 KiB). */
constexpr std::size_t kBurstCycles = 512;

} // namespace

RlfGrng::RlfGrng(const RlfGrngConfig &config) : config_(config)
{
    VIBNN_ASSERT(config.lanes >= 1, "need at least one lane");
    VIBNN_ASSERT(config.length >= 19,
                 "binomial approximation needs n > 18 (equation (8))");

    // The transposed lane-parallel kernel expresses exactly the
    // combined update with the {n-5, n-3, n-2} tap pattern (true for
    // the paper's 255); anything else steps per-lane RlfLogic models.
    const auto taps = maximalTaps(config.length);
    kernelPath_ = config.mode == RlfUpdateMode::Combined &&
        taps.size() == 3 && taps[0] == config.length - 5 &&
        taps[1] == config.length - 3 && taps[2] == config.length - 2;
    if (kernelPath_) {
        planeGroups_ = (config.lanes + 7) / 8;
        // Unused bit columns of a partial group stay all-zero: XOR
        // masks derived from zero heads never flip them, so they cost
        // nothing and emit nothing.
        planes_.assign(
            static_cast<std::size_t>(config.length) * planeGroups_, 0);
        planeSums_.assign(static_cast<std::size_t>(planeGroups_) * 8, 0);
    } else {
        lanes_.reserve(config.lanes);
    }

    Rng seeder(config.seed);
    for (int lane = 0; lane < config.lanes; ++lane) {
        auto seed_bits = expandSeedBits(config.length, seeder.next());
        if (config.balancedSeeds) {
            // Rebalance to popcount floor(n/2) (even lanes) or
            // ceil(n/2) (odd lanes) by flipping random positions.
            const int target = config.length / 2 + (lane & 1);
            int ones = 0;
            for (std::uint8_t b : seed_bits)
                ones += b;
            Rng flipper(seeder.next());
            while (ones != target) {
                const auto pos = flipper.uniformInt(
                    static_cast<std::uint64_t>(config.length));
                if (ones < target && !seed_bits[pos]) {
                    seed_bits[pos] = 1;
                    ++ones;
                } else if (ones > target && seed_bits[pos]) {
                    seed_bits[pos] = 0;
                    --ones;
                }
            }
        }
        if (kernelPath_) {
            // Scatter this lane's bits into its bit-plane column.
            std::uint8_t *plane = planes_.data() +
                static_cast<std::size_t>(lane / 8) * config.length;
            const std::uint8_t bit = static_cast<std::uint8_t>(
                1u << (lane & 7));
            int ones = 0;
            for (int p = 0; p < config.length; ++p) {
                if (seed_bits[p])
                    plane[p] |= bit;
                ones += seed_bits[p];
            }
            planeSums_[lane] = ones;
        } else {
            lanes_.emplace_back(config.length, std::move(seed_bits),
                                config.mode);
        }
    }

    mean_ = 0.5 * config.length;
    invStddev_ = 1.0 / std::sqrt(0.25 * config.length);
    cycleBuffer_.resize(config.lanes);
    bufferPos_ = cycleBuffer_.size(); // force refill on first draw
}

double
RlfGrng::normalize(int count) const
{
    return (static_cast<double>(count) - mean_) * invStddev_;
}

void
RlfGrng::refillBuffer()
{
    nextCycleCounts(cycleBuffer_);
    bufferPos_ = 0;
}

void
RlfGrng::generateMuxedCycles(std::size_t cycles, std::int32_t *counts)
{
    const std::size_t lanes =
        static_cast<std::size_t>(config_.lanes);
    const std::size_t raw_stride =
        static_cast<std::size_t>(planeGroups_) * 8;
    burstRaw_.resize(cycles * raw_stride);

    accel::kernels::RlfState st;
    st.planes = planes_.data();
    st.sums = planeSums_.data();
    st.length = config_.length;
    st.groups = planeGroups_;
    st.head = planeHead_;
    accel::kernels::activeKernels().rlfCycleCounts(st, cycles,
                                                   burstRaw_.data());
    planeHead_ = st.head;

    // Output multiplexing (see nextCycleCounts): within each group of
    // four lanes, port p serves lane (p + cycle) % group this cycle.
    for (std::size_t c = 0; c < cycles; ++c) {
        const std::int32_t *raw = burstRaw_.data() + c * raw_stride;
        std::int32_t *out = counts + c * lanes;
        if (!config_.outputMux) {
            std::copy(raw, raw + lanes, out);
        } else {
            const auto rot = static_cast<std::size_t>(cycle_);
            for (std::size_t base = 0; base < lanes; base += 4) {
                const std::size_t group =
                    std::min<std::size_t>(4, lanes - base);
                if (group == 4) {
                    for (std::size_t port = 0; port < 4; ++port)
                        out[base + port] =
                            raw[base + ((port + rot) & 3)];
                } else {
                    for (std::size_t port = 0; port < group; ++port)
                        out[base + port] =
                            raw[base + (port + rot) % group];
                }
            }
        }
        ++cycle_;
    }
}

void
RlfGrng::nextCycleCounts(std::vector<int> &out)
{
    out.resize(static_cast<std::size_t>(config_.lanes));

    if (kernelPath_) {
        burstMuxed_.resize(out.size());
        generateMuxedCycles(1, burstMuxed_.data());
        std::copy(burstMuxed_.begin(), burstMuxed_.end(), out.begin());
        return;
    }

    // Step every lane once (they share one indexer in hardware).
    rawScratch_.resize(lanes_.size());
    std::vector<int> &raw = rawScratch_;
    for (std::size_t lane = 0; lane < lanes_.size(); ++lane)
        raw[lane] = lanes_[lane].step();

    if (!config_.outputMux) {
        out = raw;
        ++cycle_;
        return;
    }

    // Output multiplexing: within each group of four lanes, output port
    // p serves lane (p + cycle) % group_size this cycle. The rotating
    // select is shared by all groups (one controller). Full groups use
    // the power-of-two mask instead of the per-port division — this
    // loop runs once per emitted sample and the divisions dominated it.
    const std::size_t n = lanes_.size();
    const auto rot = static_cast<std::size_t>(cycle_);
    for (std::size_t base = 0; base < n; base += 4) {
        const std::size_t group = std::min<std::size_t>(4, n - base);
        if (group == 4) {
            for (std::size_t port = 0; port < 4; ++port)
                out[base + port] = raw[base + ((port + rot) & 3)];
        } else {
            for (std::size_t port = 0; port < group; ++port)
                out[base + port] = raw[base + (port + rot) % group];
        }
    }
    ++cycle_;
}

int
RlfGrng::nextCount()
{
    if (bufferPos_ >= cycleBuffer_.size())
        refillBuffer();
    return cycleBuffer_[bufferPos_++];
}

double
RlfGrng::next()
{
    return normalize(nextCount());
}

void
RlfGrng::fill(double *out, std::size_t n)
{
    std::size_t k = 0;
    // Drain whatever next() left buffered so the stream stays aligned.
    while (k < n && bufferPos_ < cycleBuffer_.size())
        out[k++] = normalize(cycleBuffer_[bufferPos_++]);

    if (kernelPath_) {
        // Whole cycles in kernel bursts straight into the destination.
        const std::size_t lanes =
            static_cast<std::size_t>(config_.lanes);
        std::size_t cycles_left = (n - k) / lanes;
        while (cycles_left > 0) {
            const std::size_t burst =
                std::min(cycles_left, kBurstCycles);
            burstMuxed_.resize(burst * lanes);
            generateMuxedCycles(burst, burstMuxed_.data());
            for (std::size_t i = 0; i < burst * lanes; ++i)
                out[k + i] = normalize(burstMuxed_[i]);
            k += burst * lanes;
            cycles_left -= burst;
        }
    }

    while (k < n) {
        if (bufferPos_ >= cycleBuffer_.size())
            refillBuffer();
        // Normalize straight out of the cycle buffer — one virtual call
        // per fill() instead of one per sample, and the per-cycle lane
        // scratch is a reused member.
        const std::size_t take =
            std::min(n - k, cycleBuffer_.size() - bufferPos_);
        for (std::size_t i = 0; i < take; ++i)
            out[k + i] = normalize(cycleBuffer_[bufferPos_ + i]);
        bufferPos_ += take;
        k += take;
    }
}

const std::int32_t *
RlfGrng::fixedLut(const fixed::FixedPointFormat &format)
{
    if (lutTotalBits_ != format.totalBits() ||
        lutFracBits_ != format.fracBits()) {
        // One entry per possible count: exactly fromReal(normalize(c),
        // Nearest), so the fused path is bit-identical to fill() + the
        // kernel layer's quantizeDouble by construction.
        lut_.resize(static_cast<std::size_t>(config_.length) + 1);
        for (int c = 0; c <= config_.length; ++c)
            lut_[static_cast<std::size_t>(c)] =
                static_cast<std::int32_t>(format.fromReal(
                    normalize(c), fixed::RoundMode::Nearest));
        lutTotalBits_ = format.totalBits();
        lutFracBits_ = format.fracBits();
    }
    return lut_.data();
}

bool
RlfGrng::fillFixed(std::int32_t *out, std::size_t n,
                   const fixed::FixedPointFormat &format)
{
    if (!kernelPath_)
        return false;
    const std::int32_t *lut = fixedLut(format);

    std::size_t k = 0;
    while (k < n && bufferPos_ < cycleBuffer_.size())
        out[k++] = lut[cycleBuffer_[bufferPos_++]];

    const std::size_t lanes = static_cast<std::size_t>(config_.lanes);
    std::size_t cycles_left = (n - k) / lanes;
    while (cycles_left > 0) {
        const std::size_t burst = std::min(cycles_left, kBurstCycles);
        burstMuxed_.resize(burst * lanes);
        generateMuxedCycles(burst, burstMuxed_.data());
        for (std::size_t i = 0; i < burst * lanes; ++i)
            out[k + i] = lut[burstMuxed_[i]];
        k += burst * lanes;
        cycles_left -= burst;
    }

    while (k < n) {
        if (bufferPos_ >= cycleBuffer_.size())
            refillBuffer();
        const std::size_t take =
            std::min(n - k, cycleBuffer_.size() - bufferPos_);
        for (std::size_t i = 0; i < take; ++i)
            out[k + i] = lut[cycleBuffer_[bufferPos_ + i]];
        bufferPos_ += take;
        k += take;
    }
    return true;
}

std::string
RlfGrng::name() const
{
    return strfmt("RLF-GRNG(%dx%d%s)", config_.length, config_.lanes,
                  config_.outputMux ? "" : ",nomux");
}

std::string
RlfGrng::freshStreamKey() const
{
    // cycle_ counts every cycle generated, buffered ones included.
    if (cycle_ != 0)
        return {};
    return strfmt("rlf:%d:%d:%d:%d:%d:%llu", config_.length,
                  config_.lanes, static_cast<int>(config_.mode),
                  config_.outputMux ? 1 : 0,
                  config_.balancedSeeds ? 1 : 0,
                  static_cast<unsigned long long>(config_.seed));
}

} // namespace vibnn::grng
