#include "grng/philox.hh"

#include <cmath>

#include "common/rng.hh"
#include "common/table.hh"

namespace vibnn::grng
{

namespace
{

constexpr std::uint32_t kMult0 = 0xD2511F53u;
constexpr std::uint32_t kMult1 = 0xCD9E8D57u;
constexpr std::uint32_t kWeyl0 = 0x9E3779B9u; // golden ratio
constexpr std::uint32_t kWeyl1 = 0xBB67AE85u; // sqrt(3) - 1

/** Philox-4x32-10: 128-bit counter -> 128-bit output under a 64-bit
 *  key. Reference constants from Salmon et al. */
inline void
philox4x32(std::uint32_t c0, std::uint32_t c1, std::uint32_t c2,
           std::uint32_t c3, std::uint32_t k0, std::uint32_t k1,
           std::uint32_t out[4])
{
    for (int round = 0; round < 10; ++round) {
        const std::uint64_t p0 =
            static_cast<std::uint64_t>(kMult0) * c0;
        const std::uint64_t p1 =
            static_cast<std::uint64_t>(kMult1) * c2;
        const std::uint32_t n0 =
            static_cast<std::uint32_t>(p1 >> 32) ^ c1 ^ k0;
        const std::uint32_t n1 = static_cast<std::uint32_t>(p1);
        const std::uint32_t n2 =
            static_cast<std::uint32_t>(p0 >> 32) ^ c3 ^ k1;
        const std::uint32_t n3 = static_cast<std::uint32_t>(p0);
        c0 = n0;
        c1 = n1;
        c2 = n2;
        c3 = n3;
        k0 += kWeyl0;
        k1 += kWeyl1;
    }
    out[0] = c0;
    out[1] = c1;
    out[2] = c2;
    out[3] = c3;
}

/** Top 53 bits -> uniform in the open interval (0, 1); the +0.5
 *  half-step keeps 0 out of Box-Muller's log. */
inline double
toUnit(std::uint64_t x)
{
    return (static_cast<double>(x >> 11) + 0.5) * 0x1p-53;
}

} // namespace

PhiloxGrng::PhiloxGrng(std::uint64_t seed)
{
    // One splitmix64 step decorrelates adjacent seeds (round seeds are
    // derived arithmetically upstream).
    const std::uint64_t key = splitmix64Next(seed);
    key0_ = static_cast<std::uint32_t>(key);
    key1_ = static_cast<std::uint32_t>(key >> 32);
}

std::string
PhiloxGrng::freshStreamKey() const
{
    // The stream is a pure function of the key, so the key words name
    // it; any position but 0 is no longer a fresh stream.
    return pos_ == 0 ? strfmt("philox:%08x%08x", key0_, key1_)
                     : std::string();
}

const double *
PhiloxGrng::ensureBlock(std::uint64_t block) const
{
    if (!cacheValid_ || block != cachedBlock_) {
        sampleBlock(block, cachedPair_);
        cachedBlock_ = block;
        cacheValid_ = true;
    }
    return cachedPair_;
}

void
PhiloxGrng::sampleBlock(std::uint64_t block, double out2[2]) const
{
    std::uint32_t r[4];
    philox4x32(static_cast<std::uint32_t>(block),
               static_cast<std::uint32_t>(block >> 32), 0, 0, key0_,
               key1_, r);
    const std::uint64_t a =
        static_cast<std::uint64_t>(r[0]) |
        (static_cast<std::uint64_t>(r[1]) << 32);
    const std::uint64_t b =
        static_cast<std::uint64_t>(r[2]) |
        (static_cast<std::uint64_t>(r[3]) << 32);
    const double u1 = toUnit(a);
    const double u2 = toUnit(b);
    const double radius = std::sqrt(-2.0 * std::log(u1));
    const double angle = 6.283185307179586476925286766559 * u2;
    out2[0] = radius * std::cos(angle);
    out2[1] = radius * std::sin(angle);
}

void
PhiloxGrng::fillAt(std::uint64_t offset, double *out,
                   std::size_t n) const
{
    std::size_t k = 0;
    double pair[2];
    if (n > 0 && (offset & 1)) { // stranded odd phase at the front
        sampleBlock(offset >> 1, pair);
        out[k++] = pair[1];
        ++offset;
    }
    for (; k + 2 <= n; k += 2, offset += 2) {
        sampleBlock(offset >> 1, pair);
        out[k] = pair[0];
        out[k + 1] = pair[1];
    }
    if (k < n) { // stranded even phase at the back
        sampleBlock(offset >> 1, pair);
        out[k] = pair[0];
    }
}

double
PhiloxGrng::next()
{
    // Phase-at-a-time consumption through the pair cache: the even
    // phase computes (and memoizes) the block, the odd phase is a
    // cache hit — one transform per two samples.
    const double value = ensureBlock(pos_ >> 1)[pos_ & 1];
    ++pos_;
    return value;
}

void
PhiloxGrng::fill(double *out, std::size_t n)
{
    fillAt(pos_, out, n);
    pos_ += n;
}

bool
PhiloxGrng::fillFixed(std::int32_t *out, std::size_t n,
                      const fixed::FixedPointFormat &format)
{
    // Fused generation + quantization in one cache-resident sweep; the
    // double chunk never leaves the stack.
    constexpr std::size_t kChunk = 256;
    double stage[kChunk];
    std::size_t k = 0;
    while (k < n) {
        const std::size_t take = std::min(n - k, kChunk);
        fillAt(pos_ + k, stage, take);
        for (std::size_t i = 0; i < take; ++i)
            out[k + i] = static_cast<std::int32_t>(format.fromReal(
                stage[i], fixed::RoundMode::Nearest));
        k += take;
    }
    pos_ += n;
    return true;
}

} // namespace vibnn::grng
