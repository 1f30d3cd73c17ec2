/**
 * @file
 * Abstract interface for Gaussian random number generators.
 *
 * Everything that produces (approximately) unit-Gaussian samples in this
 * project — the paper's RLF-GRNG and BNNWallace-GRNG, the hardware
 * baseline Wallace-NSS, and the software baselines (Box-Muller, Ziggurat,
 * polar, CDF inversion, software Wallace) — implements this interface so
 * the statistical benches and the BNN sampling layer can treat them
 * uniformly.
 */

#ifndef VIBNN_GRNG_GENERATOR_HH
#define VIBNN_GRNG_GENERATOR_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "fixed/fixed_point.hh"

namespace vibnn::grng
{

/** A source of approximately N(0, 1) samples. */
class GaussianGenerator
{
  public:
    virtual ~GaussianGenerator() = default;

    /** Next sample, normalized to target N(0, 1). */
    virtual double next() = 0;

    /**
     * Fill `out[0..n)` with the next n samples of the stream. The block
     * form is the hot-path API: concrete generators override it with a
     * devirtualized inner loop that emits whole hardware cycles (a full
     * Wallace pool pass, all RLF lanes, ...) straight into the caller's
     * buffer. Overrides must produce bit-identical values to n repeated
     * next() calls — tests enforce this for every registered generator.
     */
    virtual void
    fill(double *out, std::size_t n)
    {
        for (std::size_t i = 0; i < n; ++i)
            out[i] = next();
    }

    /** Convenience overload filling a whole vector. */
    void
    fill(std::vector<double> &out)
    {
        fill(out.data(), out.size());
    }

    /**
     * Fused generation + quantization fast path: fill `out[0..n)` with
     * the next n samples already on `format`'s fixed-point grid,
     * consuming the identical stream positions fill() would. Returns
     * false when the generator has no fused path — callers then fall
     * back to fill() plus a separate quantization pass. When it returns
     * true, the raw values are bit-identical to fill() followed by
     * FixedPointFormat::fromReal(value, RoundMode::Nearest) per sample
     * (ctest-enforced), so the fast path is invisible in results — it
     * only removes the double intermediate from the eps supply.
     */
    virtual bool
    fillFixed(std::int32_t *, std::size_t,
              const fixed::FixedPointFormat &)
    {
        return false;
    }

    /**
     * Identity of a fresh stream. Non-empty only while this generator
     * has drawn nothing since construction; two generators
     * with equal keys then produce bit-identical streams. A consumer
     * may reuse what it derived from an earlier stream with the same
     * key instead of drawing it again (the batched executor's
     * weight-ensemble cache). The default "" means the stream is not
     * identified and is always regenerated.
     */
    virtual std::string
    freshStreamKey() const
    {
        return {};
    }

    /** Short identifier used in bench tables. */
    virtual std::string name() const = 0;
};

} // namespace vibnn::grng

#endif // VIBNN_GRNG_GENERATOR_HH
