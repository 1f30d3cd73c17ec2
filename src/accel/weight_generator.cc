#include "accel/weight_generator.hh"

#include "common/logging.hh"

namespace vibnn::accel
{

WeightGenerator::WeightGenerator(const DatapathKernel &kernel,
                                 grng::GaussianGenerator *generator)
    : kernel_(kernel), generator_(generator)
{
    VIBNN_ASSERT(generator != nullptr, "weight generator needs a GRNG");
    epsReal_.resize(epsBlock);
    epsRaw_.resize(epsBlock);

    // Fixed-point formats cap at 32 bits, so the raw ranges always fit
    // the int32 kernel parameters.
    sampleParams_.epsShift = kernel_.eps.fracBits();
    sampleParams_.wMin =
        static_cast<std::int32_t>(kernel_.weight.rawMin());
    sampleParams_.wMax =
        static_cast<std::int32_t>(kernel_.weight.rawMax());
    // |sigma| is bounded by the weight grid it was quantized onto and
    // |eps| by the eps grid (both rawMin magnitudes, the larger side).
    sampleParams_.sigmaAbsMax = -kernel_.weight.rawMin();
    sampleParams_.epsAbsMax = -kernel_.eps.rawMin();
}

void
WeightGenerator::skipFresh(std::uint64_t n)
{
    VIBNN_ASSERT(epsPos_ == epsFill_, "skipFresh needs an empty eps ring");
    fetched_ += n;
    lag_ += n;
    samplesDrawn_ += n;
}

void
WeightGenerator::refill()
{
    if (lag_ > 0) {
        // Step the generator past the skipped eps.
        for (std::uint64_t left = lag_; left > 0;) {
            const auto take = static_cast<std::size_t>(
                std::min<std::uint64_t>(left, epsBlock));
            generator_->fill(epsReal_.data(), take);
            left -= take;
        }
        lag_ = 0;
    }

    // Fused generation + quantization when the generator has it (RLF
    // count LUT, Philox counter stream): the eps land on the grid in
    // one pass and the double staging block is never touched.
    if (!generator_->fillFixed(epsRaw_.data(), epsBlock, kernel_.eps)) {
        generator_->fill(epsReal_.data(), epsBlock);
        // Batch float->fixed conversion through the dispatched SIMD
        // tier: one vectorized pass per block instead of one fromReal
        // call per consumed sample.
        kernels::activeKernels().quantizeDouble(
            epsReal_.data(), epsRaw_.data(), epsBlock,
            kernel_.eps.fracBits(),
            static_cast<std::int32_t>(kernel_.eps.rawMin()),
            static_cast<std::int32_t>(kernel_.eps.rawMax()));
    }
    fetched_ += epsBlock;
    epsPos_ = 0;
    epsFill_ = epsBlock;
}

void
WeightGenerator::setGenerator(grng::GaussianGenerator *generator)
{
    VIBNN_ASSERT(generator != nullptr, "weight generator needs a GRNG");
    generator_ = generator;
    epsPos_ = 0;
    epsFill_ = 0; // discard prefetched eps from the old stream
    lag_ = 0;
    fetched_ = 0;
}

} // namespace vibnn::accel
