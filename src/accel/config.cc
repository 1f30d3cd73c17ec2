#include "accel/config.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/table.hh"

namespace vibnn::accel
{

fixed::FixedPointFormat
AcceleratorConfig::activationFormat() const
{
    return {bits, std::max(1, bits - 4)};
}

fixed::FixedPointFormat
AcceleratorConfig::weightFormat() const
{
    return {bits, std::max(1, bits - 2)};
}

fixed::FixedPointFormat
AcceleratorConfig::epsFormat() const
{
    return {8, 5};
}

std::string
AcceleratorConfig::constraintViolation(
    const std::vector<std::size_t> &layer_sizes) const
{
    if (peSets < 1 || pesPerSet < 1)
        return "degenerate geometry";
    if (bits < 2 || bits > 16)
        return "operand width out of range [2, 16]";

    // Equation (15b): the per-set WPMem word B*N*S must fit the
    // device's maximum word size (we take MaxWS = 1024 bits, a
    // realistic striped-M10K word).
    constexpr int max_ws = 1024;
    const int word = bits * peInputs() * pesPerSet;
    if (word > max_ws) {
        return strfmt("WPMem word %d exceeds MaxWS %d (equation 15b)",
                      word, max_ws);
    }

    // Write-drain feasibility: each round produces T words for the
    // idle IFMem, drained one per cycle while the next round computes
    // for ceil(in/N) cycles. (The paper's equation (14a) prints this
    // with an extra factor S; as written it would reject the paper's
    // own 16x8x8 configuration, so we implement the version that
    // matches the architecture's intent.)
    std::size_t min_in = layer_sizes.front();
    for (std::size_t i = 0; i + 1 < layer_sizes.size(); ++i)
        min_in = std::min(min_in, layer_sizes[i]);
    const std::size_t chunks =
        (min_in + peInputs() - 1) / peInputs();
    if (static_cast<std::size_t>(peSets) > chunks) {
        return strfmt("PE sets (%d) exceed min chunks-per-layer (%zu); "
                      "IFMem write-back cannot drain (equation 14a)",
                      peSets, chunks);
    }
    return "";
}

void
AcceleratorConfig::validate(
    const std::vector<std::size_t> &layer_sizes) const
{
    const std::string violation = constraintViolation(layer_sizes);
    if (!violation.empty())
        fatal(violation);
}

} // namespace vibnn::accel
