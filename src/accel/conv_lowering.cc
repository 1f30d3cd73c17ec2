/**
 * @file
 * Conv-on-accelerator geometry helpers (see conv_lowering.hh).
 */

#include "accel/conv_lowering.hh"

namespace vibnn::accel
{

namespace
{

/** Shared body of the raw-grid gathers: the arithmetic is pure
 *  indexing, so the int64 fidelity buffers and the batched executor's
 *  narrowed int32 SoA buffers run the identical code. */
template <typename Raw>
void
im2colRawImpl(const nn::ConvSpec &spec, const Raw *x,
              std::vector<Raw> &patches)
{
    const std::size_t out_h = spec.outHeight();
    const std::size_t out_w = spec.outWidth();
    const std::size_t patch = spec.patchSize();
    patches.resize(out_h * out_w * patch);

    for (std::size_t oy = 0; oy < out_h; ++oy) {
        for (std::size_t ox = 0; ox < out_w; ++ox) {
            Raw *row = patches.data() + (oy * out_w + ox) * patch;
            std::size_t k = 0;
            for (std::size_t c = 0; c < spec.inChannels; ++c) {
                const Raw *plane = x + c * spec.inHeight * spec.inWidth;
                for (std::size_t ky = 0; ky < spec.kernel; ++ky) {
                    // Signed arithmetic: the padded coordinate may be
                    // negative at the border.
                    const std::ptrdiff_t iy =
                        static_cast<std::ptrdiff_t>(oy * spec.stride + ky) -
                        static_cast<std::ptrdiff_t>(spec.pad);
                    for (std::size_t kx = 0; kx < spec.kernel; ++kx) {
                        const std::ptrdiff_t ix =
                            static_cast<std::ptrdiff_t>(ox * spec.stride +
                                                        kx) -
                            static_cast<std::ptrdiff_t>(spec.pad);
                        const bool inside =
                            iy >= 0 &&
                            iy < static_cast<std::ptrdiff_t>(
                                     spec.inHeight) &&
                            ix >= 0 &&
                            ix < static_cast<std::ptrdiff_t>(spec.inWidth);
                        row[k++] =
                            inside ? plane[iy * spec.inWidth + ix] : 0;
                    }
                }
            }
        }
    }
}

template <typename Raw>
void
maxPoolRawImpl(const nn::PoolSpec &spec, const Raw *x, Raw *out)
{
    const std::size_t out_h = spec.outHeight();
    const std::size_t out_w = spec.outWidth();
    for (std::size_t c = 0; c < spec.channels; ++c) {
        const Raw *plane = x + c * spec.inHeight * spec.inWidth;
        Raw *out_plane = out + c * out_h * out_w;
        for (std::size_t oy = 0; oy < out_h; ++oy) {
            for (std::size_t ox = 0; ox < out_w; ++ox) {
                const std::size_t y0 = oy * spec.stride;
                const std::size_t x0 = ox * spec.stride;
                Raw best = plane[y0 * spec.inWidth + x0];
                for (std::size_t wy = 0; wy < spec.window; ++wy) {
                    for (std::size_t wx = 0; wx < spec.window; ++wx) {
                        const Raw v =
                            plane[(y0 + wy) * spec.inWidth + (x0 + wx)];
                        if (v > best)
                            best = v;
                    }
                }
                out_plane[oy * out_w + ox] = best;
            }
        }
    }
}

} // namespace

void
im2colRaw(const nn::ConvSpec &spec, const std::int64_t *x,
          std::vector<std::int64_t> &patches)
{
    im2colRawImpl(spec, x, patches);
}

void
im2colRaw(const nn::ConvSpec &spec, const std::int32_t *x,
          std::vector<std::int32_t> &patches)
{
    im2colRawImpl(spec, x, patches);
}

void
maxPoolRaw(const nn::PoolSpec &spec, const std::int64_t *x,
           std::int64_t *out)
{
    maxPoolRawImpl(spec, x, out);
}

void
maxPoolRaw(const nn::PoolSpec &spec, const std::int32_t *x,
           std::int32_t *out)
{
    maxPoolRawImpl(spec, x, out);
}

} // namespace vibnn::accel
