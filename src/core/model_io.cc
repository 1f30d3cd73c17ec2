/**
 * @file
 * Model serialization (see model_io.hh).
 */

#include "core/model_io.hh"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <vector>

#include "common/logging.hh"
#include "common/table.hh"

namespace vibnn::core
{

namespace
{

constexpr char kMagic[8] = {'V', 'I', 'B', 'N', 'N', 'M', 'D', 'L'};
constexpr std::uint32_t kVersion = 1;

enum class Kind : std::uint32_t
{
    BayesianMlp = 1,
    /** Legacy flat network of dense layers: no longer written, still
     *  read (loadQuantizedProgram lifts it into a program). */
    QuantizedNetwork = 2,
    BayesianConvNet = 3,
    QuantizedProgram = 4,
};

/** Little-endian byte sink with a running FNV-1a checksum. */
class Writer
{
  public:
    void
    u32(std::uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            byte(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void
    u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            byte(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void
    f32(float v)
    {
        std::uint32_t bits;
        std::memcpy(&bits, &v, 4);
        u32(bits);
    }

    void
    i32(std::int32_t v)
    {
        u32(static_cast<std::uint32_t>(v));
    }

    void
    floats(const std::vector<float> &vs)
    {
        u64(vs.size());
        for (float v : vs)
            f32(v);
    }

    void
    ints(const std::vector<std::int32_t> &vs)
    {
        u64(vs.size());
        for (std::int32_t v : vs)
            i32(v);
    }

    void
    str(const std::string &s)
    {
        u64(s.size());
        for (char c : s)
            byte(static_cast<std::uint8_t>(c));
    }

    std::uint64_t hash() const { return hash_; }
    const std::vector<std::uint8_t> &bytes() const { return bytes_; }

  private:
    void
    byte(std::uint8_t b)
    {
        bytes_.push_back(b);
        hash_ = (hash_ ^ b) * 0x100000001B3ULL;
    }

    std::vector<std::uint8_t> bytes_;
    std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

/** Bounds-checked little-endian reader with the same checksum. */
class Reader
{
  public:
    explicit Reader(std::vector<std::uint8_t> bytes)
        : bytes_(std::move(bytes))
    {
    }

    bool
    u32(std::uint32_t &v)
    {
        std::uint8_t b[4];
        if (!take(b, 4))
            return false;
        v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(b[i]) << (8 * i);
        return true;
    }

    bool
    u64(std::uint64_t &v)
    {
        std::uint8_t b[8];
        if (!take(b, 8))
            return false;
        v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(b[i]) << (8 * i);
        return true;
    }

    bool
    f32(float &v)
    {
        std::uint32_t bits;
        if (!u32(bits))
            return false;
        std::memcpy(&v, &bits, 4);
        return true;
    }

    bool
    i32(std::int32_t &v)
    {
        std::uint32_t bits;
        if (!u32(bits))
            return false;
        v = static_cast<std::int32_t>(bits);
        return true;
    }

    bool
    floats(std::vector<float> &vs, std::uint64_t max_count)
    {
        // Bounding by the bytes actually present (4 per element) keeps
        // a crafted count field from forcing a huge allocation before
        // the data check.
        std::uint64_t n;
        if (!u64(n) || n > max_count || n > remaining() / 4)
            return false;
        vs.resize(n);
        for (auto &v : vs) {
            if (!f32(v))
                return false;
        }
        return true;
    }

    bool
    ints(std::vector<std::int32_t> &vs, std::uint64_t max_count)
    {
        std::uint64_t n;
        if (!u64(n) || n > max_count || n > remaining() / 4)
            return false;
        vs.resize(n);
        for (auto &v : vs) {
            if (!i32(v))
                return false;
        }
        return true;
    }

    bool
    str(std::string &s, std::uint64_t max_len)
    {
        std::uint64_t n;
        if (!u64(n) || n > max_len)
            return false;
        s.resize(n);
        for (auto &c : s) {
            std::uint8_t b;
            if (!take(&b, 1))
                return false;
            c = static_cast<char>(b);
        }
        return true;
    }

    std::uint64_t hash() const { return hash_; }
    std::size_t remaining() const { return bytes_.size() - at_; }

    /** Read the 8-byte trailer *without* folding it into the hash. */
    bool
    trailer(std::uint64_t &v)
    {
        if (remaining() != 8)
            return false;
        v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(bytes_[at_ + i]) << (8 * i);
        at_ += 8;
        return true;
    }

  private:
    bool
    take(std::uint8_t *out, std::size_t n)
    {
        if (at_ + n > bytes_.size())
            return false;
        for (std::size_t i = 0; i < n; ++i) {
            out[i] = bytes_[at_ + i];
            hash_ = (hash_ ^ out[i]) * 0x100000001B3ULL;
        }
        at_ += n;
        return true;
    }

    std::vector<std::uint8_t> bytes_;
    std::size_t at_ = 0;
    std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

/** Read a whole file and verify magic/version/checksum and that its
 *  kind tag is one of `accepted`. Returns a Reader positioned after the
 *  header (and the tag in *kind when asked), or nullptr. */
std::unique_ptr<Reader>
openFile(const std::string &path, std::initializer_list<Kind> accepted,
         Kind *kind = nullptr)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        warn("model_io: cannot open " + path);
        return nullptr;
    }
    std::vector<std::uint8_t> bytes(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());

    if (bytes.size() < sizeof(kMagic) + 8 + 8) {
        warn("model_io: " + path + " is truncated");
        return nullptr;
    }
    if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
        warn("model_io: " + path + " has wrong magic");
        return nullptr;
    }

    // Verify the checksum over everything between magic and trailer.
    std::uint64_t hash = 0xCBF29CE484222325ULL;
    for (std::size_t i = 0; i + 8 < bytes.size(); ++i) {
        if (i < sizeof(kMagic))
            continue;
        hash = (hash ^ bytes[i]) * 0x100000001B3ULL;
    }
    std::uint64_t stored = 0;
    for (int i = 0; i < 8; ++i) {
        stored |= static_cast<std::uint64_t>(
                      bytes[bytes.size() - 8 + i])
            << (8 * i);
    }
    if (hash != stored) {
        warn("model_io: " + path + " failed checksum (corrupted)");
        return nullptr;
    }

    auto reader = std::make_unique<Reader>(std::vector<std::uint8_t>(
        bytes.begin() + sizeof(kMagic), bytes.end()));
    std::uint32_t version, tag;
    if (!reader->u32(version) || version != kVersion) {
        warn("model_io: " + path + " has unsupported version");
        return nullptr;
    }
    if (!reader->u32(tag) ||
        std::find(accepted.begin(), accepted.end(),
                  static_cast<Kind>(tag)) == accepted.end()) {
        warn("model_io: " + path + " holds a different model kind");
        return nullptr;
    }
    if (kind)
        *kind = static_cast<Kind>(tag);
    return reader;
}

/** Write magic + (version, kind, payload) + checksum trailer. The
 *  checksum covers version/kind/payload only, matching openFile. */
bool
saveWithHeader(const std::string &path, Kind kind,
               const std::function<void(Writer &)> &payload)
{
    Writer w;
    w.u32(kVersion);
    w.u32(static_cast<std::uint32_t>(kind));
    payload(w);

    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) {
        warn("model_io: cannot open " + path + " for writing");
        return false;
    }
    out.write(kMagic, sizeof(kMagic));
    out.write(reinterpret_cast<const char *>(w.bytes().data()),
              static_cast<std::streamsize>(w.bytes().size()));
    const std::uint64_t h = w.hash();
    char trailer[8];
    for (int i = 0; i < 8; ++i)
        trailer[i] = static_cast<char>(h >> (8 * i));
    out.write(trailer, 8);
    return static_cast<bool>(out);
}

constexpr std::uint64_t kMaxElements = 1ULL << 32;
/** Program bounds shared by writer (save refusal) and reader
 *  (rejection), so a successful save always round-trips byte-exact. */
constexpr std::uint64_t kMaxLabel = 256;
constexpr std::uint64_t kMaxOps = 256;

/** True when (total, frac) is a constructible FixedPointFormat —
 *  checked before construction so corrupt headers are rejected with
 *  nullptr instead of tripping the constructor's assertion. */
bool
validFormatPair(std::uint32_t total, std::uint32_t frac)
{
    return total >= 2 && total <= 32 && frac < total;
}

/** A bank's four parameter planes, in file order. */
bool
readPlanes(Reader &reader, accel::QuantizedLayer &bank)
{
    return reader.ints(bank.muWeight, kMaxElements) &&
        reader.ints(bank.sigmaWeight, kMaxElements) &&
        reader.ints(bank.muBias, kMaxElements) &&
        reader.ints(bank.sigmaBias, kMaxElements);
}

/** True when the planes have the bank's outDim x inDim shape. */
bool
planesMatchDims(const accel::QuantizedLayer &bank)
{
    return bank.muWeight.size() == bank.inDim * bank.outDim &&
        bank.sigmaWeight.size() == bank.inDim * bank.outDim &&
        bank.muBias.size() == bank.outDim &&
        bank.sigmaBias.size() == bank.outDim;
}

/**
 * Lift the payload of a legacy flat-network image (the part after its
 * format words) into the program compile() emits for that MLP: one
 * Dense op per layer, ReLU on all but the last, then Output staging.
 * @return The name of the first bad field, or nullptr on success.
 */
const char *
liftNetworkImage(Reader &reader, accel::QuantizedProgram &program)
{
    std::uint64_t count;
    if (!reader.u64(count) || count == 0 || count > 64)
        return "layer count";
    for (std::size_t i = 0; i < count; ++i) {
        std::uint64_t in, out;
        if (!reader.u64(in) || !reader.u64(out) || in == 0 || out == 0 ||
            in > kMaxElements || out > kMaxElements)
            return "layer dims";
        accel::ProgramOp op;
        op.kind = accel::OpKind::Dense;
        op.inSize = op.bank.inDim = static_cast<std::size_t>(in);
        op.outSize = op.bank.outDim = static_cast<std::size_t>(out);
        op.relu = i + 1 < count;
        op.label = strfmt("dense%zu %zu->%zu", i, op.inSize, op.outSize);
        if (!readPlanes(reader, op.bank))
            return "parameter plane";
        if (!planesMatchDims(op.bank))
            return "plane shape";
        program.ops.push_back(std::move(op));
    }
    const std::size_t out_dim = program.ops.back().outSize;
    accel::ProgramOp staging;
    staging.kind = accel::OpKind::Output;
    staging.inSize = out_dim;
    staging.outSize = out_dim;
    staging.relu = false;
    staging.label = strfmt("output %zu", out_dim);
    program.ops.push_back(std::move(staging));
    return nullptr;
}

} // namespace

bool
saveBayesianMlp(const bnn::BayesianMlp &net, const std::string &path)
{
    return saveWithHeader(path, Kind::BayesianMlp, [&](Writer &w) {
        const auto &sizes = net.layerSizes();
        w.u64(sizes.size());
        for (std::size_t s : sizes)
            w.u64(s);
        std::vector<float> params;
        net.gatherParams(params);
        w.floats(params);
    });
}

std::unique_ptr<bnn::BayesianMlp>
loadBayesianMlp(const std::string &path)
{
    auto reader = openFile(path, {Kind::BayesianMlp});
    if (!reader)
        return nullptr;

    std::uint64_t count;
    if (!reader->u64(count) || count < 2 || count > 64) {
        warn("model_io: " + path + " has a bad layer count");
        return nullptr;
    }
    std::vector<std::size_t> sizes(count);
    for (auto &s : sizes) {
        std::uint64_t v;
        if (!reader->u64(v) || v == 0 || v > kMaxElements) {
            warn("model_io: " + path + " has a bad layer size");
            return nullptr;
        }
        s = static_cast<std::size_t>(v);
    }
    std::vector<float> params;
    if (!reader->floats(params, kMaxElements)) {
        warn("model_io: " + path + " parameter block truncated");
        return nullptr;
    }

    Rng init(0); // every value is overwritten by scatterParams
    auto net = std::make_unique<bnn::BayesianMlp>(sizes, init);
    if (params.size() != net->paramCount()) {
        warn("model_io: " + path + " parameter count mismatch");
        return nullptr;
    }
    net->scatterParams(params);
    return net;
}

bool
saveBayesianConvNet(const bnn::BayesianConvNet &net,
                    const std::string &path)
{
    return saveWithHeader(path, Kind::BayesianConvNet, [&](Writer &w) {
        const auto &cfg = net.config();
        w.u64(cfg.inChannels);
        w.u64(cfg.imageHeight);
        w.u64(cfg.imageWidth);
        w.u64(cfg.numClasses);
        w.u64(cfg.blocks.size());
        for (const auto &b : cfg.blocks) {
            w.u64(b.outChannels);
            w.u64(b.kernel);
            w.u64(b.stride);
            w.u64(b.pad);
            w.u32(b.pool ? 1 : 0);
            w.u64(b.poolWindow);
        }
        w.u64(cfg.denseHidden.size());
        for (std::size_t h : cfg.denseHidden)
            w.u64(h);
        std::vector<float> params;
        net.gatherParams(params);
        w.floats(params);
    });
}

std::unique_ptr<bnn::BayesianConvNet>
loadBayesianConvNet(const std::string &path)
{
    auto reader = openFile(path, {Kind::BayesianConvNet});
    if (!reader)
        return nullptr;

    auto bad = [&](const char *what) {
        warn("model_io: " + path + " has a bad " + what);
        return nullptr;
    };

    nn::ConvNetConfig cfg;
    std::uint64_t v;
    if (!reader->u64(v) || v == 0 || v > 16)
        return bad("channel count");
    cfg.inChannels = static_cast<std::size_t>(v);
    if (!reader->u64(v) || v == 0 || v > 4096)
        return bad("image height");
    cfg.imageHeight = static_cast<std::size_t>(v);
    if (!reader->u64(v) || v == 0 || v > 4096)
        return bad("image width");
    cfg.imageWidth = static_cast<std::size_t>(v);
    if (!reader->u64(v) || v == 0 || v > 65536)
        return bad("class count");
    cfg.numClasses = static_cast<std::size_t>(v);

    std::uint64_t blocks;
    if (!reader->u64(blocks) || blocks > 32)
        return bad("block count");
    cfg.blocks.resize(blocks);
    for (auto &b : cfg.blocks) {
        std::uint32_t flag;
        if (!reader->u64(v) || v == 0 || v > 4096)
            return bad("block channels");
        b.outChannels = static_cast<std::size_t>(v);
        if (!reader->u64(v) || v == 0 || v > 64)
            return bad("kernel");
        b.kernel = static_cast<std::size_t>(v);
        if (!reader->u64(v) || v == 0 || v > 64)
            return bad("stride");
        b.stride = static_cast<std::size_t>(v);
        if (!reader->u64(v) || v >= b.kernel)
            return bad("pad");
        b.pad = static_cast<std::size_t>(v);
        if (!reader->u32(flag))
            return bad("pool flag");
        b.pool = flag != 0;
        if (!reader->u64(v) || v == 0 || v > 64)
            return bad("pool window");
        b.poolWindow = static_cast<std::size_t>(v);
    }
    std::uint64_t hidden;
    if (!reader->u64(hidden) || hidden > 32)
        return bad("hidden count");
    cfg.denseHidden.resize(hidden);
    for (auto &h : cfg.denseHidden) {
        if (!reader->u64(v) || v == 0 || v > kMaxElements)
            return bad("hidden size");
        h = static_cast<std::size_t>(v);
    }
    std::vector<float> params;
    if (!reader->floats(params, kMaxElements))
        return bad("parameter block");

    Rng init(0);
    auto net = std::make_unique<bnn::BayesianConvNet>(cfg, init);
    if (params.size() != net->paramCount())
        return bad("parameter count");
    net->scatterParams(params);
    return net;
}

bool
saveQuantizedProgram(const accel::QuantizedProgram &program,
                     const std::string &path)
{
    // Refuse the size bounds the loader enforces, so well-formed
    // programs always round-trip byte-identically. (Structural
    // validity — plane shapes, conv geometry — remains the loader's
    // job, exactly as for freshly compiled programs.)
    if (program.ops.empty() || program.ops.size() > kMaxOps) {
        warn("model_io: refusing to save program with " +
             std::to_string(program.ops.size()) + " ops");
        return false;
    }
    for (const auto &op : program.ops) {
        if (op.label.size() > kMaxLabel) {
            warn("model_io: refusing to save op label longer than " +
                 std::to_string(kMaxLabel) + " chars");
            return false;
        }
    }
    return saveWithHeader(path, Kind::QuantizedProgram, [&](Writer &w) {
        w.u32(static_cast<std::uint32_t>(
            program.activationFormat.totalBits()));
        w.u32(static_cast<std::uint32_t>(
            program.activationFormat.fracBits()));
        w.u32(static_cast<std::uint32_t>(
            program.weightFormat.totalBits()));
        w.u32(static_cast<std::uint32_t>(
            program.weightFormat.fracBits()));
        w.u32(static_cast<std::uint32_t>(program.epsFormat.totalBits()));
        w.u32(static_cast<std::uint32_t>(program.epsFormat.fracBits()));
        w.u64(program.ops.size());
        for (const auto &op : program.ops) {
            w.u32(static_cast<std::uint32_t>(op.kind));
            w.str(op.label);
            w.u64(op.inSize);
            w.u64(op.outSize);
            w.u32(op.relu ? 1 : 0);
            w.u64(op.bank.inDim);
            w.u64(op.bank.outDim);
            w.ints(op.bank.muWeight);
            w.ints(op.bank.sigmaWeight);
            w.ints(op.bank.muBias);
            w.ints(op.bank.sigmaBias);
            // Conv / pool geometry: written for every op (defaults for
            // the kinds that don't use them) so records stay
            // fixed-shape.
            w.u64(op.conv.inChannels);
            w.u64(op.conv.inHeight);
            w.u64(op.conv.inWidth);
            w.u64(op.conv.outChannels);
            w.u64(op.conv.kernel);
            w.u64(op.conv.stride);
            w.u64(op.conv.pad);
            w.u64(op.pool.channels);
            w.u64(op.pool.inHeight);
            w.u64(op.pool.inWidth);
            w.u64(op.pool.window);
            w.u64(op.pool.stride);
        }
    });
}

std::unique_ptr<accel::QuantizedProgram>
loadQuantizedProgram(const std::string &path)
{
    Kind file_kind;
    auto reader = openFile(
        path, {Kind::QuantizedProgram, Kind::QuantizedNetwork}, &file_kind);
    if (!reader)
        return nullptr;

    auto bad = [&](const char *what) {
        warn("model_io: " + path + " has a bad " + what);
        return nullptr;
    };

    std::uint32_t fmt[6];
    for (auto &f : fmt) {
        if (!reader->u32(f))
            return bad("fixed-point format");
    }
    for (int i = 0; i < 6; i += 2) {
        if (!validFormatPair(fmt[i], fmt[i + 1]))
            return bad("fixed-point format");
    }
    auto program = std::make_unique<accel::QuantizedProgram>();
    program->activationFormat = fixed::FixedPointFormat(
        static_cast<int>(fmt[0]), static_cast<int>(fmt[1]));
    program->weightFormat = fixed::FixedPointFormat(
        static_cast<int>(fmt[2]), static_cast<int>(fmt[3]));
    program->epsFormat = fixed::FixedPointFormat(static_cast<int>(fmt[4]),
                                                 static_cast<int>(fmt[5]));

    // Both quantized kinds share the format header; a legacy flat
    // network is lifted from here.
    if (file_kind == Kind::QuantizedNetwork) {
        if (const char *field = liftNetworkImage(*reader, *program))
            return bad(field);
        return program;
    }

    std::uint64_t count;
    if (!reader->u64(count) || count == 0 || count > kMaxOps)
        return bad("op count");
    program->ops.resize(count);
    for (auto &op : program->ops) {
        std::uint32_t kind, relu;
        std::uint64_t v;
        if (!reader->u32(kind) ||
            kind > static_cast<std::uint32_t>(accel::OpKind::Output))
            return bad("op kind");
        op.kind = static_cast<accel::OpKind>(kind);
        if (!reader->str(op.label, kMaxLabel))
            return bad("op label");
        if (!reader->u64(v) || v > kMaxElements)
            return bad("op input size");
        op.inSize = static_cast<std::size_t>(v);
        if (!reader->u64(v) || v > kMaxElements)
            return bad("op output size");
        op.outSize = static_cast<std::size_t>(v);
        if (!reader->u32(relu))
            return bad("relu flag");
        op.relu = relu != 0;

        std::uint64_t in, out;
        if (!reader->u64(in) || !reader->u64(out) ||
            in > kMaxElements || out > kMaxElements)
            return bad("bank dims");
        op.bank.inDim = static_cast<std::size_t>(in);
        op.bank.outDim = static_cast<std::size_t>(out);
        if (!readPlanes(*reader, op.bank))
            return bad("parameter plane");
        if (op.isCompute()) {
            if (!planesMatchDims(op.bank))
                return bad("plane shape");
        } else if (!op.bank.muWeight.empty() ||
                   !op.bank.sigmaWeight.empty() ||
                   !op.bank.muBias.empty() ||
                   !op.bank.sigmaBias.empty()) {
            // Staging ops carry no parameters; reject smuggled planes.
            return bad("plane shape");
        }

        std::uint64_t geo[7];
        for (auto &g : geo) {
            if (!reader->u64(g) || g > kMaxElements)
                return bad("conv geometry");
        }
        op.conv.inChannels = static_cast<std::size_t>(geo[0]);
        op.conv.inHeight = static_cast<std::size_t>(geo[1]);
        op.conv.inWidth = static_cast<std::size_t>(geo[2]);
        op.conv.outChannels = static_cast<std::size_t>(geo[3]);
        op.conv.kernel = static_cast<std::size_t>(geo[4]);
        op.conv.stride = static_cast<std::size_t>(geo[5]);
        op.conv.pad = static_cast<std::size_t>(geo[6]);
        if (op.kind == accel::OpKind::ConvLowered && !op.conv.valid())
            return bad("conv geometry");

        std::uint64_t pg[5];
        for (auto &g : pg) {
            if (!reader->u64(g) || g > kMaxElements)
                return bad("pool geometry");
        }
        op.pool.channels = static_cast<std::size_t>(pg[0]);
        op.pool.inHeight = static_cast<std::size_t>(pg[1]);
        op.pool.inWidth = static_cast<std::size_t>(pg[2]);
        op.pool.window = static_cast<std::size_t>(pg[3]);
        op.pool.stride = static_cast<std::size_t>(pg[4]);
        if (op.kind == accel::OpKind::Pool && !op.pool.valid())
            return bad("pool geometry");
    }
    return program;
}

} // namespace vibnn::core
