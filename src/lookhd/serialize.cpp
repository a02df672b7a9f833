#include "lookhd/serialize.hpp"

#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <span>

#include "util/check.hpp"

namespace lookhd {

namespace {

constexpr char kMagic[4] = {'L', 'K', 'H', 'D'};
// v1: everything through the retrain history. v2 appends the
// quantized serving forms (int8 + binary class rows) behind a
// presence byte, a section magic, and an FNV-1a checksum; v1 files
// still load (they simply carry no quantized forms).
constexpr std::uint8_t kVersion = 2;
constexpr std::uint8_t kMinVersion = 1;

// The quantized section's own magic and format bitmask (bit 0: int8
// rows, bit 1: packed binary rows). Both forms are always written
// together today; the mask exists so future formats can be added
// without another version bump.
constexpr char kQuantMagic[4] = {'Q', 'N', 'T', 'Z'};
constexpr std::uint8_t kQuantFormats = 3;

// Sanity caps applied to header fields before any allocation, so an
// absurd or hostile header cannot trigger a multi-gigabyte reserve or
// an overflowing size computation.
constexpr std::uint64_t kMaxDim = std::uint64_t{1} << 28;
constexpr std::uint64_t kMaxQuantLevels = std::uint64_t{1} << 20;
constexpr std::uint64_t kMaxFeatures = std::uint64_t{1} << 24;
constexpr std::uint64_t kMaxClasses = std::uint64_t{1} << 20;
constexpr std::uint64_t kMaxHistory = std::uint64_t{1} << 20;

// --- Primitive writers/readers (little-endian, fixed width) ---

void
writeBytes(std::ostream &out, const void *data, std::size_t size)
{
    out.write(static_cast<const char *>(data),
              static_cast<std::streamsize>(size));
    if (!out)
        throw SerializeError("write failure");
}

void
readBytes(std::istream &in, void *data, std::size_t size)
{
    in.read(static_cast<char *>(data),
            static_cast<std::streamsize>(size));
    if (!in || in.gcount() != static_cast<std::streamsize>(size))
        throw SerializeError("truncated or unreadable input");
}

void
writeU8(std::ostream &out, std::uint8_t v)
{
    writeBytes(out, &v, 1);
}

std::uint8_t
readU8(std::istream &in)
{
    std::uint8_t v;
    readBytes(in, &v, 1);
    return v;
}

void
writeU64(std::ostream &out, std::uint64_t v)
{
    std::uint8_t bytes[8];
    for (int i = 0; i < 8; ++i)
        bytes[i] = static_cast<std::uint8_t>(v >> (8 * i));
    writeBytes(out, bytes, 8);
}

std::uint64_t
readU64(std::istream &in)
{
    std::uint8_t bytes[8];
    readBytes(in, bytes, 8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(bytes[i]) << (8 * i);
    return v;
}

void
writeDouble(std::ostream &out, double v)
{
    std::uint64_t bits;
    std::memcpy(&bits, &v, 8);
    writeU64(out, bits);
}

double
readDouble(std::istream &in)
{
    const std::uint64_t bits = readU64(in);
    double v;
    std::memcpy(&v, &bits, 8);
    return v;
}

void
writeDoubles(std::ostream &out, std::span<const double> v)
{
    writeU64(out, v.size());
    for (double x : v)
        writeDouble(out, x);
}

std::vector<double>
readDoubles(std::istream &in, std::uint64_t cap = ~std::uint64_t{0})
{
    const std::uint64_t count = readU64(in);
    if (count > cap)
        throw SerializeError("implausible array length");
    std::vector<double> v(count);
    for (auto &x : v)
        x = readDouble(in);
    return v;
}

void
writeBipolar(std::ostream &out, const hdc::BipolarHv &hv)
{
    writeU64(out, hv.size());
    writeBytes(out, hv.data(), hv.size());
}

hdc::BipolarHv
readBipolar(std::istream &in)
{
    const std::uint64_t size = readU64(in);
    if (size > (std::uint64_t{1} << 28))
        throw SerializeError("implausible hypervector size");
    hdc::BipolarHv hv(size);
    readBytes(in, hv.data(), size);
    for (auto v : hv) {
        if (v != 1 && v != -1)
            throw SerializeError("corrupt bipolar element");
    }
    return hv;
}

void
writeIntHv(std::ostream &out, const hdc::IntHv &hv)
{
    writeU64(out, hv.size());
    for (auto v : hv)
        writeU64(out, static_cast<std::uint64_t>(
                          static_cast<std::int64_t>(v)));
}

hdc::IntHv
readIntHv(std::istream &in)
{
    const std::uint64_t size = readU64(in);
    if (size > (std::uint64_t{1} << 28))
        throw SerializeError("implausible hypervector size");
    hdc::IntHv hv(size);
    for (auto &v : hv) {
        v = static_cast<std::int32_t>(
            static_cast<std::int64_t>(readU64(in)));
    }
    return hv;
}

// --- Quantized section checksum (FNV-1a 64) ---
//
// The quantized rows are the only payload whose corruption would NOT
// be caught by cross-field consistency checks (any byte pattern is a
// plausible int8 row), so the section carries its own checksum,
// computed streaming on both sides.

constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t
fnv1a(std::uint64_t hash, const void *data, std::size_t size)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < size; ++i) {
        hash ^= bytes[i];
        hash *= kFnvPrime;
    }
    return hash;
}

/** writeBytes that folds everything written into a running hash. */
struct ChecksumWriter
{
    std::ostream &out;
    std::uint64_t hash = kFnvOffset;

    void
    bytes(const void *data, std::size_t size)
    {
        writeBytes(out, data, size);
        hash = fnv1a(hash, data, size);
    }
    void
    u8(std::uint8_t v)
    {
        bytes(&v, 1);
    }
    void
    u64(std::uint64_t v)
    {
        std::uint8_t b[8];
        for (int i = 0; i < 8; ++i)
            b[i] = static_cast<std::uint8_t>(v >> (8 * i));
        bytes(b, 8);
    }
    void
    f64(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, 8);
        u64(bits);
    }
};

/** readBytes that folds everything read into a running hash. */
struct ChecksumReader
{
    std::istream &in;
    std::uint64_t hash = kFnvOffset;

    void
    bytes(void *data, std::size_t size)
    {
        readBytes(in, data, size);
        hash = fnv1a(hash, data, size);
    }
    std::uint8_t
    u8()
    {
        std::uint8_t v;
        bytes(&v, 1);
        return v;
    }
    std::uint64_t
    u64()
    {
        std::uint8_t b[8];
        bytes(b, 8);
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(b[i]) << (8 * i);
        return v;
    }
    double
    f64()
    {
        const std::uint64_t bits = u64();
        double v;
        std::memcpy(&v, &bits, 8);
        return v;
    }
};

void
writeQuantizedSection(std::ostream &out, const QuantizedServingModel &qm)
{
    writeU8(out, 1);
    ChecksumWriter cw{out};
    cw.bytes(kQuantMagic, 4);
    cw.u8(kQuantFormats);
    cw.u64(qm.numClasses());
    cw.u64(qm.dim());
    cw.bytes(qm.int8Rows().data(), qm.int8Rows().size());
    for (const double s : qm.scales())
        cw.f64(s);
    for (const hdc::PackedHv &row : qm.binaryRows())
        for (const std::uint64_t w : row.data())
            cw.u64(w);
    writeU64(out, cw.hash);
}

std::shared_ptr<const QuantizedServingModel>
readQuantizedSection(std::istream &in, std::uint64_t dim,
                     std::uint64_t classes)
{
    const std::uint8_t present = readU8(in);
    if (present > 1)
        throw SerializeError("invalid quantized-presence flag");
    if (present == 0)
        return nullptr;

    ChecksumReader cr{in};
    char magic[4];
    cr.bytes(magic, 4);
    if (std::memcmp(magic, kQuantMagic, 4) != 0)
        throw SerializeError("quantized section magic mismatch");
    const std::uint8_t formats = cr.u8();
    if (formats != kQuantFormats)
        throw SerializeError("unsupported quantized precision tag");
    const std::uint64_t k = cr.u64();
    if (k != classes)
        throw SerializeError("quantized class count mismatch");
    const std::uint64_t qdim = cr.u64();
    if (qdim != dim)
        throw SerializeError(
            "quantized dimensionality does not match header");

    // Shapes are pinned to the already-validated model's, so these
    // allocations are bounded by what the models already hold.
    std::vector<std::int8_t> rows(k * dim);
    cr.bytes(rows.data(), rows.size());
    std::vector<double> scales(k);
    for (auto &s : scales)
        s = cr.f64();
    const std::size_t words = (dim + 63) / 64;
    std::vector<hdc::PackedHv> binary;
    binary.reserve(k);
    for (std::uint64_t c = 0; c < k; ++c) {
        std::vector<std::uint64_t> w(words);
        for (auto &word : w)
            word = cr.u64();
        // PackedHv's adoption ctor rejects nonzero tail bits; the
        // surrounding loadClassifier() maps the contract violation
        // into SerializeError.
        binary.emplace_back(dim, std::move(w));
    }

    const std::uint64_t expected = cr.hash;
    if (readU64(in) != expected)
        throw SerializeError("quantized section checksum mismatch");

    return std::make_shared<const QuantizedServingModel>(
        dim, std::move(rows), std::move(scales), std::move(binary));
}

} // namespace

void
saveClassifier(const Classifier &clf, std::ostream &out)
{
    LOOKHD_CHECK(clf.fitted(), "cannot save an unfitted classifier");
    const ClassifierConfig &cfg = clf.config();

    writeBytes(out, kMagic, 4);
    writeU8(out, kVersion);

    // Configuration.
    writeU64(out, cfg.dim);
    writeU64(out, cfg.quantLevels);
    writeU64(out, cfg.chunkSize);
    writeU8(out, cfg.quantization == QuantizationKind::kEqualized);
    writeU8(out, cfg.perFeatureQuantization);
    writeU8(out, cfg.levelGen == hdc::LevelGen::kDistinctHalf);
    writeU8(out, cfg.compressModel);
    writeU8(out, cfg.compression.decorrelate);
    writeU64(out, cfg.compression.maxClassesPerGroup);
    writeU8(out, cfg.compression.scaleScores);
    writeU64(out, cfg.retrainEpochs);
    writeU64(out, cfg.seed);

    const LookupEncoder &encoder = clf.encoder();
    writeU64(out, encoder.chunks().numFeatures());

    // Quantization state (boundaries fully determine behaviour).
    const quant::QuantizerBank &bank = encoder.quantizerBank();
    if (cfg.perFeatureQuantization) {
        writeU64(out, bank.numFeatures());
        for (std::size_t f = 0; f < bank.numFeatures(); ++f)
            writeDoubles(out, bank.boundaries(f));
    } else {
        writeDoubles(out, bank.boundaries(0));
    }

    // Level memory.
    const hdc::LevelMemory &levels = encoder.levelMemory();
    writeU64(out, levels.levels());
    for (std::size_t l = 0; l < levels.levels(); ++l)
        writeBipolar(out, levels.at(l));

    // Position keys.
    const hdc::KeyMemory &positions = encoder.positionKeys();
    writeU64(out, positions.count());
    for (std::size_t c = 0; c < positions.count(); ++c)
        writeBipolar(out, positions.at(c));

    // Models. Bit 0: compressed present; bit 1: uncompressed present.
    const bool has_compressed = cfg.compressModel;
    writeU8(out, static_cast<std::uint8_t>(
                     (has_compressed ? 1 : 0) | 2));

    if (has_compressed) {
        const CompressedModel &cm = clf.compressedModel();
        writeU64(out, cm.numClasses());
        writeU64(out, cm.numGroups());
        for (std::size_t g = 0; g < cm.numGroups(); ++g)
            writeDoubles(out, cm.groupHv(g));
        for (std::size_t c = 0; c < cm.numClasses(); ++c)
            writeBipolar(out, cm.classKeys().at(c));
        std::vector<double> norms(cm.numClasses());
        for (std::size_t c = 0; c < cm.numClasses(); ++c)
            norms[c] = cm.trackedNorm(c);
        writeDoubles(out, norms);
        writeDoubles(out, cm.commonDirection());
    }
    {
        const hdc::ClassModel &model = clf.uncompressedModel();
        writeU64(out, model.numClasses());
        for (std::size_t c = 0; c < model.numClasses(); ++c)
            writeIntHv(out, model.classHv(c));
    }

    writeDoubles(out, clf.retrainHistory());

    // v2: quantized serving forms, derived from the trained model at
    // save time (reusing already-attached forms when present, so a
    // load-save round trip is byte-stable).
    if (clf.hasQuantized()) {
        writeQuantizedSection(out, clf.quantizedModel());
    } else {
        // Same source Classifier::quantize() prefers: the
        // uncompressed normalized prototypes (always serialized
        // above, so always present here). Deriving from the
        // compressed group hypervectors instead would wreck the
        // binary form's accuracy - see quantize().
        writeQuantizedSection(
            out, QuantizedServingModel::fromClassModel(
                     clf.uncompressedModel()));
    }
}

namespace {

Classifier
loadClassifierImpl(std::istream &in)
{
    char magic[4];
    readBytes(in, magic, 4);
    if (std::memcmp(magic, kMagic, 4) != 0)
        throw SerializeError("not a LookHD model file");
    const std::uint8_t version = readU8(in);
    if (version < kMinVersion || version > kVersion)
        throw SerializeError("unsupported model version");

    ClassifierConfig cfg;
    cfg.dim = readU64(in);
    if (cfg.dim == 0 || cfg.dim > kMaxDim)
        throw SerializeError("implausible dimensionality in header");
    cfg.quantLevels = readU64(in);
    if (cfg.quantLevels < 2 || cfg.quantLevels > kMaxQuantLevels)
        throw SerializeError("implausible quantization levels in header");
    cfg.chunkSize = readU64(in);
    if (cfg.chunkSize == 0 || cfg.chunkSize > kMaxFeatures)
        throw SerializeError("implausible chunk size in header");
    cfg.quantization = readU8(in) ? QuantizationKind::kEqualized
                                  : QuantizationKind::kLinear;
    cfg.perFeatureQuantization = readU8(in) != 0;
    cfg.levelGen = readU8(in) ? hdc::LevelGen::kDistinctHalf
                              : hdc::LevelGen::kPaperRandom;
    cfg.compressModel = readU8(in) != 0;
    cfg.compression.decorrelate = readU8(in) != 0;
    cfg.compression.maxClassesPerGroup = readU64(in);
    if (cfg.compression.maxClassesPerGroup == 0 ||
        cfg.compression.maxClassesPerGroup > kMaxClasses)
        throw SerializeError("implausible group size in header");
    cfg.compression.keepReference = false;
    cfg.compression.scaleScores = readU8(in) != 0;
    cfg.retrainEpochs = readU64(in);
    cfg.seed = readU64(in);

    const std::uint64_t num_features = readU64(in);
    if (num_features == 0 || num_features > kMaxFeatures)
        throw SerializeError("implausible feature count in header");

    // The Quantizer constructor rejects unsorted boundaries.
    const auto readQuantizer = [&] {
        auto bounds = readDoubles(in, 1 << 20);
        if (bounds.size() + 1 != cfg.quantLevels)
            throw SerializeError("quantizer boundary mismatch");
        return quant::Quantizer(std::move(bounds));
    };
    std::optional<quant::QuantizerBank> bank;
    if (cfg.perFeatureQuantization) {
        const std::uint64_t bank_features = readU64(in);
        if (bank_features != num_features)
            throw SerializeError("bank feature count mismatch");
        std::vector<quant::Quantizer> quantizers;
        for (std::uint64_t f = 0; f < bank_features; ++f)
            quantizers.push_back(readQuantizer());
        bank.emplace(quantizers);
    } else {
        bank.emplace(readQuantizer(), num_features);
    }

    const std::uint64_t num_levels = readU64(in);
    if (num_levels != cfg.quantLevels)
        throw SerializeError("level memory size mismatch");
    std::vector<hdc::BipolarHv> level_hvs(num_levels);
    for (auto &hv : level_hvs) {
        hv = readBipolar(in);
        if (hv.size() != cfg.dim)
            throw SerializeError("level dimensionality mismatch");
    }
    auto levels = std::make_shared<hdc::LevelMemory>(
        std::move(level_hvs));

    const ChunkSpec chunks(num_features, cfg.chunkSize);
    const std::uint64_t num_positions = readU64(in);
    if (num_positions != chunks.numChunks())
        throw SerializeError("position key count does not match chunks");
    std::vector<hdc::BipolarHv> position_hvs(num_positions);
    for (auto &hv : position_hvs) {
        hv = readBipolar(in);
        if (hv.size() != cfg.dim)
            throw SerializeError("position key dimensionality mismatch");
    }
    hdc::KeyMemory positions(std::move(position_hvs));

    auto encoder = std::make_unique<LookupEncoder>(
        std::move(levels), std::move(*bank), chunks,
        std::move(positions), cfg.encoder);

    const std::uint8_t model_flags = readU8(in);
    if (model_flags == 0 || (model_flags & ~std::uint8_t{3}) != 0)
        throw SerializeError("invalid model-presence flags");
    std::optional<CompressedModel> compressed;
    std::optional<hdc::ClassModel> model;

    if (model_flags & 1) {
        const std::uint64_t k = readU64(in);
        if (k == 0 || k > kMaxClasses)
            throw SerializeError("implausible class count");
        const std::uint64_t num_groups = readU64(in);
        if (num_groups == 0 || num_groups > k)
            throw SerializeError("implausible group count");
        std::vector<hdc::RealHv> groups(num_groups);
        for (auto &g : groups) {
            g = readDoubles(in, kMaxDim);
            if (g.size() != cfg.dim)
                throw SerializeError("group dimensionality mismatch");
        }
        std::vector<hdc::BipolarHv> key_hvs(k);
        for (auto &hv : key_hvs) {
            hv = readBipolar(in);
            if (hv.size() != cfg.dim)
                throw SerializeError("class key dimensionality mismatch");
        }
        auto norms = readDoubles(in, k);
        if (norms.size() != k)
            throw SerializeError("per-class norm count mismatch");
        auto common = readDoubles(in, kMaxDim);
        if (!common.empty() && common.size() != cfg.dim)
            throw SerializeError("common direction dimensionality mismatch");
        CompressionConfig cc = cfg.compression;
        cc.keepReference = false;
        compressed.emplace(cc, hdc::KeyMemory(std::move(key_hvs)),
                           std::move(groups), std::move(norms),
                           std::move(common));
    }
    if (model_flags & 2) {
        const std::uint64_t k = readU64(in);
        if (k == 0 || k > kMaxClasses)
            throw SerializeError("implausible class count");
        hdc::ClassModel restored(cfg.dim, k);
        for (std::size_t c = 0; c < k; ++c) {
            hdc::IntHv hv = readIntHv(in);
            if (hv.size() != cfg.dim)
                throw SerializeError("class dimensionality mismatch");
            restored.classHv(c) = std::move(hv);
        }
        model.emplace(std::move(restored));
    }

    auto history = readDoubles(in, kMaxHistory);

    std::shared_ptr<const QuantizedServingModel> quantized;
    if (version >= 2) {
        const std::uint64_t classes = compressed
                                          ? compressed->numClasses()
                                          : model->numClasses();
        quantized = readQuantizedSection(in, cfg.dim, classes);
    }

    Classifier clf = Classifier::restore(
        std::move(cfg), std::move(encoder), std::move(model),
        std::move(compressed), std::move(history));
    if (quantized)
        clf.attachQuantized(std::move(quantized));
    return clf;
}

} // namespace

Classifier
loadClassifier(std::istream &in)
{
    // Constructors invoked during restore enforce their own contracts;
    // a malformed file that trips one is still a bad *file*, so the
    // violation is rethrown in the serialize error domain.
    try {
        return loadClassifierImpl(in);
    } catch (const util::ContractViolation &e) {
        throw SerializeError(std::string("inconsistent model file: ") +
                             e.what());
    }
}

void
saveClassifierFile(const Classifier &clf, const std::string &path)
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        throw SerializeError("cannot open " + path + " for write");
    saveClassifier(clf, out);
}

Classifier
loadClassifierFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw SerializeError("cannot open " + path);
    return loadClassifier(in);
}

} // namespace lookhd
