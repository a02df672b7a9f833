#include "lookhd/quantized_inference.hpp"

#include <algorithm>
#include <cmath>

#include "hdc/hypervector.hpp"
#include "hdc/kernels.hpp"
#include "util/check.hpp"

namespace lookhd {

namespace {

/** Quantize one float row to int8 with its own max-abs/127 scale. */
double
quantizeRowF64(const hdc::RealHv &row, std::int8_t *out)
{
    double maxabs = 0.0;
    for (const double v : row)
        maxabs = std::max(maxabs, std::abs(v));
    const double scale = maxabs > 0.0 ? maxabs / 127.0 : 1.0;
    for (std::size_t i = 0; i < row.size(); ++i) {
        const long long q = std::llround(row[i] / scale);
        out[i] = static_cast<std::int8_t>(
            std::clamp(q, -127LL, 127LL));
    }
    return scale;
}

/**
 * Pack the signs of an int32 query word-wise (zero maps to +1,
 * matching hdc::sign()); the bit-by-bit PackedHv::set() loop this
 * replaces dominated the binary path's per-query cost.
 */
hdc::PackedHv
packQuerySigns(const hdc::IntHv &query)
{
    const std::size_t n = query.size();
    std::vector<std::uint64_t> words((n + 63) / 64, 0);
    for (std::size_t i = 0; i < n; ++i)
        words[i / 64] |= static_cast<std::uint64_t>(query[i] >= 0)
                         << (i % 64);
    return hdc::PackedHv(n, std::move(words));
}

/** Pack the signs of a float row (zero maps to +1, like sign()). */
hdc::PackedHv
packSigns(const hdc::RealHv &row)
{
    hdc::PackedHv packed(row.size());
    for (std::size_t i = 0; i < row.size(); ++i)
        packed.set(i, row[i] >= 0.0);
    return packed;
}

/** Build both serving forms from the effective float class rows. */
QuantizedServingModel
fromRows(hdc::Dim dim, const std::vector<hdc::RealHv> &rows)
{
    const std::size_t k = rows.size();
    std::vector<std::int8_t> i8(k * dim);
    std::vector<double> scales(k);
    std::vector<hdc::PackedHv> binary;
    binary.reserve(k);
    for (std::size_t c = 0; c < k; ++c) {
        scales[c] = quantizeRowF64(rows[c], i8.data() + c * dim);
        binary.push_back(packSigns(rows[c]));
    }
    return QuantizedServingModel(dim, std::move(i8), std::move(scales),
                          std::move(binary));
}

} // namespace

const char *
precisionName(Precision p)
{
    switch (p) {
    case Precision::kFloat64:
        return "float64";
    case Precision::kInt8:
        return "int8";
    case Precision::kBinary:
        return "binary";
    }
    return "unknown";
}

std::optional<Precision>
precisionFromName(std::string_view name)
{
    if (name == "float64")
        return Precision::kFloat64;
    if (name == "int8")
        return Precision::kInt8;
    if (name == "binary")
        return Precision::kBinary;
    return std::nullopt;
}

QuantizedServingModel::QuantizedServingModel(hdc::Dim dim,
                               std::vector<std::int8_t> rows,
                               std::vector<double> scales,
                               std::vector<hdc::PackedHv> binary)
    : dim_(dim), rows_(std::move(rows)), scales_(std::move(scales)),
      binary_(std::move(binary))
{
    LOOKHD_CHECK(dim_ > 0, "quantized model dim must be nonzero");
    const std::size_t k = scales_.size();
    LOOKHD_CHECK(k > 0, "quantized model needs at least one class");
    LOOKHD_CHECK(rows_.size() == k * dim_,
                 "quantized row storage does not match k x dim");
    LOOKHD_CHECK(binary_.size() == k,
                 "quantized binary row count does not match classes");
    for (const hdc::PackedHv &row : binary_)
        LOOKHD_CHECK(row.dim() == dim_,
                     "quantized binary row dimensionality mismatch");
    for (const double s : scales_)
        LOOKHD_CHECK(std::isfinite(s) && s > 0.0,
                     "quantized scale must be positive and finite");
    for (const std::int8_t v : rows_)
        LOOKHD_CHECK(v != -128,
                     "quantized element outside [-127, 127]");
}

QuantizedServingModel
QuantizedServingModel::fromClassModel(const hdc::ClassModel &model)
{
    LOOKHD_CHECK(model.normalized(),
                 "quantization requires a normalized class model");
    return fromRows(model.dim(), model.normalizedClasses());
}

QuantizedServingModel
QuantizedServingModel::fromCompressedModel(const CompressedModel &model)
{
    const std::size_t k = model.numClasses();
    const hdc::Dim dim = model.dim();
    std::vector<hdc::RealHv> rows(k, hdc::RealHv(dim));
    for (std::size_t c = 0; c < k; ++c) {
        const hdc::RealHv &group = model.groupHv(model.groupOf(c));
        const hdc::BipolarHv &key = model.classKeys().at(c);
        const double norm = model.trackedNorm(c);
        const bool scaled =
            model.config().scaleScores && norm > 0.0;
        for (std::size_t i = 0; i < dim; ++i) {
            double v = group[i] * static_cast<double>(key[i]);
            if (scaled)
                v /= norm;
            rows[c][i] = v;
        }
    }
    return fromRows(dim, rows);
}

std::vector<double>
QuantizedServingModel::scoresBatchI8(const hdc::IntHv *const *queries,
                              std::size_t numQueries) const
{
    const std::size_t k = numClasses();
    std::vector<double> out(numQueries * k);
    // One query at a time, quantized into this thread's D-byte buffer
    // and scored against every class row in one kernel call.
    struct Scratch
    {
        std::vector<std::int8_t> query;
        std::vector<const std::int8_t *> rows;
        std::vector<std::int64_t> raw;
    };
    thread_local Scratch s;
    s.query.resize(dim_);
    s.raw.resize(k);
    s.rows.resize(k);
    for (std::size_t c = 0; c < k; ++c)
        s.rows[c] = rows_.data() + c * dim_;
    const std::int8_t *quantized = s.query.data();
    for (std::size_t q = 0; q < numQueries; ++q) {
        const hdc::IntHv &query = *queries[q];
        LOOKHD_CHECK(query.size() == dim_,
                     "query dimensionality mismatch");
        const double qscale =
            hdc::kernels::quantizeI8(query.data(), dim_, s.query.data());
        hdc::kernels::scoresBatchI8(&quantized, 1, s.rows.data(), k, dim_,
                                    s.raw.data());
        for (std::size_t c = 0; c < k; ++c)
            out[q * k + c] =
                static_cast<double>(s.raw[c]) * qscale * scales_[c];
    }
    return out;
}

std::vector<double>
QuantizedServingModel::scoresBatchBinary(const hdc::IntHv *const *queries,
                                  std::size_t numQueries) const
{
    const std::size_t k = numClasses();
    std::vector<double> out(numQueries * k);
    for (std::size_t q = 0; q < numQueries; ++q) {
        const hdc::IntHv &query = *queries[q];
        LOOKHD_CHECK(query.size() == dim_,
                     "query dimensionality mismatch");
        const hdc::PackedHv packed = packQuerySigns(query);
        for (std::size_t c = 0; c < k; ++c) {
            const std::size_t matches = hdc::kernels::matchCountWords(
                packed.data().data(), binary_[c].data().data(),
                packed.data().size(), dim_);
            out[q * k + c] = static_cast<double>(
                2 * static_cast<std::int64_t>(matches) -
                static_cast<std::int64_t>(dim_));
        }
    }
    return out;
}

} // namespace lookhd
