#include "lookhd/score_table.hpp"

#include <algorithm>
#include <array>
#include <cstdint>

#include "hdc/kernels.hpp"
#include "quant/quantizer.hpp"
#include "util/check.hpp"

namespace lookhd {

namespace {

/** Row stride, in doubles, of k classes: a whole number of 32-byte
 * vectors, so rows on a 64-byte-aligned base never split a vector
 * load across cache lines (that halves the kernel's speed). */
std::size_t
strideOf(std::size_t k)
{
    return (k + 3) & ~std::size_t{3};
}

/** Resize @p storage to @p count zeroed doubles plus slack; the
 * offset of its first 64-byte-aligned element. */
std::size_t
alignedRun(std::vector<double> &storage, std::size_t count)
{
    constexpr std::size_t kAlign = 64;
    storage.assign(count + kAlign / sizeof(double), 0.0);
    const auto address = reinterpret_cast<std::uintptr_t>(storage.data());
    return (kAlign - address % kAlign) % kAlign / sizeof(double);
}

/** Features summed per accumulateRows call when scoring. */
constexpr std::size_t kScoreBlock = 64;

constexpr std::array<double, kScoreBlock> kOnes = [] {
    std::array<double, kScoreBlock> ones{};
    ones.fill(1.0);
    return ones;
}();

/** Eq. 3 encoding of the query with every feature at level 0. */
hdc::IntHv
levelZeroQuery(const LookupEncoder &encoder)
{
    const std::vector<Address> zeros(encoder.chunks().numChunks(), 0);
    return encoder.encodeFromAddresses(zeros);
}

} // namespace

ScoreTable::ScoreTable(const LookupEncoder &encoder,
                       const CompressedModel &model)
    : ScoreTable(encoder, model.numClasses())
{
    const std::size_t k = model.numClasses();
    std::vector<const double *> groups(k);
    std::vector<const std::int8_t *> keys(k);
    std::vector<double> norms(k, 1.0);
    for (std::size_t i = 0; i < k; ++i) {
        groups[i] = model.groupHv(model.groupOf(i)).data();
        keys[i] = model.classKeys().at(i).data();
        if (model.config().scaleScores && model.trackedNorm(i) > 0.0)
            norms[i] = model.trackedNorm(i);
    }
    const hdc::IntHv zero = levelZeroQuery(encoder);
    const hdc::IntHv *query = &zero;
    // scoresBatch of one is scores() bit for bit (its contract).
    build(encoder, model.scoresBatch(&query, 1),
          [&](std::size_t e, double *w) {
              for (std::size_t i = 0; i < k; ++i)
                  w[i] = static_cast<double>(keys[i][e]) * groups[i][e] /
                         norms[i];
          });
}

ScoreTable::ScoreTable(const LookupEncoder &encoder,
                       const hdc::ClassModel &model)
    : ScoreTable(encoder, model.numClasses())
{
    LOOKHD_CHECK(model.normalized(), "model not normalized");
    const std::vector<hdc::RealHv> &classes = model.normalizedClasses();
    const hdc::IntHv zero = levelZeroQuery(encoder);
    const hdc::IntHv *query = &zero;
    build(encoder, model.scoresBatch(&query, 1),
          [&](std::size_t e, double *w) {
              for (std::size_t i = 0; i < classes.size(); ++i)
                  w[i] = classes[i][e];
          });
}

ScoreTable::ScoreTable(const LookupEncoder &encoder,
                       std::size_t numClasses)
    : numFeatures_(encoder.chunks().numFeatures()),
      levels_(encoder.quantLevels())
{
    checkShape(numFeatures_, levels_, numClasses);
}

void
ScoreTable::checkShape(std::size_t numFeatures, std::size_t levels,
                       std::size_t numClasses)
{
    // Before anything is allocated: a model file can declare any
    // shape in a few KB.
    const std::uint64_t entries = util::checkedMul(
        util::checkedMul(numFeatures, levels), numClasses);
    LOOKHD_CHECK(entries <= kMaxScoreTableEntries,
                 "score table exceeds its entry cap");
}

void
ScoreTable::build(
    const LookupEncoder &encoder, std::vector<double> bias,
    const std::function<void(std::size_t, double *)> &fillRow)
{
    const std::size_t n = numFeatures_;
    const std::size_t q = levels_;
    const std::size_t k = bias.size();
    const hdc::Dim d = encoder.dim();
    const hdc::LevelMemory &levelHvs = encoder.levelMemory();
    const ChunkSpec &chunks = encoder.chunks();
    bias_ = std::move(bias);
    const std::size_t stride = strideOf(k);

    bounds_.reserve(n * (q - 1));
    for (std::size_t f = 0; f < n; ++f) {
        const std::span<const double> b =
            encoder.quantizerBank().boundaries(f);
        bounds_.insert(bounds_.end(), b.begin(), b.end());
    }

    // W, dimension-major: row e holds W_0[e] .. W_{k-1}[e].
    std::vector<double> rowStorage;
    const std::size_t rowOffset = alignedRun(rowStorage, d * stride);
    double *const rows = rowStorage.data() + rowOffset;
    for (std::size_t e = 0; e < d; ++e)
        fillRow(e, rows + e * stride);

    // Where each level differs from the one below it, and by how much
    // (+-2): level l's flips are [first[l], first[l + 1]).
    std::vector<std::size_t> flips;
    std::vector<double> steps;
    std::vector<std::size_t> first(q + 1, 0);
    for (std::size_t l = 1; l < q; ++l) {
        const hdc::BipolarHv &cur = levelHvs.at(l);
        const hdc::BipolarHv &prev = levelHvs.at(l - 1);
        first[l] = flips.size();
        for (std::size_t e = 0; e < d; ++e) {
            if (cur[e] != prev[e]) {
                flips.push_back(e);
                steps.push_back(static_cast<double>(cur[e] - prev[e]));
            }
        }
    }
    first[q] = flips.size();

    // dU[f][l] = dU[f][l-1] + sum over level l's flips e, ascending,
    // of step * P_c[(e+j) mod D] * W[(e+j) mod D], for f = c*r + j.
    // The rows a flip lands on depend only on j, so features are
    // visited by j, then by chunk.
    deltaOffset_ = alignedRun(delta_, n * q * stride);
    std::vector<std::size_t> dims(flips.size());
    std::vector<const double *> rowList(flips.size());
    std::vector<double> scales(flips.size());
    for (std::size_t j = 0; j < std::min(chunks.chunkSize(), n); ++j) {
        const std::size_t shift = j % d;
        for (std::size_t t = 0; t < flips.size(); ++t) {
            dims[t] = flips[t] + shift;
            if (dims[t] >= d)
                dims[t] -= d;
            rowList[t] = rows + dims[t] * stride;
        }
        for (std::size_t c = 0; c < chunks.numChunks(); ++c) {
            const std::size_t f = chunks.begin(c) + j;
            if (f >= chunks.end(c))
                continue;
            const hdc::BipolarHv &position = encoder.positionKeys().at(c);
            for (std::size_t t = 0; t < flips.size(); ++t)
                scales[t] =
                    steps[t] * static_cast<double>(position[dims[t]]);
            double *entry = delta_.data() + deltaOffset_ + f * q * stride;
            for (std::size_t l = 1; l < q; ++l) {
                double *cur = entry + l * stride;
                std::copy(cur - stride, cur, cur);
                hdc::kernels::accumulateRows(
                    cur, rowList.data() + first[l], scales.data() + first[l],
                    first[l + 1] - first[l], k);
            }
        }
    }
}

std::size_t
ScoreTable::tableBytes() const
{
    return numFeatures_ * levels_ * strideOf(bias_.size()) *
           sizeof(double);
}

std::vector<double>
ScoreTable::scores(std::span<const double> features) const
{
    LOOKHD_CHECK(features.size() == numFeatures_,
                 "feature vector width mismatch");
    const std::size_t q = levels_;
    const std::size_t k = bias_.size();
    const std::size_t stride = strideOf(k);
    const double *delta = delta_.data() + deltaOffset_;
    const std::span<const double> bounds(bounds_);
    std::vector<double> out(bias_);
    std::array<const double *, kScoreBlock> rowList;
    for (std::size_t first = 0; first < numFeatures_;
         first += kScoreBlock) {
        const std::size_t count =
            std::min(kScoreBlock, numFeatures_ - first);
        for (std::size_t t = 0; t < count; ++t) {
            const std::size_t f = first + t;
            const std::size_t level = quant::binOf(
                bounds.subspan(f * (q - 1), q - 1), features[f]);
            rowList[t] = delta + (f * q + level) * stride;
        }
        hdc::kernels::accumulateRows(out.data(), rowList.data(),
                                     kOnes.data(), count, k);
    }
    return out;
}

} // namespace lookhd
