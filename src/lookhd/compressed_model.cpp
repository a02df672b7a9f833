#include "lookhd/compressed_model.hpp"

#include <algorithm>
#include <cmath>

#include "obs/obs.hpp"
#include "util/check.hpp"

#include "hdc/kernels.hpp"
#include "hdc/similarity.hpp"

namespace lookhd {

std::vector<hdc::RealHv>
decorrelateClasses(const hdc::ClassModel &model)
{
    const std::size_t k = model.numClasses();
    const hdc::Dim d = model.dim();

    // Raw trained class hypervectors, as the paper's Sec. IV-C
    // operates on the trained model directly.
    std::vector<hdc::RealHv> classes;
    classes.reserve(k);
    for (std::size_t c = 0; c < k; ++c)
        classes.push_back(hdc::toReal(model.classHv(c)));

    hdc::RealHv average(d, 0.0);
    for (const auto &c : classes)
        for (std::size_t i = 0; i < d; ++i)
            average[i] += c[i] / static_cast<double>(k);

    // Remove each class's component along the common direction:
    // C'_i = C_i - a_hat * <C_i, a_hat>. The paper writes this as
    // C_i - C_ave * delta(C_i, C_ave); the projection form makes every
    // residual exactly orthogonal to C_ave, so the (large, class-
    // independent) common component of a query contributes zero to
    // every score instead of a per-class bias.
    const hdc::RealHv direction = hdc::normalized(average);
    double removed_energy = 0.0;
    double total_energy = 0.0;
    for (auto &c : classes) {
        const double proj = hdc::dot(c, direction);
        removed_energy += proj * proj;
        total_energy += hdc::dot(c, c);
        for (std::size_t i = 0; i < d; ++i)
            c[i] -= direction[i] * proj;
    }
    // Fraction of total class energy living in the common direction -
    // the per-class bias Sec. IV-C removes. Near-zero means
    // decorrelation was a no-op; large values mean the raw classes
    // were dominated by the shared component.
    LOOKHD_COUNT_ADD("lookhd.decorrelate.calls", 1);
    if (total_energy > 0.0)
        LOOKHD_GAUGE_SET("lookhd.decorrelate.energy_frac",
                         removed_energy / total_energy);
    return classes;
}

CompressedModel::CompressedModel(const hdc::ClassModel &model,
                                 util::Rng &rng, CompressionConfig config)
    : dim_(model.dim()), config_(config),
      keys_(model.dim(), model.numClasses(), rng)
{
    const std::size_t k = model.numClasses();
    groupSize_ = config_.maxClassesPerGroup == 0
                     ? k
                     : std::min(config_.maxClassesPerGroup, k);
    const std::size_t num_groups = (k + groupSize_ - 1) / groupSize_;

    // Per-class hypervectors to fold in: the raw trained sums,
    // optionally decorrelated (Sec. IV-C). They enter the
    // superposition at their natural magnitudes; per-class norms are
    // recorded so scores() can reproduce the cosine ranking of the
    // uncompressed model.
    std::vector<hdc::RealHv> classes;
    if (config_.decorrelate) {
        classes = decorrelateClasses(model);
        // Remember the removed common direction so retraining updates
        // can stay out of it (see updateVector()).
        hdc::RealHv average(dim_, 0.0);
        for (std::size_t c = 0; c < k; ++c) {
            const hdc::IntHv &cls = model.classHv(c);
            for (std::size_t i = 0; i < dim_; ++i)
                average[i] +=
                    static_cast<double>(cls[i]) / static_cast<double>(k);
        }
        commonDir_ = hdc::normalized(average);
    } else {
        classes.reserve(k);
        for (std::size_t c = 0; c < k; ++c)
            classes.push_back(hdc::toReal(model.classHv(c)));
    }

    groups_.assign(num_groups, hdc::RealHv(dim_, 0.0));
    norms_.assign(k, 1.0);
    for (std::size_t cls = 0; cls < k; ++cls) {
        hdc::RealHv &group = groups_[cls / groupSize_];
        const hdc::BipolarHv &key = keys_.at(cls);
        for (std::size_t i = 0; i < dim_; ++i)
            group[i] += key[i] * classes[cls][i];
        norms_[cls] = std::max(hdc::norm(classes[cls]), 1e-12);
    }

    if (config_.keepReference)
        reference_ = std::move(classes);
}

CompressedModel::CompressedModel(CompressionConfig config,
                                 hdc::KeyMemory keys,
                                 std::vector<hdc::RealHv> groups,
                                 std::vector<double> norms,
                                 hdc::RealHv common_dir)
    : dim_(keys.dim()), config_(config), keys_(std::move(keys)),
      groups_(std::move(groups)), norms_(std::move(norms)),
      commonDir_(std::move(common_dir))
{
    const std::size_t k = keys_.count();
    LOOKHD_CHECK(k != 0 && !groups_.empty(),
                 "restored model must be nonempty");
    groupSize_ = config_.maxClassesPerGroup == 0
                     ? k
                     : std::min(config_.maxClassesPerGroup, k);
    LOOKHD_CHECK(groups_.size() == (k + groupSize_ - 1) / groupSize_,
                 "group count mismatch");
    LOOKHD_CHECK(norms_.size() == k, "norm count mismatch");
    for (const auto &g : groups_) {
        LOOKHD_CHECK(g.size() == dim_, "group dimensionality mismatch");
    }
    LOOKHD_CHECK(!(!commonDir_.empty() && commonDir_.size() != dim_),
                 "common direction mismatch");
    LOOKHD_CHECK(!(config_.keepReference),
                 "restored models do not carry reference hypervectors");
}

std::size_t
CompressedModel::groupOf(std::size_t cls) const
{
    LOOKHD_CHECK_BOUNDS(cls, numClasses());
    return cls / groupSize_;
}

void
CompressedModel::scoresInto(const hdc::IntHv &query, std::size_t dims,
                            hdc::RealHv &product, double *out) const
{
    // Form the element-wise product H * C_g once per group; each
    // class score is then only a sign-resolved accumulation with its
    // key - the multiplication-free unbinding the hardware exploits
    // (Sec. IV-B). Both steps run on the dispatched kernels.
    for (std::size_t g = 0; g < groups_.size(); ++g) {
        hdc::kernels::mulIntReal(query.data(), groups_[g].data(),
                                 product.data(), dims);
        const std::size_t first = g * groupSize_;
        const std::size_t last =
            std::min(first + groupSize_, numClasses());
        for (std::size_t c = first; c < last; ++c) {
            out[c] = hdc::kernels::dotRealI8(product.data(),
                                             keys_.at(c).data(), dims);
            if (config_.scaleScores && norms_[c] > 0.0)
                out[c] /= norms_[c];
        }
    }
}

std::vector<double>
CompressedModel::scores(const hdc::IntHv &query) const
{
    LOOKHD_SPAN("lookhd.search", "search");
    LOOKHD_CHECK(query.size() == dim_, "query dimensionality mismatch");
    std::vector<double> out(numClasses());
    hdc::RealHv product(dim_);
    scoresInto(query, dim_, product, out.data());
    return out;
}

void
CompressedModel::unbindRows(BatchScratch &scratch) const
{
    const std::size_t k = numClasses();
    scratch.rows.resize(k * dim_);
    scratch.rowPtrs.resize(k);
    for (std::size_t c = 0; c < k; ++c) {
        const double *group = groups_[c / groupSize_].data();
        const std::int8_t *key = keys_.at(c).data();
        double *row = scratch.rows.data() + c * dim_;
        // key[e] is +-1: each element is +-group[e], exactly.
        for (std::size_t e = 0; e < dim_; ++e)
            row[e] = static_cast<double>(key[e]) * group[e];
        scratch.rowPtrs[c] = row;
    }
}

void
CompressedModel::scoreTile(const hdc::IntHv *const *queries,
                           std::size_t numQueries,
                           const BatchScratch &scratch,
                           double *out) const
{
    const std::size_t k = numClasses();
    const std::int32_t *ints[kBatchTile] = {};
    for (std::size_t q = 0; q < numQueries; ++q) {
        LOOKHD_CHECK(queries[q]->size() == dim_,
                     "query dimensionality mismatch");
        ints[q] = queries[q]->data();
    }
    hdc::kernels::similarityBatch(ints, numQueries,
                                  scratch.rowPtrs.data(), k, dim_, out);
    if (!config_.scaleScores)
        return;
    // The same division scoresInto() applies.
    for (std::size_t q = 0; q < numQueries; ++q)
        for (std::size_t c = 0; c < k; ++c)
            if (norms_[c] > 0.0)
                out[q * k + c] /= norms_[c];
}

std::vector<double>
CompressedModel::scoresBatch(const hdc::IntHv *const *queries,
                             std::size_t numQueries) const
{
    LOOKHD_SPAN("lookhd.search.batch", "search");
    const std::size_t k = numClasses();
    std::vector<double> out(numQueries * k);
    BatchScratch scratch;
    unbindRows(scratch);
    for (std::size_t lo = 0; lo < numQueries; lo += kBatchTile)
        scoreTile(queries + lo, std::min(kBatchTile, numQueries - lo),
                  scratch, out.data() + lo * k);
    return out;
}

std::size_t
CompressedModel::predict(const hdc::IntHv &query) const
{
    return hdc::argmax(scores(query));
}

std::vector<std::size_t>
CompressedModel::predictBatch(const hdc::IntHv *const *queries,
                              std::size_t numQueries) const
{
    BatchScratch scratch;
    std::vector<std::size_t> labels(numQueries);
    predictBatch(queries, numQueries, scratch, labels.data());
    return labels;
}

void
CompressedModel::predictBatch(const hdc::IntHv *const *queries,
                              std::size_t numQueries,
                              BatchScratch &scratch,
                              std::size_t *labels) const
{
    LOOKHD_SPAN("lookhd.search.batch", "search");
    const std::size_t k = numClasses();
    unbindRows(scratch);
    scratch.scores.resize(kBatchTile * k);
    for (std::size_t lo = 0; lo < numQueries; lo += kBatchTile) {
        const std::size_t n = std::min(kBatchTile, numQueries - lo);
        scoreTile(queries + lo, n, scratch, scratch.scores.data());
        for (std::size_t q = 0; q < n; ++q) {
            // The first maximum, as hdc::argmax picks it.
            const double *row = scratch.scores.data() + q * k;
            std::size_t best = 0;
            for (std::size_t c = 1; c < k; ++c) {
                if (row[c] > row[best])
                    best = c;
            }
            labels[lo + q] = best;
        }
    }
}

std::vector<double>
CompressedModel::scoresPrefix(const hdc::IntHv &query,
                              std::size_t dims) const
{
    LOOKHD_CHECK(query.size() == dim_, "query dimensionality mismatch");
    LOOKHD_CHECK(dims != 0 && dims <= dim_, "prefix length out of range");
    std::vector<double> out(numClasses());
    hdc::RealHv product(dims);
    scoresInto(query, dims, product, out.data());
    return out;
}

std::size_t
CompressedModel::predictProgressive(const hdc::IntHv &query,
                                    std::size_t initial_dims,
                                    double margin,
                                    std::size_t *dims_used) const
{
    LOOKHD_CHECK(initial_dims != 0, "initial window must be nonzero");
    std::size_t dims = std::min(initial_dims, dim_);
    for (;;) {
        const std::vector<double> s = scoresPrefix(query, dims);
        const std::size_t best = hdc::argmax(s);
        if (dims >= dim_) {
            if (dims_used)
                *dims_used = dims;
            return best;
        }
        // Margin relative to the score scale (mean absolute score).
        double scale = 0.0;
        double runner_up = -1e300;
        for (std::size_t c = 0; c < s.size(); ++c) {
            scale += std::abs(s[c]);
            if (c != best)
                runner_up = std::max(runner_up, s[c]);
        }
        scale = std::max(scale / static_cast<double>(s.size()),
                         1e-12);
        if ((s[best] - runner_up) / scale >= margin) {
            if (dims_used)
                *dims_used = dims;
            return best;
        }
        dims = std::min(dim_, dims * 2);
    }
}

std::vector<double>
CompressedModel::exactScores(const hdc::IntHv &query) const
{
    LOOKHD_CHECK(config_.keepReference,
                 "reference not kept; set keepReference");
    std::vector<double> out(reference_.size());
    for (std::size_t c = 0; c < reference_.size(); ++c)
        out[c] = hdc::dot(query, reference_[c]);
    return out;
}

void
CompressedModel::applyUpdate(std::size_t correct, std::size_t wrong,
                             const hdc::IntHv &query, double scale)
{
    LOOKHD_CHECK(correct < numClasses() && wrong < numClasses(),
                 "class index");
    LOOKHD_CHECK(query.size() == dim_, "query dimensionality mismatch");
    if (correct == wrong)
        return;

    hdc::RealHv &g_correct = groups_[correct / groupSize_];
    hdc::RealHv &g_wrong = groups_[wrong / groupSize_];
    const hdc::BipolarHv &k_correct = keys_.at(correct);
    const hdc::BipolarHv &k_wrong = keys_.at(wrong);
    const bool project = !commonDir_.empty();

    // Two passes over D. Each sum below keeps its own per-element
    // expression and sequential order, so sharing a loop changes no
    // bit; independent sums in one loop overlap their add latencies.
    //
    // Pass 1, before the groups change: the recovered signals of both
    // classes (for the norm refresh) and the query's projection on
    // the common direction (for u).
    double s_correct = 0.0;
    double s_wrong = 0.0;
    double proj = 0.0;
    for (std::size_t i = 0; i < dim_; ++i) {
        const double h = static_cast<double>(query[i]);
        s_correct += h * k_correct[i] * g_correct[i];
        s_wrong += h * k_wrong[i] * g_wrong[i];
        if (project)
            proj += h * commonDir_[i];
    }

    // Pass 2: u, its squared norm, and the group (and reference)
    // updates. The two groups may be one; per element, correct is
    // updated before wrong.
    double u_norm2 = 0.0;
    for (std::size_t i = 0; i < dim_; ++i) {
        double u = static_cast<double>(query[i]);
        if (project)
            u -= proj * commonDir_[i];
        u_norm2 += u * u;
        const double delta = scale * u;
        g_correct[i] += k_correct[i] * delta;
        g_wrong[i] -= k_wrong[i] * delta;
        if (config_.keepReference) {
            reference_[correct][i] += delta;
            reference_[wrong][i] -= delta;
        }
    }

    // ||C +- s*u||^2 = ||C||^2 +- 2 s <C,u> + s^2 ||u||^2. The stored
    // classes are (approximately) orthogonal to the common direction,
    // so <C,u> = <C,H>, approximated by the recovered (noisy) signal.
    auto refresh = [&](std::size_t cls, double signal, double sgn) {
        const double n2 = norms_[cls] * norms_[cls] +
                          sgn * 2.0 * scale * signal +
                          scale * scale * u_norm2;
        norms_[cls] = std::sqrt(std::max(n2, 1e-12));
    };
    refresh(correct, s_correct, +1.0);
    refresh(wrong, s_wrong, -1.0);
}

std::size_t
CompressedModel::sizeBytes() const
{
    const std::size_t group_bytes =
        numGroups() * dim_ * sizeof(float);
    const std::size_t key_bytes = (numClasses() * dim_ + 7) / 8;
    return group_bytes + key_bytes;
}

} // namespace lookhd
