/**
 * @file
 * Fused float64 scoring: every class score read from one per-feature
 * table (the lookup idea of paper Sec. III-C carried past the encoder
 * and the associative search).
 *
 * Both float64 scorers are linear in the encoded query
 * H = sum_c P_c * T[a_c] (Eq. 3), and each chunk row is itself a sum
 * of rotated level vectors, T[a] = sum_j rho^j L(l_j) (Eq. 2). With
 * W_i the linear row class i is scored with, feature f = c*r + j at
 * level l contributes
 *
 *   U[f][l][i] = sum_e L_l[e] * P_c[(e+j) mod D] * W_i[(e+j) mod D]
 *
 * to score i, so scores(x) = sum_f U[f][level_f(x)]. The table keeps
 * a bias b (the scores of the all-level-0 query) and the differences
 * dU[f][l] = U[f][l] - U[f][0]:
 *
 *   scores(x) = b + sum_f dU[f][level_f(x)],
 *
 * n compares and n adds of a k-vector per query instead of quantize,
 * address, m bind-accumulates of length D and a k*D search.
 *
 * The scores equal the encode + search ones up to rounding, so the
 * argmax agrees wherever the top two classes are not within rounding
 * of each other. Every entry and every score is one sequential sum
 * in a fixed order (dimensions ascending for the build, features
 * ascending for scoring) whose vector lanes run across classes only,
 * so results are bit-identical across kernel Impls, batch vs single
 * and thread counts.
 */

#ifndef LOOKHD_LOOKHD_SCORE_TABLE_HPP
#define LOOKHD_LOOKHD_SCORE_TABLE_HPP

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "hdc/model.hpp"
#include "lookhd/compressed_model.hpp"
#include "lookhd/lookup_encoder.hpp"

namespace lookhd {

/**
 * Most entries (n * q * k doubles) a ScoreTable holds: 2^24, i.e.
 * 128 MB, about 65x the largest paper shape (SPEECH at q = 16). A
 * model file can declare a shape far past it in a few KB.
 */
inline constexpr std::size_t kMaxScoreTableEntries = std::size_t{1}
                                                     << 24;

/** Per-feature score table of one float64 class-model form. */
class ScoreTable
{
  public:
    /**
     * Table of @p model's scores(): W_i = key_i * C_g(i), divided by
     * the tracked norm when scaleScores is on.
     * @throws util::ContractViolation when n * q * k exceeds
     *         kMaxScoreTableEntries (checked before allocating).
     */
    ScoreTable(const LookupEncoder &encoder, const CompressedModel &model);

    /**
     * Table of @p model's scores(): W_i = the normalized class rows.
     * @pre model.normalized(). Same cap as above.
     */
    ScoreTable(const LookupEncoder &encoder, const hdc::ClassModel &model);

    /**
     * The table's size check alone: @throws util::ContractViolation
     * when numFeatures * levels * numClasses exceeds
     * kMaxScoreTableEntries.
     */
    static void checkShape(std::size_t numFeatures, std::size_t levels,
                           std::size_t numClasses);

    /** Bytes of the n * q difference rows, each k doubles padded to
     * whole 32-byte vectors. */
    std::size_t tableBytes() const;

    /** Class scores of a raw feature row. @pre features.size() ==
     * numFeatures(). */
    std::vector<double> scores(std::span<const double> features) const;

  private:
    /** Shape of the table, with its entry cap checked. */
    ScoreTable(const LookupEncoder &encoder, std::size_t numClasses);

    /** Fill bounds_, bias_ and delta_: @p bias is the form's scores
     * of the all-level-0 query, and @p fillRow(e, w) writes
     * W_0[e] .. W_{k-1}[e] to w[0..k). */
    void build(const LookupEncoder &encoder, std::vector<double> bias,
               const std::function<void(std::size_t, double *)> &fillRow);

    std::size_t numFeatures_;
    std::size_t levels_;
    /** Feature f's q-1 boundaries at [f * (q-1), (f+1) * (q-1)). */
    std::vector<double> bounds_;
    std::vector<double> bias_;
    /** dU[f][l][i] at deltaOffset_ + (f * q + l) * stride + i, where
     * the stride is k rounded up to a multiple of 4 and the offset
     * puts row 0 on a 64-byte boundary. */
    std::vector<double> delta_;
    std::size_t deltaOffset_ = 0;
};

} // namespace lookhd

#endif // LOOKHD_LOOKHD_SCORE_TABLE_HPP
