/**
 * @file
 * Tests for hyperdimensional clustering.
 */

#include <gtest/gtest.h>

#include <memory>

#include "data/synthetic.hpp"
#include "hdc/clustering.hpp"
#include "hdc/encoder.hpp"
#include "quant/quantizer.hpp"
#include "util/check.hpp"

namespace {

using namespace lookhd;
using namespace lookhd::hdc;

/** Encode a separable synthetic problem; returns points + labels. */
struct Encoded
{
    std::vector<IntHv> points;
    std::vector<std::size_t> labels;
    std::size_t numClasses;
};

Encoded
encodedBlobs(std::size_t k, double separation, std::size_t per_class,
             std::uint64_t seed)
{
    data::SyntheticSpec spec;
    spec.numFeatures = 30;
    spec.numClasses = k;
    spec.classSeparation = separation;
    spec.informativeFraction = 0.7;
    spec.seed = seed;
    data::SyntheticProblem problem(spec);
    const data::Dataset ds = problem.sample(per_class * k);

    util::Rng rng(seed + 1000);
    auto levels = std::make_shared<LevelMemory>(2000, 4, rng);
    BaselineEncoder encoder(levels, quant::fitEqualized(ds.allValues(), 4));

    Encoded out;
    out.numClasses = k;
    for (std::size_t i = 0; i < ds.size(); ++i) {
        out.points.push_back(encoder.encode(ds.row(i)));
        out.labels.push_back(ds.label(i));
    }
    return out;
}

TEST(Clustering, RecoversSeparableBlobs)
{
    const Encoded data = encodedBlobs(3, 2.0, 40, 1);
    const ClusterResult result = clusterEncoded(data.points, 3, {});
    EXPECT_GT(clusterPurity(result.assignments, data.labels, 3,
                            data.numClasses),
              0.9);
    EXPECT_TRUE(result.converged);
    EXPECT_GT(result.cohesion, 0.5);
}

TEST(Clustering, AssignmentsShapeAndRange)
{
    const Encoded data = encodedBlobs(2, 1.0, 20, 3);
    const ClusterResult result = clusterEncoded(data.points, 2, {});
    EXPECT_EQ(result.assignments.size(), data.points.size());
    for (auto a : result.assignments)
        EXPECT_LT(a, 2u);
    EXPECT_EQ(result.centroids.size(), 2u);
}

TEST(Clustering, DeterministicGivenSeed)
{
    const Encoded data = encodedBlobs(3, 1.5, 20, 5);
    ClusterOptions opts;
    opts.seed = 99;
    const ClusterResult a = clusterEncoded(data.points, 3, opts);
    const ClusterResult b = clusterEncoded(data.points, 3, opts);
    EXPECT_EQ(a.assignments, b.assignments);
    EXPECT_EQ(a.iterations, b.iterations);
}

TEST(Clustering, SingleClusterBundlesEverything)
{
    const Encoded data = encodedBlobs(2, 1.0, 10, 7);
    const ClusterResult result = clusterEncoded(data.points, 1, {});
    for (auto a : result.assignments)
        EXPECT_EQ(a, 0u);
    // Centroid equals the bundle of all points.
    IntHv bundle(data.points.front().size(), 0);
    for (const auto &p : data.points)
        addInto(bundle, p);
    EXPECT_EQ(result.centroids[0], bundle);
}

TEST(Clustering, KEqualsNPutsEachPointAlone)
{
    const Encoded data = encodedBlobs(2, 3.0, 3, 9);
    const ClusterResult result =
        clusterEncoded(data.points, data.points.size(), {});
    std::vector<bool> used(data.points.size(), false);
    for (auto a : result.assignments) {
        EXPECT_FALSE(used[a]) << "two points share a cluster";
        used[a] = true;
    }
}

TEST(Clustering, MoreClustersNeverLowerCohesion)
{
    const Encoded data = encodedBlobs(4, 1.2, 25, 11);
    const double c2 =
        clusterEncoded(data.points, 2, {}).cohesion;
    const double c8 =
        clusterEncoded(data.points, 8, {}).cohesion;
    EXPECT_GE(c8, c2 - 0.02);
}

TEST(Clustering, Validation)
{
    EXPECT_THROW(clusterEncoded({}, 1, {}), util::ContractViolation);
    std::vector<IntHv> one{IntHv(16, 1)};
    EXPECT_THROW(clusterEncoded(one, 0, {}), util::ContractViolation);
    EXPECT_THROW(clusterEncoded(one, 2, {}), util::ContractViolation);
    std::vector<IntHv> ragged{IntHv(16, 1), IntHv(8, 1)};
    EXPECT_THROW(clusterEncoded(ragged, 1, {}),
                 util::ContractViolation);
}

TEST(Clustering, PurityHelper)
{
    // Perfect clustering up to permutation has purity 1.
    EXPECT_DOUBLE_EQ(
        clusterPurity({1, 1, 0, 0}, {0, 0, 1, 1}, 2, 2), 1.0);
    // Fully mixed two-cluster assignment has purity 0.5.
    EXPECT_DOUBLE_EQ(
        clusterPurity({0, 0, 0, 0}, {0, 1, 0, 1}, 1, 2), 0.5);
    EXPECT_THROW(clusterPurity({0}, {0, 1}, 1, 2),
                 util::ContractViolation);
    EXPECT_THROW(clusterPurity({5}, {0}, 2, 2), util::ContractViolation);
}

} // namespace
