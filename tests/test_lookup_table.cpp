/**
 * @file
 * Tests for the pre-stored chunk-hypervector lookup table.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>

#include "hdc/similarity.hpp"
#include "lookhd/lookup_table.hpp"
#include "util/check.hpp"

namespace {

using namespace lookhd;
using namespace lookhd::hdc;

std::shared_ptr<LevelMemory>
makeLevels(Dim d, std::size_t q, std::uint64_t seed = 1)
{
    util::Rng rng(seed);
    return std::make_shared<LevelMemory>(d, q, rng);
}

TEST(ChunkLookupTable, AddressSpaceSize)
{
    auto levels = makeLevels(128, 4);
    ChunkLookupTable table(levels, 5, std::size_t{64} << 20);
    EXPECT_EQ(table.addressSpaceSize(), 1024u);
    EXPECT_EQ(table.chunkLen(), 5u);
    EXPECT_EQ(table.dim(), 128u);
}

TEST(ChunkLookupTable, MaterializesWithinBudget)
{
    auto levels = makeLevels(128, 2);
    // 32 rows x 128 dims x 1 B (int8 elements) = 4 KiB.
    ChunkLookupTable table(levels, 5, 32 * 1024);
    EXPECT_TRUE(table.materialized());
    EXPECT_EQ(table.tableBytes(), 32u * 128u * 1u);
}

TEST(ChunkLookupTable, FallsBackBeyondBudget)
{
    auto levels = makeLevels(128, 2);
    ChunkLookupTable table(levels, 5, 1024);
    EXPECT_FALSE(table.materialized());
}

TEST(ChunkLookupTable, ZeroBudgetForcesOnTheFly)
{
    auto levels = makeLevels(64, 2);
    ChunkLookupTable table(levels, 3, 0);
    EXPECT_FALSE(table.materialized());
}

TEST(ChunkLookupTable, MaterializedAndOnTheFlyRowsIdentical)
{
    // Core computation-reuse invariant: the pre-stored rows are
    // bit-exact with computing Eq. 2 on demand.
    auto levels = makeLevels(256, 4, 7);
    ChunkLookupTable dense(levels, 4, std::size_t{64} << 20);
    ChunkLookupTable lazy(levels, 4, 0);
    ASSERT_TRUE(dense.materialized());
    ASSERT_FALSE(lazy.materialized());

    std::vector<std::int8_t> scratch;
    std::vector<std::int8_t> scratch2;
    for (Address a = 0; a < dense.addressSpaceSize(); ++a) {
        const auto d = dense.row(a, scratch);
        const auto l = lazy.row(a, scratch2);
        EXPECT_TRUE(std::equal(d.begin(), d.end(), l.begin(), l.end()))
            << "address " << a;
    }
}

TEST(ChunkLookupTable, Int8RowsEqualInt32EncodeAddress)
{
    // The int8 rows (built from shorter chunks' rows, or computed on
    // the fly) hold the int32 Eq. 2 encoding element for element.
    for (const auto &[q, r] : {std::pair<std::size_t, std::size_t>{2, 5},
                              {2, 2},
                              {3, 4},
                              {4, 3},
                              {16, 1}}) {
        auto levels = makeLevels(131, q, 13 + q);
        const ChunkLookupTable dense(levels, r, std::size_t{64} << 20);
        const ChunkLookupTable lazy(levels, r, 0);
        ASSERT_TRUE(dense.materialized());
        std::vector<std::int8_t> scratch;
        for (Address a = 0; a < dense.addressSpaceSize(); ++a) {
            const IntHv want = dense.encodeAddress(a);
            for (const ChunkLookupTable *table : {&dense, &lazy}) {
                const std::span<const std::int8_t> got =
                    table->row(a, scratch);
                ASSERT_EQ(got.size(), want.size());
                for (std::size_t i = 0; i < want.size(); ++i)
                    ASSERT_EQ(got[i], want[i])
                        << "q=" << q << " r=" << r << " address " << a
                        << " i=" << i;
            }
        }
    }
}

TEST(ChunkLookupTable, NonBipolarLevelMemoryThrows)
{
    // An element other than +-1 could leave int8 in a chunk sum (and
    // is not a level hypervector); dense or lazy, the table refuses
    // it.
    for (const std::int8_t bad : {std::int8_t{0}, std::int8_t{2},
                                  std::int8_t{100}, std::int8_t{-128}}) {
        auto levels = std::make_shared<LevelMemory>(std::vector<BipolarHv>{
            {1, -1, 1, 1}, {1, 1, bad, -1}});
        EXPECT_THROW(ChunkLookupTable(levels, 2, std::size_t{1} << 20),
                     util::ContractViolation);
        EXPECT_THROW(ChunkLookupTable(levels, 2, 0),
                     util::ContractViolation);
    }
}

TEST(ChunkLookupTable, RowMatchesManualEquationTwo)
{
    auto levels = makeLevels(100, 3, 9);
    ChunkLookupTable table(levels, 3, std::size_t{1} << 20);

    const std::vector<std::size_t> lvls{2, 0, 1};
    const Address addr = addressOf(lvls, 3);

    IntHv manual(100, 0);
    for (std::size_t j = 0; j < 3; ++j)
        addRotated(manual, levels->at(lvls[j]), j);

    std::vector<std::int8_t> scratch;
    const auto row = table.row(addr, scratch);
    EXPECT_EQ(IntHv(row.begin(), row.end()), manual);
}

TEST(ChunkLookupTable, RowElementsBoundedByChunkLen)
{
    auto levels = makeLevels(64, 2, 11);
    ChunkLookupTable table(levels, 6, std::size_t{1} << 20);
    std::vector<std::int8_t> scratch;
    for (Address a = 0; a < table.addressSpaceSize(); ++a) {
        for (const int v : table.row(a, scratch))
            EXPECT_LE(std::abs(v), 6);
    }
}

TEST(ChunkLookupTable, OutOfRangeAddressThrows)
{
    auto levels = makeLevels(64, 2);
    ChunkLookupTable table(levels, 3, std::size_t{1} << 20);
    std::vector<std::int8_t> scratch;
    EXPECT_THROW(table.row(8, scratch), util::ContractViolation);
}

TEST(ChunkLookupTable, Validation)
{
    auto levels = makeLevels(64, 2);
    EXPECT_THROW(ChunkLookupTable(nullptr, 3, 0),
                 util::ContractViolation);
    EXPECT_THROW(ChunkLookupTable(levels, 0, 0),
                 util::ContractViolation);
}

} // namespace
