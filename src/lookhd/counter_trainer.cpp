#include "lookhd/counter_trainer.hpp"

#include <algorithm>

#include "hdc/kernels.hpp"
#include "obs/obs.hpp"
#include "par/thread_pool.hpp"
#include "util/check.hpp"

namespace lookhd {

ChunkCounters::ChunkCounters(Address space, Address dense_threshold)
    : space_(space)
{
    LOOKHD_CHECK(space != 0, "counter space must be nonzero");
    if (space <= dense_threshold)
        denseCounts_.assign(static_cast<std::size_t>(space), 0);
}

void
ChunkCounters::increment(Address addr)
{
    LOOKHD_CHECK_BOUNDS(addr, space_);
    if (!denseCounts_.empty())
        ++denseCounts_[static_cast<std::size_t>(addr)];
    else
        ++sparseCounts_[addr];
    ++total_;
}

void
ChunkCounters::add(Address addr, std::uint32_t cnt)
{
    LOOKHD_CHECK_BOUNDS(addr, space_);
    if (cnt == 0)
        return;
    if (!denseCounts_.empty())
        denseCounts_[static_cast<std::size_t>(addr)] += cnt;
    else
        sparseCounts_[addr] += cnt;
    total_ += cnt;
}

void
ChunkCounters::mergeFrom(const ChunkCounters &other)
{
    LOOKHD_CHECK(space_ == other.space_,
                 "cannot merge counters over different address spaces");
    other.forEach([this](Address addr, std::uint32_t cnt) {
        add(addr, cnt);
    });
}

std::uint32_t
ChunkCounters::count(Address addr) const
{
    LOOKHD_CHECK_BOUNDS(addr, space_);
    if (!denseCounts_.empty())
        return denseCounts_[static_cast<std::size_t>(addr)];
    const auto it = sparseCounts_.find(addr);
    return it == sparseCounts_.end() ? 0 : it->second;
}

std::size_t
ChunkCounters::distinct() const
{
    if (!denseCounts_.empty()) {
        std::size_t n = 0;
        for (auto c : denseCounts_)
            n += c > 0;
        return n;
    }
    return sparseCounts_.size();
}

void
ChunkCounters::forEach(
    const std::function<void(Address, std::uint32_t)> &fn) const
{
    if (!denseCounts_.empty()) {
        for (std::size_t a = 0; a < denseCounts_.size(); ++a) {
            if (denseCounts_[a] > 0)
                fn(static_cast<Address>(a), denseCounts_[a]);
        }
    } else {
        for (const auto &[addr, cnt] : sparseCounts_)
            fn(addr, cnt);
    }
}

CounterBank::CounterBank(const LookupEncoder &encoder,
                         std::size_t num_classes,
                         const CounterTrainerConfig &config)
{
    LOOKHD_CHECK(num_classes != 0, "counter bank needs classes");
    counters_.reserve(num_classes);
    for (std::size_t c = 0; c < num_classes; ++c) {
        std::vector<ChunkCounters> per_chunk;
        per_chunk.reserve(encoder.chunks().numChunks());
        for (std::size_t ch = 0; ch < encoder.chunks().numChunks(); ++ch) {
            per_chunk.emplace_back(
                encoder.tableFor(ch).addressSpaceSize(),
                config.denseCounterThreshold);
        }
        counters_.push_back(std::move(per_chunk));
    }
}

std::size_t
CounterBank::numChunks() const
{
    return counters_.empty() ? 0 : counters_.front().size();
}

void
CounterBank::observe(std::size_t label,
                     std::span<const Address> addresses)
{
    LOOKHD_CHECK_BOUNDS(label, counters_.size());
    auto &per_chunk = counters_[label];
    LOOKHD_CHECK(addresses.size() == per_chunk.size(),
                 "address count mismatch");
    for (std::size_t ch = 0; ch < addresses.size(); ++ch)
        per_chunk[ch].increment(addresses[ch]);
}

void
CounterBank::mergeFrom(const CounterBank &other)
{
    LOOKHD_CHECK(counters_.size() == other.counters_.size(),
                 "cannot merge banks with different class counts");
    for (std::size_t cls = 0; cls < counters_.size(); ++cls) {
        LOOKHD_CHECK(counters_[cls].size() ==
                         other.counters_[cls].size(),
                     "cannot merge banks with different chunk counts");
        for (std::size_t ch = 0; ch < counters_[cls].size(); ++ch)
            counters_[cls][ch].mergeFrom(other.counters_[cls][ch]);
    }
}

const ChunkCounters &
CounterBank::at(std::size_t cls, std::size_t chunk) const
{
    LOOKHD_CHECK_BOUNDS(cls, counters_.size());
    LOOKHD_CHECK_BOUNDS(chunk, counters_[cls].size());
    return counters_[cls][chunk];
}

CounterTrainer::CounterTrainer(const LookupEncoder &encoder,
                               CounterTrainerConfig config)
    : encoder_(encoder), config_(config)
{
}

CounterBank
CounterTrainer::countDataset(const data::Dataset &train) const
{
    LOOKHD_SPAN("lookhd.count", "train");
    LOOKHD_COUNT_ADD("lookhd.count.observations", train.size());
    const std::size_t n = train.size();
    const std::size_t threads = std::min(
        par::resolveThreads(config_.threads),
        std::max<std::size_t>(n, 1));
    CounterBank bank(encoder_, train.numClasses(), config_);
    if (threads <= 1) {
        for (std::size_t i = 0; i < n; ++i) {
            const auto addresses =
                encoder_.chunkAddresses(train.row(i));
            bank.observe(train.label(i), addresses);
        }
    } else {
        // Shard the sample range: each shard counts into a private
        // bank, then the shards merge by exact integer addition -
        // bit-identical to the serial pass for every thread count.
        const std::size_t shardSize = (n + threads - 1) / threads;
        const std::size_t numShards = (n + shardSize - 1) / shardSize;
        std::vector<CounterBank> shards;
        shards.reserve(numShards);
        for (std::size_t s = 0; s < numShards; ++s)
            shards.emplace_back(encoder_, train.numClasses(), config_);
        par::ThreadPool pool(threads);
        pool.parallelFor(0, numShards, [&](std::size_t lo,
                                           std::size_t hi) {
            for (std::size_t s = lo; s < hi; ++s) {
                const std::size_t first = s * shardSize;
                const std::size_t last =
                    std::min(n, first + shardSize);
                for (std::size_t i = first; i < last; ++i) {
                    const auto addresses =
                        encoder_.chunkAddresses(train.row(i));
                    shards[s].observe(train.label(i), addresses);
                }
            }
        });
        for (const CounterBank &shard : shards)
            bank.mergeFrom(shard);
    }
#if LOOKHD_OBS_ENABLED
    // Coverage / sparsity of the counter arrays: how much of the
    // k x m x q^s address space the training set actually touched.
    // Sparse coverage is what makes the hash-map fallback viable.
    if (obs::enabled()) {
        double distinct = 0.0;
        double capacity = 0.0;
        for (std::size_t cls = 0; cls < bank.numClasses(); ++cls) {
            for (std::size_t ch = 0; ch < bank.numChunks(); ++ch) {
                distinct += static_cast<double>(
                    bank.at(cls, ch).distinct());
                capacity += static_cast<double>(
                    encoder_.tableFor(ch).addressSpaceSize());
            }
        }
        LOOKHD_COUNT_ADD("lookhd.count.distinct_addresses",
                         static_cast<std::uint64_t>(distinct));
        if (capacity > 0.0) {
            LOOKHD_GAUGE_SET("lookhd.count.coverage",
                             distinct / capacity);
            LOOKHD_GAUGE_SET("lookhd.count.sparsity",
                             1.0 - distinct / capacity);
        }
    }
#endif
    return bank;
}

hdc::ClassModel
CounterTrainer::finalize(const CounterBank &bank) const
{
    LOOKHD_SPAN("lookhd.finalize", "train");
    const std::size_t k = bank.numClasses();
    hdc::ClassModel model(encoder_.dim(), k);
    const std::size_t m = encoder_.chunks().numChunks();

    // Classes are independent and write disjoint hypervectors, so the
    // class loop parallelizes with no effect on results. Built into a
    // local vector (not via classHv()) so no shared model state is
    // touched from worker threads.
    std::vector<hdc::IntHv> classHvs(k, hdc::IntHv(encoder_.dim(), 0));
    const auto buildClasses = [&](std::size_t lo, std::size_t hi) {
        hdc::IntHv scratch;
        for (std::size_t cls = lo; cls < hi; ++cls) {
            hdc::IntHv &class_hv = classHvs[cls];
            for (std::size_t ch = 0; ch < m; ++ch) {
                // Weighted accumulation:
                // chunk_acc = sum count * Table[addr].
                hdc::IntHv chunk_acc(encoder_.dim(), 0);
                const ChunkLookupTable &table = encoder_.tableFor(ch);
                bank.at(cls, ch).forEach(
                    [&](Address addr, std::uint32_t cnt) {
                        const hdc::IntHv &row =
                            table.row(addr, scratch);
                        const auto w = static_cast<std::int32_t>(cnt);
                        for (std::size_t d = 0; d < chunk_acc.size();
                             ++d)
                            chunk_acc[d] += w * row[d];
                    });
                // Chunk aggregation: bind the position key and
                // accumulate.
                const std::int32_t *rows[] = {chunk_acc.data()};
                const std::int8_t *keys[] = {
                    encoder_.positionKeys().at(ch).data()};
                hdc::kernels::addSignedRows(class_hv.data(), rows, keys,
                                            1, class_hv.size());
            }
        }
    };
    const std::size_t threads =
        std::min(par::resolveThreads(config_.threads), k);
    if (threads <= 1) {
        buildClasses(0, k);
    } else {
        par::ThreadPool pool(threads);
        pool.parallelFor(0, k, buildClasses);
    }
    for (std::size_t cls = 0; cls < k; ++cls)
        model.classHv(cls) = std::move(classHvs[cls]);
    model.normalize();
    return model;
}

hdc::ClassModel
CounterTrainer::train(const data::Dataset &train) const
{
    LOOKHD_SPAN("lookhd.train", "train");
    return finalize(countDataset(train));
}

} // namespace lookhd
