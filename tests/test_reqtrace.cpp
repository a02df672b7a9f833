/**
 * @file
 * Tests for the request-tracing layer (obs/reqtrace.hpp): trace/span
 * identity generation and wire parsing, the stage taxonomy, captured
 * record JSON, and the SlowRequestLog ring (wrap-around, watermarked
 * flush, concurrent writers).
 */

#include <algorithm>
#include <atomic>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/json.hpp"
#include "obs/reqtrace.hpp"

namespace {

using lookhd::obs::CaptureReason;
using lookhd::obs::RequestContext;
using lookhd::obs::ReqStage;
using lookhd::obs::SlowRequestLog;
using lookhd::obs::SlowRequestRecord;
using lookhd::obs::TraceId;

TEST(ReqTrace, TraceIdHexRoundTrip)
{
    const TraceId id = lookhd::obs::makeTraceId();
    EXPECT_FALSE(id.zero());
    const std::string hex = lookhd::obs::traceIdHex(id);
    ASSERT_EQ(hex.size(), 32u);
    for (char c : hex)
        EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))
            << hex;
    TraceId parsed;
    ASSERT_TRUE(lookhd::obs::parseTraceIdHex(hex, parsed));
    EXPECT_EQ(parsed, id);
}

TEST(ReqTrace, SpanIdHexIs16LowercaseChars)
{
    const std::uint64_t span = lookhd::obs::makeSpanId();
    EXPECT_NE(span, 0u);
    const std::string hex = lookhd::obs::spanIdHex(span);
    ASSERT_EQ(hex.size(), 16u);
    EXPECT_EQ(lookhd::obs::spanIdHex(0x00ff00ff00ff00ffULL),
              "00ff00ff00ff00ff");
}

TEST(ReqTrace, ParseAcceptsEitherCase)
{
    TraceId parsed;
    ASSERT_TRUE(lookhd::obs::parseTraceIdHex(
        "DEADBEEFdeadbeefDEADBEEFdeadbeef", parsed));
    EXPECT_EQ(parsed.hi, 0xdeadbeefdeadbeefULL);
    EXPECT_EQ(parsed.lo, 0xdeadbeefdeadbeefULL);
}

TEST(ReqTrace, ParseRejectsBadInputAndLeavesOutUntouched)
{
    TraceId out{1, 2};
    // Wrong length.
    EXPECT_FALSE(lookhd::obs::parseTraceIdHex("abc", out));
    // 31 and 33 chars around the exact-width requirement.
    EXPECT_FALSE(lookhd::obs::parseTraceIdHex(
        std::string(31, 'a'), out));
    EXPECT_FALSE(lookhd::obs::parseTraceIdHex(
        std::string(33, 'a'), out));
    // Non-hex character.
    EXPECT_FALSE(lookhd::obs::parseTraceIdHex(
        "zzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzz", out));
    // All-zero is reserved for "no trace".
    EXPECT_FALSE(lookhd::obs::parseTraceIdHex(
        std::string(32, '0'), out));
    EXPECT_EQ(out.hi, 1u);
    EXPECT_EQ(out.lo, 2u);
}

TEST(ReqTrace, GeneratedIdsAreDistinct)
{
    std::set<std::string> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(lookhd::obs::traceIdHex(
            lookhd::obs::makeTraceId()));
    EXPECT_EQ(seen.size(), 1000u);
    std::set<std::uint64_t> spans;
    for (int i = 0; i < 1000; ++i)
        spans.insert(lookhd::obs::makeSpanId());
    EXPECT_EQ(spans.size(), 1000u);
}

TEST(ReqTrace, StageNamesAndMetricNames)
{
    EXPECT_STREQ(lookhd::obs::reqStageName(ReqStage::kParse),
                 "parse");
    EXPECT_STREQ(lookhd::obs::reqStageName(ReqStage::kQueue),
                 "queue");
    EXPECT_STREQ(lookhd::obs::reqStageName(ReqStage::kBatchForm),
                 "batch_form");
    EXPECT_STREQ(lookhd::obs::reqStageName(ReqStage::kScore),
                 "score");
    EXPECT_STREQ(lookhd::obs::reqStageName(ReqStage::kSerialize),
                 "serialize");
    EXPECT_STREQ(lookhd::obs::reqStageName(ReqStage::kWrite),
                 "write");
    EXPECT_EQ(lookhd::obs::reqStageMetricName(ReqStage::kScore),
              "serve.stage{stage=\"score\"}");
}

TEST(ReqTrace, StageSumAddsEveryStage)
{
    RequestContext ctx;
    EXPECT_EQ(ctx.stageSumNs(), 0u);
    ctx.setStage(ReqStage::kParse, 1);
    ctx.setStage(ReqStage::kQueue, 10);
    ctx.setStage(ReqStage::kBatchForm, 100);
    ctx.setStage(ReqStage::kScore, 1000);
    ctx.setStage(ReqStage::kSerialize, 10000);
    ctx.setStage(ReqStage::kWrite, 100000);
    EXPECT_EQ(ctx.stageSumNs(), 111111u);
    EXPECT_EQ(ctx.stage(ReqStage::kScore), 1000u);
}

TEST(ReqTrace, SlowRequestJsonCarriesTraceAndStages)
{
    SlowRequestRecord r;
    r.ctx.trace = TraceId{0x1234, 0x5678};
    r.ctx.span = 42;
    r.ctx.clientSupplied = true;
    r.ctx.setStage(ReqStage::kScore, 777);
    r.seq = 9;
    r.totalNs = 12345;
    r.batchSize = 4;
    r.predictedClass = 2;
    r.margin = 0.5;
    r.reason = CaptureReason::kSampled;
    r.clientId = "req-1";
    lookhd::obs::JsonWriter w;
    lookhd::obs::writeSlowRequestJson(w, r);
    const std::string doc = w.str();
    EXPECT_NE(doc.find(lookhd::obs::traceIdHex(r.ctx.trace)),
              std::string::npos);
    EXPECT_NE(doc.find("\"reason\":\"sampled\""), std::string::npos);
    EXPECT_NE(doc.find("\"score\":777"), std::string::npos);
    EXPECT_NE(doc.find("\"batch_size\":4"), std::string::npos);
    EXPECT_NE(doc.find("\"id\":\"req-1\""), std::string::npos);
}

TEST(SlowRequestLog, AssignsSequentialSeqAndWallClock)
{
    SlowRequestLog log(8);
    for (int i = 0; i < 3; ++i)
        log.record(SlowRequestRecord{});
    const std::vector<SlowRequestRecord> records = log.snapshot();
    ASSERT_EQ(records.size(), 3u);
    EXPECT_EQ(records[0].seq, 1u);
    EXPECT_EQ(records[1].seq, 2u);
    EXPECT_EQ(records[2].seq, 3u);
    EXPECT_GT(records[0].wallMs, 0u);
    EXPECT_EQ(log.totalCaptured(), 3u);
}

TEST(SlowRequestLog, RingOverwritesOldestButKeepsTotal)
{
    SlowRequestLog log(4);
    for (int i = 0; i < 10; ++i)
        log.record(SlowRequestRecord{});
    const std::vector<SlowRequestRecord> records = log.snapshot();
    ASSERT_EQ(records.size(), 4u);
    EXPECT_EQ(records.front().seq, 7u);
    EXPECT_EQ(records.back().seq, 10u);
    EXPECT_EQ(log.totalCaptured(), 10u);
}

TEST(SlowRequestLog, WriteJsonLinesIsWatermarkedAndIncremental)
{
    SlowRequestLog log(8);
    for (int i = 0; i < 3; ++i)
        log.record(SlowRequestRecord{});

    std::ostringstream first;
    const std::uint64_t mark = log.writeJsonLines(first, 0);
    const std::string firstDoc = first.str();
    EXPECT_EQ(mark, 3u);
    EXPECT_EQ(std::count(firstDoc.begin(), firstDoc.end(), '\n'), 3);

    // Nothing new: no output, watermark unchanged.
    std::ostringstream second;
    EXPECT_EQ(log.writeJsonLines(second, mark), mark);
    EXPECT_TRUE(second.str().empty());

    // One new record flushes exactly one line.
    log.record(SlowRequestRecord{});
    std::ostringstream third;
    EXPECT_EQ(log.writeJsonLines(third, mark), 4u);
    const std::string thirdDoc = third.str();
    EXPECT_EQ(std::count(thirdDoc.begin(), thirdDoc.end(), '\n'), 1);
    EXPECT_NE(thirdDoc.find("\"seq\":4"), std::string::npos);
}

TEST(SlowRequestLog, SnapshotIsNonDestructive)
{
    SlowRequestLog log(8);
    log.record(SlowRequestRecord{});
    EXPECT_EQ(log.snapshot().size(), 1u);
    EXPECT_EQ(log.snapshot().size(), 1u);
}

TEST(SlowRequestLog, ConcurrentWritersKeepSeqUnique)
{
    constexpr int kThreads = 4;
    constexpr int kPerThread = 200;
    SlowRequestLog log(kPerThread);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&log] {
            for (int i = 0; i < kPerThread; ++i) {
                SlowRequestRecord r;
                r.ctx.trace = lookhd::obs::makeTraceId();
                log.record(r);
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    EXPECT_EQ(log.totalCaptured(),
              static_cast<std::uint64_t>(kThreads * kPerThread));
    const std::vector<SlowRequestRecord> records = log.snapshot();
    // Per-thread rings were sized to hold every record.
    ASSERT_EQ(records.size(),
              static_cast<std::size_t>(kThreads * kPerThread));
    std::set<std::uint64_t> seqs;
    for (const SlowRequestRecord &r : records)
        seqs.insert(r.seq);
    EXPECT_EQ(seqs.size(), records.size());
    EXPECT_TRUE(std::is_sorted(
        records.begin(), records.end(),
        [](const SlowRequestRecord &a, const SlowRequestRecord &b) {
            return a.seq < b.seq;
        }));
}

TEST(SlowRequestLog, FlushesRacingWritersExactlyOnce)
{
    // A flush that runs while writers record must not move its
    // watermark past a record that is not in a ring yet: each record
    // reaches the file exactly once. The rings hold every record, so
    // none may be missing at the end.
    constexpr int kThreads = 3;
    constexpr int kPerThread = 4000;
    constexpr std::uint64_t kTotal = kThreads * kPerThread;
    for (int round = 0; round < 5; ++round) {
        SlowRequestLog log(kPerThread);
        std::atomic<int> running{kThreads};
        std::vector<std::thread> writers;
        writers.reserve(kThreads);
        for (int t = 0; t < kThreads; ++t) {
            writers.emplace_back([&log, &running] {
                for (int i = 0; i < kPerThread; ++i)
                    log.record(SlowRequestRecord{});
                running.fetch_sub(1);
            });
        }
        std::ostringstream file;
        std::uint64_t mark = 0;
        while (running.load() > 0)
            mark = log.writeJsonLines(file, mark);
        for (std::thread &writer : writers)
            writer.join();
        mark = log.writeJsonLines(file, mark);
        EXPECT_EQ(mark, kTotal);

        std::vector<int> written(kTotal + 1, 0);
        std::istringstream lines(file.str());
        std::string line;
        while (std::getline(lines, line)) {
            const std::size_t at = line.find("\"seq\":");
            ASSERT_NE(at, std::string::npos) << line;
            const std::uint64_t seq = std::stoull(line.substr(at + 6));
            ASSERT_GE(seq, 1u);
            ASSERT_LE(seq, kTotal);
            ++written[seq];
        }
        std::size_t missing = 0;
        std::size_t repeated = 0;
        for (std::uint64_t seq = 1; seq <= kTotal; ++seq) {
            missing += written[seq] == 0;
            repeated += written[seq] > 1;
        }
        EXPECT_EQ(missing, 0u) << "round " << round;
        EXPECT_EQ(repeated, 0u) << "round " << round;
    }
}

} // namespace
