/**
 * @file
 * Tests for the bounded structured event log (obs/eventlog.hpp).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "obs/eventlog.hpp"
#include "serve/jsonin.hpp"

namespace {

using namespace lookhd;
using namespace lookhd::obs;

std::vector<std::string>
flushLines(EventLog &log)
{
    std::ostringstream out;
    log.flush(out);
    std::vector<std::string> lines;
    std::istringstream in(out.str());
    std::string line;
    while (std::getline(in, line))
        if (!line.empty())
            lines.push_back(line);
    return lines;
}

TEST(EventLog, EmitsValidJsonLines)
{
    EventLog log(16);
    log.emit(LogLevel::kInfo, "test.hello",
             {{"k", "v"}, {"n", "42"}});
    log.emit(LogLevel::kError, "test.boom", {{"what", "a \"q\""}});

    const auto lines = flushLines(log);
    ASSERT_EQ(lines.size(), 2u);
    for (const std::string &line : lines) {
        std::string error;
        const auto doc = serve::parseJson(line, error);
        ASSERT_NE(doc, nullptr) << error << ": " << line;
        EXPECT_NE(doc->find("ts_ms"), nullptr);
        EXPECT_NE(doc->find("elapsed_ns"), nullptr);
        EXPECT_NE(doc->find("level"), nullptr);
        EXPECT_NE(doc->find("event"), nullptr);
        EXPECT_NE(doc->find("thread"), nullptr);
        EXPECT_NE(doc->find("fields"), nullptr);
    }
    std::string error;
    const auto first = serve::parseJson(lines[0], error);
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(first->find("event")->string, "test.hello");
    EXPECT_EQ(first->find("level")->string, "info");
    EXPECT_EQ(first->find("fields")->find("k")->string, "v");
    const auto second = serve::parseJson(lines[1], error);
    ASSERT_NE(second, nullptr);
    EXPECT_EQ(second->find("level")->string, "error");
    EXPECT_EQ(second->find("fields")->find("what")->string, "a \"q\"");
}

TEST(EventLog, FlushDrainsTheRings)
{
    EventLog log(16);
    log.emit(LogLevel::kInfo, "test.once");
    EXPECT_EQ(flushLines(log).size(), 1u);
    EXPECT_TRUE(flushLines(log).empty());
    EXPECT_EQ(log.totalEmitted(), 1u);
}

TEST(EventLog, MinLevelFiltersAtTheAppendSite)
{
    EventLog log(16);
    log.setMinLevel(LogLevel::kWarn);
    log.emit(LogLevel::kDebug, "test.debug");
    log.emit(LogLevel::kInfo, "test.info");
    log.emit(LogLevel::kWarn, "test.warn");
    log.emit(LogLevel::kError, "test.error");
    EXPECT_EQ(log.totalEmitted(), 2u);
    EXPECT_EQ(flushLines(log).size(), 2u);
}

TEST(EventLog, RingOverflowDropsOldestAndCountsIt)
{
    EventLog log(4);
    for (int i = 0; i < 10; ++i)
        log.emit(LogLevel::kInfo, "test.e" + std::to_string(i));
    EXPECT_EQ(log.totalDropped(), 6u);

    const auto lines = flushLines(log);
    // 4 surviving events plus the synthetic drop marker.
    ASSERT_EQ(lines.size(), 5u);
    std::string error;
    const auto marker = serve::parseJson(lines[0], error);
    ASSERT_NE(marker, nullptr) << error;
    EXPECT_EQ(marker->find("event")->string, "eventlog.dropped");
    EXPECT_EQ(marker->find("level")->string, "warn");
    EXPECT_EQ(marker->find("fields")->find("dropped")->string, "6");
    // The newest four events survived, oldest-first.
    const auto survivor = serve::parseJson(lines[1], error);
    ASSERT_NE(survivor, nullptr);
    EXPECT_EQ(survivor->find("event")->string, "test.e6");

    // The marker is emitted once per overflow window, not repeated
    // on the next (clean) flush.
    log.emit(LogLevel::kInfo, "test.later");
    const auto next = flushLines(log);
    ASSERT_EQ(next.size(), 1u);
    const auto later = serve::parseJson(next[0], error);
    ASSERT_NE(later, nullptr);
    EXPECT_EQ(later->find("event")->string, "test.later");
}

TEST(EventLog, MergesThreadsByMonotonicTime)
{
    EventLog log(64);
    std::vector<std::thread> threads;
    threads.reserve(4);
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&log, t] {
            for (int i = 0; i < 8; ++i)
                log.emit(LogLevel::kInfo,
                         "test.t" + std::to_string(t));
        });
    }
    for (std::thread &t : threads)
        t.join();

    const auto lines = flushLines(log);
    ASSERT_EQ(lines.size(), 32u);
    double previous = 0.0;
    for (const std::string &line : lines) {
        std::string error;
        const auto doc = serve::parseJson(line, error);
        ASSERT_NE(doc, nullptr) << error;
        const double ns = doc->find("elapsed_ns")->number;
        EXPECT_GE(ns, previous);
        previous = ns;
    }
    EXPECT_EQ(log.totalEmitted(), 32u);
    EXPECT_EQ(log.totalDropped(), 0u);
}

TEST(EventLog, ResetZeroesCountersAndDropsEvents)
{
    EventLog log(2);
    for (int i = 0; i < 5; ++i)
        log.emit(LogLevel::kInfo, "test.x");
    log.reset();
    EXPECT_EQ(log.totalEmitted(), 0u);
    EXPECT_EQ(log.totalDropped(), 0u);
    EXPECT_TRUE(flushLines(log).empty());
}

// ------------------------------------------------------ crash flush
//
// Regression coverage for the async-signal-safe crash path: the
// signal handler must drain the rings without taking locks or
// allocating (obs/eventlog.cpp, flushCrashToFd). These run under the
// tsan preset too (EventLogCrash is in its test filter).

std::vector<std::string>
readLines(const std::string &path)
{
    std::ifstream in(path);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line))
        if (!line.empty())
            lines.push_back(line);
    return lines;
}

TEST(EventLogCrash, FlushCrashToFdWritesParsableJsonWithoutDraining)
{
    EventLog log(16);
    log.emit(LogLevel::kInfo, "crash.first", {{"k", "v"}});
    log.emit(LogLevel::kWarn, "crash.second",
             {{"quote", "a \"q\" and\tcontrol"}});

    const std::string path =
        ::testing::TempDir() + "eventlog_crash_fd.jsonl";
    std::remove(path.c_str());
    const int fd =
        ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    ASSERT_GE(fd, 0);
    EXPECT_TRUE(log.flushCrashToFd(fd));
    ASSERT_EQ(::close(fd), 0);

    const auto lines = readLines(path);
    ASSERT_EQ(lines.size(), 2u);
    for (const std::string &line : lines) {
        std::string error;
        const auto doc = serve::parseJson(line, error);
        ASSERT_NE(doc, nullptr) << error << ": " << line;
        EXPECT_NE(doc->find("event"), nullptr);
    }
    std::string error;
    const auto second = serve::parseJson(lines[1], error);
    ASSERT_NE(second, nullptr);
    EXPECT_EQ(second->find("event")->string, "crash.second");
    EXPECT_EQ(second->find("fields")->find("quote")->string,
              "a \"q\" and\tcontrol");

    // The crash path must not mutate ring state: a survivable caller
    // can still drain normally afterwards.
    EXPECT_EQ(flushLines(log).size(), 2u);
    std::remove(path.c_str());
}

TEST(EventLogCrash, FlushCrashToFdMarksDropsWithTheirCount)
{
    EventLog log(2);
    for (int i = 0; i < 5; ++i)
        log.emit(LogLevel::kInfo, "crash.e" + std::to_string(i));

    const std::string path =
        ::testing::TempDir() + "eventlog_crash_drops.jsonl";
    const int fd =
        ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    ASSERT_GE(fd, 0);
    EXPECT_TRUE(log.flushCrashToFd(fd));
    ASSERT_EQ(::close(fd), 0);

    // The drop marker, then the two newest events.
    const auto lines = readLines(path);
    ASSERT_EQ(lines.size(), 3u);
    std::string error;
    const auto marker = serve::parseJson(lines[0], error);
    ASSERT_NE(marker, nullptr) << error << ": " << lines[0];
    EXPECT_EQ(marker->find("event")->string, "eventlog.dropped");
    const serve::JsonValue *dropped =
        marker->find("fields")->find("dropped");
    ASSERT_NE(dropped, nullptr) << lines[0];
    EXPECT_EQ(dropped->string, "3");
    const auto newest = serve::parseJson(lines[2], error);
    ASSERT_NE(newest, nullptr) << error;
    EXPECT_EQ(newest->find("event")->string, "crash.e4");
    std::remove(path.c_str());
}

TEST(EventLogCrash, FatalSignalFlushesGlobalLogInChildProcess)
{
    const std::string path =
        ::testing::TempDir() + "eventlog_crash_signal.jsonl";
    std::remove(path.c_str());

    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        // Child: stage events in the global log, arm the crash
        // flush, then die by an in-set fatal signal. SIGABRT is the
        // portable choice: sanitizer runtimes leave it to user
        // handlers by default, unlike SIGSEGV.
        EventLog::global().emit(LogLevel::kError, "crash.dying",
                                {{"pid", "child"}});
        EventLog::installCrashFlush(path);
        std::abort();
    }

    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    // The handler re-raises with SIG_DFL, so the child must NOT look
    // like a clean exit.
    EXPECT_FALSE(WIFEXITED(status) && WEXITSTATUS(status) == 0);

    const auto lines = readLines(path);
    ASSERT_GE(lines.size(), 2u) << "crash flush wrote no events";
    bool sawMarker = false;
    bool sawEvent = false;
    for (const std::string &line : lines) {
        std::string error;
        const auto doc = serve::parseJson(line, error);
        ASSERT_NE(doc, nullptr) << error << ": " << line;
        const serve::JsonValue *event = doc->find("event");
        ASSERT_NE(event, nullptr);
        if (event->string == "eventlog.crash")
            sawMarker = true;
        if (event->string == "crash.dying")
            sawEvent = true;
    }
    EXPECT_TRUE(sawMarker);
    EXPECT_TRUE(sawEvent);
    std::remove(path.c_str());
}

TEST(LogLevelName, NamesAreLowerCase)
{
    EXPECT_STREQ(logLevelName(LogLevel::kDebug), "debug");
    EXPECT_STREQ(logLevelName(LogLevel::kInfo), "info");
    EXPECT_STREQ(logLevelName(LogLevel::kWarn), "warn");
    EXPECT_STREQ(logLevelName(LogLevel::kError), "error");
}

} // namespace
