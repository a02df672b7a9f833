/**
 * @file
 * One benchmark run: its options, what it reports (named metrics with
 * unit and sample count, and the count of checked operations and of
 * wrong ones), and the workload entry points.
 */

#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

namespace perfbench {

struct Metric
{
    double value = 0;
    std::string unit;
    /** Samples behind the value (0 when the layer did not run). */
    std::size_t n = 0;
};

struct Report
{
    std::map<std::string, Metric> metrics;
    /** Operations whose output was checked, and the wrong ones. */
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void
    set(const std::string &name, double value, const std::string &unit,
        std::size_t n)
    {
        metrics[name] = Metric{value, unit, n};
    }

    void
    count(std::uint64_t checked, std::uint64_t wrong)
    {
        attempted += checked;
        failed += wrong;
    }
};

/** Run-wide settings every workload reads. */
struct RunOptions
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** Where the traced run writes its spans ("" = nowhere). */
    std::string traceOut;
};

/** A model trained and saved by another process. */
struct TrainedModel
{
    std::string blob;
    double fitS = 0;
};

/** Whether @p workload serves a model trained in another process. */
bool servesLoadedModel(const std::string &workload);

/**
 * Fit the model of a serve-* workload in a child process and return
 * it saved, so the training peak stays out of the serving process's
 * resident memory (train and serve are separate programs for users
 * too). Must run before the process starts any thread.
 */
TrainedModel trainServeModelInChild(const std::string &workload,
                                    std::uint64_t seed);

/**
 * One workload: set-up, the predict loops (or, traced, the layer
 * breakdown), then the serve phases. @p trained is the saved model
 * of a serve-* workload, null for the workloads that fit in-process.
 */
void runWorkload(const RunOptions &opt, const TrainedModel *trained,
                 Report &report);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HPP
