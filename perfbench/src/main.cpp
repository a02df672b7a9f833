/**
 * @file
 * perfbench: one run of one benchmark workload.
 *
 *   perfbench --workload physical|serve-physical|speech|serve-speech --seed N
 *             --seconds S --trace 0|1 [--trace-out spans.csv]
 *
 * Prints the run context, then one `metric` line per measured value
 * (name, value, unit, sample count), and last a JSON object with every
 * metric, the checked-operation counts and the context. perfbench/run.py
 * builds this program and turns that object into the benchmark's
 * result line.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>

#include "hdc/kernels.hpp"

#include "workloads.hpp"

#ifndef PERFBENCH_GIT_REV
#define PERFBENCH_GIT_REV "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_SANITIZE
#define PERFBENCH_SANITIZE ""
#endif

namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = sizeof(PERFBENCH_SANITIZE) > 1;
#endif
#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif
#ifdef __clang__
#define PERFBENCH_COMPILER "clang " __clang_version__
#else
#define PERFBENCH_COMPILER "gcc " __VERSION__
#endif

/** A double with all its digits, as a JSON number. */
std::string
exact(double v)
{
    if (!std::isfinite(v))
        throw std::runtime_error("non-finite metric value");
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "physical|serve-physical|speech|serve-speech --seed N "
                 "--seconds S --trace 0|1 [--trace-out FILE]\n",
                 why.c_str());
    std::exit(2);
}

perfbench::RunOptions
parseArgs(int argc, char **argv)
{
    perfbench::RunOptions opt;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        try {
            if (flag == "--workload") {
                opt.workload = value;
                haveWorkload = true;
            } else if (flag == "--seed") {
                opt.seed = std::stoull(value);
            } else if (flag == "--seconds") {
                opt.seconds = std::stod(value);
            } else if (flag == "--trace") {
                if (value != "0" && value != "1")
                    usage("--trace takes 0 or 1");
                opt.trace = value == "1";
            } else if (flag == "--trace-out") {
                opt.traceOut = value;
            } else {
                usage("unknown flag " + flag);
            }
        } catch (const std::logic_error &) {
            usage("bad value for " + flag + ": " + value);
        }
    }
    if (!haveWorkload)
        usage("--workload is required");
    if (opt.workload != "speech" && opt.workload != "physical" &&
        opt.workload != "serve-speech" && opt.workload != "serve-physical")
        usage("unknown workload " + opt.workload);
    if (!(opt.seconds >= 1 && opt.seconds <= 600))
        usage("--seconds must lie in [1, 600]");
    return opt;
}

} // namespace

int
main(int argc, char **argv)
{
    const perfbench::RunOptions opt = parseArgs(argc, argv);
    if (!kOptimized || kSanitized) {
        std::fprintf(stderr,
                     "perfbench: refusing to measure a %s build "
                     "(build type %s)\n",
                     kSanitized ? "sanitized" : "unoptimized",
                     PERFBENCH_BUILD_TYPE);
        return 3;
    }

    try {
        // Train before any thread exists: the training child is forked.
        std::optional<perfbench::TrainedModel> trained;
        if (perfbench::servesLoadedModel(opt.workload))
            trained = perfbench::trainServeModelInChild(opt.workload,
                                                        opt.seed);

        const char *impl = lookhd::hdc::kernels::implName(
            lookhd::hdc::kernels::activeImpl());
        const unsigned nproc = std::thread::hardware_concurrency();
        std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
                    opt.workload.c_str(),
                    static_cast<unsigned long long>(opt.seed), opt.seconds,
                    opt.trace ? 1 : 0);
        std::printf("# context: kernel=%s nproc=%u build=%s obs=%s "
                    "compiler=\"%s\" git=%s\n",
                    impl, nproc, PERFBENCH_BUILD_TYPE,
                    LOOKHD_OBS_ENABLED ? "on" : "off", PERFBENCH_COMPILER,
                    PERFBENCH_GIT_REV);
        std::fflush(stdout);

        perfbench::Report report;
        perfbench::runWorkload(opt, trained ? &*trained : nullptr, report);
        const double errorRate =
            report.attempted == 0
                ? 1.0
                : static_cast<double>(report.failed) /
                      static_cast<double>(report.attempted);

        for (const auto &[name, m] : report.metrics)
            std::printf("metric %-36s %16.6f %-10s n=%zu\n", name.c_str(),
                        m.value, m.unit.c_str(), m.n);
        std::printf("checked %llu operations, %llu wrong (error_rate %.6g)\n",
                    static_cast<unsigned long long>(report.attempted),
                    static_cast<unsigned long long>(report.failed), errorRate);

        // Metric names, units and context strings are plain ASCII
        // without quotes or backslashes; values keep all their digits.
        std::string json = "{\"correct\": ";
        json += report.failed == 0 && report.attempted > 0 ? "true" : "false";
        json += ", \"attempted\": " + std::to_string(report.attempted);
        json += ", \"failed\": " + std::to_string(report.failed);
        json += ", \"error_rate\": " + exact(errorRate);
        json += ", \"context\": {\"workload\": \"" + opt.workload +
                "\", \"seed\": " + std::to_string(opt.seed) +
                ", \"kernel\": \"" + impl +
                "\", \"nproc\": " + std::to_string(nproc) +
                ", \"build_type\": \"" PERFBENCH_BUILD_TYPE
                "\", \"obs\": " + (LOOKHD_OBS_ENABLED ? "true" : "false") +
                ", \"compiler\": \"" PERFBENCH_COMPILER
                "\", \"git_rev\": \"" PERFBENCH_GIT_REV "\"}";
        json += ", \"metrics\": {";
        const char *sep = "";
        for (const auto &[name, m] : report.metrics) {
            json += sep;
            json += "\"" + name + "\": {\"value\": " + exact(m.value) +
                    ", \"unit\": \"" + m.unit +
                    "\", \"n\": " + std::to_string(m.n) + "}";
            sep = ", ";
        }
        json += "}}";
        std::printf("%s\n", json.c_str());
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
