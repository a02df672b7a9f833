/**
 * @file
 * Tests for the cycle-approximate FPGA pipeline simulator, including
 * the cross-check against the analytical hw::FpgaModel.
 */

#include <gtest/gtest.h>

#include <memory>

#include "data/apps.hpp"
#include "hw/fpga_model.hpp"
#include "hw/report.hpp"
#include "hwsim/lookhd_sim.hpp"
#include "quant/quantizer_bank.hpp"

namespace {

using namespace lookhd;
using namespace lookhd::hwsim;

TEST(Pipeline, SingleStageSingleItem)
{
    const PipelineTiming t =
        streamThrough({Stage{"only", 5.0, 7.0}}, 1.0);
    EXPECT_DOUBLE_EQ(t.totalCycles, 7.0);
    ASSERT_EQ(t.stages.size(), 1u);
    EXPECT_TRUE(t.stages[0].bottleneck);
    EXPECT_EQ(t.bottleneckName(), "only");
}

TEST(Pipeline, FillPlusSteadyState)
{
    // Two stages, bottleneck II = 4: total = (3 + 6) + (9 * 4).
    const PipelineTiming t = streamThrough(
        {Stage{"a", 2.0, 3.0}, Stage{"b", 4.0, 6.0}}, 10.0);
    EXPECT_DOUBLE_EQ(t.totalCycles, 9.0 + 36.0);
    EXPECT_EQ(t.bottleneckName(), "b");
}

TEST(Pipeline, UtilizationBoundedByOne)
{
    const PipelineTiming t = streamThrough(
        {Stage{"a", 1.0, 1.0}, Stage{"b", 10.0, 10.0}}, 100.0);
    for (const auto &s : t.stages) {
        EXPECT_GE(s.utilization, 0.0);
        EXPECT_LE(s.utilization, 1.0);
    }
    // The bottleneck runs essentially all the time.
    EXPECT_GT(t.stages[1].utilization, 0.95);
}

TEST(Pipeline, Validation)
{
    EXPECT_THROW(streamThrough({}, 5.0), std::invalid_argument);
    EXPECT_THROW(streamThrough({Stage{"a", 0.0, 1.0}}, 5.0),
                 std::invalid_argument);
    EXPECT_THROW(streamThrough({Stage{"a", 1.0, 1.0}}, 0.0),
                 std::invalid_argument);
}

/** Build an encoder + dataset for one paper app at test scale. */
struct SimFixture
{
    data::Dataset train;
    std::shared_ptr<hdc::LevelMemory> levels;
    std::unique_ptr<LookupEncoder> encoder;
    const data::AppSpec &app;

    explicit SimFixture(const std::string &name,
                        std::size_t per_class = 20)
        : train(1, 1), app(data::appByName(name))
    {
        data::SyntheticProblem problem(app.synthetic(1));
        train = problem.sample(per_class * app.numClasses);
        util::Rng rng(7);
        levels = std::make_shared<hdc::LevelMemory>(
            2000, app.lookhdQ, rng);
        encoder = std::make_unique<LookupEncoder>(
            levels,
            quant::QuantizerBank(
                quant::fitEqualized(train.allValues(), app.lookhdQ),
                app.numFeatures),
            ChunkSpec(app.numFeatures, app.chunkSize), rng);
    }
};

TEST(FpgaSimulatorTest, TrainReportIsSane)
{
    SimFixture fx("ACTIVITY");
    FpgaSimulator sim;
    const SimReport report = sim.lookhdTrain(*fx.encoder, fx.train);
    EXPECT_GT(report.totalCycles, 0.0);
    EXPECT_GT(report.seconds, 0.0);
    EXPECT_EQ(report.stages.size(), 4u);
    EXPECT_FALSE(report.bottleneck.empty());
    double busy_max = 0.0;
    for (const auto &s : report.stages) {
        EXPECT_LE(s.utilization, 1.0);
        busy_max = std::max(busy_max, s.busyCycles);
    }
    EXPECT_GT(busy_max, 0.0);
}

TEST(FpgaSimulatorTest, LookhdBeatsBaselineOnSimulatedCycles)
{
    for (const char *name : {"SPEECH", "ACTIVITY", "FACE"}) {
        SimFixture fx(name);
        FpgaSimulator sim;
        const SimReport look =
            sim.lookhdTrain(*fx.encoder, fx.train);
        const SimReport base = sim.baselineTrain(
            fx.app.numFeatures, fx.app.lookhdQ, 2000,
            fx.train.size());
        EXPECT_GT(base.totalCycles / look.totalCycles, 3.0) << name;
    }
}

TEST(FpgaSimulatorTest, CrossCheckAgainstAnalyticalModel)
{
    // The simulator and hw::FpgaModel share all datapath constants;
    // on the same workload their training cycles must agree within a
    // small factor (differences: pipeline fill, measured vs expected
    // occupancy).
    for (const char *name : {"ACTIVITY", "PHYSICAL"}) {
        SimFixture fx(name);
        FpgaSimulator sim;
        hw::FpgaModel model;

        hw::AppParams params = hw::appParamsFor(
            fx.app, 2000, fx.app.lookhdQ, fx.app.chunkSize);
        params.trainSamples = fx.train.size();

        const double simulated =
            sim.lookhdTrain(*fx.encoder, fx.train).totalCycles;
        const double analytical =
            model.lookhdTrain(params).cycles;
        EXPECT_GT(simulated / analytical, 0.3) << name;
        EXPECT_LT(simulated / analytical, 3.0) << name;
    }
}

TEST(FpgaSimulatorTest, InferencePipelineBottleneck)
{
    SimFixture fx("SPEECH");
    FpgaSimulator sim;
    const SimReport report =
        sim.lookhdInfer(*fx.encoder, fx.app.numClasses, 3, 1000);
    EXPECT_EQ(report.stages.size(), 5u);
    EXPECT_FALSE(report.bottleneck.empty());
    // Per-query steady-state cost is far below the full pipeline fill
    // times the query count (i.e. pipelining is being modeled).
    const SimReport one =
        sim.lookhdInfer(*fx.encoder, fx.app.numClasses, 3, 1);
    EXPECT_LT(report.totalCycles, 1000.0 * one.totalCycles * 0.9);
}

TEST(FpgaSimulatorTest, BaselineInferSearchWindowMatters)
{
    FpgaSimulator sim;
    // More classes -> narrower DSP window -> more cycles per query.
    const SimReport few =
        sim.baselineInfer(600, 4, 2000, 2, 1000);
    const SimReport many =
        sim.baselineInfer(600, 4, 2000, 26, 1000);
    EXPECT_GE(many.totalCycles, few.totalCycles);
}

TEST(FpgaSimulatorTest, MeasuredOccupancyBelowAddressSpace)
{
    // With 20 samples/class and q^r = 1024, the measured active rows
    // must keep the weighted accumulation far below a dense q^r scan.
    SimFixture fx("ACTIVITY");
    FpgaSimulator sim;
    const SimReport report = sim.lookhdTrain(*fx.encoder, fx.train);
    // Find the weighted-accumulation stage.
    double accum = -1.0;
    for (const auto &s : report.stages) {
        if (s.name == "weighted-accumulation")
            accum = s.busyCycles;
    }
    ASSERT_GE(accum, 0.0);
    // Dense scan would cost k * m * q^r * D * macLUTs / throughput.
    const double dense =
        6.0 * 113.0 * 1024.0 * 2000.0 * 3.0 / (0.8 * 203800.0);
    EXPECT_LT(accum, dense / 5.0);
}

} // namespace
