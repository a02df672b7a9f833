/**
 * @file
 * Cross-check: analytical FPGA model vs cycle-approximate pipeline
 * simulator on all five applications, for LookHD training and
 * inference. The two estimators share every datapath constant, so
 * their ratio isolates data-dependent effects (real counter occupancy
 * vs its expectation, pipeline fill/drain). Also prints the
 * simulator's per-stage utilization - the hardware-side analogue of
 * Fig. 2's breakdown.
 */

#include <memory>

#include "common.hpp"
#include "hw/fpga_model.hpp"
#include "hw/report.hpp"
#include "hwsim/lookhd_sim.hpp"
#include "quant/quantizer_bank.hpp"

int
main(int argc, char **argv)
{
    using namespace lookhd;
    bench::BenchReporter rep("hwsim_crosscheck", argc, argv);
    using namespace lookhd::hwsim;
    bench::banner("Cross-check: analytical FPGA model vs pipeline "
                  "simulator (LookHD, D = 2000)");

    FpgaSimulator sim;
    hw::FpgaModel model;

    util::Table table({"App", "train cycles (model)",
                       "train cycles (sim)", "ratio",
                       "infer cyc/query (model)",
                       "infer cyc/query (sim)", "ratio"});
    for (const auto &app : data::paperApps()) {
        data::SyntheticProblem problem(app.synthetic(1));
        const data::Dataset train =
            problem.sample(20 * app.numClasses);

        util::Rng rng(7);
        auto levels = std::make_shared<hdc::LevelMemory>(
            2000, app.lookhdQ, rng);
        LookupEncoder encoder(
            levels,
            quant::QuantizerBank(
                quant::fitEqualized(train.allValues(), app.lookhdQ),
                app.numFeatures),
            ChunkSpec(app.numFeatures, app.chunkSize), rng);

        hw::AppParams params = hw::appParamsFor(
            app, 2000, app.lookhdQ, app.chunkSize);
        params.trainSamples = train.size();
        const std::size_t groups = (app.numClasses + 11) / 12;
        params.modelGroups = groups;

        const double model_train = model.lookhdTrain(params).cycles;
        const SimReport sim_train = sim.lookhdTrain(encoder, train);

        const double model_infer =
            model.lookhdInferQuery(params).cycles;
        const std::size_t queries = 10000;
        const SimReport sim_infer = sim.lookhdInfer(
            encoder, app.numClasses, groups, queries);
        const double sim_infer_per_query =
            sim_infer.totalCycles / static_cast<double>(queries);

        table.addRow(
            {app.name, util::fmtSi(model_train, 1),
             util::fmtSi(sim_train.totalCycles, 1),
             util::fmt(sim_train.totalCycles / model_train, 2),
             util::fmt(model_infer, 1),
             util::fmt(sim_infer_per_query, 1),
             util::fmt(sim_infer_per_query / model_infer, 2)});
    }
    std::printf("%s\n", table.render().c_str());

    // Stage utilization breakdown for SPEECH training and inference.
    const auto &app = data::appByName("SPEECH");
    data::SyntheticProblem problem(app.synthetic(1));
    const data::Dataset train = problem.sample(20 * app.numClasses);
    util::Rng rng(7);
    auto levels =
        std::make_shared<hdc::LevelMemory>(2000, app.lookhdQ, rng);
    LookupEncoder encoder(
        levels,
        quant::QuantizerBank(
            quant::fitEqualized(train.allValues(), app.lookhdQ),
            app.numFeatures),
        ChunkSpec(app.numFeatures, app.chunkSize), rng);

    auto show = [](const char *what, const SimReport &report) {
        std::printf("%s (bottleneck: %s)\n", what,
                    report.bottleneck.c_str());
        for (const auto &stage : report.stages) {
            std::printf("  %-24s %12.0f cycles  %5.1f%%%s\n",
                        stage.name.c_str(), stage.busyCycles,
                        100.0 * stage.utilization,
                        stage.bottleneck ? "  <- bottleneck" : "");
        }
    };
    show("SPEECH training stages:",
         sim.lookhdTrain(encoder, train));
    show("SPEECH inference stages (10k queries):",
         sim.lookhdInfer(encoder, app.numClasses, 3, 10000));

    std::printf("\nRatios near 1.0 validate the analytical model; the "
                "spread reflects measured counter occupancy vs its "
                "expectation and pipeline fill.\n");
    rep.write();
    return 0;
}
