/**
 * @file
 * Regenerates paper Fig. 9: LookHD classification accuracy across
 * retraining iterations for three applications; accuracy saturates
 * within about ten iterations.
 *
 * Metrics: the training-accuracy curve of each app, one value per
 * epoch (train_accuracy_<app>_epochNN, epoch 00 before retraining).
 * Seeded data and seeded training make the curves exact, so
 * bench/baselines pins them with zero tolerance: any change to the
 * retraining arithmetic that moves one prediction shows. Fit time
 * (fit_time_s_<app>) is informational.
 */

#include <cctype>
#include <cstdio>

#include "common.hpp"
#include "util/timer.hpp"

int
main(int argc, char **argv)
{
    using namespace lookhd;
    bench::BenchReporter rep("fig09_retraining", argc, argv);
    bench::banner("Fig. 9: accuracy across retraining iterations "
                  "(train-set accuracy per epoch)");

    std::vector<std::string> header{"iteration"};
    std::vector<std::vector<double>> curves;
    const std::vector<std::string> names{"SPEECH", "ACTIVITY",
                                         "PHYSICAL"};
    for (const auto &name : names) {
        const auto &app = data::appByName(name);
        const auto tt = bench::appData(app);
        ClassifierConfig cfg = bench::appConfig(app);
        cfg.retrainEpochs = 10;
        Classifier clf(cfg);
        const util::Timer timer;
        clf.fit(tt.train);
        const double fit_s = timer.seconds();
        curves.push_back(clf.retrainHistory());
        header.push_back(name);

        std::string key = name;
        for (char &c : key)
            c = static_cast<char>(
                std::tolower(static_cast<unsigned char>(c)));
        rep.metric("fit_time_s_" + key, fit_s);
        for (std::size_t it = 0; it < curves.back().size(); ++it) {
            char epoch[32];
            std::snprintf(epoch, sizeof epoch, "_epoch%02zu", it);
            rep.metric("train_accuracy_" + key + epoch,
                       curves.back()[it]);
        }
    }

    util::Table table(header);
    for (std::size_t it = 0; it < curves.front().size(); ++it) {
        std::vector<std::string> row{std::to_string(it)};
        for (const auto &curve : curves)
            row.push_back(util::fmtPercent(curve[it]));
        table.addRow(row);
    }
    std::printf("%s", table.render().c_str());
    std::printf("\nPaper: accuracy climbs over the first few epochs "
                "and stabilizes by ~10 iterations.\n");
    rep.write();
    return 0;
}
