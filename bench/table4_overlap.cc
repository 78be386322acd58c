// Reproduces Table 4 of the paper: RMSE/MAE of EMCDR, PTUPCDR and OmniMatch
// when training with 100% / 80% / 50% / 20% of the training (overlapping)
// users, on three scenarios. OmniMatch's review-based representations should
// degrade far more gracefully than the mapping-based baselines.
//
//   ./build/bench/table4_overlap [--seed=99]

#include <cstdio>

#include "common/flags.h"
#include "data/synthetic.h"
#include "eval/runner.h"
#include "eval/table.h"

using namespace omnimatch;

int main(int argc, char** argv) {
  FlagParser flags;
  if (!flags.Parse(argc, argv).ok()) return 1;
  ApplyThreadsFlag(flags);
  int trials = flags.GetInt("trials", 1);
  uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 99));
  flags.RejectUnreadFlags();

  data::SyntheticWorld world(data::SyntheticConfig::AmazonLike());
  const std::vector<std::pair<std::string, std::string>> scenarios = {
      {"Books", "Movies"}, {"Movies", "Music"}, {"Books", "Music"}};
  const std::vector<double> fractions = {1.0, 0.8, 0.5, 0.2};
  const std::vector<std::string> methods = {"EMCDR", "PTUPCDR", "OmniMatch"};

  std::printf(
      "Table 4 — varying the proportion of training users "
      "(paper: Table 4, §5.6)\n");
  for (const auto& [source, target] : scenarios) {
    eval::AsciiTable table;
    table.SetHeader({"Method", "Metric", "100%", "80%", "50%", "20%"});
    // rows[method][metric][fraction]
    std::vector<std::vector<std::vector<double>>> cells(
        methods.size(),
        std::vector<std::vector<double>>(2,
                                         std::vector<double>(fractions.size(),
                                                             0.0)));
    for (size_t f = 0; f < fractions.size(); ++f) {
      eval::RunnerOptions options;
      options.methods = methods;
      options.trials = trials;
      options.seed = seed;
      options.train_user_fraction = fractions[f];
      eval::ScenarioResult result =
          eval::RunScenario(world, source, target, options);
      for (size_t m = 0; m < methods.size(); ++m) {
        cells[m][0][f] = result.methods[m].test.rmse;
        cells[m][1][f] = result.methods[m].test.mae;
      }
      std::fprintf(stderr, "  done %s -> %s @ %.0f%%\n", source.c_str(),
                   target.c_str(), fractions[f] * 100.0);
    }
    for (size_t m = 0; m < methods.size(); ++m) {
      for (int metric = 0; metric < 2; ++metric) {
        std::vector<std::string> row = {
            methods[m] == "OmniMatch" ? "Ours" : methods[m],
            metric == 0 ? "RMSE" : "MAE"};
        for (size_t f = 0; f < fractions.size(); ++f) {
          row.push_back(eval::FormatMetric(cells[m][metric][f]));
        }
        table.AddRow(row);
      }
    }
    std::printf("%s -> %s\n%s", source.c_str(), target.c_str(),
                table.Render().c_str());
  }
  return 0;
}
