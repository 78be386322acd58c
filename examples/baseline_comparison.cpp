// Runs OmniMatch against every §5.3 baseline on one cross-domain scenario
// and prints a Table 2-style comparison row.
//
//   ./build/examples/baseline_comparison [--source=Books] [--target=Movies]
//       [--dataset=amazon|douban] [--trials=1] [--seed=99] [--epochs=N]

#include <cstdio>

#include "common/flags.h"
#include "common/string_util.h"
#include "data/synthetic.h"
#include "eval/runner.h"
#include "eval/table.h"

using namespace omnimatch;

int main(int argc, char** argv) {
  FlagParser flags;
  Status parse_status = flags.Parse(argc, argv);
  if (!parse_status.ok()) {
    std::fprintf(stderr, "%s\n", parse_status.ToString().c_str());
    return 1;
  }
  ApplyThreadsFlag(flags);
  std::string source = flags.GetString("source", "Books");
  std::string target = flags.GetString("target", "Movies");
  std::string dataset = flags.GetString("dataset", "amazon");
  eval::RunnerOptions options;
  if (flags.Has("methods")) {
    options.methods.clear();
    for (const std::string& m : Split(flags.GetString("methods", ""), ',')) {
      if (!m.empty()) options.methods.push_back(m);
    }
  }
  options.trials = flags.GetInt("trials", 1);
  options.seed = static_cast<uint64_t>(flags.GetInt("seed", 99));
  options.omnimatch.epochs =
      flags.GetInt("epochs", options.omnimatch.epochs);
  flags.RejectUnreadFlags();

  data::SyntheticConfig data_config =
      dataset == "douban" ? data::SyntheticConfig::DoubanLike()
                          : data::SyntheticConfig::AmazonLike();
  data::SyntheticWorld world(data_config);
  eval::ScenarioResult result =
      eval::RunScenario(world, source, target, options);

  eval::AsciiTable table;
  table.SetHeader({"Method", "RMSE", "MAE", "train s"});
  for (const eval::MethodResult& m : result.methods) {
    table.AddRow({m.name, eval::FormatMetric(m.test.rmse),
                  eval::FormatMetric(m.test.mae),
                  eval::FormatMetric(m.train_seconds)});
  }
  std::printf("%s (%s dataset, %d trial(s))\n%s", result.scenario.c_str(),
              dataset.c_str(), options.trials, table.Render().c_str());
  return 0;
}
