// Reproduces Table 3 of the paper: the same seven-method grid on the
// sparser, heavier-biased Douban-like corpus, where rating-only methods
// degrade much harder than on the Amazon-like corpus.
//
//   ./build/bench/table3_douban [--trials=1] [--seed=131]

#include <cstdio>

#include "bench_util.h"
#include "data/synthetic.h"

using namespace omnimatch;

int main(int argc, char** argv) {
  FlagParser flags;
  if (!flags.Parse(argc, argv).ok()) return 1;
  ApplyThreadsFlag(flags);

  data::SyntheticWorld world(data::SyntheticConfig::DoubanLike());
  eval::RunnerOptions options;
  options.trials = flags.GetInt("trials", 1);
  options.seed = static_cast<uint64_t>(flags.GetInt("seed", 131));
  flags.RejectUnreadFlags();

  std::printf(
      "Table 3 — Douban-like corpus, %d trial(s) per scenario "
      "(paper: Table 3, §5.5)\n",
      options.trials);
  std::vector<eval::ScenarioResult> results;
  for (const auto& [source, target] : eval::PaperScenarios()) {
    results.push_back(eval::RunScenario(world, source, target, options));
    std::fprintf(stderr, "  done %s\n", results.back().scenario.c_str());
  }
  bench::PrintScenarioTable(results);
  return 0;
}
