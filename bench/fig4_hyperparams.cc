// Reproduces Figure 4 of the paper: RMSE and MAE of OmniMatch on
// Movies -> Music while sweeping the contrastive weight α (with β fixed at
// 0.1) and the domain-adversarial weight β (with α fixed at 0.2).
//
//   ./build/bench/fig4_hyperparams [--seed=99] [--epochs=10]

#include <cstdio>

#include "common/flags.h"
#include "common/string_util.h"
#include "common/rng.h"
#include "core/trainer.h"
#include "data/splits.h"
#include "data/synthetic.h"
#include "eval/table.h"

using namespace omnimatch;

namespace {

eval::Metrics RunPoint(const data::CrossDomainDataset& cross,
                       const data::ColdStartSplit& split,
                       const core::OmniMatchConfig& config) {
  core::OmniMatchTrainer trainer(config, &cross, split);
  Status status = trainer.Prepare();
  if (!status.ok()) {
    std::fprintf(stderr, "Prepare failed: %s\n", status.ToString().c_str());
    return eval::Metrics{};
  }
  trainer.Train();
  return trainer.Evaluate(trainer.split().test_users);
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags;
  if (!flags.Parse(argc, argv).ok()) return 1;
  ApplyThreadsFlag(flags);
  uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 99));
  int epochs = flags.GetInt("epochs", 8);
  flags.RejectUnreadFlags();

  data::SyntheticWorld world(data::SyntheticConfig::AmazonLike());
  data::CrossDomainDataset cross = world.MakePair("Movies", "Music");
  Rng split_rng(seed);
  data::ColdStartSplit split = data::MakeColdStartSplit(cross, &split_rng);

  const std::vector<float> sweep = {0.1f, 0.2f, 0.3f, 0.4f,
                                    0.5f, 0.6f, 0.7f};

  std::printf(
      "Figure 4 — hyperparameter sensitivity on Movies -> Music "
      "(paper: Fig. 4, §5.8)\n");
  for (int which = 0; which < 2; ++which) {
    eval::AsciiTable table;
    table.SetHeader({which == 0 ? "alpha (beta=0.1)" : "beta (alpha=0.2)",
                     "RMSE", "MAE"});
    for (float value : sweep) {
      core::OmniMatchConfig config;
      config.seed = seed + 31;
      config.epochs = epochs;
      if (which == 0) {
        config.alpha = value;
        config.beta = 0.1f;  // fixed per §5.8
      } else {
        config.alpha = 0.2f;  // fixed per §5.8
        config.beta = value;
      }
      eval::Metrics metrics = RunPoint(cross, split, config);
      table.AddRow({StrFormat("%.1f", value),
                    eval::FormatMetric(metrics.rmse),
                    eval::FormatMetric(metrics.mae)});
      std::fprintf(stderr, "  done %s=%.1f\n", which == 0 ? "alpha" : "beta",
                   value);
    }
    std::printf("%s", table.Render().c_str());
  }
  return 0;
}
