// Ablates this repository's implementation extensions (DESIGN.md §6) one at
// a time on Books -> Movies, so their individual contribution relative to
// the paper-literal configuration is measurable.
//
//   ./build/bench/ablate_extensions [--seed=99]

#include <cstdio>
#include <functional>

#include "common/flags.h"
#include "common/rng.h"
#include "core/trainer.h"
#include "data/splits.h"
#include "data/synthetic.h"
#include "eval/table.h"

using namespace omnimatch;

int main(int argc, char** argv) {
  FlagParser flags;
  if (!flags.Parse(argc, argv).ok()) return 1;
  ApplyThreadsFlag(flags);
  uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 99));
  flags.RejectUnreadFlags();

  data::SyntheticWorld world(data::SyntheticConfig::AmazonLike());
  data::CrossDomainDataset cross = world.MakePair("Books", "Movies");
  Rng split_rng(seed);
  data::ColdStartSplit split = data::MakeColdStartSplit(cross, &split_rng);

  struct Variant {
    std::string name;
    std::function<void(core::OmniMatchConfig*)> apply;
  };
  std::vector<Variant> variants = {
      {"full (repo defaults)", [](core::OmniMatchConfig*) {}},
      {"- interaction features",
       [](core::OmniMatchConfig* c) { c->use_interaction_features = false; }},
      {"- mean-embedding feature",
       [](core::OmniMatchConfig* c) {
         c->use_mean_embedding_feature = false;
       }},
      {"- cold-start self-simulation",
       [](core::OmniMatchConfig* c) { c->aux_augmentation_prob = 0.0f; }},
      {"- aux-document ensembling",
       [](core::OmniMatchConfig* c) { c->aux_eval_samples = 1; }},
      {"- doc shuffling/word dropout",
       [](core::OmniMatchConfig* c) {
         c->shuffle_reviews_in_training = false;
         c->word_dropout = 0.0f;
       }},
      {"- best-epoch selection",
       [](core::OmniMatchConfig* c) { c->select_best_epoch = false; }},
      {"Adadelta (paper optimizer)",
       [](core::OmniMatchConfig* c) {
         c->optimizer = core::OptimizerKind::kAdadelta;
       }},
  };

  std::printf(
      "Extensions ablation on %s (DESIGN.md §6) — each row disables ONE "
      "repo extension relative to the defaults\n",
      cross.ScenarioName().c_str());
  eval::AsciiTable table;
  table.SetHeader({"Variant", "RMSE", "MAE"});
  for (const Variant& v : variants) {
    core::OmniMatchConfig config;
    config.seed = seed + 29;
    v.apply(&config);
    core::OmniMatchTrainer trainer(config, &cross, split);
    Status status = trainer.Prepare();
    if (!status.ok()) {
      std::fprintf(stderr, "Prepare failed: %s\n",
                   status.ToString().c_str());
      continue;
    }
    trainer.Train();
    eval::Metrics m = trainer.Evaluate(split.test_users);
    table.AddRow({v.name, eval::FormatMetric(m.rmse),
                  eval::FormatMetric(m.mae)});
    std::fprintf(stderr, "  done %s\n", v.name.c_str());
  }
  std::printf("%s", table.Render().c_str());
  return 0;
}
