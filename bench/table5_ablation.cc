// Reproduces Table 5 of the paper: ablation of OmniMatch's components in a
// data-scarce setting (20% of training users): without SCL, without domain
// adversarial training, without auxiliary reviews, the full model, the
// full-review-text variant, and the transformer-extractor ("BERT") variant.
//
//   ./build/bench/table5_ablation [--seed=99]

#include <cstdio>
#include <functional>

#include "common/flags.h"
#include "common/rng.h"
#include "core/trainer.h"
#include "data/splits.h"
#include "data/synthetic.h"
#include "eval/table.h"

using namespace omnimatch;

namespace {

struct Variant {
  std::string name;
  std::function<void(core::OmniMatchConfig*)> apply;
};

eval::Metrics RunVariant(const data::CrossDomainDataset& cross,
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
  flags.RejectUnreadFlags();

  data::SyntheticWorld world(data::SyntheticConfig::AmazonLike());
  const std::vector<std::pair<std::string, std::string>> scenarios = {
      {"Books", "Movies"}, {"Books", "Music"}, {"Movies", "Music"}};

  std::vector<Variant> variants = {
      {"w/o SCL", [](core::OmniMatchConfig* c) { c->use_scl = false; }},
      {"w/o DA",
       [](core::OmniMatchConfig* c) { c->use_domain_adversarial = false; }},
      {"w/o AuxReviews",
       [](core::OmniMatchConfig* c) {
         c->use_aux_reviews = false;
         c->aux_augmentation_prob = 0.0f;
       }},
      {"OmniMatch", [](core::OmniMatchConfig*) {}},
      {"OmniMatch-ReviewText",
       [](core::OmniMatchConfig* c) {
         c->text_field = core::TextField::kFullText;
       }},
      {"OmniMatch-BERT",
       [](core::OmniMatchConfig* c) {
         c->extractor = core::ExtractorKind::kTransformer;
       }},
  };

  std::printf(
      "Table 5 — component ablation with 20%% of training users "
      "(paper: Table 5, §5.7)\n");
  eval::AsciiTable table;
  std::vector<std::string> header = {"Variant", "Metric"};
  for (const auto& [s, t] : scenarios) header.push_back(s + " -> " + t);
  table.SetHeader(header);

  // results[variant][metric][scenario]
  std::vector<std::vector<std::vector<double>>> cells(
      variants.size(),
      std::vector<std::vector<double>>(2,
                                       std::vector<double>(scenarios.size())));
  for (size_t s = 0; s < scenarios.size(); ++s) {
    data::CrossDomainDataset cross =
        world.MakePair(scenarios[s].first, scenarios[s].second);
    Rng split_rng(seed);
    data::ColdStartSplit split = data::MakeColdStartSplit(cross, &split_rng);
    // §5.7: data-scarce setting — keep 20% of the training users.
    split = data::SubsampleTrainUsers(split, 0.2, &split_rng);
    for (size_t v = 0; v < variants.size(); ++v) {
      core::OmniMatchConfig config;
      config.seed = seed + 13;
      variants[v].apply(&config);
      eval::Metrics metrics = RunVariant(cross, split, config);
      cells[v][0][s] = metrics.rmse;
      cells[v][1][s] = metrics.mae;
      std::fprintf(stderr, "  done %s / %s\n",
                   cross.ScenarioName().c_str(), variants[v].name.c_str());
    }
  }
  for (size_t v = 0; v < variants.size(); ++v) {
    for (int metric = 0; metric < 2; ++metric) {
      std::vector<std::string> row = {variants[v].name,
                                      metric == 0 ? "RMSE" : "MAE"};
      for (size_t s = 0; s < scenarios.size(); ++s) {
        row.push_back(eval::FormatMetric(cells[v][metric][s]));
      }
      table.AddRow(row);
    }
  }
  std::printf("%s", table.Render().c_str());
  return 0;
}
