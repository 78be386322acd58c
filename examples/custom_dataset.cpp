// Shows the adoption path for real data: build two DomainDatasets by hand
// (or load them from TSV files in the documented format), persist them,
// reload, and train OmniMatch on the pair.
//
//   ./build/examples/custom_dataset [--source=path.tsv --target=path.tsv]
//
// Without flags the example writes a small synthetic corpus to temporary
// TSV files first, so it is runnable out of the box.

#include <cstdio>

#include "common/flags.h"
#include "common/rng.h"
#include "core/trainer.h"
#include "data/csv.h"
#include "data/splits.h"
#include "data/synthetic.h"

using namespace omnimatch;

int main(int argc, char** argv) {
  FlagParser flags;
  if (!flags.Parse(argc, argv).ok()) return 1;
  ApplyThreadsFlag(flags);

  std::string source_path = flags.GetString("source", "");
  std::string target_path = flags.GetString("target", "");
  int epochs = flags.GetInt("epochs", 6);
  flags.RejectUnreadFlags();

  if (source_path.empty() || target_path.empty()) {
    // No files supplied: materialize a small corpus to show the format.
    data::SyntheticConfig config;
    config.num_users = 200;
    config.items_per_domain = 100;
    config.seed = 99;
    data::SyntheticWorld world(config);
    source_path = "/tmp/omnimatch_source.tsv";
    target_path = "/tmp/omnimatch_target.tsv";
    Status s1 = data::SaveDomainTsv(world.domain("Books"), source_path);
    Status s2 = data::SaveDomainTsv(world.domain("Movies"), target_path);
    if (!s1.ok() || !s2.ok()) {
      std::fprintf(stderr, "failed to write demo TSVs\n");
      return 1;
    }
    std::printf("Wrote demo corpora:\n  %s\n  %s\n"
                "(format: user_id\\titem_id\\trating\\tsummary\\tfull_text)\n\n",
                source_path.c_str(), target_path.c_str());
  }

  // 1. Load both domains from disk.
  auto source = data::LoadDomainTsv(source_path, "Source");
  if (!source.ok()) {
    std::fprintf(stderr, "%s\n", source.status().ToString().c_str());
    return 1;
  }
  auto target = data::LoadDomainTsv(target_path, "Target");
  if (!target.ok()) {
    std::fprintf(stderr, "%s\n", target.status().ToString().c_str());
    return 1;
  }
  data::CrossDomainDataset cross(std::move(source).value(),
                                 std::move(target).value());
  std::printf("Loaded %zu source and %zu target reviews; %zu overlapping "
              "users\n",
              cross.source().num_reviews(), cross.target().num_reviews(),
              cross.overlapping_users().size());
  if (cross.overlapping_users().size() < 10) {
    std::fprintf(stderr, "too few overlapping users to train\n");
    return 1;
  }

  // 2. Standard §5.2 split and a compact training configuration.
  Rng rng(17);
  data::ColdStartSplit split = data::MakeColdStartSplit(cross, &rng);
  core::OmniMatchConfig config;
  config.epochs = epochs;
  config.embed_dim = 16;
  config.cnn_channels = 12;
  config.feature_dim = 24;
  config.doc_len = 48;
  config.item_doc_len = 48;

  core::OmniMatchTrainer trainer(config, &cross, split);
  Status status = trainer.Prepare();
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  core::TrainStats stats = trainer.Train();
  eval::Metrics test = trainer.Evaluate(split.test_users);
  std::printf("Trained %d steps in %.1f s — cold-start test RMSE %.3f, MAE "
              "%.3f over %d ratings\n",
              stats.steps, stats.train_seconds, test.rmse, test.mae,
              test.count);
  return 0;
}
