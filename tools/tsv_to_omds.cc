// Converts a domain TSV file (the documented adoption format; see
// custom_dataset example and README) into an OMDS binary for the
// memory-mapped out-of-core data path, and verifies the conversion by
// mapping the result back and comparing every record and index against the
// TSV-loaded dataset.
//
//   ./tsv_to_omds --in=reviews.tsv --out=reviews.omds [--name=Books]
//                 [--no_verify]
//
// The reverse direction needs no tool: LoadDomainOmds + SaveDomainTsv.

#include <cstdio>
#include <string>

#include "common/flags.h"
#include "common/status.h"
#include "data/csv.h"
#include "data/dataset.h"
#include "data/omds.h"

using namespace omnimatch;

namespace {

/// Record-for-record and index-for-index equality of the two backends.
bool DatasetsIdentical(const data::DomainDataset& a,
                       const data::DomainDataset& b) {
  if (a.num_reviews() != b.num_reviews()) return false;
  for (size_t i = 0; i < a.num_reviews(); ++i) {
    if (a.ReviewUser(i) != b.ReviewUser(i) ||
        a.ReviewItem(i) != b.ReviewItem(i) ||
        a.ReviewRating(i) != b.ReviewRating(i) ||
        a.ReviewSummary(i) != b.ReviewSummary(i) ||
        a.ReviewFullText(i) != b.ReviewFullText(i)) {
      return false;
    }
  }
  const data::CsrIndex<long long>& ia = a.item_rating_index();
  const data::CsrIndex<long long>& ib = b.item_rating_index();
  return a.users() == b.users() && a.items() == b.items() &&
         ia.keys() == ib.keys() && ia.offsets() == ib.offsets() &&
         ia.values() == ib.values();
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags;
  if (!flags.Parse(argc, argv).ok()) return 1;
  std::string in_path = flags.GetString("in", "");
  std::string out_path = flags.GetString("out", "");
  std::string name = flags.GetString("name", "domain");
  bool verify = !flags.GetBool("no_verify", false);
  flags.RejectUnreadFlags();
  if (in_path.empty() || out_path.empty()) {
    std::fprintf(stderr,
                 "usage: tsv_to_omds --in=reviews.tsv --out=reviews.omds "
                 "[--name=Books] [--no_verify]\n");
    return 2;
  }

  Result<data::DomainDataset> loaded = data::LoadDomainTsv(in_path, name);
  if (!loaded.ok()) {
    std::fprintf(stderr, "tsv_to_omds: %s\n",
                 loaded.status().ToString().c_str());
    return 1;
  }
  Status written = data::WriteDomainOmds(loaded.value(), out_path);
  if (!written.ok()) {
    std::fprintf(stderr, "tsv_to_omds: %s\n", written.ToString().c_str());
    return 1;
  }

  if (verify) {
    Result<data::DomainDataset> mapped = data::LoadDomainOmds(out_path, name);
    if (!mapped.ok()) {
      std::fprintf(stderr, "tsv_to_omds: verification reload failed: %s\n",
                   mapped.status().ToString().c_str());
      return 1;
    }
    if (!DatasetsIdentical(loaded.value(), mapped.value())) {
      std::fprintf(stderr,
                   "tsv_to_omds: verification FAILED — mapped dataset "
                   "differs from the TSV source\n");
      return 1;
    }
  }

  std::printf("tsv_to_omds: %zu records -> %s (verified=%s)\n",
              loaded.value().num_reviews(), out_path.c_str(),
              verify ? "yes" : "no");
  return 0;
}
