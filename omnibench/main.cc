// OmniMatch benchmark driver binary. See README.md in this directory.
//
//   omnibench --workload <train|serve_warm|serve_cold|score_int8>
//             --seed <n> --seconds <s> --trace <0|1> [--fixture <path>]
//   omnibench --make_fixture <path> --seed <n>
//
// Prints human-readable lines starting with '#', then, as the last line,
// one JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "bench.h"

namespace {

using omnibench::Options;
using omnibench::Report;

const char* const kEndToEnd[][2] = {
    {"setup_s", "s"},           {"peak_rss_mb", "MB"},
    {"throughput_per_s", "1/s"}, {"p50_us", "us"},
    {"p90_us", "us"},           {"first_p50_us", "us"},
    {"test_rmse", "stars"},
};

bool ParseArgs(int argc, char** argv, Options* opts, std::string* make_fixture) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      opts->workload = value;
    } else if (key == "--seed") {
      opts->seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (key == "--seconds") {
      opts->seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(opts->seconds > 0)) {
        return false;
      }
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      opts->trace = value == "1";
    } else if (key == "--fixture") {
      opts->fixture = value;
    } else if (key == "--make_fixture") {
      *make_fixture = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  std::string make_fixture;
  if (!ParseArgs(argc, argv, &opts, &make_fixture)) {
    std::fprintf(stderr,
                 "usage: omnibench --workload W --seed N --seconds S "
                 "--trace 0|1 [--fixture PATH] | --make_fixture PATH --seed "
                 "N\n");
    return 2;
  }
  if (!make_fixture.empty()) {
    return omnibench::TrainFixture(opts.seed, make_fixture);
  }
  if (!opts.fixture.empty()) {
    std::ifstream(opts.fixture + ".train_s") >> opts.fixture_train_s;
  }

  Report report;
  if (opts.trace) {
    for (const auto& [name, unit] : omnibench::PerLayerMetrics()) {
      report.Set(name, 0.0, unit);
    }
    report.Set("fixture.train_s", opts.fixture_train_s, "s");
    omnibench::ProbeKernels(&report);
  }
  int code = 0;
  if (opts.workload == "train") {
    code = omnibench::RunTrain(opts, &report);
  } else if (opts.workload == "serve_warm" || opts.workload == "serve_cold") {
    code = omnibench::RunServe(opts, opts.workload == "serve_cold", &report);
  } else if (opts.workload == "score_int8") {
    code = omnibench::RunScoreInt8(opts, &report);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", opts.workload.c_str());
    return 2;
  }
  if (code != 0) return code;
  if (!opts.trace) report.Set("peak_rss_mb", omnibench::PeakRssMb(), "MB");

  // Exactly the declared metric set, every value finite.
  std::map<std::string, std::pair<double, std::string>> out;
  auto take = [&](const std::string& name, const std::string& unit) {
    auto it = report.metrics.find(name);
    if (it == report.metrics.end()) {
      report.Fail("metric " + name + " was not measured");
      out[name] = {0.0, unit};
    } else {
      if (!std::isfinite(it->second.first)) {
        report.Fail("metric " + name + " is not finite");
        it->second.first = 0.0;
      }
      out[name] = {it->second.first, unit};
    }
  };
  if (opts.trace) {
    for (const auto& [name, unit] : omnibench::PerLayerMetrics()) {
      take(name, unit);
    }
  } else {
    for (const auto& metric : kEndToEnd) take(metric[0], metric[1]);
  }

  for (const std::string& e : report.errors) {
    std::printf("# CHECK FAILED: %s\n", e.c_str());
  }
  std::string json = "{\"correct\": ";
  json += report.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value_unit] : out) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.10g", value_unit.first);
    json += first ? "" : ", ";
    json += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
            value_unit.second + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
