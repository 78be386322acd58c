// Workloads `serve_warm` and `serve_cold`: an open-loop Poisson load against
// the InferenceServer serving the default-config fixture snapshot at a fixed
// nominal rate well below capacity, in turns with a closed loop of kClients
// outstanding requests that measures the capacity. Traced runs also search
// the goodput up a geometric ladder of open-loop rates.
//
// Requests come in sessions: a user sends kSessionLen requests, the first
// one flagged. serve_warm draws users from the snapshot's split users, whose
// representations are pre-warmed in the cache at set-up; serve_cold cycles
// through source-only users the snapshot has never seen, with a cache
// smaller than that pool, so every session opens with an Algorithm 1
// admission and the admission share stays constant for the whole run.
//
// Threads: this one submits, one collects, kExecutors executors score, and
// the kernel pool has one thread.

#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <future>
#include <optional>
#include <thread>
#include <unordered_map>

#include "bench.h"
#include "common/rng.h"
#include "common/threadpool.h"
#include "nn/tensor.h"
#include "obs/metrics.h"
#include "serve/scorer.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "serve/snapshot_manager.h"

namespace omnibench {

using namespace omnimatch;

namespace {

constexpr int kExecutors = 2;
constexpr int kSessionLen = 4;
constexpr double kFollowupGapS = 0.005;  // mean gap inside a session
constexpr double kWarmNominalQps = 1000.0;
constexpr double kColdNominalQps = 400.0;
constexpr size_t kColdCacheCapacity = 24;
/// A request is good when it is answered kOk within this limit, measured
/// from its scheduled send time.
constexpr double kLatencyLimitUs = 25000.0;
constexpr double kGoodShare = 0.99;
constexpr double kLadderStart = 2.0;  // first rung, in nominal rates
constexpr double kLadderFactor = 2.0;
constexpr double kRungS = 0.4;
constexpr int kBisections = 5;
/// Nominal-phase latency windows, by scheduled send time.
constexpr double kWindowS = 1.0;
/// Requests in flight in the capacity phases: one full batch. At the
/// capacity of either workload this keeps latency far below kLatencyLimitUs
/// and the queue far below the degradation thresholds.
constexpr int kClients = 32;
/// Capacity windows, by completion time.
constexpr double kCapacityWindowS = 0.5;
/// A run is made of cycles of about kCycleS: set-ups, a capacity phase and a
/// nominal phase. So every metric samples the whole run: this host's speed
/// drifts in episodes of seconds, and each metric takes the good side across
/// its windows (setup_s the median of its set-ups). kCapacityShare of a
/// cycle is the capacity phase. A traced run adds one ladder pass of
/// kLadderShare of the run.
constexpr double kCycleS = 8.0;
constexpr int kSetupsPerCycle = 2;
constexpr double kCapacityShare = 0.375;
constexpr double kLadderShare = 0.25;

struct Req {
  int user = -1;
  int item = -1;
  bool first = false;
  int64_t sched_ns = 0;  // offset from the phase start
  int64_t lag_ns = 0;    // how late the generator sent it
  int64_t latency_ns = 0;
  serve::ScoreResult result;
};

struct PhaseStats {
  double rate = 0.0;
  int64_t sent = 0;
  int64_t counts[6] = {0, 0, 0, 0, 0, 0};  // by serve::RequestStatus
  double good_share = 0.0;
  double tail_good_share = 0.0;  // over the last quarter of the phase
  double lag_p50_us = 0.0;
  double lag_p99_us = 0.0;
  bool generator_behind = false;
  bool passed = false;
};

bool Good(const Req& r) {
  return r.result.ok() &&
         static_cast<double>(r.latency_ns) / 1e3 <= kLatencyLimitUs;
}

std::vector<Req> Concat(const std::vector<std::vector<Req>>& phases) {
  std::vector<Req> all;
  for (const std::vector<Req>& p : phases) {
    all.insert(all.end(), p.begin(), p.end());
  }
  return all;
}

PhaseStats Summarize(const std::vector<Req>& reqs, double rate) {
  PhaseStats s;
  s.rate = rate;
  s.sent = static_cast<int64_t>(reqs.size());
  std::vector<double> lags;
  size_t good = 0, tail_good = 0;
  const size_t tail_begin = reqs.size() - reqs.size() / 4;
  for (size_t i = 0; i < reqs.size(); ++i) {
    const Req& r = reqs[i];
    ++s.counts[static_cast<int>(r.result.status)];
    lags.push_back(static_cast<double>(r.lag_ns) / 1e3);
    if (Good(r)) {
      ++good;
      if (i >= tail_begin) ++tail_good;
    }
  }
  if (!reqs.empty()) {
    s.good_share = static_cast<double>(good) / reqs.size();
    s.tail_good_share = reqs.size() - tail_begin > 0
                            ? static_cast<double>(tail_good) /
                                  static_cast<double>(reqs.size() - tail_begin)
                            : 1.0;
  }
  s.lag_p50_us = Quantile(lags, 0.5);
  s.lag_p99_us = Quantile(lags, 0.99);
  // The generator, not the server, fell behind when its typical send is
  // late by half a mean inter-arrival gap.
  s.generator_behind = s.lag_p50_us > 0.5 * 1e6 / rate;
  s.passed = !s.generator_behind && s.good_share >= kGoodShare &&
             s.tail_good_share >= kGoodShare;
  return s;
}

/// Builds one phase's schedule: sessions arrive as a Poisson process at
/// rate / kSessionLen, and a session's requests follow each other at
/// exponential gaps, so requests arrive at `rate` on average.
class Planner {
 public:
  Planner(const World& world, bool cold, uint64_t seed)
      : world_(world), cold_(cold), rng_(seed ^ 0x5EB5EB5EULL) {
    cycle_ = world.cold_users;
    rng_.Shuffle(cycle_);
  }

  std::vector<Req> Plan(double rate, double seconds) {
    std::vector<Req> reqs;
    const double session_rate = rate / kSessionLen;
    double t = Exponential(session_rate);
    while (t < seconds) {
      const int user = NextUser();
      double at = t;
      for (int k = 0; k < kSessionLen; ++k) {
        Req r;
        r.user = user;
        r.item = world_.items[rng_.UniformU32(
            static_cast<uint32_t>(world_.items.size()))];
        r.first = k == 0;
        r.sched_ns = static_cast<int64_t>(at * 1e9);
        reqs.push_back(r);
        at += Exponential(1.0 / kFollowupGapS);
      }
      t += Exponential(session_rate);
    }
    std::stable_sort(reqs.begin(), reqs.end(), [](const Req& a, const Req& b) {
      return a.sched_ns < b.sched_ns;
    });
    return reqs;
  }

 private:
  double Exponential(double rate) {
    return -std::log(1.0 - rng_.UniformDouble()) / rate;
  }

  int NextUser() {
    if (!cold_) {
      return world_.warm_users[rng_.UniformU32(
          static_cast<uint32_t>(world_.warm_users.size()))];
    }
    // A fixed cyclic order over the whole cold pool: a user returns only
    // after every other cold user was admitted, and the LRU cache, smaller
    // than the pool, has evicted it by then.
    if (cursor_ == cycle_.size()) cursor_ = 0;
    return cycle_[cursor_++];
  }

  const World& world_;
  const bool cold_;
  Rng rng_;
  std::vector<int> cycle_;
  size_t cursor_ = 0;
};

/// Sends `reqs` at their scheduled times from this thread while one
/// collector thread records each answer's latency from its scheduled time;
/// returns when every request is answered.
void RunPhase(serve::InferenceServer* server, std::vector<Req>* reqs) {
  const size_t n = reqs->size();
  std::vector<std::future<serve::ScoreResult>> futures(n);
  std::atomic<size_t> published{0};
  const int64_t start = NowNs() + 1000000;  // 1 ms to get going

  std::thread collector([&] {
    std::vector<char> done(n, 0);
    size_t next = 0;
    auto finish = [&](size_t i, int64_t now) {
      Req& r = (*reqs)[i];
      r.result = futures[i].get();
      r.latency_ns = now - (start + r.sched_ns);
      done[i] = 1;
    };
    while (next < n) {
      const size_t pub = published.load(std::memory_order_acquire);
      if (next >= pub) {
        // Blocks until the sender publishes: polling here would wake this
        // thread tens of thousands of times a second beside the executors.
        published.wait(pub, std::memory_order_acquire);
        continue;
      }
      futures[next].wait();
      finish(next, NowNs());
      // Answers can complete out of order across executors: stamp the
      // ones already done right away instead of after the head of line.
      const size_t window = std::min(pub, next + 64);
      for (size_t j = next + 1; j < window; ++j) {
        if (!done[j] && futures[j].wait_for(std::chrono::seconds(0)) ==
                            std::future_status::ready) {
          finish(j, NowNs());
        }
      }
      while (next < n && done[next]) ++next;
    }
  });

  // Sleep to just before each send, then spin: sleeps alone overshoot by
  // tens of microseconds, which at the top rungs is a whole gap.
  prctl(PR_SET_TIMERSLACK, 1UL);
  for (size_t i = 0; i < n; ++i) {
    Req& r = (*reqs)[i];
    const int64_t due = start + r.sched_ns;
    const int64_t wait = due - NowNs();
    if (wait > 100000) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(wait - 60000));
    }
    while (NowNs() < due) {
    }
    r.lag_ns = NowNs() - due;
    futures[i] = server->ScoreAsync(r.user, r.item);
    published.store(i + 1, std::memory_order_release);
    published.notify_one();
  }
  collector.join();
}

/// Sends requests from `planner` in its order as a closed loop for `seconds`:
/// kClients requests are in flight, and the next one is sent as soon as the
/// oldest is answered. A request's sched_ns is its send time and latency_ns
/// runs from there to when its answer was taken. Appends the rate of good
/// answers in each whole kCapacityWindowS window to `window_qps`.
std::vector<Req> RunClosed(serve::InferenceServer* server, Planner* planner,
                           double nominal_qps, double seconds,
                           std::vector<double>* window_qps) {
  std::vector<Req> reqs;
  std::vector<std::future<serve::ScoreResult>> futures;
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  size_t sent = 0, done = 0;
  while (true) {
    while (sent - done < kClients && NowNs() < end) {
      if (sent == reqs.size()) {
        std::vector<Req> more = planner->Plan(nominal_qps, 1.0);
        reqs.insert(reqs.end(), more.begin(), more.end());
        continue;
      }
      Req& r = reqs[sent++];
      r.sched_ns = NowNs() - start;
      futures.push_back(server->ScoreAsync(r.user, r.item));
    }
    if (done == sent) break;
    Req& r = reqs[done];
    r.result = futures[done].get();
    r.latency_ns = NowNs() - start - r.sched_ns;
    ++done;
  }
  reqs.resize(sent);

  std::vector<double> good(
      static_cast<size_t>(seconds / kCapacityWindowS), 0.0);
  for (const Req& r : reqs) {
    const size_t w = static_cast<size_t>(
        static_cast<double>(r.sched_ns + r.latency_ns) /
        (kCapacityWindowS * 1e9));
    if (w < good.size() && Good(r)) good[w] += 1.0;
  }
  for (double g : good) window_qps->push_back(g / kCapacityWindowS);
  return reqs;
}

/// Checks every kOk answer against a fresh single-threaded reference Scorer
/// on the same snapshot, bit for bit.
void CheckAgainstReference(
    const std::shared_ptr<const serve::ModelSnapshot>& snap,
    const std::vector<const std::vector<Req>*>& phases, Report* report) {
  std::unordered_map<uint64_t, float> served;
  for (const std::vector<Req>* reqs : phases) {
    for (const Req& r : *reqs) {
      if (!r.result.ok()) continue;
      if (r.result.snapshot_version != snap->version()) {
        report->Fail("kOk answer from an unexpected snapshot version");
        return;
      }
      auto [it, inserted] = served.emplace(PairKey(r.user, r.item),
                                           r.result.score);
      if (!inserted && std::memcmp(&it->second, &r.result.score,
                                   sizeof(float)) != 0) {
        report->Fail("one pair got two different kOk scores");
        return;
      }
    }
  }
  serve::Scorer reference(snap, 1 << 16);
  const size_t mismatches = CountMismatches(&reference, served);
  if (mismatches > 0) {
    report->Fail(std::to_string(mismatches) + " of " +
                 std::to_string(served.size()) +
                 " kOk scores differ from the single-threaded reference");
  }
  std::printf("# check: %zu distinct kOk pairs compared with the reference\n",
              served.size());
}

struct ServeRun;
double Ladder(serve::InferenceServer* server, Planner* planner,
              double nominal_qps, double budget_s, ServeRun* run);

struct ServeRun {
  double setup_s = 0.0;
  double load_ms = 0.0;
  double cycle_s = 0.0;
  std::vector<std::vector<Req>> nominal;   // one phase per cycle
  PhaseStats nominal_stats;                // all of them together
  std::vector<std::vector<Req>> capacity;  // one closed-loop phase per cycle
  PhaseStats capacity_stats;
  std::vector<double> capacity_window_qps;
  double capacity_qps = 0.0;
  std::shared_ptr<const serve::ModelSnapshot> snap;
  // Traced runs only.
  std::vector<std::vector<Req>> rungs;
  std::vector<PhaseStats> rung_stats;
  double goodput_qps = 0.0;
  int ladders_bracketed = 0;  // passes that found a failing rate
  double queue_wait_us = 0.0;
  double mean_batch = 0.0;
  double hit_ratio = 0.0;
  double evictions_per_req = 0.0;
  double admit_us = 0.0;
  double swap_ms = 0.0;

  /// Every phase's requests, for the output check.
  std::vector<const std::vector<Req>*> Phases() const {
    std::vector<const std::vector<Req>*> phases;
    for (const std::vector<Req>& n : nominal) phases.push_back(&n);
    for (const std::vector<Req>& c : capacity) phases.push_back(&c);
    for (const std::vector<Req>& rung : rungs) phases.push_back(&rung);
    return phases;
  }
};

double LatencyHistQuantileUs(const char* name, double q) {
  obs::Histogram* h = obs::MetricsRegistry::Global().GetHistogram(
      name, obs::Histogram::LatencyBoundsNs());
  return h->Count() > 0 ? obs::HistogramQuantile(*h, q) / 1e3 : 0.0;
}

/// One full serving run: cycles of set-up (kSetupsPerCycle times, the last
/// one kept), a capacity phase and a nominal phase, and when traced a ladder
/// pass. Returns kFixtureRejected when the fixture fails to load.
int ServeOnce(const Options& opts, const World& w, bool cold, double seconds,
              bool traced, ServeRun* run) {
  const core::OmniMatchConfig config = DefaultConfig(opts.seed, 1);
  serve::InferenceServer::Options server_options;
  server_options.executors = kExecutors;
  server_options.cache_capacity = cold ? kColdCacheCapacity : 4096;
  std::unique_ptr<serve::InferenceServer> server;
  std::vector<double> setups, loads;
  // One request stream per kind of phase. How many requests a capacity phase
  // or a ladder pass takes depends on the server's speed, so they must not
  // draw from the stream that schedules the nominal phases.
  Planner planner(w, cold, opts.seed);
  Planner capacity_planner(w, cold, opts.seed + 1);
  Planner ladder_planner(w, cold, opts.seed + 2);
  const double nominal_qps = cold ? kColdNominalQps : kWarmNominalQps;
  const int cycles = std::max(1, static_cast<int>(std::lround(seconds /
                                                              kCycleS)));
  run->cycle_s = seconds / cycles;
  const double nominal_s = run->cycle_s * (1.0 - kCapacityShare);
  if (traced) obs::MetricsRegistry::Global().ResetAll();
  int64_t hits = 0, misses = 0, evictions = 0, served = 0, batches = 0;

  for (int c = 0; c < cycles; ++c) {
    for (int rep = 0; rep < kSetupsPerCycle; ++rep) {
      server.reset();
      run->snap.reset();
      const int64_t t0 = NowNs();
      Result<std::shared_ptr<const serve::ModelSnapshot>> loaded =
          serve::ModelSnapshot::Load(config, &w.cross, w.split, opts.fixture);
      if (!loaded.ok()) {
        std::fprintf(stderr, "serve: fixture rejected: %s\n",
                     loaded.status().ToString().c_str());
        return kFixtureRejected;
      }
      run->snap = loaded.value();
      const int64_t t1 = NowNs();
      server = std::make_unique<serve::InferenceServer>(run->snap,
                                                        server_options);
      if (!cold) {
        std::vector<std::future<serve::ScoreResult>> warmup;
        for (int u : w.warm_users) {
          warmup.push_back(server->ScoreAsync(u, w.items.front()));
        }
        for (auto& f : warmup) f.get();
      }
      setups.push_back(static_cast<double>(NowNs() - t0) / 1e9);
      loads.push_back(static_cast<double>(t1 - t0) / 1e6);
    }

    run->capacity.push_back(RunClosed(server.get(), &capacity_planner,
                                      nominal_qps,
                                      run->cycle_s * kCapacityShare,
                                      &run->capacity_window_qps));
    run->nominal.push_back(planner.Plan(nominal_qps, nominal_s));
    // The traced layer metrics cover the nominal phases only.
    const serve::UserEmbeddingCache& cache = server->scorer().cache();
    const int64_t hits0 = cache.hits(), misses0 = cache.misses(),
                  evictions0 = cache.evictions();
    const serve::InferenceServer::Stats stats0 = server->stats();
    std::thread swapper;
    if (traced && c == cycles / 2) {
      // One valid snapshot swap under the nominal load.
      swapper = std::thread([&] {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(nominal_s / 2));
        serve::SnapshotManager manager(server.get());
        const int64_t t0 = NowNs();
        const Status s = manager.SwapFromCheckpoint(config, &w.cross, w.split,
                                                    opts.fixture);
        run->swap_ms = static_cast<double>(NowNs() - t0) / 1e6;
        if (!s.ok()) std::fprintf(stderr, "serve: swap failed\n");
      });
    }
    if (traced) obs::EnableMetrics(true);
    RunPhase(server.get(), &run->nominal.back());
    if (traced) obs::EnableMetrics(false);
    if (swapper.joinable()) swapper.join();
    const serve::InferenceServer::Stats stats1 = server->stats();
    hits += cache.hits() - hits0;
    misses += cache.misses() - misses0;
    evictions += cache.evictions() - evictions0;
    served += stats1.requests_served - stats0.requests_served;
    batches += stats1.batches_dispatched - stats0.batches_dispatched;
  }
  run->setup_s = Median(setups);
  run->load_ms = Median(loads);
  const std::vector<Req> nominal = Concat(run->nominal);
  run->nominal_stats = Summarize(nominal, nominal_qps);
  run->capacity_qps = AcrossWindows(run->capacity_window_qps, false);
  run->capacity_stats = Summarize(Concat(run->capacity), run->capacity_qps);
  if (traced) {
    run->hit_ratio = hits + misses > 0
                         ? static_cast<double>(hits) /
                               static_cast<double>(hits + misses)
                         : 0.0;
    run->evictions_per_req = static_cast<double>(evictions) /
                             static_cast<double>(nominal.size());
    run->mean_batch = static_cast<double>(served) /
                      static_cast<double>(std::max<int64_t>(1, batches));
    run->queue_wait_us = LatencyHistQuantileUs("serve.queue_wait_ns", 0.5);
    obs::Histogram* admit = obs::MetricsRegistry::Global().GetHistogram(
        "serve.admit_ns", obs::Histogram::LatencyBoundsNs());
    run->admit_us = admit->Count() > 0
                        ? admit->Sum() / static_cast<double>(admit->Count()) /
                              1e3
                        : 0.0;
    run->goodput_qps = Ladder(server.get(), &ladder_planner, nominal_qps,
                              seconds * kLadderShare, run);
  }
  server->Shutdown();
  return 0;
}

/// One goodput search: rungs of kRungS at kLadderStart x the nominal rate,
/// doubling until one fails, then kBisections bisections between the last
/// passing and the first failing rate, within `budget_s`. Returns the highest
/// passing rate (the nominal rate when the first rung fails).
double Ladder(serve::InferenceServer* server, Planner* planner,
              double nominal_qps, double budget_s, ServeRun* run) {
  const int64_t start = NowNs();
  auto budget_left = [&] {
    return static_cast<double>(NowNs() - start) / 1e9 + kRungS <= budget_s;
  };
  // Runs one rung; nullopt when the generator, not the server, fell behind.
  auto passes = [&](double rate) -> std::optional<bool> {
    run->rungs.push_back(planner->Plan(rate, kRungS));
    RunPhase(server, &run->rungs.back());
    run->rung_stats.push_back(Summarize(run->rungs.back(), rate));
    const PhaseStats& s = run->rung_stats.back();
    if (s.generator_behind) return std::nullopt;
    return s.passed;
  };
  double pass_rate = nominal_qps;
  double fail_rate = 0.0;
  for (double rate = nominal_qps * kLadderStart; budget_left();
       rate *= kLadderFactor) {
    const std::optional<bool> ok = passes(rate);
    if (!ok.has_value()) return pass_rate;
    if (!*ok) {
      fail_rate = rate;
      break;
    }
    pass_rate = rate;
  }
  if (fail_rate == 0.0) return pass_rate;
  ++run->ladders_bracketed;
  for (int i = 0; i < kBisections && budget_left(); ++i) {
    const double rate = std::sqrt(pass_rate * fail_rate);
    const std::optional<bool> ok = passes(rate);
    if (!ok.has_value()) break;
    (*ok ? pass_rate : fail_rate) = rate;
  }
  return pass_rate;
}

struct Latency {
  double p50_us = 0.0;
  double p90_us = 0.0;
  double first_p50_us = 0.0;
  double run_p99_us = 0.0;  // over every request, not gated (see README)
  size_t n = 0;
  size_t windows = 0;
};

/// Nominal-phase latencies: percentiles per kWindowS window of scheduled
/// send time, combined with AcrossWindows over the windows of every phase.
Latency NominalLatency(const ServeRun& run) {
  // Whole windows only: a phase's last sessions send follow-ups past its end.
  const size_t per_phase = std::max<size_t>(
      1, static_cast<size_t>(run.cycle_s * (1.0 - kCapacityShare) / kWindowS));
  std::vector<std::vector<double>> windows, first_windows;
  std::vector<double> all;
  for (const std::vector<Req>& phase : run.nominal) {
    const size_t base = windows.size();
    windows.resize(base + per_phase);
    first_windows.resize(base + per_phase);
    for (const Req& r : phase) {
      const double us = static_cast<double>(r.latency_ns) / 1e3;
      all.push_back(us);
      const size_t w = static_cast<size_t>(static_cast<double>(r.sched_ns) /
                                           (kWindowS * 1e9));
      if (w >= per_phase) continue;
      windows[base + w].push_back(us);
      if (r.first) first_windows[base + w].push_back(us);
    }
  }
  std::vector<double> p50, p90, first_p50;
  for (size_t i = 0; i < windows.size(); ++i) {
    if (windows[i].empty()) continue;
    p50.push_back(Quantile(windows[i], 0.5));
    p90.push_back(Quantile(windows[i], 0.9));
    if (!first_windows[i].empty()) {
      first_p50.push_back(Quantile(first_windows[i], 0.5));
    }
  }
  Latency lat;
  lat.p50_us = AcrossWindows(p50, true);
  lat.p90_us = AcrossWindows(p90, true);
  lat.first_p50_us = AcrossWindows(first_p50, true);
  lat.run_p99_us = Quantile(all, 0.99);
  lat.n = all.size();
  lat.windows = p50.size();
  return lat;
}

void PrintPhase(const char* name, const PhaseStats& s) {
  std::printf(
      "# phase %-8s rate %8.1f qps sent %6lld ok %6lld degraded_cached %lld "
      "degraded_fallback %lld deadline_exceeded %lld overloaded %lld "
      "good %.4f lag p50 %.1f us p99 %.1f us%s\n",
      name, s.rate, static_cast<long long>(s.sent),
      static_cast<long long>(s.counts[0]), static_cast<long long>(s.counts[1]),
      static_cast<long long>(s.counts[2]), static_cast<long long>(s.counts[3]),
      static_cast<long long>(s.counts[4]), s.good_share, s.lag_p50_us,
      s.lag_p99_us, s.generator_behind ? " GENERATOR-BEHIND" : "");
}

}  // namespace

void ProbeServingLayers(const std::shared_ptr<const serve::ModelSnapshot>& snap,
                        const World& w, Report* report) {
  core::OmniMatchModel* model = snap->model();
  const core::OmniMatchConfig& config = snap->config();
  Rng rng(11);
  auto item_docs = [&](int b) {
    std::vector<int> ids;
    for (int i = 0; i < b; ++i) {
      const int item =
          w.items[rng.UniformU32(static_cast<uint32_t>(w.items.size()))];
      auto it = snap->item_docs().find(item);
      const std::vector<int>& doc =
          it != snap->item_docs().end() ? it->second : snap->pad_item_doc();
      ids.insert(ids.end(), doc.begin(), doc.end());
    }
    return ids;
  };
  const std::vector<int> docs1 = item_docs(1), docs32 = item_docs(32);
  report->Set("model.extract_item_us.b1",
              TimeUs(200, 10, [&] { model->ExtractItem(docs1, 1); }), "us");
  report->Set("model.extract_item_us.b32",
              TimeUs(30, 3, [&] { model->ExtractItem(docs32, 32); }), "us");
  const int f = config.feature_dim;
  std::vector<float> user_rows(static_cast<size_t>(32) * 2 * f);
  std::vector<float> item_rows(static_cast<size_t>(32) * f);
  for (float& v : user_rows) v = rng.UniformFloat(-1.0f, 1.0f);
  for (float& v : item_rows) v = rng.UniformFloat(-1.0f, 1.0f);
  report->Set("model.rating_logits_us.b32", TimeUs(200, 10, [&] {
                nn::Tensor u = nn::Tensor::FromData(
                    {32, 2 * f}, std::vector<float>(user_rows));
                nn::Tensor it = nn::Tensor::FromData(
                    {32, f}, std::vector<float>(item_rows));
                model->RatingLogits(u, it);
              }),
              "us");
  // One cold user's admission, piece by piece.
  std::vector<double> build_us, extract_us;
  for (size_t i = 0; i < w.cold_users.size() && i < 64; ++i) {
    const int64_t t0 = NowNs();
    std::vector<std::vector<int>> docs = snap->BuildColdUserDocs(w.cold_users[i]);
    const int64_t t1 = NowNs();
    build_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    if (static_cast<int>(docs.size()) != config.aux_eval_samples) continue;
    std::vector<int> flat;
    for (const auto& d : docs) flat.insert(flat.end(), d.begin(), d.end());
    const int64_t t2 = NowNs();
    model->ExtractUser(data::DomainSide::kTarget, flat,
                       static_cast<int>(docs.size()));
    extract_us.push_back(static_cast<double>(NowNs() - t2) / 1e3);
  }
  report->Set("snapshot.build_cold_docs_us", Median(build_us), "us");
  report->Set("model.extract_user_us.b4", Median(extract_us), "us");
  // The Scorer on warm users, batch of 1 and of 32 (users cached).
  serve::Scorer scorer(snap, w.warm_users.size() + 16);
  std::vector<serve::ScoreRequest> warm;
  for (int u : w.warm_users) warm.push_back({u, w.items.front()});
  scorer.ScoreBatch(warm);
  std::vector<serve::ScoreRequest> b1(1), b32(32);
  auto refill = [&](std::vector<serve::ScoreRequest>* batch) {
    for (serve::ScoreRequest& r : *batch) {
      r.user = w.warm_users[rng.UniformU32(
          static_cast<uint32_t>(w.warm_users.size()))];
      r.item = w.items[rng.UniformU32(static_cast<uint32_t>(w.items.size()))];
    }
  };
  report->Set("scorer.score_batch_us.b1", TimeUs(200, 10, [&] {
                refill(&b1);
                scorer.ScoreBatch(b1);
              }),
              "us");
  report->Set("scorer.score_batch_us.b32", TimeUs(30, 3, [&] {
                refill(&b32);
                scorer.ScoreBatch(b32);
              }),
              "us");
}

int RunServe(const Options& opts, bool cold, Report* report) {
  const World w = MakeWorld(opts.seed);
  if (cold && w.cold_users.size() < 2 * kColdCacheCapacity) {
    report->Fail("cold pool smaller than two cache capacities");
  }
  const char* name = cold ? "serve_cold" : "serve_warm";
  if (!opts.trace) {
    ServeRun run;
    const int code = ServeOnce(opts, w, cold, opts.seconds, false, &run);
    if (code != 0) return code;
    const Latency lat = NominalLatency(run);
    PrintPhase("nominal", run.nominal_stats);
    for (const PhaseStats& s : run.rung_stats) PrintPhase("rung", s);
    PrintPhase("capacity", run.capacity_stats);
    const PhaseStats& n = run.nominal_stats;
    const PhaseStats& c = run.capacity_stats;
    report->attempted = n.sent + c.sent;
    report->failed = n.sent - n.counts[0] + c.sent - c.counts[0];
    if (n.generator_behind) {
      report->Fail("the load generator fell behind at the nominal rate");
    }
    CheckAgainstReference(run.snap, run.Phases(), report);
    serve::Scorer scorer(run.snap, w.warm_users.size() + 16);
    const double rmse = TestRmse(&scorer, w);
    report->Set("setup_s", run.setup_s, "s");
    report->Set("throughput_per_s", run.capacity_qps, "1/s");
    report->Set("p50_us", lat.p50_us, "us");
    report->Set("p90_us", lat.p90_us, "us");
    report->Set("first_p50_us", lat.first_p50_us, "us");
    report->Set("test_rmse", rmse, "stars");
    std::printf(
        "# %s: %zu requests in %zu windows: p50_us %.1f p90_us %.1f "
        "first_p50_us %.1f (p99 over all requests %.1f); capacity_qps %.1f "
        "over %zu windows; failed_ratio %.6f test_rmse %.6f setup %.3f s "
        "fixture %.2f s\n",
        name, lat.n, lat.windows, lat.p50_us, lat.p90_us, lat.first_p50_us,
        lat.run_p99_us, run.capacity_qps, run.capacity_window_qps.size(),
        static_cast<double>(report->failed) /
            static_cast<double>(std::max<int64_t>(1, report->attempted)),
        rmse, run.setup_s, opts.fixture_train_s);
    return 0;
  }

  ServeRun plain, traced;
  int code = ServeOnce(opts, w, cold, opts.seconds / 2, false, &plain);
  if (code == 0) code = ServeOnce(opts, w, cold, opts.seconds / 2, true, &traced);
  if (code != 0) return code;
  report->Set("obs.trace_overhead",
              NominalLatency(traced).p50_us / NominalLatency(plain).p50_us -
                  1.0,
              "ratio");
  report->Set("snapshot.load_ms", traced.load_ms, "ms");
  report->Set("snapshot_manager.swap_ms", traced.swap_ms, "ms");
  report->Set("server.queue_wait_us", traced.queue_wait_us, "us");
  report->Set("server.mean_batch", traced.mean_batch, "count");
  report->Set("cache.hit_ratio", traced.hit_ratio, "ratio");
  report->Set("cache.evictions_per_req", traced.evictions_per_req, "ratio");
  report->Set("scorer.admit_us", traced.admit_us, "us");
  report->Set("bench.sched_lag_us", traced.nominal_stats.lag_p99_us, "us");
  report->Set("bench.rungs", static_cast<double>(traced.rung_stats.size()),
              "count");
  report->Set("ladder.goodput_qps", traced.goodput_qps, "1/s");
  std::printf("# %s: goodput_qps %.1f%s over %zu rungs\n", name,
              traced.goodput_qps,
              traced.ladders_bracketed > 0 ? "" : " (not bracketed)",
              traced.rung_stats.size());
  PhaseStats ladder;
  for (const PhaseStats& s : traced.rung_stats) {
    ladder.sent += s.sent;
    for (int i = 0; i < 6; ++i) ladder.counts[i] += s.counts[i];
  }
  static const char* const kStatus[] = {"ok", "degraded_cached",
                                        "degraded_fallback",
                                        "deadline_exceeded", "overloaded"};
  const std::pair<const char*, const PhaseStats*> accounted[] = {
      {"nominal.", &traced.nominal_stats},
      {"capacity.", &traced.capacity_stats},
      {"ladder.", &ladder}};
  for (const auto& [prefix, s] : accounted) {
    report->Set(std::string(prefix) + "sent", static_cast<double>(s->sent),
                "count");
    for (int i = 0; i < 5; ++i) {
      report->Set(std::string(prefix) + kStatus[i],
                  static_cast<double>(s->counts[i]), "count");
    }
  }
  CheckAgainstReference(traced.snap, traced.Phases(), report);
  ProbeServingLayers(traced.snap, w, report);
  code = ProbeQuantLayers(opts, w, report);
  if (code != 0) return code;
  const PhaseStats& n = traced.nominal_stats;
  const PhaseStats& c = traced.capacity_stats;
  report->attempted = n.sent + c.sent;
  report->failed = n.sent - n.counts[0] + c.sent - c.counts[0];
  return 0;
}

}  // namespace omnibench
