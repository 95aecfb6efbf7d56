// Concurrency models and the adaptive selector (paper Sections 4.1, 7.3).
//
// NeST supports three concurrency architectures — threads, processes, and
// events — because no single choice wins on every platform/workload (the
// Flash observation the paper cites): cached small requests favor events,
// I/O-bound requests favor threads or processes. Rather than asking the
// administrator to choose, NeST "distributes requests among the
// architectures equally at first, monitors their progress, and then slowly
// biases requests toward the most effective choice."
//
// These live on the simulation substrate: simnest::SimNest owns the
// selector and charges each model's costs from the platform profile
// (sim/platform.h). The real server runs every transfer on its connection
// thread.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"

namespace nest::transfer {

enum class ConcurrencyModel : int {
  threads = 0,
  processes = 1,
  events = 2,
  // SEDA-style staged architecture (paper Section 4.1 names SEDA as the
  // future direction): small worker pools per stage (disk, network) with
  // queues between, so one request's blocking I/O never stalls another's
  // send and no per-request thread is created.
  staged = 3,
};
constexpr int kModelCount = 4;

const char* model_name(ConcurrencyModel m) noexcept;

// What the selector optimizes. Small cached requests care about latency;
// bulk transfers about throughput. Scores are kept as "higher is better":
// latency reports are negated internally.
enum class AdaptMetric { latency, throughput };

class AdaptiveSelector {
 public:
  struct Options {
    AdaptMetric metric = AdaptMetric::throughput;
    // Requests to spread evenly across models before biasing.
    int warmup_per_model = 4;
    // EWMA smoothing for per-model scores.
    double alpha = 0.3;
    // After warmup, fraction of requests used to keep probing non-best
    // models ("NeST tries all models periodically", paper Section 7.3 —
    // this is the measured cost of adaptation).
    double explore_fraction = 0.1;
    // Models the deployment enables (the paper's Figure 5 disables the
    // process model "for the sake of clarity"). The staged model is an
    // extension and is opt-in.
    std::vector<ConcurrencyModel> enabled = {
        ConcurrencyModel::threads, ConcurrencyModel::processes,
        ConcurrencyModel::events};
    std::uint64_t seed = 42;
  };

  AdaptiveSelector();
  explicit AdaptiveSelector(Options opts);

  // Choose the model for the next request.
  ConcurrencyModel pick();

  // Report a completed request: latency in ns, or throughput in bytes/sec,
  // per the configured metric.
  void report(ConcurrencyModel m, double value);

  // Current best (exploited) model.
  ConcurrencyModel best() const;

  double score(ConcurrencyModel m) const {
    return state_[static_cast<int>(m)].score;
  }
  std::int64_t picks(ConcurrencyModel m) const {
    return state_[static_cast<int>(m)].picks;
  }
  bool warming_up() const;

 private:
  struct ModelState {
    bool enabled = false;
    double score = 0.0;
    bool scored = false;
    std::int64_t picks = 0;
    std::int64_t reports = 0;
  };

  Options opts_;
  std::array<ModelState, kModelCount> state_{};
  int rr_cursor_ = 0;  // round-robin cursor during warmup and exploration
  Rng rng_;
};

}  // namespace nest::transfer
