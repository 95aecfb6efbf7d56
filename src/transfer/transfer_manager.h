// TransferManager: the policy heart of NeST's data movement (paper
// Section 4). Substrate-agnostic: the real server and the discrete-event
// simulator both drive this same object, so the scheduling behaviour that
// the benchmarks measure is exactly the behaviour the appliance ships.
//
// Responsibilities here: request registry, scheduling policy (which
// pending quantum is serviced next), and accounting. Actually moving bytes
// is the substrate's job (and, in the simulator, so is choosing a
// concurrency model: simnest::SimNest owns the adaptive selector).
//
// Thread-safety: this object is a *single-threaded* policy brain. The
// accounting (per-class byte counters, completed/in_flight, the latency
// histogram) is atomics only, so monitoring reads (ClassAd publishing,
// /stats) are always safe, but the lifecycle and scheduling calls must be
// externally serialized — transfer::TransferCore is that serialization
// layer for the concurrent real-mode server and the only path that
// charges bytes; the simulator drives it from its one engine thread.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "common/clock.h"
#include "common/metrics.h"
#include "common/result.h"
#include "transfer/cache_model.h"
#include "transfer/request.h"
#include "transfer/scheduler.h"

namespace nest::transfer {

class TransferManager {
 public:
  struct Options {
    // fifo | stride | stride-nwc | stride-user | cache-aware
    std::string scheduler = "fifo";
    // Gray-box cache model sizing (estimate of the kernel cache).
    std::int64_t cache_model_bytes = 64LL * 1024 * 1024;
    std::int64_t cache_model_page = 8 * 1024;
  };

  TransferManager(Clock& clock, Options options);

  // --- request lifecycle ---
  // Registers a request and resolves its byte-class counter once
  // (r->class_bytes), so charging never looks the class up again.
  // `cached_fraction` is the caller's cache_model() probe for the file,
  // taken under whatever serialises the model.
  TransferRequest* create_request(const std::string& protocol, Direction dir,
                                  const std::string& path, std::int64_t size,
                                  double cached_fraction,
                                  const std::string& user = {},
                                  std::int64_t offset = 0);
  void enqueue(TransferRequest* r) { scheduler_->enqueue(r); }
  TransferRequest* next() { return scheduler_->next(); }
  // Non-work-conserving hold hint (0 = none).
  Nanos hold_until() const { return scheduler_->hold_until(); }
  // Records the completion latency and retires `r`.
  void complete(TransferRequest* r);
  bool idle() const { return scheduler_->empty() && requests_.empty(); }
  std::size_t in_flight() const {
    return in_flight_.load(std::memory_order_relaxed);
  }

  // --- policy access ---
  Scheduler& scheduler() { return *scheduler_; }
  // Non-null when the configured policy is stride (for ticket setup).
  StrideScheduler* stride();
  CacheModel& cache_model() { return cache_model_; }

  // --- accounting ---
  // Bytes moved per class, listing only classes that moved any. The
  // classes are the five wire protocols, the HSM's two internal movers,
  // and "other" for any other protocol name.
  std::map<std::string, std::int64_t> class_bytes() const;
  std::int64_t total_bytes() const;
  std::int64_t completed_requests() const {
    return completed_.load(std::memory_order_relaxed);
  }
  // Arrival-to-complete wall time of every retired request (count and
  // mean exact; percentiles are bucket upper bounds).
  const Histogram& latency() const { return latency_; }

  const Options& options() const { return options_; }
  Clock& clock() const { return clock_; }

 private:
  // A fixed key set of plain atomics (like obs::Stats' per-protocol
  // histograms), so a charge is one relaxed fetch_add and readers never
  // race a rehash.
  static constexpr std::array<std::string_view, 8> kByteClasses = {
      "chirp", "http", "ftp", "gridftp", "nfs", "recall", "migrate", "other"};

  Clock& clock_;
  Options options_;
  std::unique_ptr<Scheduler> scheduler_;
  CacheModel cache_model_;
  std::map<std::uint64_t, std::unique_ptr<TransferRequest>> requests_;
  std::uint64_t next_id_ = 1;
  std::array<std::atomic<std::int64_t>, kByteClasses.size()> class_bytes_{};
  Histogram latency_;
  std::atomic<std::int64_t> completed_{0};
  std::atomic<std::size_t> in_flight_{0};
};

}  // namespace nest::transfer
