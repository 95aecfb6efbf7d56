// Transfer scheduling policies (paper Section 4.2).
//
// The transfer manager services transfers one *quantum* (block) at a time;
// the scheduler decides whose block goes next. Because different protocols
// move different amounts per request (an NFS read is one 8 KB block, an
// HTTP get is a whole file), the stride scheduler charges by *bytes*, not
// by requests — the paper's "byte-based strides".
//
// Policies:
//  * FifoScheduler           — first-come first-served (the default).
//  * StrideScheduler         — deterministic proportional share across
//                              protocol classes (Waldspurger & Weihl),
//                              optionally non-work-conserving.
//  * CacheAwareScheduler     — favors requests predicted cache-resident by
//                              the gray-box model (approximates SJF).
#pragma once

#include <cstdint>
#include <deque>
#include <list>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "transfer/request.h"

namespace nest::transfer {

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  // A request becomes schedulable (for block protocols, each block request
  // is enqueued as it arrives; for file protocols the request re-enters
  // after each serviced quantum via requeue()).
  virtual void enqueue(TransferRequest* r) = 0;

  // Pick the next request to service, or nullptr if none *should* run now
  // (empty, or a non-work-conserving hold).
  virtual TransferRequest* next() = 0;

  // Account `bytes` moved on behalf of `r`.
  virtual void charge(TransferRequest* r, std::int64_t bytes) = 0;

  virtual bool empty() const = 0;
  virtual const char* name() const = 0;

  // When next() held back a runnable request (non-work-conserving
  // policies), the time worth retrying at; 0 = no hold.
  virtual Nanos hold_until() const { return 0; }
};

class FifoScheduler final : public Scheduler {
 public:
  void enqueue(TransferRequest* r) override { q_.push_back(r); }
  TransferRequest* next() override {
    if (q_.empty()) return nullptr;
    TransferRequest* r = q_.front();
    q_.pop_front();
    return r;
  }
  void charge(TransferRequest*, std::int64_t) override {}
  bool empty() const override { return q_.empty(); }
  const char* name() const override { return "fifo"; }

 private:
  std::deque<TransferRequest*> q_;
};

// What a stride class is keyed on. The paper's implementation shares per
// *protocol* class; per-user preference is the extension it names as
// future work, implemented here as an alternative classifier.
enum class ShareClass { by_protocol, by_user };

// Deterministic proportional share over scheduling classes with byte-based
// strides. Tickets are set per class ("NFS gets 4, others 1"); a class's
// pass advances by bytes * stride1 / tickets when charged, and next()
// serves the pending class with the minimum pass.
//
// Scale: class state is two-tier so by_user sharing survives million-user
// populations. The *active* tier (classes with pending requests) lives in
// an ordered index, so next() is O(log active) instead of a scan over
// every class ever seen. The *inactive* tier (classes whose queues
// drained) is a bounded LRU: beyond Options::inactive_capacity the
// least-recently-drained class is forgotten entirely, and if it rejoins
// later it re-clamps to the global pass exactly as a class absent longer
// than rejoin_grace would — eviction can never mint catch-up credit.
// Classes with explicitly configured tickets are pinned and never
// evicted (protocol classes, per-user share grants). Total retained state
// is O(active + inactive_capacity + pinned), observable via state_count().
class StrideScheduler final : public Scheduler {
 public:
  struct Options {
    ShareClass share_class = ShareClass::by_protocol;
    // Non-work-conserving: when the globally minimum-pass class has no
    // pending request, hold the server idle up to idle_wait before letting
    // a competitor run (paper Section 7.2 discusses this as the fix for
    // the NFS 1:1:1:4 case, citing anticipatory scheduling).
    bool work_conserving = true;
    Nanos idle_wait = 2 * kMillisecond;
    // A class whose queue momentarily drains (a synchronous block protocol
    // between RPCs) keeps its pass — byte-based catch-up is the whole
    // point. Only a class absent longer than this grace re-clamps to the
    // global pass.
    Nanos rejoin_grace = 50 * kMillisecond;
    // Bound on how far a class's pass may lag the global pass, expressed
    // in bytes of service at its ticket count (limits catch-up bursts).
    std::int64_t max_lag_bytes = 2'000'000;
    // Drained (inactive) classes retained before LRU eviction. Pinned
    // classes (explicit set_tickets) do not count and are never evicted.
    std::size_t inactive_capacity = 4096;
  };

  explicit StrideScheduler(Clock& clock);
  StrideScheduler(Clock& clock, Options opts) : clock_(clock), opts_(opts) {}

  // Tickets must be set before requests of that class arrive; unknown
  // classes default to 1 ticket. The class name is a protocol or a user
  // name depending on Options::share_class ("" = anonymous users).
  void set_tickets(const std::string& cls, std::int64_t tickets);

  void enqueue(TransferRequest* r) override;
  TransferRequest* next() override;
  void charge(TransferRequest* r, std::int64_t bytes) override;
  bool empty() const override;
  const char* name() const override {
    return opts_.work_conserving ? "stride" : "stride-nwc";
  }

  Nanos hold_until() const override { return hold_until_; }

  // --- scale observability (tests assert the O(active) bound) ---
  // Classes currently holding any state (active + retained inactive).
  std::size_t state_count() const { return classes_.size(); }
  // Classes with pending requests.
  std::size_t active_count() const { return active_.size(); }
  // Drained classes retained in the LRU tier (pinned ones included).
  std::size_t inactive_count() const { return lru_.size(); }
  // Classes pinned by an explicit set_tickets (never evicted).
  std::size_t pinned_count() const { return pinned_; }
  // Inactive-tier evictions performed so far.
  std::int64_t evictions() const { return evictions_; }

 private:
  struct ClassState {
    std::int64_t tickets = 1;
    bool pinned = false;  // explicit set_tickets; exempt from eviction
    double pass = 0.0;
    std::deque<TransferRequest*> q;
    Nanos last_seen = -1;   // last enqueue time (-1: never), for idle_wait
    Nanos drained_at = -1;  // when the queue last emptied (LRU recency)
    std::list<std::string>::iterator lru_it;
    bool in_lru = false;
  };
  const std::string& key_of(const TransferRequest* r) const {
    return opts_.share_class == ShareClass::by_user ? r->user : r->protocol;
  }
  ClassState& cls(const std::string& name);
  // Move a just-drained class into the LRU tier and evict past capacity.
  void retire(const std::string& name, ClassState& c);
  void evict_past_capacity();

  static constexpr double kStride1 = 1 << 20;

  Clock& clock_;
  Options opts_;
  // Only classes that are active or LRU-retained exist here; eviction
  // erases the entry outright, so memory is O(active + capacity + pinned).
  std::unordered_map<std::string, ClassState> classes_;
  // Active classes ordered by (pass, name): begin() is exactly the class
  // the old full scan picked (strictly-min pass, name-order tiebreak).
  std::set<std::pair<double, std::string>> active_;
  // Drained classes, most recently drained first; evicted from the tail.
  std::list<std::string> lru_;
  std::size_t pinned_ = 0;      // total pinned classes
  std::size_t lru_pinned_ = 0;  // pinned classes currently in lru_
  std::int64_t evictions_ = 0;
  double global_pass_ = 0.0;
  Nanos hold_until_ = 0;
};

// Forward declaration; the gray-box model lives in cache_model.h.
class CacheModel;

// Cache-aware scheduling (paper Section 4.2, citing the gray-box work):
// requests predicted resident are served before requests that would go to
// disk, improving response time (SJF approximation) and server throughput
// (less disk contention). FIFO within each band.
class CacheAwareScheduler final : public Scheduler {
 public:
  // `hot_threshold`: resident fraction at/above which a request is "hot".
  // `aging_limit` bounds starvation: after this many consecutive hot
  // grants while cold work waits, the head cold request is served even
  // though hot work is pending (a continuous hot stream would otherwise
  // starve cold requests forever).
  explicit CacheAwareScheduler(double hot_threshold = 0.99,
                               int aging_limit = 8)
      : threshold_(hot_threshold), aging_limit_(aging_limit) {}

  void enqueue(TransferRequest* r) override {
    (r->cached_fraction >= threshold_ ? hot_ : cold_).push_back(r);
  }
  TransferRequest* next() override {
    const bool cold_is_due =
        !cold_.empty() && (hot_.empty() || hot_streak_ >= aging_limit_);
    if (cold_is_due) {
      TransferRequest* r = cold_.front();
      cold_.pop_front();
      hot_streak_ = 0;
      return r;
    }
    if (!hot_.empty()) {
      TransferRequest* r = hot_.front();
      hot_.pop_front();
      if (!cold_.empty()) ++hot_streak_;
      return r;
    }
    return nullptr;
  }
  void charge(TransferRequest*, std::int64_t) override {}
  bool empty() const override { return hot_.empty() && cold_.empty(); }
  const char* name() const override { return "cache-aware"; }

 private:
  double threshold_;
  int aging_limit_;
  int hot_streak_ = 0;  // consecutive hot grants with cold work waiting
  std::deque<TransferRequest*> hot_;
  std::deque<TransferRequest*> cold_;
};

// Factory used by server configuration ("scheduler = stride" etc.).
std::unique_ptr<Scheduler> make_scheduler(const std::string& kind,
                                          Clock& clock);

}  // namespace nest::transfer
