// Ablation A9 — real-mode gate contention: global-mutex BlockGate vs the
// sharded TransferCore.
//
// The seed dispatcher serialized every create/charge/complete/acquire
// through one mutex and woke waiters with a broadcast notify_all. This
// bench replays that design (LegacyGate below is a faithful copy of the
// seed BlockGate) against transfer::TransferCore on an identical
// synthetic block workload: N connection threads, each acquiring a
// service slot, charging a 64 KB block, and releasing, for a fixed total
// number of blocks per run. Reported MB/s is gate throughput (no actual
// byte movement), so the delta is pure synchronization cost.
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "transfer/core.h"
#include "transfer/transfer_manager.h"

using namespace nest;
using namespace nest::transfer;

namespace {

constexpr std::int64_t kBlockBytes = 64 * 1024;
constexpr int kSlots = 4;

// The seed's BlockGate, verbatim modulo naming: one mutex around the whole
// TransferManager, one condition variable broadcast to every waiter on
// each grant.
class LegacyGate {
 public:
  LegacyGate(TransferManager& tm, int slots) : tm_(tm), free_(slots) {}

  TransferRequest* create_request(const std::string& protocol, Direction dir,
                                  const std::string& path, std::int64_t size,
                                  const std::string& user = {}) {
    std::lock_guard lock(mu_);
    return tm_.create_request(
        protocol, dir, path, size,
        tm_.cache_model().resident_fraction(path, 0, size), user);
  }

  // The seed's TransferManager::charge, inlined under the one mutex:
  // progress, scheduler charge, cache-model observation.
  void charge(TransferRequest* r, std::int64_t bytes) {
    std::lock_guard lock(mu_);
    r->done += bytes;
    tm_.scheduler().charge(r, bytes);
    tm_.cache_model().observe_access(r->path, r->done - bytes, bytes);
  }

  void complete(TransferRequest* r) {
    std::lock_guard lock(mu_);
    tm_.complete(r);
  }

  void acquire(TransferRequest* r) {
    std::unique_lock lock(mu_);
    tm_.enqueue(r);
    pump_locked();
    cv_.wait(lock, [&] { return granted_.count(r) != 0; });
    granted_.erase(r);
  }

  void release() {
    std::lock_guard lock(mu_);
    ++free_;
    pump_locked();
  }

 private:
  void pump_locked() {
    while (free_ > 0) {
      TransferRequest* r = tm_.next();
      if (r == nullptr) break;
      --free_;
      granted_.insert(r);
    }
    if (!granted_.empty()) cv_.notify_all();
  }

  TransferManager& tm_;
  std::mutex mu_;
  std::condition_variable cv_;
  int free_;
  std::set<TransferRequest*> granted_;
};

TransferManager::Options bench_options() {
  TransferManager::Options o;
  o.scheduler = "fifo";
  return o;
}

// Drive `gate` with `conns` threads until `total_blocks` blocks have been
// charged; returns aggregate gate throughput in MB/s.
template <typename Gate>
double run_one(Gate& gate, int conns, std::int64_t total_blocks) {
  const std::int64_t blocks_per_conn = total_blocks / conns;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(conns));
  const auto t0 = std::chrono::steady_clock::now();
  for (int c = 0; c < conns; ++c) {
    threads.emplace_back([&gate, c, blocks_per_conn] {
      TransferRequest* r =
          gate.create_request("chirp", Direction::read,
                              "/bench/c" + std::to_string(c),
                              blocks_per_conn * kBlockBytes);
      for (std::int64_t b = 0; b < blocks_per_conn; ++b) {
        gate.acquire(r);
        gate.charge(r, kBlockBytes);
        gate.release();
      }
      gate.complete(r);
    });
  }
  for (std::thread& t : threads) t.join();
  const std::chrono::duration<double> secs =
      std::chrono::steady_clock::now() - t0;
  const double bytes =
      static_cast<double>(conns * blocks_per_conn) * kBlockBytes;
  return bytes / secs.count() / 1e6;
}

double run_path(const std::string& path, int conns,
                std::int64_t total_blocks, int reps) {
  double best = 0;
  for (int rep = 0; rep < reps; ++rep) {
    TransferManager tm(RealClock::instance(), bench_options());
    double mbps = 0;
    if (path == "legacy") {
      LegacyGate gate(tm, kSlots);
      mbps = run_one(gate, conns, total_blocks);
    } else {
      TransferCore core(tm, kSlots);
      mbps = run_one(core, conns, total_blocks);
    }
    if (mbps > best) best = mbps;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  std::int64_t total_blocks = 64 * 1024;
  int reps = 3;
  if (argc > 1) total_blocks = std::atoll(argv[1]);
  if (argc > 2) reps = std::atoi(argv[2]);

  std::printf("Ablation A9: gate contention — legacy BlockGate vs sharded "
              "TransferCore\n");
  std::printf("(%lld x 64 KB blocks per run, %d service slots, best of %d "
              "reps)\n\n",
              static_cast<long long>(total_blocks), kSlots, reps);
  struct Row {
    int conns;
    double legacy;
    double sharded;
  };
  std::vector<Row> rows;
  std::printf("  %-6s  %14s  %14s  %8s\n", "conns", "legacy MB/s",
              "sharded MB/s", "speedup");
  for (const int conns : {1, 4, 16, 64}) {
    const double legacy = run_path("legacy", conns, total_blocks, reps);
    const double sharded = run_path("sharded", conns, total_blocks, reps);
    rows.push_back(Row{conns, legacy, sharded});
    std::printf("  %-6d  %14.0f  %14.0f  %7.2fx\n", conns, legacy, sharded,
                sharded / legacy);
  }
  std::printf("\n");
  for (const Row& row : rows) {
    for (const std::string path : {"legacy", "sharded"}) {
      std::printf("{\"bench\":\"abl_gate_contention\",\"conns\":%d,"
                  "\"path\":\"%s\",\"block_bytes\":%lld,\"mbps\":%.0f}\n",
                  row.conns, path.c_str(),
                  static_cast<long long>(kBlockBytes),
                  path == "legacy" ? row.legacy : row.sharded);
    }
  }
  return 0;
}
