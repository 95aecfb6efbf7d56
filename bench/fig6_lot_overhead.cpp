// Figure 6 — "Overhead of lots": NeST implements lots with the kernel
// quota mechanism; this measures the write-bandwidth cost of that choice.
// A single client writes one sequential stream of S MB (S = 4..200) with
// quotas disabled vs enabled. Paper shape: negligible overhead for small
// writes (they stay in the buffer cache), growing with file size to
// roughly 50% once the stream is disk-bound — each synchronous quota
// record update costs a seek away from the data stream and another seek
// back. Reads are unaffected (also verified below).
#include <cstdio>
#include <vector>

#include "sim/engine.h"
#include "sim/platform.h"
#include "simnest/simnest.h"

using namespace nest;
using namespace nest::simnest;

namespace {

double run_write(std::int64_t size, bool quotas) {
  sim::Engine eng;
  SimHost host(eng, sim::PlatformProfile::linux2_2());
  host.store().set_quota_enabled(quotas);
  SimNestConfig cfg;
  cfg.adaptive = false;
  cfg.fixed_model = transfer::ConcurrencyModel::threads;
  SimNest server(host, cfg);
  Nanos done = 0;
  sim::spawn([](sim::Engine& e, SimNest& s, std::int64_t sz,
                Nanos& out) -> sim::Co<void> {
    co_await s.client_put(ProtocolBehavior::chirp(), "/stream", sz);
    out = e.now();
  }(eng, server, size, done));
  eng.run();
  return mb_per_sec(size, done);
}

double run_read(std::int64_t size, bool quotas) {
  sim::Engine eng;
  SimHost host(eng, sim::PlatformProfile::linux2_2());
  host.store().set_quota_enabled(quotas);
  SimNestConfig cfg;
  cfg.adaptive = false;
  cfg.fixed_model = transfer::ConcurrencyModel::threads;
  SimNest server(host, cfg);
  server.add_file("/cold", size, /*cached=*/false);
  Nanos done = 0;
  sim::spawn([](sim::Engine& e, SimNest& s, Nanos& out) -> sim::Co<void> {
    co_await s.client_get(ProtocolBehavior::chirp(), "/cold");
    out = e.now();
  }(eng, server, done));
  eng.run();
  return mb_per_sec(size, done);
}

}  // namespace

int main() {
  std::printf("Figure 6: Performance Overhead of Lots (kernel quota model)\n");
  std::printf("(single sequential write stream, Linux profile)\n\n");
  std::printf("  %-10s  %12s  %12s  %9s\n", "write size", "quotas off",
              "quotas on", "overhead");
  const std::vector<std::int64_t> sizes = {4,  10, 20,  40,  60,  80,
                                           100, 120, 140, 160, 180, 200};
  for (const std::int64_t mb : sizes) {
    const double off = run_write(mb * 1'000'000, false);
    const double on = run_write(mb * 1'000'000, true);
    std::printf("  %6lld MB   %9.1f MB/s %9.1f MB/s  %8.0f%%\n",
                static_cast<long long>(mb), off, on,
                off > 0 ? 100.0 * (off - on) / off : 0.0);
  }

  const double r_off = run_read(100'000'000, false);
  const double r_on = run_read(100'000'000, true);
  std::printf(
      "\nRead check (100 MB cold sequential read): %.1f MB/s without "
      "quotas, %.1f MB/s with (paper: reads unaffected)\n",
      r_off, r_on);
  return 0;
}
