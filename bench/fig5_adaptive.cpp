// Figure 5 — "Adaptive Concurrency".
//
// Left panel: Solaris (Netra) profile, clients fetching 1 KB in-cache
// files; average request latency under events, threads, and the adaptive
// selector. Paper shape: events < adaptive < threads (thread creation and
// context switches are expensive on this platform; the adaptive scheme
// lands between because it keeps probing all models).
//
// Right panel: Linux profile, 10 MB files with a working set larger than
// the buffer cache; delivered bandwidth under the same three schemes.
// Paper shape: threads > adaptive > events (blocking disk reads stall the
// single event loop; threads overlap disk and network).
//
// The process model is disabled in both experiments "for the sake of
// clarity", exactly as in the paper.
#include <cstdio>
#include <string>

#include "sim/engine.h"
#include "sim/platform.h"
#include "simnest/workload.h"

using namespace nest;
using namespace nest::simnest;
using transfer::AdaptMetric;
using transfer::ConcurrencyModel;

namespace {

enum class Scheme { events, threads, adaptive };

const char* scheme_name(Scheme s) {
  switch (s) {
    case Scheme::events: return "events";
    case Scheme::threads: return "threads";
    case Scheme::adaptive: return "adaptive";
  }
  return "?";
}

SimNestConfig config_for(Scheme s, AdaptMetric metric) {
  SimNestConfig cfg;
  cfg.tm.scheduler = "fifo";
  switch (s) {
    case Scheme::events:
      cfg.adaptive = false;
      cfg.fixed_model = ConcurrencyModel::events;
      break;
    case Scheme::threads:
      cfg.adaptive = false;
      cfg.fixed_model = ConcurrencyModel::threads;
      break;
    case Scheme::adaptive:
      cfg.adaptive = true;
      cfg.adapt.metric = metric;
      cfg.adapt.enabled = {ConcurrencyModel::threads,
                           ConcurrencyModel::events};
      cfg.adapt.warmup_per_model = 8;
      cfg.adapt.explore_fraction = 0.1;
      break;
  }
  return cfg;
}

// Left: Solaris, 1 KB cached requests, average latency (ms).
double run_solaris_latency(Scheme s) {
  sim::Engine eng;
  SimHost host(eng, sim::PlatformProfile::solaris8());
  SimNest server(host, config_for(s, AdaptMetric::latency));
  WorkloadSpec spec;
  spec.duration = 20 * kSecond;
  spec.groups.push_back(ClientGroup{.server = &server,
                                    .protocol = "chirp",
                                    .clients = 8,
                                    .file_size = 1000,
                                    .cached = true,
                                    .files_per_client = 1});
  const WorkloadResult r = run_get_workload(eng, spec);
  return r.class_latency_ms.at("chirp");
}

// Right: Linux, 10 MB files, working set ~25% over the cache: the steady
// state mixes cache hits with disk misses, which is where the event loop's
// blocking-read weakness shows.
double run_linux_bandwidth(Scheme s) {
  sim::Engine eng;
  SimHost host(eng, sim::PlatformProfile::linux2_2());
  SimNest server(host, config_for(s, AdaptMetric::throughput));
  WorkloadSpec spec;
  spec.duration = 60 * kSecond;
  spec.groups.push_back(ClientGroup{.server = &server,
                                    .protocol = "chirp",
                                    .clients = 4,
                                    .file_size = 10'000'000,
                                    .cached = true,
                                    .files_per_client = 12});
  const WorkloadResult r = run_get_workload(eng, spec);
  return r.total_mbps;
}

}  // namespace

int main() {
  std::printf("Figure 5: Adaptive Concurrency (process model disabled)\n\n");

  std::printf(
      "Left: Solaris / Netra profile, 1 KB in-cache requests —\n"
      "average time per request (ms):\n");
  for (const Scheme s : {Scheme::events, Scheme::threads, Scheme::adaptive}) {
    std::printf("  %-9s  %7.2f\n", scheme_name(s), run_solaris_latency(s));
  }

  std::printf(
      "\nRight: Linux / GigE profile, 10 MB requests, working set > cache —\n"
      "server bandwidth (MB/s):\n");
  for (const Scheme s : {Scheme::events, Scheme::threads, Scheme::adaptive}) {
    std::printf("  %-9s  %7.1f\n", scheme_name(s), run_linux_bandwidth(s));
  }
  return 0;
}
