// Ablation A5 — the cost of adaptation (paper Section 7.3).
//
// "In both experiments, one can discern that there is a cost for
// adaptation, since NeST tries all models periodically in order to find
// the best one for the current workload." The probe rate is the knob: more
// probing reacts faster to workload shifts but wastes work on the worse
// model. This bench sweeps the exploration fraction on the Figure 5
// (right) workload.
#include <cstdio>

#include "sim/engine.h"
#include "sim/platform.h"
#include "simnest/workload.h"

using namespace nest;
using namespace nest::simnest;

namespace {

double run(double explore_fraction) {
  sim::Engine eng;
  SimHost host(eng, sim::PlatformProfile::linux2_2());
  SimNestConfig cfg;
  cfg.tm.scheduler = "fifo";
  cfg.adaptive = true;
  cfg.adapt.metric = transfer::AdaptMetric::throughput;
  cfg.adapt.enabled = {transfer::ConcurrencyModel::threads,
                       transfer::ConcurrencyModel::events};
  cfg.adapt.warmup_per_model = 8;
  cfg.adapt.explore_fraction = explore_fraction;
  SimNest server(host, cfg);
  WorkloadSpec spec;
  spec.duration = 60 * kSecond;
  spec.groups.push_back(ClientGroup{.server = &server,
                                    .protocol = "chirp",
                                    .clients = 4,
                                    .file_size = 10'000'000,
                                    .cached = true,
                                    .files_per_client = 12});
  return run_get_workload(eng, spec).total_mbps;
}

}  // namespace

int main() {
  std::printf("Ablation A5: adaptation probe-rate sensitivity\n");
  std::printf("(Figure 5 right workload; threads is the best model)\n\n");
  std::printf("  %-18s  %12s\n", "explore fraction", "bandwidth");
  for (const double f : {0.0, 0.05, 0.1, 0.2, 0.4}) {
    std::printf("  %17.0f%%  %7.1f MB/s\n", 100.0 * f, run(f));
  }
  std::printf(
      "\nExpectation: bandwidth decreases as more requests are routed\n"
      "through the losing (event) model to keep its score fresh — the\n"
      "adaptation cost visible in Figure 5.\n");
  return 0;
}
