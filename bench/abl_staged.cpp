// Ablation A7 — SEDA-style staged concurrency (paper Section 4.1: "in the
// future, we plan to investigate more advanced concurrency architectures
// (e.g., SEDA ...)"). The staged model runs a small disk-stage pool and a
// small network-stage pool with queues between: it avoids both the event
// loop's blocking-I/O stall and the thread model's per-request creation
// and context-switch costs. This bench pits all four models against the
// two Figure 5 workloads.
#include <cstdio>

#include "sim/engine.h"
#include "sim/platform.h"
#include "simnest/workload.h"

using namespace nest;
using namespace nest::simnest;
using transfer::ConcurrencyModel;

namespace {

SimNestConfig fixed(ConcurrencyModel model) {
  SimNestConfig cfg;
  cfg.adaptive = false;
  cfg.fixed_model = model;
  return cfg;
}

// Figure 5 right: Linux, 10 MB files, working set > cache (bandwidth).
double linux_bulk(ConcurrencyModel model) {
  sim::Engine eng;
  SimHost host(eng, sim::PlatformProfile::linux2_2());
  SimNest server(host, fixed(model));
  WorkloadSpec spec;
  spec.duration = 60 * kSecond;
  spec.groups.push_back(ClientGroup{&server, "chirp", 4, 10'000'000, true, 12});
  return run_get_workload(eng, spec).total_mbps;
}

// Figure 5 left: Solaris, 1 KB cached requests (latency).
double solaris_small(ConcurrencyModel model) {
  sim::Engine eng;
  SimHost host(eng, sim::PlatformProfile::solaris8());
  SimNest server(host, fixed(model));
  WorkloadSpec spec;
  spec.duration = 20 * kSecond;
  spec.groups.push_back(ClientGroup{&server, "chirp", 8, 1000, true, 1});
  return run_get_workload(eng, spec).class_latency_ms.at("chirp");
}

}  // namespace

int main() {
  std::printf("Ablation A7: SEDA-style staged model vs the paper's three\n\n");
  std::printf("  %-10s  %22s  %26s\n", "model", "Linux bulk (MB/s)",
              "Solaris 1KB latency (ms)");
  for (const ConcurrencyModel m :
       {ConcurrencyModel::events, ConcurrencyModel::threads,
        ConcurrencyModel::processes, ConcurrencyModel::staged}) {
    std::printf("  %-10s  %22.1f  %26.2f\n", transfer::model_name(m),
                linux_bulk(m), solaris_small(m));
  }
  std::printf(
      "\nExpectation: staged matches threads on the disk-bound bulk\n"
      "workload (no loop stall) while staying near events on small cached\n"
      "requests (no thread create/switch per request) — the best of both,\n"
      "which is why the paper pointed at SEDA.\n");
  return 0;
}
