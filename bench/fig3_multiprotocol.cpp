// Figure 3 — "Multiple Protocols": bandwidth delivered to four clients
// requesting 10 MB (in-cache) files, for each protocol alone (NeST vs the
// native single-protocol server) and for the mixed all-protocol workload
// (NeST vs JBOS). Paper shape: Chirp/HTTP at the network peak (~35 MB/s),
// GridFTP/NFS at roughly half; NeST within a hair of each native server;
// mixed totals similar (~33-35 MB/s) but FIFO NeST delivers less to NFS
// than JBOS does.
#include <cstdio>
#include <string>
#include <vector>

#include "sim/engine.h"
#include "sim/platform.h"
#include "simnest/workload.h"

using namespace nest;
using namespace nest::simnest;

namespace {

constexpr std::int64_t kFileSize = 10'000'000;
constexpr int kClients = 4;
const std::vector<std::string> kProtocols = {"chirp", "http", "gridftp",
                                             "nfs"};

SimNestConfig nest_config() {
  SimNestConfig cfg;
  cfg.tm.scheduler = "fifo";  // the default transfer manager, per the paper
  cfg.adaptive = false;       // isolate protocol effects
  cfg.fixed_model = transfer::ConcurrencyModel::threads;
  return cfg;
}

WorkloadResult run_single(const std::string& proto, bool native) {
  sim::Engine eng;
  SimHost host(eng, sim::PlatformProfile::linux2_2());
  SimNest server(host, native ? jbos_config() : nest_config());
  WorkloadSpec spec;
  spec.duration = 30 * kSecond;
  spec.groups.push_back(ClientGroup{.server = &server,
                                    .protocol = proto,
                                    .clients = kClients,
                                    .file_size = kFileSize,
                                    .cached = true,
                                    .files_per_client = 1});
  return run_get_workload(eng, spec);
}

// Mixed workload on one NeST appliance.
WorkloadResult run_mixed_nest() {
  sim::Engine eng;
  SimHost host(eng, sim::PlatformProfile::linux2_2());
  SimNest server(host, nest_config());
  WorkloadSpec spec;
  spec.duration = 30 * kSecond;
  for (const auto& proto : kProtocols) {
    spec.groups.push_back(ClientGroup{.server = &server,
                                      .protocol = proto,
                                      .clients = kClients,
                                      .file_size = kFileSize,
                                      .cached = true,
                                      .files_per_client = 1});
  }
  return run_get_workload(eng, spec);
}

// Mixed workload against JBOS: four native servers sharing the host.
WorkloadResult run_mixed_jbos() {
  sim::Engine eng;
  SimHost host(eng, sim::PlatformProfile::linux2_2());
  std::vector<std::unique_ptr<SimNest>> servers;
  WorkloadSpec spec;
  spec.duration = 30 * kSecond;
  for (const auto& proto : kProtocols) {
    servers.push_back(std::make_unique<SimNest>(host, jbos_config()));
    spec.groups.push_back(ClientGroup{.server = servers.back().get(),
                                      .protocol = proto,
                                      .clients = kClients,
                                      .file_size = kFileSize,
                                      .cached = true,
                                      .files_per_client = 1});
  }
  return run_get_workload(eng, spec);
}

}  // namespace

int main() {
  std::printf("Figure 3: Multiple Protocols\n");
  std::printf(
      "(4 clients/protocol, 10 MB in-cache files, Linux 2.2 / GigE "
      "profile)\n\n");

  std::printf("Single-protocol workloads, server bandwidth (MB/s):\n");
  std::printf("  %-8s  %8s  %8s\n", "protocol", "NeST", "native");
  for (const auto& proto : kProtocols) {
    const auto nest_r = run_single(proto, /*native=*/false);
    const auto native_r = run_single(proto, /*native=*/true);
    std::printf("  %-8s  %8.1f  %8.1f\n", proto.c_str(), nest_r.total_mbps,
                native_r.total_mbps);
  }

  std::printf("\nMixed workload (all protocols concurrently), MB/s:\n");
  std::printf("  %-6s  %7s  %7s  %7s  %7s  %7s\n", "server", "total",
              "chirp", "gridftp", "http", "nfs");
  const auto mixed_nest = run_mixed_nest();
  const auto mixed_jbos = run_mixed_jbos();
  auto row = [](const char* name, const WorkloadResult& r) {
    std::printf("  %-6s  %7.1f  %7.1f  %7.1f  %7.1f  %7.1f\n", name,
                r.total_mbps, r.class_mbps.at("chirp"),
                r.class_mbps.at("gridftp"), r.class_mbps.at("http"),
                r.class_mbps.at("nfs"));
  };
  row("NeST", mixed_nest);
  row("JBOS", mixed_jbos);
  return 0;
}
