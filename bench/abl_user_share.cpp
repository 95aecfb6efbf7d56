// Ablation A6 — per-user proportional share (paper Section 4.2's named
// future extension). The stride scheduler classes on the authenticated
// principal instead of the protocol: a user with 3 tickets gets 3x the
// bandwidth of a 1-ticket user even when both arrive over the same
// protocol, and the allocation holds across *different* protocols too —
// something per-protocol shaping cannot express.
#include <cstdio>
#include <string>
#include <vector>

#include "sim/engine.h"
#include "sim/platform.h"
#include "simnest/simnest.h"
#include "sim/sync.h"

using namespace nest;
using namespace nest::simnest;

namespace {

struct UserSpec {
  std::string name;
  std::string protocol;
  std::int64_t tickets;
};

std::map<std::string, double> run(const std::vector<UserSpec>& users) {
  sim::Engine eng;
  SimHost host(eng, sim::PlatformProfile::linux2_2());
  SimNestConfig cfg;
  cfg.tm.scheduler = "stride-user";
  cfg.adaptive = false;
  cfg.service_slots = 4;  // fewer slots than clients: scheduler arbitrates
  SimNest server(host, cfg);
  for (const auto& u : users) {
    server.tm().stride()->set_tickets(u.name, u.tickets);
  }
  constexpr Nanos kDeadline = 30 * kSecond;
  constexpr int kClientsPerUser = 4;
  auto bytes = std::make_shared<std::map<std::string, std::int64_t>>();
  for (const auto& u : users) {
    for (int c = 0; c < kClientsPerUser; ++c) {
      const std::string path = "/" + u.name + "-" + std::to_string(c);
      server.add_file(path, 10'000'000, /*cached=*/true);
      sim::spawn([](sim::Engine& e, SimNest& s, ProtocolBehavior proto,
                    std::string p, std::string user,
                    std::shared_ptr<std::map<std::string, std::int64_t>> acc,
                    Nanos deadline) -> sim::Co<void> {
        while (e.now() < deadline) {
          co_await s.client_get(proto, p, user);
          if (e.now() <= deadline) (*acc)[user] += s.file_size(p);
        }
      }(eng, server, ProtocolBehavior::by_name(u.protocol), path, u.name,
        bytes, kDeadline));
    }
  }
  eng.run();
  std::map<std::string, double> mbps;
  for (const auto& [user, b] : *bytes) {
    mbps[user] = mb_per_sec(b, kDeadline);
  }
  return mbps;
}

}  // namespace

int main() {
  std::printf("Ablation A6: per-user proportional share (stride-user)\n\n");

  std::printf("Same protocol (both users via HTTP), tickets alice:bob = 3:1\n");
  auto same = run({{"alice", "http", 3}, {"bob", "http", 1}});
  std::printf("  alice %.1f MB/s, bob %.1f MB/s, ratio %.2f (target 3.0)\n\n",
              same["alice"], same["bob"],
              same["bob"] > 0 ? same["alice"] / same["bob"] : 0.0);

  std::printf(
      "Cross protocol (alice via NFS, bob via HTTP), tickets 2:1 —\n"
      "per-protocol shaping could not even express this allocation:\n");
  auto cross = run({{"alice", "nfs", 2}, {"bob", "http", 1}});
  std::printf("  alice %.1f MB/s, bob %.1f MB/s, ratio %.2f (target 2.0)\n",
              cross["alice"], cross["bob"],
              cross["bob"] > 0 ? cross["alice"] / cross["bob"] : 0.0);
  std::printf(
      "  (NFS is a synchronous block protocol; like the paper's 1:1:1:4\n"
      "   case, its achievable share is bounded by request availability.)\n");
  return 0;
}
