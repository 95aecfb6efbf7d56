#include <gtest/gtest.h>

#include "sim/engine.h"
#include "sim/platform.h"
#include "simnest/protocol_model.h"
#include "simnest/workload.h"

namespace nest::simnest {
namespace {

using sim::Co;
using sim::Engine;
using sim::PlatformProfile;

TEST(ProtocolModel, PresetsHaveExpectedShape) {
  EXPECT_FALSE(ProtocolBehavior::chirp().sync_per_block);
  EXPECT_FALSE(ProtocolBehavior::http().sync_per_block);
  EXPECT_TRUE(ProtocolBehavior::nfs().sync_per_block);
  EXPECT_EQ(ProtocolBehavior::nfs().block, 8 * 1024);
  EXPECT_TRUE(ProtocolBehavior::gridftp().per_block_ack);
  EXPECT_GT(ProtocolBehavior::gridftp().connect_rtts,
            ProtocolBehavior::http().connect_rtts);
  EXPECT_THROW(ProtocolBehavior::by_name("smtp"), std::invalid_argument);
}

TEST(SimNest, SingleCachedGetApproachesLinkBandwidth) {
  Engine eng;
  SimHost host(eng, PlatformProfile::linux2_2());
  SimNestConfig cfg;
  cfg.adaptive = false;
  SimNest server(host, cfg);
  server.add_file("/f", 10'000'000, /*cached=*/true);
  Nanos done = 0;
  sim::spawn([](Engine& e, SimNest& s, Nanos& out) -> Co<void> {
    co_await s.client_get(ProtocolBehavior::chirp(), "/f");
    out = e.now();
  }(eng, server, done));
  eng.run();
  const double mbps = mb_per_sec(10'000'000, done);
  EXPECT_GT(mbps, 25.0);  // near the 36 MB/s link
  EXPECT_LE(mbps, 36.0);
}

TEST(SimNest, ColdGetIsDiskBound) {
  Engine eng;
  SimHost host(eng, PlatformProfile::linux2_2());
  SimNestConfig cfg;
  cfg.adaptive = false;
  SimNest server(host, cfg);
  server.add_file("/cold", 10'000'000, /*cached=*/false);
  Nanos done = 0;
  sim::spawn([](Engine& e, SimNest& s, Nanos& out) -> Co<void> {
    co_await s.client_get(ProtocolBehavior::chirp(), "/cold");
    out = e.now();
  }(eng, server, done));
  eng.run();
  // Serial disk(20) + link(36): well under the cached case.
  EXPECT_LT(mb_per_sec(10'000'000, done), 16.0);
  EXPECT_GT(host.store().disk().total_bytes(), 9'000'000);
}

TEST(SimNest, NfsSlowerThanChirpForSameFile) {
  auto run_proto = [](ProtocolBehavior proto) {
    Engine eng;
    SimHost host(eng, PlatformProfile::linux2_2());
    SimNestConfig cfg;
    cfg.adaptive = false;
    SimNest server(host, cfg);
    server.add_file("/f", 5'000'000, true);
    Nanos done = 0;
    sim::spawn([](Engine& e, SimNest& s, ProtocolBehavior p,
                  Nanos& out) -> Co<void> {
      co_await s.client_get(p, "/f");
      out = e.now();
    }(eng, server, proto, done));
    eng.run();
    return mb_per_sec(5'000'000, done);
  };
  const double chirp = run_proto(ProtocolBehavior::chirp());
  const double nfs = run_proto(ProtocolBehavior::nfs());
  const double gftp = run_proto(ProtocolBehavior::gridftp());
  EXPECT_GT(chirp, 1.6 * nfs);   // paper Fig 3: NFS at roughly half
  EXPECT_GT(chirp, 1.4 * gftp);  // and GridFTP too
}

TEST(SimNest, PutLandsInStore) {
  Engine eng;
  SimHost host(eng, PlatformProfile::linux2_2());
  SimNestConfig cfg;
  cfg.adaptive = false;
  SimNest server(host, cfg);
  sim::spawn([](SimNest& s) -> Co<void> {
    co_await s.client_put(ProtocolBehavior::chirp(), "/out", 2'000'000);
  }(server));
  eng.run();
  EXPECT_EQ(server.file_size("/out"), 2'000'000);
  EXPECT_GT(server.tm().total_bytes(), 0);
}

TEST(SimNest, DeterministicAcrossRuns) {
  auto run_once = [] {
    Engine eng;
    SimHost host(eng, PlatformProfile::linux2_2());
    SimNestConfig cfg;
    cfg.adaptive = false;
    SimNest server(host, cfg);
    WorkloadSpec spec;
    spec.duration = 5 * kSecond;
    spec.groups.push_back(ClientGroup{&server, "chirp", 4, 10'000'000, true, 1});
    spec.groups.push_back(ClientGroup{&server, "nfs", 4, 10'000'000, true, 1});
    return run_get_workload(eng, spec);
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_DOUBLE_EQ(a.total_mbps, b.total_mbps);
  EXPECT_DOUBLE_EQ(a.class_mbps.at("nfs"), b.class_mbps.at("nfs"));
  EXPECT_EQ(a.completed_requests, b.completed_requests);
}

TEST(SimNest, StrideTicketsShiftBandwidth) {
  auto run_ratio = [](std::int64_t http_tickets) {
    Engine eng;
    SimHost host(eng, PlatformProfile::linux2_2());
    SimNestConfig cfg;
    cfg.tm.scheduler = "stride";
    cfg.adaptive = false;
    // Fewer slots than clients, so the scheduler actually arbitrates.
    cfg.service_slots = 4;
    SimNest server(host, cfg);
    server.tm().stride()->set_tickets("http", http_tickets);
    server.tm().stride()->set_tickets("ftp", 1);
    WorkloadSpec spec;
    spec.duration = 20 * kSecond;
    spec.groups.push_back(ClientGroup{&server, "http", 4, 10'000'000, true, 1});
    spec.groups.push_back(ClientGroup{&server, "ftp", 4, 10'000'000, true, 1});
    const auto r = run_get_workload(eng, spec);
    return r.class_mbps.at("http") / r.class_mbps.at("ftp");
  };
  EXPECT_NEAR(run_ratio(1), 1.0, 0.15);
  EXPECT_NEAR(run_ratio(3), 3.0, 0.45);
}

TEST(SimNest, EventsModelSerializesColdReads) {
  auto run_model = [](transfer::ConcurrencyModel model) {
    Engine eng;
    SimHost host(eng, PlatformProfile::linux2_2());
    SimNestConfig cfg;
    cfg.adaptive = false;
    cfg.fixed_model = model;
    SimNest server(host, cfg);
    WorkloadSpec spec;
    spec.duration = 30 * kSecond;
    // Working set beyond cache: hits mixed with misses.
    spec.groups.push_back(ClientGroup{&server, "chirp", 4, 10'000'000, true, 12});
    return run_get_workload(eng, spec).total_mbps;
  };
  const double threads = run_model(transfer::ConcurrencyModel::threads);
  const double events = run_model(transfer::ConcurrencyModel::events);
  EXPECT_GT(threads, 1.5 * events);  // paper Fig 5, right panel
}

TEST(SimNest, EventsWinSmallCachedRequestsOnSolaris) {
  auto run_model = [](transfer::ConcurrencyModel model) {
    Engine eng;
    SimHost host(eng, PlatformProfile::solaris8());
    SimNestConfig cfg;
    cfg.adaptive = false;
    cfg.fixed_model = model;
    SimNest server(host, cfg);
    WorkloadSpec spec;
    spec.duration = 10 * kSecond;
    spec.groups.push_back(ClientGroup{&server, "chirp", 8, 1000, true, 1});
    return run_get_workload(eng, spec).class_latency_ms.at("chirp");
  };
  const double threads = run_model(transfer::ConcurrencyModel::threads);
  const double events = run_model(transfer::ConcurrencyModel::events);
  EXPECT_LT(events, threads);  // paper Fig 5, left panel
}

TEST(SimNest, StagedAvoidsBothWeaknesses) {
  // The SEDA-style extension: threads-level bulk bandwidth AND
  // events-level small-request latency.
  auto bulk = [](transfer::ConcurrencyModel model) {
    Engine eng;
    SimHost host(eng, PlatformProfile::linux2_2());
    SimNestConfig cfg;
    cfg.adaptive = false;
    cfg.fixed_model = model;
    SimNest server(host, cfg);
    WorkloadSpec spec;
    spec.duration = 30 * kSecond;
    spec.groups.push_back(ClientGroup{&server, "chirp", 4, 10'000'000, true, 12});
    return run_get_workload(eng, spec).total_mbps;
  };
  auto latency = [](transfer::ConcurrencyModel model) {
    Engine eng;
    SimHost host(eng, PlatformProfile::solaris8());
    SimNestConfig cfg;
    cfg.adaptive = false;
    cfg.fixed_model = model;
    SimNest server(host, cfg);
    WorkloadSpec spec;
    spec.duration = 10 * kSecond;
    spec.groups.push_back(ClientGroup{&server, "chirp", 8, 1000, true, 1});
    return run_get_workload(eng, spec).class_latency_ms.at("chirp");
  };
  const double staged_bw = bulk(transfer::ConcurrencyModel::staged);
  const double threads_bw = bulk(transfer::ConcurrencyModel::threads);
  EXPECT_GT(staged_bw, 0.9 * threads_bw);
  const double staged_lat = latency(transfer::ConcurrencyModel::staged);
  const double threads_lat = latency(transfer::ConcurrencyModel::threads);
  EXPECT_LT(staged_lat, 0.5 * threads_lat);
}

TEST(SimNest, AdaptiveTracksBestModel) {
  Engine eng;
  SimHost host(eng, PlatformProfile::linux2_2());
  SimNestConfig cfg;
  cfg.adaptive = true;
  cfg.adapt.metric = transfer::AdaptMetric::throughput;
  cfg.adapt.enabled = {transfer::ConcurrencyModel::threads,
                       transfer::ConcurrencyModel::events};
  cfg.adapt.warmup_per_model = 4;
  SimNest server(host, cfg);
  WorkloadSpec spec;
  spec.duration = 60 * kSecond;
  spec.groups.push_back(ClientGroup{&server, "chirp", 4, 10'000'000, true, 12});
  (void)run_get_workload(eng, spec);
  EXPECT_EQ(server.selector().best(),
            transfer::ConcurrencyModel::threads);
}

TEST(SimNest, FixedModelWhenNotAdaptive) {
  Engine eng;
  SimHost host(eng, PlatformProfile::linux2_2());
  SimNestConfig cfg;
  cfg.adaptive = false;
  cfg.fixed_model = transfer::ConcurrencyModel::events;
  SimNest server(host, cfg);
  for (int i = 0; i < 10; ++i)
    EXPECT_EQ(server.pick_model(), transfer::ConcurrencyModel::events);
  EXPECT_EQ(server.selector().picks(transfer::ConcurrencyModel::events), 0);
}

TEST(Workload, WarmupExcludedFromWindow) {
  Engine eng;
  SimHost host(eng, PlatformProfile::linux2_2());
  SimNestConfig cfg;
  cfg.adaptive = false;
  SimNest server(host, cfg);
  WorkloadSpec spec;
  spec.warmup = 5 * kSecond;
  spec.duration = 10 * kSecond;
  spec.groups.push_back(ClientGroup{&server, "chirp", 2, 10'000'000, true, 1});
  const auto r = run_get_workload(eng, spec);
  EXPECT_GT(r.total_mbps, 20.0);
  EXPECT_LT(r.total_mbps, 40.0);
}

}  // namespace
}  // namespace nest::simnest
