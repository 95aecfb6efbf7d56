// Open-loop load generator unit tests: the statistical machinery (Zipf
// popularity, Poisson/MMPP arrivals, session scripts) and the generator's
// two defining properties — determinism (same seed, same offered load,
// bit for bit) and open-loop-ness (the offered load is independent of how
// fast the server happens to be).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.h"
#include "loadgen/arrival.h"
#include "loadgen/loadgen.h"
#include "loadgen/session.h"
#include "loadgen/zipf.h"
#include "sim/engine.h"
#include "sim/platform.h"
#include "simnest/simnest.h"

namespace nest::loadgen {
namespace {

// ---------- Zipf ----------

TEST(Zipf, ProbabilitiesAreNormalizedAndMonotone) {
  ZipfSampler z(100, 0.8);
  double total = 0.0;
  for (std::size_t i = 0; i < z.n(); ++i) {
    total += z.probability(i);
    if (i > 0) {
      EXPECT_LE(z.probability(i), z.probability(i - 1));
    }
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Zipf, ThetaZeroIsUniform) {
  ZipfSampler z(64, 0.0);
  for (std::size_t i = 0; i < z.n(); ++i) {
    EXPECT_NEAR(z.probability(i), 1.0 / 64.0, 1e-12);
  }
}

TEST(Zipf, EmpiricalFrequenciesMatchTheModel) {
  ZipfSampler z(100, 0.8);
  Rng rng(1234);
  const int kDraws = 200'000;
  std::vector<int> hits(z.n(), 0);
  for (int i = 0; i < kDraws; ++i) {
    const std::size_t r = z.sample(rng);
    ASSERT_LT(r, z.n());
    ++hits[r];
  }
  // Ranks 0 and 1 are exact in Gray's method (explicit CDF cutoffs);
  // deeper ranks come from the closed-form approximation, so they get a
  // looser band.
  for (std::size_t rank : {0u, 1u}) {
    const double expect = z.probability(rank) * kDraws;
    EXPECT_NEAR(hits[rank], expect, 0.05 * expect + 50) << "rank " << rank;
  }
  for (std::size_t rank : {2u, 5u, 10u}) {
    const double expect = z.probability(rank) * kDraws;
    EXPECT_NEAR(hits[rank], expect, 0.25 * expect + 50) << "rank " << rank;
  }
  EXPECT_GT(hits[0], hits[50]);
}

// ---------- Arrivals ----------

TEST(Arrival, PoissonMatchesConfiguredRate) {
  ArrivalOptions o;
  o.rate_per_sec = 2'000.0;
  ArrivalProcess p(o);
  Rng rng(7);
  const int kDraws = 100'000;
  Nanos total = 0;
  for (int i = 0; i < kDraws; ++i) total += p.next_interval(rng);
  const double mean_sec = to_seconds(total) / kDraws;
  EXPECT_NEAR(mean_sec, 1.0 / o.rate_per_sec, 0.03 / o.rate_per_sec);
}

TEST(Arrival, BurstProcessPreservesLongRunAverageRate) {
  ArrivalOptions o;
  o.rate_per_sec = 1'000.0;
  o.burst_factor = 10.0;
  o.burst_fraction = 0.1;
  o.burst_dwell = 200 * kMillisecond;
  ArrivalProcess p(o);
  Rng rng(9);
  const int kDraws = 400'000;
  Nanos total = 0;
  Nanos max_gap = 0;
  for (int i = 0; i < kDraws; ++i) {
    const Nanos gap = p.next_interval(rng);
    total += gap;
    max_gap = std::max(max_gap, gap);
  }
  const double mean_sec = to_seconds(total) / kDraws;
  // Long-run average holds despite 10x bursts (dwell randomness makes
  // this a wider check than the Poisson case).
  EXPECT_NEAR(mean_sec, 1.0 / o.rate_per_sec, 0.15 / o.rate_per_sec);
  // And it is genuinely bursty: gaps span well beyond one mean.
  EXPECT_GT(to_seconds(max_gap), 3.0 / o.rate_per_sec);
}

// ---------- Sessions ----------

TEST(Session, ScriptIsAPureFunctionOfSeedAndIndex) {
  SessionModel model{SessionOptions{}};
  ZipfSampler pop(100, 0.8);
  bool any_difference = false;
  for (std::uint64_t k = 0; k < 50; ++k) {
    const auto a = model.script(/*gen_seed=*/5, k, pop);
    const auto b = model.script(/*gen_seed=*/5, k, pop);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].put, b[i].put);
      EXPECT_EQ(a[i].file_rank, b[i].file_rank);
      EXPECT_EQ(a[i].protocol, b[i].protocol);
      EXPECT_EQ(a[i].think_before, b[i].think_before);
    }
    const auto c = model.script(/*gen_seed=*/6, k, pop);
    if (c.size() != a.size()) any_difference = true;
  }
  EXPECT_TRUE(any_difference) << "different seeds must offer different load";
}

TEST(Session, ScriptsHaveTheConfiguredShape) {
  SessionOptions so;
  so.put_fraction = 0.25;
  SessionModel model(so);
  ZipfSampler pop(32, 0.5);
  std::size_t ops = 0, puts = 0;
  for (std::uint64_t k = 0; k < 2'000; ++k) {
    const auto script = model.script(1, k, pop);
    ASSERT_GE(script.size(), 1u) << "every session issues at least one op";
    EXPECT_EQ(script[0].think_before, 0) << "first op fires on arrival";
    for (std::size_t i = 0; i < script.size(); ++i) {
      const auto& op = script[i];
      if (i > 0) {
        EXPECT_GT(op.think_before, 0);
      }
      EXPECT_LT(op.file_rank, pop.n());
      EXPECT_GE(op.protocol, 0);
      EXPECT_LT(static_cast<std::size_t>(op.protocol),
                so.protocol_mix.size());
      ++ops;
      if (op.put) ++puts;
    }
  }
  const double put_frac = static_cast<double>(puts) / ops;
  EXPECT_NEAR(put_frac, so.put_fraction, 0.05);
  // Mean ops per session ~ 1 + mean of floor(Exp(mean_extra_ops)).
  const double mean_ops = static_cast<double>(ops) / 2'000.0;
  EXPECT_GT(mean_ops, 1.5);
  EXPECT_LT(mean_ops, 2.0 * (1.0 + so.mean_extra_ops));
}

// ---------- Generator ----------

LoadGenOptions small_run() {
  LoadGenOptions lg;
  lg.seed = 21;
  lg.sessions = 400;
  lg.arrivals.rate_per_sec = 200.0;
  lg.files = 16;
  lg.file_size = 64 * 1024;
  lg.record_trace = true;
  return lg;
}

struct RunOutput {
  std::vector<SessionTrace> trace;
  LoadGenStats stats;
  Nanos finished_at = 0;
};

RunOutput run_against(simnest::SimNestConfig cfg, LoadGenOptions lg) {
  sim::Engine eng;
  simnest::SimHost host(eng, sim::PlatformProfile::linux2_2());
  simnest::SimNest server(host, cfg);
  OpenLoopGenerator gen(server, lg);
  gen.start();
  eng.run();
  return {gen.trace(), gen.stats(), eng.now()};
}

void expect_same_offered_load(const std::vector<SessionTrace>& a,
                              const std::vector<SessionTrace>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t s = 0; s < a.size(); ++s) {
    EXPECT_EQ(a[s].index, b[s].index);
    EXPECT_EQ(a[s].arrival, b[s].arrival) << "session " << s;
    ASSERT_EQ(a[s].script.size(), b[s].script.size()) << "session " << s;
    for (std::size_t i = 0; i < a[s].script.size(); ++i) {
      EXPECT_EQ(a[s].script[i].put, b[s].script[i].put);
      EXPECT_EQ(a[s].script[i].file_rank, b[s].script[i].file_rank);
      EXPECT_EQ(a[s].script[i].protocol, b[s].script[i].protocol);
      EXPECT_EQ(a[s].script[i].think_before, b[s].script[i].think_before);
    }
  }
}

TEST(OpenLoopGenerator, OfferedLoadIsIndependentOfServerSpeed) {
  simnest::SimNestConfig fast;
  fast.adaptive = false;

  simnest::SimNestConfig slow;
  slow.adaptive = false;
  slow.service_slots = 1;
  slow.dispatch_overhead = 20 * kMillisecond;  // a crippled appliance

  const auto a = run_against(fast, small_run());
  const auto b = run_against(slow, small_run());

  // The slow server really was slower — yet every session arrived at the
  // same instant with the same script: the load is open-loop.
  EXPECT_GT(b.stats.completed_latency_total, a.stats.completed_latency_total);
  expect_same_offered_load(a.trace, b.trace);
  EXPECT_EQ(a.stats.ops_issued, b.stats.ops_issued);
}

TEST(OpenLoopGenerator, SameSeedReproducesTheRunExactly) {
  simnest::SimNestConfig cfg;
  cfg.adaptive = false;
  const auto a = run_against(cfg, small_run());
  const auto b = run_against(cfg, small_run());
  expect_same_offered_load(a.trace, b.trace);
  // Full-system determinism: not just the load — the simulated outcome is
  // bit-identical too.
  EXPECT_EQ(a.finished_at, b.finished_at);
  EXPECT_EQ(a.stats.ops_completed, b.stats.ops_completed);
  EXPECT_EQ(a.stats.completed_latency_total, b.stats.completed_latency_total);
  EXPECT_EQ(a.stats.peak_active_sessions, b.stats.peak_active_sessions);
}

TEST(OpenLoopGenerator, DifferentSeedsOfferDifferentLoad) {
  simnest::SimNestConfig cfg;
  cfg.adaptive = false;
  auto lg = small_run();
  const auto a = run_against(cfg, lg);
  lg.seed = 22;
  const auto b = run_against(cfg, lg);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  bool differs = false;
  for (std::size_t s = 0; s < a.trace.size() && !differs; ++s) {
    differs = a.trace[s].arrival != b.trace[s].arrival ||
              a.trace[s].script.size() != b.trace[s].script.size();
  }
  EXPECT_TRUE(differs);
}

TEST(OpenLoopGenerator, CountsReconcileAndSessionsComplete) {
  simnest::SimNestConfig cfg;
  cfg.adaptive = false;
  const auto out = run_against(cfg, small_run());
  EXPECT_EQ(out.stats.sessions_started, 400u);
  EXPECT_EQ(out.stats.sessions_finished, 400u);
  EXPECT_EQ(out.stats.active_sessions, 0);
  EXPECT_EQ(out.stats.gets + out.stats.puts, out.stats.ops_issued);
  EXPECT_EQ(out.stats.ops_completed + out.stats.ops_shed,
            out.stats.ops_issued);
  EXPECT_EQ(out.stats.ops_shed, 0u) << "no admission control configured";
  std::uint64_t by_proto = 0;
  for (const auto& [name, n] : out.stats.issued_by_protocol) by_proto += n;
  EXPECT_EQ(by_proto, out.stats.ops_issued);
}

}  // namespace
}  // namespace nest::loadgen
