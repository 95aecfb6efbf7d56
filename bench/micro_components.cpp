// Microbenchmarks for NeST's hot paths: ClassAd evaluation (runs on every
// ACL check and matchmaking pass), stride scheduler decisions (every
// transfer quantum), the gray-box cache model (every block charged), and
// XDR encode/decode (every NFS RPC).
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "classad/classad.h"
#include "common/clock.h"
#include "protocol/xdr.h"
#include "storage/acl.h"
#include "storage/extentfs.h"
#include "storage/memfs.h"
#include "transfer/cache_model.h"
#include "transfer/scheduler.h"

namespace {

using namespace nest;

void BM_ClassAdParse(benchmark::State& state) {
  const std::string text =
      "[ Type = \"Storage\"; FreeSpace = 1000000; "
      "Requirements = other.NeedSpace <= FreeSpace && "
      "member(other.Protocol, {\"chirp\", \"nfs\"}); ]";
  for (auto _ : state) {
    auto ad = classad::ClassAd::parse(text);
    benchmark::DoNotOptimize(ad);
  }
}
BENCHMARK(BM_ClassAdParse);

void BM_ClassAdMatch(benchmark::State& state) {
  auto storage = classad::ClassAd::parse(
      "[ Type = \"Storage\"; FreeSpace = 1000000; "
      "Requirements = other.NeedSpace <= FreeSpace; ]");
  auto job = classad::ClassAd::parse(
      "[ Type = \"Job\"; NeedSpace = 500; Protocol = \"chirp\"; "
      "Requirements = other.Type == \"Storage\"; ]");
  for (auto _ : state) {
    benchmark::DoNotOptimize(classad::match(*job, *storage));
  }
}
BENCHMARK(BM_ClassAdMatch);

void BM_AclCheck(benchmark::State& state) {
  storage::AccessControl acl;
  auto entry = classad::ClassAd::parse(
      "[ Principal = \"group:physics\"; Rights = \"rwl\"; ]");
  (void)acl.set_entry("/data/deep/dir", *entry);
  storage::Principal who{.name = "alice",
                         .groups = {"physics"},
                         .authenticated = true,
                         .protocol = "chirp"};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        acl.check(who, "/data/deep/dir/file", storage::Right::read));
  }
}
BENCHMARK(BM_AclCheck);

void BM_StrideSchedulerQuantum(benchmark::State& state) {
  ManualClock clock;
  transfer::StrideScheduler sched(clock);
  const int classes = static_cast<int>(state.range(0));
  std::vector<transfer::TransferRequest> reqs(
      static_cast<std::size_t>(classes));
  for (int i = 0; i < classes; ++i) {
    reqs[static_cast<std::size_t>(i)].protocol = "p" + std::to_string(i);
    sched.set_tickets(reqs[static_cast<std::size_t>(i)].protocol, i + 1);
    sched.enqueue(&reqs[static_cast<std::size_t>(i)]);
  }
  for (auto _ : state) {
    transfer::TransferRequest* r = sched.next();
    sched.charge(r, 65536);
    sched.enqueue(r);
  }
}
BENCHMARK(BM_StrideSchedulerQuantum)->Arg(2)->Arg(4)->Arg(16);

void BM_CacheModelObserve(benchmark::State& state) {
  transfer::CacheModel model(64LL * 1024 * 1024, 8192);
  std::int64_t off = 0;
  for (auto _ : state) {
    model.observe_access("/f", off % (128LL * 1024 * 1024), 65536);
    off += 65536;
  }
}
BENCHMARK(BM_CacheModelObserve);

// Creation-time residency probe of a file read straight through; the arg
// is the file size (a 1 GB file overruns the 64 MiB model, so its tail is
// what stays resident).
void BM_CacheModelPredict(benchmark::State& state) {
  transfer::CacheModel model(64LL * 1024 * 1024, 8192);
  const std::int64_t size = state.range(0);
  model.observe_access("/f", 0, size);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.resident_fraction("/f", 0, size));
  }
}
BENCHMARK(BM_CacheModelPredict)->Arg(10'000'000)->Arg(1'000'000'000);

// The model's whole share of one bulk transfer: the creation-time probe
// plus 128 charged 64 KiB blocks of an 8 MiB file, cycling over 64 such
// files (8x the 64 MiB model, as e2ebench's bulk_stream does) so the model
// is full and every block evicts.
void BM_CacheModelBulkTransfer(benchmark::State& state) {
  constexpr std::int64_t kFile = 8LL * 1024 * 1024;
  constexpr std::int64_t kBlock = 64 * 1024;
  transfer::CacheModel model(64LL * 1024 * 1024, 8192);
  std::vector<std::string> paths;
  for (int i = 0; i < 64; ++i) paths.push_back("/bulk/f" + std::to_string(i));
  for (const std::string& p : paths) model.observe_access(p, 0, kFile);
  std::size_t next = 0;
  for (auto _ : state) {
    const std::string& path = paths[next];
    next = (next + 1) % paths.size();
    benchmark::DoNotOptimize(model.resident_fraction(path, 0, kFile));
    for (std::int64_t off = 0; off < kFile; off += kBlock) {
      model.observe_access(path, off, kBlock);
    }
  }
}
BENCHMARK(BM_CacheModelBulkTransfer);

void BM_XdrNfsReadCall(benchmark::State& state) {
  for (auto _ : state) {
    protocol::xdr::Encoder enc;
    protocol::xdr::encode_call(enc, 7, 100003, 2, 6);
    char fh[32] = {};
    enc.put_fixed(std::span<const char>(fh, 32));
    enc.put_u32(0);
    enc.put_u32(8192);
    enc.put_u32(0);
    protocol::xdr::Decoder dec(enc.span());
    auto call = protocol::xdr::decode_call(dec);
    benchmark::DoNotOptimize(call);
  }
}
BENCHMARK(BM_XdrNfsReadCall);

void BM_MemFsWrite64K(benchmark::State& state) {
  ManualClock clock;
  storage::MemFs fs(clock, 1'000'000'000);
  auto h = fs.create("/bench");
  std::vector<char> block(64 * 1024, 'm');
  std::int64_t off = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        (*h)->pwrite(std::span(block.data(), block.size()),
                     off % 100'000'000));
    off += 64 * 1024;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          64 * 1024);
}
BENCHMARK(BM_MemFsWrite64K);

void BM_ExtentFsWrite64K(benchmark::State& state) {
  ManualClock clock;
  storage::ExtentFs fs(clock, 256LL * 1024 * 1024);
  auto h = fs.create("/bench");
  std::vector<char> block(64 * 1024, 'e');
  std::int64_t off = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        (*h)->pwrite(std::span(block.data(), block.size()),
                     off % (128LL * 1024 * 1024)));
    off += 64 * 1024;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          64 * 1024);
}
BENCHMARK(BM_ExtentFsWrite64K);

void BM_ExtentFsRead64K(benchmark::State& state) {
  ManualClock clock;
  storage::ExtentFs fs(clock, 256LL * 1024 * 1024);
  auto h = fs.create("/bench");
  std::vector<char> block(64 * 1024, 'r');
  (void)(*h)->truncate(128LL * 1024 * 1024);
  std::int64_t off = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        (*h)->pread(std::span(block.data(), block.size()),
                    off % (128LL * 1024 * 1024)));
    off += 64 * 1024;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          64 * 1024);
}
BENCHMARK(BM_ExtentFsRead64K);

}  // namespace

BENCHMARK_MAIN();
