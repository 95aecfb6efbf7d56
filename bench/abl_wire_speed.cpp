// Ablation A11 — wire-speed data path: loopback HTTP GET throughput with
// the zero-copy sendfile(2) path versus the buffered pread+send path
// (docs/net.md), measured in one process via the net-layer fallback
// toggle, plus a connection-scaling sweep over SO_REUSEPORT acceptor
// shards.
//
// Workload: a real NestServer on a local-directory backend serving one
// large patterned file; clients are raw HTTP/1.0 sockets that drop the
// body in the kernel (TcpStream::discard, i.e. MSG_TRUNC) with batched
// wake-ups (SO_RCVLOWAT). On a single CPU the client shares the core with
// the server, so a copying reader would itself become the bottleneck and
// mask the difference this ablation measures; the kernel-side drain makes
// the server's per-byte cost the measured quantity. Byte *content*
// equivalence between the two modes is covered by zerocopy_test.
// Single-stream speedup is the headline: the same bytes, the same
// grant-sized blocks, the only variable is whether they cross user space.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/socket.h"
#include "server/nest_server.h"

using namespace nest;

namespace {

constexpr std::int64_t kMiB = 1024 * 1024;

// One raw HTTP/1.0 GET, draining the body; returns body bytes received.
std::int64_t drain_get(uint16_t port, const std::string& path) {
  auto stream = net::TcpStream::connect("127.0.0.1", port);
  if (!stream.ok()) return -1;
  if (!stream->write_all("GET " + path + " HTTP/1.0\r\n\r\n").ok()) return -1;
  while (true) {  // headers
    auto line = stream->read_line();
    if (!line.ok()) return -1;
    if (line->empty()) break;
  }
  // HTTP/1.0 responses are close-delimited, so EOF releases a reader
  // parked below the low-water mark at the tail.
  (void)stream->set_receive_lowat(256 * 1024);
  std::int64_t total = 0;
  while (true) {
    auto n = stream->discard(8 * kMiB);
    if (!n.ok()) return -1;
    if (*n == 0) return total;
    total += *n;
  }
}

// Aggregate MB/s for `conns` concurrent full-file GETs (best of `iters`).
double run_sweep(uint16_t port, const std::string& path, std::int64_t bytes,
                 int conns, int iters) {
  double best = 0;
  for (int it = 0; it < iters; ++it) {
    std::vector<std::thread> clients;
    std::vector<std::int64_t> got(static_cast<std::size_t>(conns), 0);
    const auto t0 = std::chrono::steady_clock::now();
    for (int c = 0; c < conns; ++c) {
      clients.emplace_back(
          [&, c] { got[static_cast<std::size_t>(c)] = drain_get(port, path); });
    }
    for (auto& t : clients) t.join();
    const std::chrono::duration<double> secs =
        std::chrono::steady_clock::now() - t0;
    std::int64_t total = 0;
    for (const std::int64_t g : got) {
      if (g != bytes) {
        std::fprintf(stderr, "short GET: %lld of %lld bytes\n",
                     static_cast<long long>(g), static_cast<long long>(bytes));
        std::exit(1);
      }
      total += g;
    }
    const double mbps =
        static_cast<double>(total) / kMiB / secs.count();
    if (mbps > best) best = mbps;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  std::int64_t file_mb = 64;
  int iters = 3;
  if (argc > 1) file_mb = std::atoll(argv[1]);
  if (argc > 2) iters = std::atoi(argv[2]);
  const std::int64_t file_bytes = file_mb * kMiB;

  const auto dir = std::filesystem::temp_directory_path() /
                   ("nest_abl_wire_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  // Patterned payload written straight into the backend's directory.
  {
    std::FILE* f = std::fopen((dir / "big").c_str(), "wb");
    if (f == nullptr) return 1;
    std::vector<char> block(static_cast<std::size_t>(kMiB));
    for (std::size_t i = 0; i < block.size(); ++i)
      block[i] = static_cast<char>('a' + (i * 131) % 26);
    for (std::int64_t written = 0; written < file_bytes; written += kMiB)
      std::fwrite(block.data(), 1, block.size(), f);
    std::fclose(f);
  }

  server::NestServerOptions opts;
  opts.backend = "local";
  opts.root_dir = dir.string();
  opts.capacity = file_bytes * 2;
  // Large quantum: the scheduler still admits per block, but block
  // bookkeeping is the same in both modes, so the copy is the variable.
  opts.block_bytes = kMiB;
  opts.acceptor_shards = 4;
  opts.chirp_port = -1;
  opts.ftp_port = -1;
  opts.gridftp_port = -1;
  opts.nfs_port = -1;
  auto server = server::NestServer::start(opts);
  if (!server.ok()) {
    std::fprintf(stderr, "server start failed: %s\n",
                 server.error().to_string().c_str());
    return 1;
  }
  const uint16_t port = (*server)->http_port();

  std::printf("Ablation A11: wire-speed data path (loopback HTTP GET, "
              "%lld MiB file, best of %d)\n\n",
              static_cast<long long>(file_mb), iters);
  std::printf("  %-9s  %-6s  %12s\n", "mode", "conns", "MB/s");

  struct Row {
    const char* mode;
    int conns;
    double mbps;
  };
  std::vector<Row> rows;
  double single[2] = {0, 0};  // [buffered, zerocopy]
  for (const bool zero_copy : {false, true}) {
    net::set_zero_copy(zero_copy);
    const char* mode = zero_copy ? "zerocopy" : "buffered";
    for (const int conns : {1, 2, 4, 8}) {
      const double mbps = run_sweep(port, "/big", file_bytes, conns, iters);
      rows.push_back(Row{mode, conns, mbps});
      if (conns == 1) single[zero_copy ? 1 : 0] = mbps;
      std::printf("  %-9s  %-6d  %12.0f\n", mode, conns, mbps);
    }
  }
  net::set_zero_copy(true);
  const double speedup = single[0] > 0 ? single[1] / single[0] : 0;
  std::printf("\nsingle-stream speedup (zerocopy / buffered): %.2fx\n\n",
              speedup);

  for (const Row& row : rows) {
    std::printf("{\"bench\":\"abl_wire_speed\",\"mode\":\"%s\",\"conns\":%d,"
                "\"mb_per_sec\":%.1f}\n",
                row.mode, row.conns, row.mbps);
  }
  std::printf("{\"bench\":\"abl_wire_speed\",\"mode\":\"speedup\",\"conns\":1,"
              "\"single_stream_speedup\":%.3f}\n",
              speedup);

  (*server)->stop();
  std::filesystem::remove_all(dir);
  return 0;
}
