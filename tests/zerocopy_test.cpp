// Zero-copy data-path tests (docs/net.md): send_vecs coalescing, the
// sendfile(2) send_file path and its buffered fallback (byte-identical by
// contract), fd-lending sendfile_map on every backend, truncation-under-
// transfer semantics, SO_REUSEPORT acceptor shards, and the accept-loop
// backoff policy.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "client/chirp_client.h"
#include "client/http_client.h"
#include "common/clock.h"
#include "net/socket.h"
#include "server/nest_server.h"
#include "storage/extentfs.h"
#include "storage/localfs.h"
#include "storage/memfs.h"

namespace nest {
namespace {

namespace fsys = std::filesystem;

// A connected loopback pair: `a` is the client end, `b` the accepted end.
struct StreamPair {
  net::TcpStream a;
  net::TcpStream b;
};

StreamPair make_pair_or_die() {
  auto listener = net::TcpListener::bind(0);
  EXPECT_TRUE(listener.ok());
  auto client = net::TcpStream::connect("127.0.0.1", listener->port());
  EXPECT_TRUE(client.ok());
  auto served = listener->accept();
  EXPECT_TRUE(served.ok());
  return StreamPair{std::move(client.value()), std::move(served.value())};
}

// Deterministic non-repeating content so offset errors can't cancel out.
std::string patterned(std::size_t n) {
  std::string s(n, '\0');
  for (std::size_t i = 0; i < n; ++i)
    s[i] = static_cast<char>('a' + (i * 31 + i / 251) % 26);
  return s;
}

class TempDirTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fsys::temp_directory_path() /
            ("nest_zc_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    fsys::create_directories(dir_);
  }
  void TearDown() override {
    net::set_zero_copy(true);  // process-wide switch: always restore
    fsys::remove_all(dir_);
  }
  // Write a host file under the temp dir and return its path.
  std::string host_file(const std::string& name, const std::string& data) {
    const std::string path = dir_ + "/" + name;
    std::FILE* f = std::fopen(path.c_str(), "wb");
    EXPECT_NE(f, nullptr);
    EXPECT_EQ(std::fwrite(data.data(), 1, data.size(), f), data.size());
    std::fclose(f);
    return path;
  }
  std::string dir_;
};

// ---------- send_vecs ----------

TEST(SendVecs, CoalescedBuffersArriveConcatenated) {
  auto pair = make_pair_or_die();
  const std::string head = "HEADER/";
  const std::string body = patterned(100'000);  // forces a partial writev
  ASSERT_TRUE(pair.a
                  .send_vecs({std::span<const char>(head.data(), head.size()),
                              std::span<const char>(body.data(), body.size())})
                  .ok());
  pair.a.shutdown_send();
  std::string got(head.size() + body.size(), '\0');
  ASSERT_TRUE(pair.b.read_exact(std::span(got.data(), got.size())).ok());
  EXPECT_EQ(got, head + body);
}

TEST(SendVecs, EmptySpansAreSkipped) {
  auto pair = make_pair_or_die();
  const std::string word = "data";
  ASSERT_TRUE(pair.a
                  .send_vecs({std::span<const char>(),
                              std::span<const char>(word.data(), word.size()),
                              std::span<const char>()})
                  .ok());
  std::string got(word.size(), '\0');
  ASSERT_TRUE(pair.b.read_exact(std::span(got.data(), got.size())).ok());
  EXPECT_EQ(got, word);
}

TEST(SendVecs, TooManyBuffersIsAnArgumentError) {
  auto pair = make_pair_or_die();
  const std::string b = "x";
  std::vector<std::span<const char>> many(
      17, std::span<const char>(b.data(), b.size()));
  EXPECT_EQ(pair.a.send_vecs(std::span<const std::span<const char>>(many))
                .code(),
            Errc::invalid_argument);
}

// ---------- discard (kernel-side drain) ----------

TEST(Discard, CountsDroppedBytesAndSeesEof) {
  auto pair = make_pair_or_die();
  const std::string data = patterned(1 << 20);
  std::thread writer([&] {
    ASSERT_TRUE(pair.a.write_all(data).ok());
    pair.a.shutdown_send();
  });
  std::int64_t total = 0;
  while (true) {
    auto n = pair.b.discard(256 * 1024);
    ASSERT_TRUE(n.ok()) << n.error().to_string();
    if (*n == 0) break;
    total += *n;
  }
  writer.join();
  EXPECT_EQ(total, static_cast<std::int64_t>(data.size()));
}

TEST(Discard, ConsumesLineReaderReadaheadFirst) {
  // read_line buffers past the newline; discard must drain that readahead
  // before touching the socket, or the byte count goes wrong.
  auto pair = make_pair_or_die();
  const std::string body = patterned(1000);
  std::thread writer([&] {
    ASSERT_TRUE(pair.a.write_all("header\r\n" + body).ok());
    pair.a.shutdown_send();
  });
  auto line = pair.b.read_line();
  ASSERT_TRUE(line.ok());
  EXPECT_EQ(*line, "header");
  std::int64_t total = 0;
  while (true) {
    auto n = pair.b.discard(64);  // smaller than the readahead
    ASSERT_TRUE(n.ok());
    if (*n == 0) break;
    total += *n;
  }
  writer.join();
  EXPECT_EQ(total, static_cast<std::int64_t>(body.size()));
}

TEST(Discard, ReceiveLowatStillReleasedByEof) {
  // A low-water mark above the tail size must not wedge the reader once
  // the peer closes — the close-delimited-stream contract in socket.h.
  auto pair = make_pair_or_die();
  ASSERT_TRUE(pair.b.set_receive_lowat(256 * 1024).ok());
  const std::string data = patterned(10 * 1024);  // well below the mark
  std::thread writer([&] {
    ASSERT_TRUE(pair.a.write_all(data).ok());
    pair.a.shutdown_send();
  });
  std::int64_t total = 0;
  while (true) {
    auto n = pair.b.discard(1 << 20);
    ASSERT_TRUE(n.ok());
    if (*n == 0) break;
    total += *n;
  }
  writer.join();
  EXPECT_EQ(total, static_cast<std::int64_t>(data.size()));
}

// ---------- send_file ----------

class SendFileTest : public TempDirTest {};

TEST_F(SendFileTest, ZeroCopyAndBufferedMoveIdenticalBytes) {
  // 8 MiB exceeds any default socket buffer, so the kernel returns short
  // sendfile()/send() counts and both loops must resume correctly.
  const std::string data = patterned(8 * 1024 * 1024);
  const std::string path = host_file("f", data);
  for (const bool zero_copy : {true, false}) {
    net::set_zero_copy(zero_copy);
    auto pair = make_pair_or_die();
    const int fd = ::open(path.c_str(), O_RDONLY);
    ASSERT_GE(fd, 0);
    std::string got(data.size(), '\0');
    std::thread reader([&] {
      EXPECT_TRUE(pair.b.read_exact(std::span(got.data(), got.size())).ok());
    });
    auto sent = pair.a.send_file(fd, 0, static_cast<std::int64_t>(data.size()));
    reader.join();
    ::close(fd);
    ASSERT_TRUE(sent.ok()) << "zero_copy=" << zero_copy;
    EXPECT_EQ(*sent, static_cast<std::int64_t>(data.size()));
    EXPECT_EQ(got, data) << "zero_copy=" << zero_copy;
  }
}

TEST_F(SendFileTest, RangeBeyondEofComesBackShortInBothModes) {
  const std::string data = patterned(10'000);
  const std::string path = host_file("f", data);
  for (const bool zero_copy : {true, false}) {
    net::set_zero_copy(zero_copy);
    auto pair = make_pair_or_die();
    const int fd = ::open(path.c_str(), O_RDONLY);
    ASSERT_GE(fd, 0);
    // Ask for twice the file: the transfer must stop at EOF and report the
    // short count (this is how mid-transfer truncation surfaces).
    auto sent = pair.a.send_file(fd, 0, 20'000);
    ::close(fd);
    ASSERT_TRUE(sent.ok()) << "zero_copy=" << zero_copy;
    EXPECT_EQ(*sent, 10'000) << "zero_copy=" << zero_copy;
  }
}

TEST_F(SendFileTest, OffsetRangesSendTheRightWindow) {
  const std::string data = patterned(100'000);
  const std::string path = host_file("f", data);
  auto pair = make_pair_or_die();
  const int fd = ::open(path.c_str(), O_RDONLY);
  ASSERT_GE(fd, 0);
  auto sent = pair.a.send_file(fd, 40'000, 20'000);
  ::close(fd);
  ASSERT_TRUE(sent.ok());
  ASSERT_EQ(*sent, 20'000);
  pair.a.shutdown_send();
  std::string got(20'000, '\0');
  ASSERT_TRUE(pair.b.read_exact(std::span(got.data(), got.size())).ok());
  EXPECT_EQ(got, data.substr(40'000, 20'000));
}

// ---------- fd-lending sendfile_map ----------

class SendfileMapTest : public TempDirTest {};

TEST_F(SendfileMapTest, LocalFsLendsOneClampedSegment) {
  auto lfs = storage::LocalFs::open_root(dir_, 1'000'000);
  ASSERT_TRUE(lfs.ok());
  auto h = (*lfs)->create("/f");
  ASSERT_TRUE(h.ok());
  const std::string data = patterned(5'000);
  ASSERT_TRUE(
      (*h)->pwrite(std::span<const char>(data.data(), data.size()), 0).ok());

  auto segs = (*h)->sendfile_map(1'000, 3'000);
  ASSERT_TRUE(segs.ok());
  ASSERT_EQ(segs->size(), 1u);
  EXPECT_GE((*segs)[0].fd, 0);
  EXPECT_EQ((*segs)[0].offset, 1'000);
  EXPECT_EQ((*segs)[0].len, 3'000);

  // Clamped to the file: asking past EOF yields the short remainder...
  auto tail = (*h)->sendfile_map(4'000, 9'999);
  ASSERT_TRUE(tail.ok());
  ASSERT_EQ(tail->size(), 1u);
  EXPECT_EQ((*tail)[0].len, 1'000);
  // ...and a range entirely past EOF maps to nothing.
  auto past = (*h)->sendfile_map(5'000, 100);
  ASSERT_TRUE(past.ok());
  EXPECT_TRUE(past->empty());
}

TEST_F(SendfileMapTest, MemFsDoesNotLendAnFd) {
  ManualClock clock;
  storage::MemFs mem(clock, 1'000'000);
  auto h = mem.create("/f");
  ASSERT_TRUE(h.ok());
  EXPECT_EQ((*h)->sendfile_map(0, 10).error().code, Errc::unsupported);
}

TEST_F(SendfileMapTest, MemoryBackedExtentVolumeDoesNotLendAnFd) {
  ManualClock clock;
  storage::ExtentFs efs(clock, 1 << 20);
  auto h = efs.create("/f");
  ASSERT_TRUE(h.ok());
  EXPECT_EQ((*h)->sendfile_map(0, 10).error().code, Errc::unsupported);
}

TEST_F(SendfileMapTest, ExtentVolumeMapsMergedAndSplitExtentRuns) {
  ManualClock clock;
  auto efs = storage::ExtentFs::open_volume(clock, dir_ + "/vol", 1 << 20);
  ASSERT_TRUE(efs.ok());
  constexpr auto kExtent = storage::ExtentFs::kExtentBytes;

  // A fresh file draws consecutive extents: one merged segment.
  const std::string data = patterned(static_cast<std::size_t>(kExtent * 2 +
                                                              500));
  {
    auto h = (*efs)->create("/a");
    ASSERT_TRUE(h.ok());
    ASSERT_TRUE(
        (*h)->pwrite(std::span<const char>(data.data(), data.size()), 0)
            .ok());
    auto segs = (*h)->sendfile_map(0, static_cast<std::int64_t>(data.size()));
    ASSERT_TRUE(segs.ok());
    ASSERT_EQ(segs->size(), 1u);
    EXPECT_EQ((*segs)[0].len, static_cast<std::int64_t>(data.size()));
  }

  // Force a non-contiguous chain: /b grows into extents freed *before* its
  // own, so the volume offsets jump backwards mid-file.
  {
    auto b = (*efs)->create("/b");
    ASSERT_TRUE(b.ok());
    const std::string one(static_cast<std::size_t>(kExtent), 'b');
    ASSERT_TRUE((*b)
                    ->pwrite(std::span<const char>(one.data(), one.size()),
                             kExtent * 2)  // extends past /a's extents
                    .ok());
    ASSERT_TRUE((*efs)->remove("/a").ok());
    ASSERT_TRUE((*b)
                    ->pwrite(std::span<const char>(one.data(), one.size()),
                             kExtent * 3)
                    .ok());
    auto segs = (*b)->sendfile_map(0, kExtent * 4);
    ASSERT_TRUE(segs.ok());
    EXPECT_GE(segs->size(), 2u);
    std::int64_t total = 0;
    for (const auto& seg : *segs) total += seg.len;
    EXPECT_EQ(total, kExtent * 4);
  }
}

// ---------- end-to-end GET equivalence ----------

class ZeroCopyServerTest : public TempDirTest {
 protected:
  std::unique_ptr<server::NestServer> start_server(
      server::NestServerOptions opts) {
    opts.capacity = 64'000'000;
    opts.ftp_port = -1;
    opts.gridftp_port = -1;
    opts.nfs_port = -1;
    auto server = server::NestServer::start(std::move(opts));
    EXPECT_TRUE(server.ok());
    if (!server.ok()) return nullptr;
    (*server)->gsi().add_user("alice", "s");
    return std::move(server.value());
  }
  // Store a file as an authenticated user (anonymous HTTP PUT is denied by
  // the root ACL; reads are what the zero-copy path serves).
  void put_as_alice(server::NestServer& server, const std::string& path,
                    const std::string& body) {
    auto c = client::ChirpClient::connect("127.0.0.1", server.chirp_port(),
                                          "alice", "s");
    ASSERT_TRUE(c.ok());
    ASSERT_TRUE(c->put(path, body).ok());
  }
};

TEST_F(ZeroCopyServerTest, HttpGetIsByteIdenticalAcrossPaths) {
  // One server per backend that can lend fds: the local directory store
  // and the file-backed extent volume.
  struct Case {
    const char* name;
    server::NestServerOptions opts;
  };
  server::NestServerOptions local;
  local.backend = "local";
  local.root_dir = dir_;
  server::NestServerOptions extent;
  extent.backend = "extent";
  extent.root_dir = dir_ + "/vol";
  for (const auto& [name, case_opts] :
       {Case{"local", local}, Case{"extent", extent}}) {
    auto server = start_server(case_opts);
    ASSERT_NE(server, nullptr) << name;
    const std::string body = patterned(1'500'000);
    put_as_alice(*server, "/f", body);
    client::HttpClient http("127.0.0.1", server->http_port());

    net::set_zero_copy(true);
    auto zc = http.get("/f");
    ASSERT_TRUE(zc.ok()) << name;
    EXPECT_EQ(zc->status, 200) << name;
    net::set_zero_copy(false);
    auto buffered = http.get("/f");
    ASSERT_TRUE(buffered.ok()) << name;
    EXPECT_EQ(buffered->status, 200) << name;
    net::set_zero_copy(true);

    EXPECT_EQ(zc->body, body) << name;
    EXPECT_EQ(buffered->body, body) << name;
    // Range requests cross the same block math in both modes.
    auto range = http.get_range("/f", 70'000, 80'000);
    ASSERT_TRUE(range.ok()) << name;
    EXPECT_EQ(range->status, 206) << name;
    EXPECT_EQ(range->body, body.substr(70'000, 10'001)) << name;
    server->stop();
  }
}

TEST_F(ZeroCopyServerTest, FileTruncatedMidTransferFailsTheGet) {
  server::NestServerOptions opts;
  opts.backend = "local";
  opts.root_dir = dir_;
  auto server = start_server(opts);
  ASSERT_NE(server, nullptr);
  const std::string body = patterned(400'000);
  put_as_alice(*server, "/f", body);
  client::HttpClient http("127.0.0.1", server->http_port());

  // Shrink the backing host file *after* PUT: the next GET's ticket takes
  // the stale stat size, so the data path sees EOF mid-transfer and must
  // abort (never pad), leaving the client with a short/failed body read.
  {
    // The dispatcher stats at approval; truncating between approval and the
    // transfer is racy to arrange, but truncating before the request gives
    // the same data-path view when the handler trusts the ticket size.
    const int fd = ::open((dir_ + "/f").c_str(), O_WRONLY);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::ftruncate(fd, 100'000), 0);
    ::close(fd);
  }
  auto got = http.get("/f");
  // Either the request errors outright or the body comes back short —
  // never a full-sized body fabricated from a truncated file.
  if (got.ok()) {
    EXPECT_LT(got->body.size(), body.size());
  }
}

TEST_F(ZeroCopyServerTest, PathologicalContentLengthThenZeroCopyGet) {
  // Fuzz regression: an oversized Content-Length PUT must not poison the
  // new send path — the next zero-copy GET on the same server still works.
  server::NestServerOptions opts;
  opts.backend = "local";
  opts.root_dir = dir_;
  auto server = start_server(opts);
  ASSERT_NE(server, nullptr);
  {
    auto raw = net::TcpStream::connect("127.0.0.1", server->http_port());
    ASSERT_TRUE(raw.ok());
    (void)raw->write_all(std::string(
        "PUT /huge HTTP/1.0\r\nContent-Length: 999999999999999999\r\n\r\nx"));
    raw->shutdown_send();
    char sink[512];
    while (true) {
      auto n = raw->read_some(std::span(sink, sizeof sink));
      if (!n.ok() || *n == 0) break;
    }
  }
  const std::string body = patterned(300'000);
  put_as_alice(*server, "/ok", body);
  client::HttpClient http("127.0.0.1", server->http_port());
  auto got = http.get("/ok");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->status, 200);
  EXPECT_EQ(got->body, body);
}

// ---------- SO_REUSEPORT sharded accept ----------

TEST_F(ZeroCopyServerTest, ReuseportShardsServeOnePort) {
  server::NestServerOptions opts;
  opts.backend = "local";
  opts.root_dir = dir_;
  opts.acceptor_shards = 4;
  auto server = start_server(opts);
  ASSERT_NE(server, nullptr);
  const std::string body = patterned(20'000);
  put_as_alice(*server, "/f", body);
  // Enough connections that the kernel spreads them over several shard
  // accept queues; every one must be served through the same port.
  std::vector<std::thread> clients;
  std::atomic<int> good{0};
  for (int i = 0; i < 16; ++i) {
    clients.emplace_back([&] {
      client::HttpClient c("127.0.0.1", server->http_port());
      auto r = c.get("/f");
      if (r.ok() && r->body == body) good.fetch_add(1);
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(good.load(), 16);
}

TEST(ListenOptions, ReuseportAllowsRebindingTheSamePort) {
  net::ListenOptions lopts;
  lopts.reuseport = true;
  auto first = net::TcpListener::bind(0, lopts);
  ASSERT_TRUE(first.ok());
  auto second = net::TcpListener::bind(first->port(), lopts);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->port(), first->port());
  // Without REUSEPORT the same bind is refused.
  auto plain = net::TcpListener::bind(first->port());
  EXPECT_FALSE(plain.ok());
}

// ---------- accept backoff policy ----------

TEST(AcceptBackoff, DoublesAndCapsAndResets) {
  net::AcceptBackoff b;
  EXPECT_EQ(b.next_delay_ms(), 1);
  EXPECT_EQ(b.next_delay_ms(), 2);
  EXPECT_EQ(b.next_delay_ms(), 4);
  int last = 0;
  for (int i = 0; i < 16; ++i) last = b.next_delay_ms();
  EXPECT_EQ(last, net::AcceptBackoff::kMaxMs);
  b.reset();
  EXPECT_EQ(b.next_delay_ms(), net::AcceptBackoff::kInitialMs);
}

}  // namespace
}  // namespace nest
