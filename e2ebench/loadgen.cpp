// e2e-load: closed-loop load generator for the end-to-end benchmark.
//
// One process drives a live nestd over loopback with one thread per
// session (four sessions, never more than the host's cores). Each session
// waits for every reply before sending its next request, as a grid job's
// I/O library does. The op script of every session is a pure function of
// (workload, seed); see README.md for the three workloads.
//
// Usage:
//   e2e-load --workload W --seed N --mode script [--ops K]
//       print the first K ops of every session's script and exit
//   e2e-load --workload W --seed N --mode setup|run --out DIR
//            --chirp P --http P --ftp P --nfs P --pid PID
//            [--seconds S] [--trace 0|1]
//       setup: populate the server through its own write path and report
//              when the data is in place
//       run:   the same, then warm up and measure for S seconds (trace 1:
//              an untraced half, then a half with /trace polled) and
//              check every acknowledged write and the final metadata
//              state
//
// Output lands in DIR: result.json (counts, timestamps, raw /stats,
// /proc and rusage snapshots), ops_<phase>.f64 (completion time, client
// latency, kind, session and bytes of every op), net_<phase>_<what>.f64
// (bench-timed src/net calls) and spans.txt (trace spans recovered while
// polling). run.py turns these into metrics.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "client/chirp_client.h"
#include "client/ftp_client.h"
#include "client/nfs_client.h"
#include "common/rng.h"
#include "loadgen/zipf.h"
#include "net/socket.h"

using namespace nest;
using client::ChirpClient;
using client::FtpClient;
using client::NfsClient;

namespace {

constexpr int kSessions = 4;
constexpr std::int64_t kKiB = 1024;
constexpr std::int64_t kMiB = 1024 * kKiB;
const char* const kHost = "127.0.0.1";

std::int64_t mono_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t derive(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  return mix64(mix64(seed ^ mix64(a)) + b);
}

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "e2e-load: %s\n", msg.c_str());
  std::exit(2);
}

// ---------------------------------------------------------------------------
// File contents: a pure function of (body key, file id, version). Word 0
// names the file and version, so a stale or misdirected read shows; the
// rest is a keyed word stream, so torn or shifted bytes show.

std::uint64_t header_word(std::uint64_t file, std::uint64_t version) {
  return (file << 32) | (version & 0xffffffffull);
}

void fill_content(char* p, std::size_t n, std::uint64_t body_key,
                  std::uint64_t file, std::uint64_t version) {
  std::size_t i = 0;
  for (std::uint64_t w = 0; i < n; ++w) {
    const std::uint64_t v =
        w == 0 ? header_word(file, version) : mix64(body_key + w);
    const std::size_t k = std::min<std::size_t>(8, n - i);
    std::memcpy(p + i, &v, k);
    i += k;
  }
}

void stamp_header(std::string& buf, std::uint64_t file,
                  std::uint64_t version) {
  const std::uint64_t v = header_word(file, version);
  std::memcpy(buf.data(), &v, std::min<std::size_t>(8, buf.size()));
}

// ---------------------------------------------------------------------------
// Workloads and their data layout.

enum class Workload { small_mixed, bulk_stream, meta_durable };

Workload workload_by_name(const std::string& name) {
  if (name == "small_mixed") return Workload::small_mixed;
  if (name == "bulk_stream") return Workload::bulk_stream;
  if (name == "meta_durable") return Workload::meta_durable;
  die("unknown workload '" + name + "'");
}

struct FileSpec {
  std::string dir;
  std::string name;
  std::int64_t size = 0;
  std::uint64_t id = 0;
  std::string path() const { return dir + "/" + name; }
};

constexpr int kSmallFiles = 2048;
constexpr int kSmallDirs = 32;
constexpr int kSmallOwnFiles = 32;
constexpr double kZipfTheta = 0.9;
constexpr int kBulkOwnFiles = 16;  // 4 sessions x 16 = 64 files of 8 MiB
constexpr std::int64_t kBulkFileBytes = 8 * kMiB;
constexpr int kMetaStateFiles = 8;
constexpr std::int64_t kMetaStateBytes = 4 * kKiB;
constexpr int kMetaDirs = 32;
constexpr std::size_t kMetaMaxLots = 16;
constexpr std::int64_t kLotBytes = 64 * kKiB;
constexpr std::int64_t kLotSeconds = 3600;

struct Layout {
  Workload workload = Workload::small_mixed;
  std::uint64_t seed = 0;
  std::uint64_t body_key = 0;
  // Shared files, read by every session and never overwritten.
  std::vector<FileSpec> read;
  // Zipf rank -> index into `read`: which files are popular depends on
  // the seed.
  std::vector<int> rank_to_file;
  std::unique_ptr<loadgen::ZipfSampler> zipf;
  // Files each session alone reads and overwrites: an overwrite truncates
  // in place, so no other session may read a file while it is rewritten.
  std::vector<std::vector<FileSpec>> own;
  // Directories the admin creates (parents first) and opens to every
  // principal before population.
  std::vector<std::string> open_dirs;
};

std::string two_digits(int i) {
  char b[8];
  std::snprintf(b, sizeof b, "%02d", i);
  return b;
}

std::string four_digits(int i) {
  char b[8];
  std::snprintf(b, sizeof b, "%04d", i);
  return b;
}

std::string meta_dir(int session) { return "/m" + std::to_string(session); }
std::string meta_user(int session) { return "u" + std::to_string(session); }
std::string meta_secret(int session) { return "k" + std::to_string(session); }

// Log-uniform size over [4 KiB, 64 KiB] for position k of a golden-ratio
// sequence. Sizes are a fixed function of popularity rank, so the mean
// bytes a GET moves is the same for every seed; the seed decides which
// file holds which rank, what it contains, and the op script.
std::int64_t small_size(int k) {
  const double u = std::fmod((k + 0.5) * 0.6180339887498949, 1.0);
  return std::llround(4.0 * kKiB * std::pow(16.0, u));
}

Layout make_layout(Workload w, std::uint64_t seed) {
  Layout l;
  l.workload = w;
  l.seed = seed;
  l.body_key = derive(seed, 1, static_cast<std::uint64_t>(w));
  l.own.resize(kSessions);
  switch (w) {
    case Workload::small_mixed: {
      l.open_dirs.push_back("/data");
      for (int d = 0; d < kSmallDirs; ++d)
        l.open_dirs.push_back("/data/d" + two_digits(d));
      // rank_to_file is a seeded permutation; the file at rank r gets
      // small_size(r).
      l.rank_to_file.resize(kSmallFiles);
      for (int i = 0; i < kSmallFiles; ++i) l.rank_to_file[i] = i;
      Rng perm(derive(seed, 3, static_cast<std::uint64_t>(w)));
      std::shuffle(l.rank_to_file.begin(), l.rank_to_file.end(),
                   perm.engine());
      l.read.resize(kSmallFiles);
      for (int r = 0; r < kSmallFiles; ++r) {
        const int i = l.rank_to_file[static_cast<std::size_t>(r)];
        l.read[static_cast<std::size_t>(i)] =
            FileSpec{"/data/d" + two_digits(i % kSmallDirs),
                     "f" + four_digits(i), small_size(r),
                     static_cast<std::uint64_t>(i)};
      }
      for (int s = 0; s < kSessions; ++s) {
        const std::string dir = "/w" + std::to_string(s);
        l.open_dirs.push_back(dir);
        for (int j = 0; j < kSmallOwnFiles; ++j) {
          l.own[s].push_back(FileSpec{
              dir, "f" + two_digits(j), small_size(j),
              static_cast<std::uint64_t>(100000 + 1000 * s + j)});
        }
      }
      l.zipf = std::make_unique<loadgen::ZipfSampler>(kSmallFiles, kZipfTheta);
      break;
    }
    case Workload::bulk_stream:
      l.open_dirs.push_back("/bulk");
      for (int s = 0; s < kSessions; ++s) {
        const std::string dir = "/bulk/s" + std::to_string(s);
        l.open_dirs.push_back(dir);
        for (int j = 0; j < kBulkOwnFiles; ++j) {
          l.own[s].push_back(
              FileSpec{dir, "f" + two_digits(j), kBulkFileBytes,
                       static_cast<std::uint64_t>(200000 + 1000 * s + j)});
        }
      }
      break;
    case Workload::meta_durable:
      for (int s = 0; s < kSessions; ++s) {
        for (int j = 0; j < kMetaStateFiles; ++j) {
          l.own[s].push_back(
              FileSpec{meta_dir(s), "state" + std::to_string(j),
                       kMetaStateBytes,
                       static_cast<std::uint64_t>(300000 + 1000 * s + j)});
        }
      }
      break;
  }
  return l;
}

// ---------------------------------------------------------------------------
// Op scripts.

enum class Verb : std::uint8_t {
  get, put, stat, list, lot_create, lot_renew, lot_terminate, acl_set,
  mkdir, rmdir
};
enum class Via : std::uint8_t { chirp, http, ftp, nfs };
enum Kind { kGet = 0, kPut = 1, kMeta = 2 };

const char* verb_name(Verb v) {
  switch (v) {
    case Verb::get: return "get";
    case Verb::put: return "put";
    case Verb::stat: return "stat";
    case Verb::list: return "list";
    case Verb::lot_create: return "lot_create";
    case Verb::lot_renew: return "lot_renew";
    case Verb::lot_terminate: return "lot_terminate";
    case Verb::acl_set: return "acl_set";
    case Verb::mkdir: return "mkdir";
    case Verb::rmdir: return "rmdir";
  }
  return "?";
}

const char* via_name(Via v) {
  switch (v) {
    case Via::chirp: return "chirp";
    case Via::http: return "http";
    case Via::ftp: return "ftp";
    case Via::nfs: return "nfs";
  }
  return "?";
}

Kind kind_of(Verb v) {
  if (v == Verb::get) return kGet;
  if (v == Verb::put) return kPut;
  return kMeta;
}

// Ops that change durable metadata (each seals one journal batch).
bool mutates(Verb v) {
  return v != Verb::get && v != Verb::stat && v != Verb::list;
}

struct Op {
  Verb verb = Verb::get;
  Via via = Via::chirp;
  const FileSpec* file = nullptr;  // get / put / stat of a file
  std::string path;                // list / mkdir / rmdir / acl_set / stat
  std::uint64_t version = 0;       // expected (get) or written (put)
  bool verify = false;             // compare GET content to the model
  int lot = -1;                    // model lot slot
  std::string acl;                 // acl_set entry
};

std::string describe(const Op& op) {
  std::ostringstream os;
  os << via_name(op.via) << " " << verb_name(op.verb);
  if (op.file != nullptr) os << " " << op.file->path() << " v" << op.version;
  if (!op.path.empty()) os << " " << op.path;
  if (op.lot >= 0) os << " lot#" << op.lot;
  if (!op.acl.empty()) os << " " << op.acl;
  if (op.verify) os << " verify";
  return os.str();
}

// Generates one session's script and keeps the client's model of what
// the server has acknowledged (file versions, live lots, directories).
// Every op in a workload is expected to succeed, so the model is advanced
// when an op is generated.
class OpGen {
 public:
  OpGen(const Layout& layout, int session)
      : l_(layout),
        s_(session),
        rng_(derive(layout.seed, 10 + static_cast<std::uint64_t>(session),
                    static_cast<std::uint64_t>(layout.workload))),
        version(layout.own[static_cast<std::size_t>(session)].size(), 0),
        dir_exists(kMetaDirs, false) {}

  Op next() {
    if (pending_) {
      Op op = std::move(*pending_);
      pending_.reset();
      return op;
    }
    switch (l_.workload) {
      case Workload::small_mixed: return next_small();
      case Workload::bulk_stream: return next_bulk();
      case Workload::meta_durable: return next_meta();
    }
    return {};
  }

  bool pending() const { return pending_.has_value(); }

  const Layout& l_;
  const int s_;
  Rng rng_;
  std::vector<std::uint64_t> version;  // per own file
  std::vector<int> live_lots;          // model lot slots, creation order
  std::vector<int> terminated_lots;
  int next_lot = 0;
  std::vector<bool> dir_exists;        // meta_durable subdirectories

 private:
  const FileSpec* popular_file() {
    const auto rank = l_.zipf->sample(rng_);
    return &l_.read[static_cast<std::size_t>(l_.rank_to_file[rank])];
  }

  const FileSpec* own_file(int j) const {
    return &l_.own[static_cast<std::size_t>(s_)][static_cast<std::size_t>(j)];
  }

  Op own_put(Via via, int j) {
    Op op;
    op.verb = Verb::put;
    op.via = via;
    op.file = own_file(j);
    op.version = ++version[static_cast<std::size_t>(j)];
    return op;
  }

  Op own_get(Via via, int j, double verify_frac) {
    Op op;
    op.verb = Verb::get;
    op.via = via;
    op.file = own_file(j);
    op.version = version[static_cast<std::size_t>(j)];
    op.verify = rng_.uniform_real() < verify_frac;
    return op;
  }

  // One session per protocol (paper Fig. 3): 70% GET of a Zipf-popular
  // shared file, 20% stat/list, 10% overwrite of one of the session's own
  // files.
  Op next_small() {
    static const Via kVia[kSessions] = {Via::chirp, Via::http, Via::ftp,
                                        Via::nfs};
    const Via via = kVia[s_];
    const double u = rng_.uniform_real();
    Op op;
    op.via = via;
    if (u < 0.70) {
      op.verb = Verb::get;
      op.file = popular_file();
      op.verify = rng_.uniform_real() < 1.0 / 8;
    } else if (u < 0.90) {
      const FileSpec* f = popular_file();
      // HTTP/1.0 has no listing verb: its metadata op is always HEAD.
      if (via != Via::http && rng_.bernoulli(0.5)) {
        op.verb = Verb::list;
        op.path = f->dir;
      } else {
        op.verb = Verb::stat;
        op.file = f;
      }
    } else {
      op = own_put(via, static_cast<int>(rng_.uniform(0, kSmallOwnFiles - 1)));
    }
    return op;
  }

  // Each transfer is preceded by a Chirp stat of its file, as a grid
  // client checks size before moving data; 60% are HTTP GETs drained in
  // the kernel, 40% Chirp overwrites from one reused buffer.
  Op next_bulk() {
    const int j = static_cast<int>(rng_.uniform(0, kBulkOwnFiles - 1));
    pending_ = rng_.uniform_real() < 0.60 ? own_get(Via::http, j, 1.0 / 16)
                                          : own_put(Via::chirp, j);
    Op op;
    op.verb = Verb::stat;
    op.via = Via::chirp;
    op.file = pending_->file;
    return op;
  }

  Op lot_op(Verb v) {
    Op op;
    op.via = Via::chirp;
    if (v == Verb::lot_create) {
      if (live_lots.size() >= kMetaMaxLots) return lot_op(Verb::lot_terminate);
      op.verb = v;
      op.lot = next_lot++;
      live_lots.push_back(op.lot);
      return op;
    }
    if (live_lots.empty()) return lot_op(Verb::lot_create);
    const auto k = static_cast<std::size_t>(
        rng_.uniform(0, static_cast<std::int64_t>(live_lots.size()) - 1));
    op.verb = v;
    op.lot = live_lots[k];
    if (v == Verb::lot_terminate) {
      live_lots.erase(live_lots.begin() + static_cast<std::ptrdiff_t>(k));
      terminated_lots.push_back(op.lot);
    }
    return op;
  }

  // One authenticated user per session, all over Chirp: 60% metadata
  // mutations, 10% overwrite of a 4 KiB job-state file (both durable
  // before the reply), 20% stat/list, 10% GET of a state file.
  Op next_meta() {
    const double u = rng_.uniform_real();
    if (u < 0.60) {
      switch (rng_.uniform(0, 4)) {
        case 0: return lot_op(Verb::lot_create);
        case 1: return lot_op(Verb::lot_renew);
        case 2: return lot_op(Verb::lot_terminate);
        case 3: {
          Op op;
          op.verb = Verb::acl_set;
          op.path = meta_dir(s_);
          // Grant another user; the owner's own entry is never touched.
          const int other =
              (s_ + 1 + static_cast<int>(rng_.uniform(0, kSessions - 2))) %
              kSessions;
          static const char* const kRights[] = {"rl", "rli", "rwl"};
          op.acl = "[ Principal = \"user:" + meta_user(other) +
                   "\"; Rights = \"" + kRights[rng_.uniform(0, 2)] + "\"; ]";
          return op;
        }
        default: {
          const int d = static_cast<int>(rng_.uniform(0, kMetaDirs - 1));
          Op op;
          op.path = meta_dir(s_) + "/d" + two_digits(d);
          op.verb = dir_exists[static_cast<std::size_t>(d)] ? Verb::rmdir
                                                            : Verb::mkdir;
          dir_exists[static_cast<std::size_t>(d)] =
              !dir_exists[static_cast<std::size_t>(d)];
          return op;
        }
      }
    }
    const int j = static_cast<int>(rng_.uniform(0, kMetaStateFiles - 1));
    if (u < 0.70) return own_put(Via::chirp, j);
    if (u < 0.90) {
      Op op;
      op.via = Via::chirp;
      if (rng_.bernoulli(0.5)) {
        op.verb = Verb::list;
        op.path = meta_dir(s_);
      } else {
        op.verb = Verb::stat;
        op.file = own_file(j);
      }
      return op;
    }
    return own_get(Via::chirp, j, 1.0 / 4);
  }

  std::optional<Op> pending_;
};

// ---------------------------------------------------------------------------
// HTTP/1.0 over src/net, one connection per request, with the net-layer
// calls timed by the bench.

struct NetLog {
  std::vector<double> connect_us;
  std::vector<double> first_byte_us;
  std::int64_t drain_bytes = 0;
  std::int64_t drain_ns = 0;
};

struct HttpReply {
  int status = 0;
  std::int64_t content_length = -1;
  std::int64_t body_bytes = 0;
};

enum class Body { none, read, drain };

// One HTTP/1.0 exchange. With `conn` null the request gets a connection of
// its own, which the server closes after the reply; otherwise it rides the
// caller's keep-alive connection, opened on first use. Connect and first-
// byte times go to `log` when one is given.
Result<HttpReply> http_call(uint16_t port, std::optional<net::TcpStream>* conn,
                            const std::string& request_line,
                            std::span<const char> payload, Body mode,
                            std::string* body, NetLog* log) {
  std::optional<net::TcpStream> own;
  std::optional<net::TcpStream>& stream = conn != nullptr ? *conn : own;
  std::string head = request_line + " HTTP/1.0\r\n";
  if (conn != nullptr) head += "Connection: keep-alive\r\n";
  if (!payload.empty())
    head += "Content-Length: " + std::to_string(payload.size()) + "\r\n";
  head += "\r\n";
  if (!stream) {
    const std::int64_t t0 = mono_ns();
    auto fresh = net::TcpStream::connect(kHost, port);
    if (!fresh.ok()) return fresh.error();
    if (log != nullptr)
      log->connect_us.push_back(static_cast<double>(mono_ns() - t0) / 1e3);
    stream.emplace(std::move(*fresh));
  }
  if (auto s = stream->send_vecs(
          {std::span<const char>(head.data(), head.size()), payload});
      !s.ok()) {
    stream.reset();
    return s.error();
  }
  const std::int64_t t_sent = mono_ns();
  auto status_line = stream->read_line();
  if (!status_line.ok()) {
    stream.reset();
    return status_line.error();
  }
  const std::int64_t t_first = mono_ns();
  if (log != nullptr)
    log->first_byte_us.push_back(static_cast<double>(t_first - t_sent) / 1e3);
  HttpReply reply;
  const auto sp = status_line->find(' ');
  if (sp == std::string::npos) {
    stream.reset();
    return Error{Errc::protocol_error, "bad status line"};
  }
  reply.status = std::atoi(status_line->c_str() + sp + 1);
  bool keep = false;
  while (true) {
    auto line = stream->read_line();
    if (!line.ok()) {
      stream.reset();
      return line.error();
    }
    if (line->empty()) break;
    if (strncasecmp(line->c_str(), "content-length:", 15) == 0)
      reply.content_length = std::atoll(line->c_str() + 15);
    if (strncasecmp(line->c_str(), "connection: keep-alive", 22) == 0)
      keep = true;
  }
  Status got;
  if (mode == Body::read) {
    if (reply.content_length < 0) {
      got = Status{Errc::protocol_error, "no content-length"};
    } else {
      body->resize(static_cast<std::size_t>(reply.content_length));
      got = stream->read_exact(std::span(body->data(), body->size()));
      reply.body_bytes = reply.content_length;
    }
  } else if (mode == Body::drain) {
    // Close-delimited reply: EOF releases a reader parked below the
    // low-water mark, so the body is dropped in the kernel in big bites.
    got = stream->set_receive_lowat(256 * 1024);
    while (got.ok()) {
      auto n = stream->discard(8 * kMiB);
      if (!n.ok()) {
        got = Status{n.error()};
      } else if (*n == 0) {
        break;
      } else {
        reply.body_bytes += *n;
      }
    }
    if (log != nullptr) {
      log->drain_bytes += reply.body_bytes;
      log->drain_ns += mono_ns() - t_first;
    }
  }
  if (!got.ok() || !keep) stream.reset();
  if (!got.ok()) return got.error();
  return reply;
}

Result<std::string> http_fetch(uint16_t port, const std::string& path) {
  std::string body;
  auto r = http_call(port, nullptr, "GET " + path, {}, Body::read, &body,
                     nullptr);
  if (!r.ok()) return r.error();
  if (r->status != 200)
    return Error{Errc::io_error, path + ": http " + std::to_string(r->status)};
  return body;
}

// ---------------------------------------------------------------------------
// Run context, per-phase records.

struct Ports {
  uint16_t chirp = 0, http = 0, ftp = 0, nfs = 0;
};

struct PhaseRec {
  std::int64_t t0_ns = 0;
  // Five numbers per op: completion time (s since the phase began),
  // latency (µs; +inf when the op failed), kind, session, payload bytes.
  std::vector<double> ops_log;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::int64_t ops = 0;
  std::int64_t bytes = 0;
  std::int64_t mutations = 0;
  NetLog net;

  void merge(PhaseRec&& o) {
    ops_log.insert(ops_log.end(), o.ops_log.begin(), o.ops_log.end());
    attempted += o.attempted;
    failed += o.failed;
    ops += o.ops;
    bytes += o.bytes;
    mutations += o.mutations;
    net.connect_us.insert(net.connect_us.end(), o.net.connect_us.begin(),
                          o.net.connect_us.end());
    net.first_byte_us.insert(net.first_byte_us.end(),
                             o.net.first_byte_us.begin(),
                             o.net.first_byte_us.end());
    net.drain_bytes += o.net.drain_bytes;
    net.drain_ns += o.net.drain_ns;
  }
};

// Problems found by the checks; shared by all sessions.
class Findings {
 public:
  void op_failed(const std::string& what) { note(op_failures_, what); }
  void wrong(const std::string& what) { note(check_failures_, what); }
  void checked() { checked_.fetch_add(1, std::memory_order_relaxed); }

  std::int64_t check_failures() const {
    std::lock_guard<std::mutex> lock(mu_);
    return check_count_;
  }
  std::int64_t checked_count() const { return checked_.load(); }
  std::vector<std::string> messages() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::string> out = check_failures_;
    out.insert(out.end(), op_failures_.begin(), op_failures_.end());
    return out;
  }

 private:
  void note(std::vector<std::string>& list, const std::string& what) {
    std::lock_guard<std::mutex> lock(mu_);
    if (&list == &check_failures_) ++check_count_;
    if (list.size() < 20) list.push_back(what);
  }

  mutable std::mutex mu_;
  std::vector<std::string> op_failures_;
  std::vector<std::string> check_failures_;
  std::int64_t check_count_ = 0;
  std::atomic<std::int64_t> checked_{0};
};

// ---------------------------------------------------------------------------
// A session: one closed-loop client with its own connection(s).

class Session {
 public:
  Session(const Layout& layout, const Ports& ports, int index,
          Findings& findings)
      : l_(layout), ports_(ports), s_(index), gen_(layout, index),
        findings_(findings) {}

  Status connect() {
    const bool meta = l_.workload == Workload::meta_durable;
    auto c = meta ? ChirpClient::connect(kHost, ports_.chirp, meta_user(s_),
                                         meta_secret(s_))
                  : ChirpClient::connect(kHost, ports_.chirp);
    if (!c.ok()) return Status{c.error()};
    chirp_.emplace(std::move(*c));
    if (l_.workload != Workload::small_mixed) return {};
    if (s_ == 2) {
      auto f = FtpClient::connect(kHost, ports_.ftp);
      if (!f.ok()) return Status{f.error()};
      ftp_.emplace(std::move(*f));
    } else if (s_ == 3) {
      auto n = NfsClient::connect(kHost, ports_.nfs);
      if (!n.ok()) return Status{n.error()};
      nfs_.emplace(std::move(*n));
      auto root = nfs_->mount("/");
      if (!root.ok()) return Status{root.error()};
      nfs_dirs_["/"] = std::move(*root);
    }
    return {};
  }

  // Writes this session's share of the data through the appliance's own
  // write path (Chirp PUT). meta_durable users first make their own
  // directory, which they alone administer.
  Status populate() {
    if (l_.workload == Workload::meta_durable) {
      if (auto s = chirp_->mkdir(meta_dir(s_)); !s.ok()) return s;
      const std::string self = "[ Principal = \"user:" + meta_user(s_) +
                               "\"; Rights = \"rwlida\"; ]";
      if (auto s = chirp_->acl_set(meta_dir(s_), self); !s.ok()) return s;
    }
    for (std::size_t i = static_cast<std::size_t>(s_); i < l_.read.size();
         i += kSessions) {
      if (auto s = write_file(l_.read[i], 0, Via::chirp); !s.ok()) return s;
    }
    for (const auto& f : l_.own[static_cast<std::size_t>(s_)]) {
      if (auto s = write_file(f, 0, Via::chirp); !s.ok()) return s;
    }
    return {};
  }

  // Runs ops until `deadline_ns`, recording into `rec`.
  void run(std::int64_t deadline_ns, PhaseRec& rec) {
    const std::int64_t gap = min_gap_ns();
    // A generated op is already in the model, so a pending one (a bulk
    // transfer after its stat) runs even past the deadline.
    while (gen_.pending() || mono_ns() < deadline_ns) {
      const std::int64_t start = mono_ns();
      run_op(gen_.next(), rec);
      if (gap > 0) {
        std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
            std::chrono::nanoseconds(start + gap)));
      }
    }
  }

  // Shortest time between the starts of two ops of this session. Only
  // small_mixed's FTP session has one: every FTP transfer opens a data
  // connection that leaves a loopback port in TIME_WAIT for a minute.
  // Unpaced, that session exhausts the ephemeral port range within a
  // minute, and back-to-back runs inherit each other's TIME_WAIT sockets,
  // which made a bind+connect cost 20 times more in later runs.
  std::int64_t min_gap_ns() const {
    return l_.workload == Workload::small_mixed && s_ == 2 ? 10'000'000 : 0;
  }

  void run_op(const Op& op, PhaseRec& rec) {
    std::int64_t bytes = 0;
    verify_ = nullptr;
    const std::int64_t t0 = mono_ns();
    Status st = execute(op, rec, bytes);
    const std::int64_t t1 = mono_ns();
    // Content is compared outside the timed interval.
    if (verify_ != nullptr)
      check_content(*op.file, op.version, *verify_, "GET");
    ++rec.attempted;
    // A failed or refused op misses every latency limit.
    const double lat = st.ok() ? static_cast<double>(t1 - t0) / 1e3 : INFINITY;
    rec.ops_log.insert(rec.ops_log.end(),
                       {static_cast<double>(t1 - rec.t0_ns) / 1e9, lat,
                        static_cast<double>(kind_of(op.verb)),
                        static_cast<double>(s_),
                        static_cast<double>(st.ok() ? bytes : 0)});
    if (!st.ok()) {
      ++rec.failed;
      findings_.op_failed(describe(op) + ": " + st.to_string());
      return;
    }
    ++rec.ops;
    rec.bytes += bytes;
    if (mutates(op.verb)) ++rec.mutations;
  }

  // After the measurement: every acknowledged overwrite must read back
  // as the version the model holds, and (meta_durable) the lot table and
  // directory listing must equal the model.
  void final_check() {
    auto c = l_.workload == Workload::meta_durable
                 ? ChirpClient::connect(kHost, ports_.chirp, meta_user(s_),
                                        meta_secret(s_))
                 : ChirpClient::connect(kHost, ports_.chirp);
    if (!c.ok()) {
      findings_.wrong("final check connect: " + c.error().to_string());
      return;
    }
    const auto& own = l_.own[static_cast<std::size_t>(s_)];
    for (std::size_t j = 0; j < own.size(); ++j) {
      auto got = c->get(own[j].path());
      if (!got.ok()) {
        findings_.wrong("read-back " + own[j].path() + ": " +
                        got.error().to_string());
        continue;
      }
      check_content(own[j], gen_.version[j], *got, "read-back");
    }
    if (l_.workload != Workload::meta_durable) return;

    auto lots = c->lot_list();
    if (!lots.ok()) {
      findings_.wrong("lot_list: " + lots.error().to_string());
    } else {
      std::set<std::uint64_t> live;
      std::istringstream in(*lots);
      std::string line;
      while (std::getline(in, line)) {
        if (line.rfind("id=", 0) != 0) continue;
        if (line.find("best_effort=0") == std::string::npos) continue;
        live.insert(std::strtoull(line.c_str() + 3, nullptr, 10));
      }
      std::set<std::uint64_t> want;
      for (const int slot : gen_.live_lots) want.insert(lot_ids_[slot]);
      if (live != want) {
        findings_.wrong(meta_user(s_) + ": live lots " +
                        std::to_string(live.size()) + " != model " +
                        std::to_string(want.size()));
      }
      for (const int slot : gen_.terminated_lots) {
        if (live.count(lot_ids_[slot]) != 0)
          findings_.wrong("terminated lot still live");
      }
      findings_.checked();
    }
    auto names = c->list(meta_dir(s_));
    if (!names.ok()) {
      findings_.wrong("list " + meta_dir(s_) + ": " +
                      names.error().to_string());
    } else {
      std::set<std::string> got(names->begin(), names->end());
      std::set<std::string> want;
      for (int d = 0; d < kMetaDirs; ++d)
        if (gen_.dir_exists[static_cast<std::size_t>(d)])
          want.insert("d" + two_digits(d));
      for (const auto& f : own) want.insert(f.name);
      if (got != want) {
        findings_.wrong("listing of " + meta_dir(s_) + " has " +
                        std::to_string(got.size()) + " names, model " +
                        std::to_string(want.size()));
      }
      findings_.checked();
    }
  }

 private:
  void check_content(const FileSpec& f, std::uint64_t version,
                     const std::string& got, const char* what) {
    findings_.checked();
    if (static_cast<std::int64_t>(got.size()) != f.size) {
      findings_.wrong(std::string(what) + " " + f.path() + ": " +
                      std::to_string(got.size()) + " bytes, want " +
                      std::to_string(f.size));
      return;
    }
    expect_.resize(static_cast<std::size_t>(f.size));
    fill_content(expect_.data(), expect_.size(), l_.body_key, f.id, version);
    if (got != expect_) {
      const auto at = std::mismatch(got.begin(), got.end(), expect_.begin());
      std::uint64_t header = 0;
      std::memcpy(&header, got.data(), std::min<std::size_t>(8, got.size()));
      findings_.wrong(std::string(what) + " " + f.path() + " v" +
                      std::to_string(version) + ": content differs from byte " +
                      std::to_string(at.first - got.begin()) +
                      "; its header names file " +
                      std::to_string(header >> 32) + " v" +
                      std::to_string(header & 0xffffffffull));
    }
  }

  void check_length(const FileSpec& f, std::int64_t got) {
    if (got != f.size) {
      findings_.wrong("GET " + f.path() + ": " + std::to_string(got) +
                      " bytes, want " + std::to_string(f.size));
    }
  }

  // bulk_stream opens a connection per HTTP request, as abl_wire_speed
  // does. small_mixed's HTTP session keeps one alive like the other
  // sessions: nestd holds every finished connection thread until it stops,
  // so a connection per request would measure that leak (the server slows
  // several-fold within seconds, README.md) instead of per-request cost.
  std::optional<net::TcpStream>* http_conn() {
    return l_.workload == Workload::small_mixed ? &http_keep_ : nullptr;
  }

  Result<NfsClient::Fh> nfs_dir(const std::string& dir) {
    if (auto it = nfs_dirs_.find(dir); it != nfs_dirs_.end()) return it->second;
    const auto slash = dir.rfind('/');
    auto parent = nfs_dir(slash == 0 ? "/" : dir.substr(0, slash));
    if (!parent.ok()) return parent.error();
    auto looked = nfs_->lookup(*parent, dir.substr(slash + 1));
    if (!looked.ok()) return looked.error();
    nfs_dirs_[dir] = looked->first;
    return looked->first;
  }

  const std::string& content(const FileSpec& f, std::uint64_t version) {
    if (l_.workload == Workload::bulk_stream) {
      // One reused buffer: only the header word changes between files.
      if (bulk_buf_.empty()) {
        bulk_buf_.resize(static_cast<std::size_t>(kBulkFileBytes));
        fill_content(bulk_buf_.data(), bulk_buf_.size(), l_.body_key, f.id,
                     version);
      }
      stamp_header(bulk_buf_, f.id, version);
      return bulk_buf_;
    }
    put_buf_.resize(static_cast<std::size_t>(f.size));
    fill_content(put_buf_.data(), put_buf_.size(), l_.body_key, f.id, version);
    return put_buf_;
  }

  Status write_file(const FileSpec& f, std::uint64_t version, Via via) {
    const std::string& data = content(f, version);
    switch (via) {
      case Via::chirp:
        return chirp_->put(f.path(), data);
      case Via::http: {
        auto r = http_call(ports_.http, http_conn(), "PUT " + f.path(),
                           std::span<const char>(data.data(), data.size()),
                           Body::none, nullptr, cur_net_);
        if (!r.ok()) return Status{r.error()};
        if (r->status / 100 != 2)
          return Status{Errc::io_error, "http " + std::to_string(r->status)};
        return {};
      }
      case Via::ftp:
        return ftp_->stor(f.path(), data);
      case Via::nfs: {
        auto dir = nfs_dir(f.dir);
        if (!dir.ok()) return Status{dir.error()};
        return nfs_->write_file(*dir, f.name, data);
      }
    }
    return Status{Errc::internal, "bad via"};
  }

  Status get_file(const Op& op, std::int64_t& bytes) {
    const FileSpec& f = *op.file;
    if (op.via == Via::http) {
      const bool drain = l_.workload == Workload::bulk_stream && !op.verify;
      auto r = http_call(ports_.http, http_conn(), "GET " + f.path(), {},
                         drain ? Body::drain : Body::read, &get_buf_,
                         cur_net_);
      if (!r.ok()) return Status{r.error()};
      if (r->status != 200)
        return Status{Errc::io_error, "http " + std::to_string(r->status)};
      bytes = r->body_bytes;
      check_length(f, r->body_bytes);
      if (!drain && op.verify) verify_ = &get_buf_;
      return {};
    }
    Result<std::string> got = std::string();
    switch (op.via) {
      case Via::chirp: got = chirp_->get(f.path()); break;
      case Via::ftp: got = ftp_->retr(f.path()); break;
      case Via::nfs: {
        auto dir = nfs_dir(f.dir);
        if (!dir.ok()) return Status{dir.error()};
        got = nfs_->read_file(*dir, f.name);
        break;
      }
      case Via::http: break;
    }
    if (!got.ok()) return Status{got.error()};
    bytes = static_cast<std::int64_t>(got->size());
    check_length(f, bytes);
    if (op.verify) {
      get_buf_ = std::move(*got);
      verify_ = &get_buf_;
    }
    return {};
  }

  Status stat_file(const Op& op) {
    if (op.file == nullptr) return Status{Errc::internal, "stat without file"};
    const FileSpec& f = *op.file;
    std::int64_t size = -1;
    switch (op.via) {
      case Via::chirp: {
        auto st = chirp_->stat(f.path());
        if (!st.ok()) return Status{st.error()};
        size = st->size;
        break;
      }
      case Via::http: {
        auto r = http_call(ports_.http, http_conn(), "HEAD " + f.path(), {},
                           Body::none, nullptr, cur_net_);
        if (!r.ok()) return Status{r.error()};
        if (r->status != 200)
          return Status{Errc::io_error, "http " + std::to_string(r->status)};
        size = r->content_length;
        break;
      }
      case Via::ftp: {
        auto n = ftp_->size(f.path());
        if (!n.ok()) return Status{n.error()};
        size = *n;
        break;
      }
      case Via::nfs: {
        auto dir = nfs_dir(f.dir);
        if (!dir.ok()) return Status{dir.error()};
        auto looked = nfs_->lookup(*dir, f.name);
        if (!looked.ok()) return Status{looked.error()};
        size = looked->second.size;
        break;
      }
    }
    if (size != f.size) {
      findings_.wrong("stat " + f.path() + ": size " + std::to_string(size) +
                      ", want " + std::to_string(f.size));
    }
    return {};
  }

  Status list_dir(const Op& op) {
    std::size_t names = 0;
    switch (op.via) {
      case Via::chirp: {
        auto r = chirp_->list(op.path);
        if (!r.ok()) return Status{r.error()};
        names = r->size();
        break;
      }
      case Via::ftp: {
        auto r = ftp_->list(op.path);
        if (!r.ok()) return Status{r.error()};
        names = static_cast<std::size_t>(
            std::count(r->begin(), r->end(), '\n'));
        break;
      }
      case Via::nfs: {
        auto dir = nfs_dir(op.path);
        if (!dir.ok()) return Status{dir.error()};
        auto r = nfs_->readdir(*dir);
        if (!r.ok()) return Status{r.error()};
        names = static_cast<std::size_t>(
            std::count_if(r->begin(), r->end(), [](const std::string& n) {
              return n != "." && n != "..";
            }));
        break;
      }
      case Via::http:
        return Status{Errc::internal, "http has no list"};
    }
    if (l_.workload == Workload::small_mixed &&
        names != static_cast<std::size_t>(kSmallFiles / kSmallDirs)) {
      findings_.wrong("list " + op.path + ": " + std::to_string(names) +
                      " names, want " +
                      std::to_string(kSmallFiles / kSmallDirs));
    }
    return {};
  }

  Status execute(const Op& op, PhaseRec& rec, std::int64_t& bytes) {
    cur_net_ = &rec.net;
    switch (op.verb) {
      case Verb::get:
        return get_file(op, bytes);
      case Verb::put:
        bytes = op.file->size;
        return write_file(*op.file, op.version, op.via);
      case Verb::stat:
        return stat_file(op);
      case Verb::list:
        return list_dir(op);
      case Verb::lot_create: {
        auto id = chirp_->lot_create(kLotBytes, kLotSeconds);
        if (!id.ok()) return Status{id.error()};
        lot_ids_[op.lot] = *id;
        return {};
      }
      case Verb::lot_renew:
        return chirp_->lot_renew(lot_ids_[op.lot], kLotSeconds);
      case Verb::lot_terminate:
        return chirp_->lot_terminate(lot_ids_[op.lot]);
      case Verb::acl_set:
        return chirp_->acl_set(op.path, op.acl);
      case Verb::mkdir:
        return chirp_->mkdir(op.path);
      case Verb::rmdir:
        return chirp_->rmdir(op.path);
    }
    return Status{Errc::internal, "bad verb"};
  }

  const Layout& l_;
  Ports ports_;
  const int s_;
  OpGen gen_;
  Findings& findings_;
  NetLog* cur_net_ = nullptr;
  const std::string* verify_ = nullptr;  // GET body awaiting its check
  std::optional<ChirpClient> chirp_;
  std::optional<FtpClient> ftp_;
  std::optional<NfsClient> nfs_;
  std::optional<net::TcpStream> http_keep_;
  std::map<std::string, NfsClient::Fh> nfs_dirs_;
  std::unordered_map<int, std::uint64_t> lot_ids_;  // model slot -> lot id
  std::string put_buf_;
  std::string bulk_buf_;
  std::string get_buf_;
  std::string expect_;
};

// ---------------------------------------------------------------------------
// Observation of the server from outside: /stats, /proc, /trace.

std::string read_text(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char b[8];
          std::snprintf(b, sizeof b, "\\u%04x", c);
          out += b;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

double cpu_us(const rusage& ru) {
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1e6 +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double self_cpu_us() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return cpu_us(ru);
}

int threads_of(const std::string& status) {
  const auto at = status.find("Threads:");
  return at == std::string::npos ? 0 : std::atoi(status.c_str() + at + 8);
}

// What the server and host look like at one instant.
struct Snapshot {
  std::int64_t t_ns = 0;
  std::string stats;       // GET /stats body
  std::string proc_stat;   // /proc/<nestd>/stat
  std::string proc_status; // /proc/<nestd>/status
  std::string host_stat;   // first line of /proc/stat
  double client_cpu_us = 0;

  std::string to_json() const {
    std::ostringstream os;
    os << "{\"t_ns\":" << t_ns << ",\"stats\":"
       << (stats.empty() ? "null" : stats)
       << ",\"proc_stat\":" << json_string(proc_stat)
       << ",\"proc_status\":" << json_string(proc_status)
       << ",\"host_stat\":" << json_string(host_stat)
       << ",\"client_cpu_us\":" << client_cpu_us << "}";
    return os.str();
  }
};

Snapshot take_snapshot(const Ports& ports, int pid, bool with_stats) {
  Snapshot s;
  if (with_stats) {
    auto body = http_fetch(ports.http, "/stats");
    if (!body.ok()) die("GET /stats: " + body.error().to_string());
    s.stats = *body;
  }
  const std::string proc = "/proc/" + std::to_string(pid);
  s.proc_stat = read_text(proc + "/stat");
  s.proc_status = read_text(proc + "/status");
  const std::string host = read_text("/proc/stat");
  s.host_stat = host.substr(0, host.find('\n'));
  s.client_cpu_us = self_cpu_us();
  s.t_ns = mono_ns();
  return s;
}

struct SpanRec {
  std::uint64_t trace = 0, span = 0, parent = 0;
  std::int64_t start = 0, end = 0, value = 0;
  std::string layer, name;
};

// Parses the /trace document ({"spans":[{"trace":..,"span":..,"parent":..,
// "layer":"..","name":"..","start_ns":..,"end_ns":..,"dur_ns":..,
// "value":..},...]}) without a JSON library.
std::vector<SpanRec> parse_trace(const std::string& doc) {
  std::vector<SpanRec> out;
  const char* p = doc.c_str();
  auto num = [&p](const char* key) -> std::int64_t {
    const char* at = std::strstr(p, key);
    if (at == nullptr) return 0;
    p = at + std::strlen(key);
    return std::strtoll(p, const_cast<char**>(&p), 10);
  };
  auto str = [&p](const char* key) -> std::string {
    const char* at = std::strstr(p, key);
    if (at == nullptr) return {};
    const char* b = at + std::strlen(key);
    const char* e = std::strchr(b, '"');
    if (e == nullptr) return {};
    p = e + 1;
    return std::string(b, e);
  };
  while ((p = std::strstr(p, "{\"trace\":")) != nullptr) {
    SpanRec s;
    s.trace = static_cast<std::uint64_t>(num("{\"trace\":"));
    s.span = static_cast<std::uint64_t>(num("\"span\":"));
    s.parent = static_cast<std::uint64_t>(num("\"parent\":"));
    s.layer = str("\"layer\":\"");
    s.name = str("\"name\":\"");
    s.start = num("\"start_ns\":");
    s.end = num("\"end_ns\":");
    s.value = num("\"value\":");
    out.push_back(std::move(s));
  }
  return out;
}

// Polls /trace while the traced phase runs and keeps every span minted in
// the window. Rings hold 2048 spans per recording thread, so spans lost
// between polls are reported as coverage, never assumed away.
class TracePoller {
 public:
  TracePoller(const Ports& ports, int pid) : ports_(ports), pid_(pid) {}

  // One poll; returns the highest span id seen so far.
  std::uint64_t poll() {
    auto doc = http_fetch(ports_.http, "/trace");
    if (!doc.ok()) die("GET /trace: " + doc.error().to_string());
    ++polls_;
    for (auto& s : parse_trace(*doc)) {
      max_id_ = std::max(max_id_, s.span);
      if (s.span > base_) spans_.emplace(s.span, std::move(s));
    }
    threads_peak_ = std::max(
        threads_peak_,
        threads_of(read_text("/proc/" + std::to_string(pid_) + "/status")));
    return max_id_;
  }

  // Marks the window start: spans minted before now are not counted.
  void open_window() {
    base_ = poll();
    spans_.clear();
  }

  void start() {
    stop_ = false;
    thread_ = std::thread([this] {
      while (!stop_.load()) {
        const std::int64_t t0 = mono_ns();
        (void)poll();  // result only feeds max_id_, which poll() keeps
        const std::int64_t left = 50'000'000 - (mono_ns() - t0);
        if (left > 0)
          std::this_thread::sleep_for(std::chrono::nanoseconds(left));
      }
      rusage ru{};
      ::getrusage(RUSAGE_THREAD, &ru);
      poller_cpu_us_ = cpu_us(ru);
    });
  }

  void stop() {
    stop_ = true;
    if (thread_.joinable()) thread_.join();
    end_ = poll();  // the window's last spans
  }

  std::string summary_json() const {
    std::ostringstream os;
    os << "{\"span_id_lo\":" << base_ << ",\"span_id_hi\":" << end_
       << ",\"recovered\":" << spans_.size() << ",\"polls\":" << polls_
       << ",\"threads_peak\":" << threads_peak_
       << ",\"poller_cpu_us\":" << poller_cpu_us_ << "}";
    return os.str();
  }

  void write_spans(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) die("cannot write " + path);
    for (const auto& [id, s] : spans_) {
      if (id > end_) continue;
      std::fprintf(f, "%llu %llu %llu %s %s %lld %lld %lld\n",
                   static_cast<unsigned long long>(s.trace),
                   static_cast<unsigned long long>(s.span),
                   static_cast<unsigned long long>(s.parent), s.layer.c_str(),
                   s.name.c_str(), static_cast<long long>(s.start),
                   static_cast<long long>(s.end),
                   static_cast<long long>(s.value));
    }
    std::fclose(f);
  }

 private:
  Ports ports_;
  int pid_;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::uint64_t base_ = 0, end_ = 0, max_id_ = 0;
  std::int64_t polls_ = 0;
  int threads_peak_ = 0;
  double poller_cpu_us_ = 0;
  std::unordered_map<std::uint64_t, SpanRec> spans_;
};

// ---------------------------------------------------------------------------
// Driver.

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  std::string mode = "run";
  double seconds = 10;
  int trace = 0;
  Ports ports;
  int pid = 0;
  std::string out;
  int script_ops = 20;
};

uint16_t port(const std::string& v) {
  const long p = std::strtol(v.c_str(), nullptr, 10);
  if (p <= 0 || p > 65535) die("bad port " + v);
  return static_cast<uint16_t>(p);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--mode") a.mode = v;
    else if (k == "--seconds") a.seconds = std::atof(v.c_str());
    else if (k == "--trace") a.trace = std::atoi(v.c_str());
    else if (k == "--chirp") a.ports.chirp = port(v);
    else if (k == "--http") a.ports.http = port(v);
    else if (k == "--ftp") a.ports.ftp = port(v);
    else if (k == "--nfs") a.ports.nfs = port(v);
    else if (k == "--pid") a.pid = std::atoi(v.c_str());
    else if (k == "--out") a.out = v;
    else if (k == "--ops") a.script_ops = std::atoi(v.c_str());
    else die("unknown argument " + k);
  }
  if (a.workload.empty()) die("--workload is required");
  return a;
}

// Warm-up before timing: long enough for the adaptive selector to try
// every concurrency model and for the caches to settle.
constexpr std::int64_t kWarmupNs = 2'000'000'000;

void write_f64(const std::string& path, const std::vector<double>& v) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) die("cannot write " + path);
  if (!v.empty() &&
      std::fwrite(v.data(), sizeof(double), v.size(), f) != v.size()) {
    die("short write " + path);
  }
  std::fclose(f);
}

// Runs every session on its own thread until the deadline (or op count).
PhaseRec run_phase(std::vector<std::unique_ptr<Session>>& sessions,
                   std::int64_t deadline_ns) {
  std::vector<PhaseRec> recs(sessions.size());
  const std::int64_t t0 = mono_ns();
  for (auto& r : recs) r.t0_ns = t0;
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    threads.emplace_back([&, i] { sessions[i]->run(deadline_ns, recs[i]); });
  }
  for (auto& t : threads) t.join();
  PhaseRec all;
  all.t0_ns = t0;
  for (auto& r : recs) all.merge(std::move(r));
  return all;
}

void parallel(std::vector<std::unique_ptr<Session>>& sessions,
              Status (Session::*fn)(), const char* what) {
  std::vector<Status> results(sessions.size());
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    threads.emplace_back([&, i] { results[i] = (sessions[i].get()->*fn)(); });
  }
  for (auto& t : threads) t.join();
  for (const auto& r : results)
    if (!r.ok()) die(std::string(what) + ": " + r.to_string());
}

// The admin creates the shared directories and opens them to every
// principal; children first, so no ACL it sets takes away its own right
// to set the next (the nearest explicit ACL governs, as in AFS).
void admin_setup(const Layout& l, const Ports& ports) {
  if (l.open_dirs.empty()) return;
  auto admin = ChirpClient::connect(kHost, ports.chirp, "bench", "bench");
  if (!admin.ok()) die("admin connect: " + admin.error().to_string());
  for (const auto& d : l.open_dirs)
    if (auto s = admin->mkdir(d); !s.ok())
      die("mkdir " + d + ": " + s.to_string());
  for (auto it = l.open_dirs.rbegin(); it != l.open_dirs.rend(); ++it) {
    if (auto s = admin->acl_set(
            *it, "[ Principal = \"system:anyuser\"; Rights = \"rwlid\"; ]");
        !s.ok()) {
      die("acl_set " + *it + ": " + s.to_string());
    }
  }
  (void)admin->quit();  // the session ends either way
}

std::string phase_json(const std::string& name, const PhaseRec& r,
                       const Snapshot& a, const Snapshot& b,
                       const std::string& extra) {
  std::ostringstream os;
  os << "{\"name\":" << json_string(name) << ",\"attempted\":" << r.attempted
     << ",\"failed\":" << r.failed << ",\"ops\":" << r.ops
     << ",\"bytes\":" << r.bytes << ",\"mutations\":" << r.mutations
     << ",\"drain_bytes\":" << r.net.drain_bytes
     << ",\"drain_ns\":" << r.net.drain_ns << ",\"begin\":" << a.to_json()
     << ",\"end\":" << b.to_json();
  if (!extra.empty()) os << ",\"trace\":" << extra;
  os << "}";
  return os.str();
}

void dump_phase_samples(const std::string& out, const std::string& name,
                        const PhaseRec& r) {
  write_f64(out + "/ops_" + name + ".f64", r.ops_log);
  write_f64(out + "/net_" + name + "_connect.f64", r.net.connect_us);
  write_f64(out + "/net_" + name + "_first_byte.f64", r.net.first_byte_us);
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  const Workload w = workload_by_name(a.workload);
  const Layout layout = make_layout(w, a.seed);

  if (a.mode == "script") {
    for (int s = 0; s < kSessions; ++s) {
      OpGen gen(layout, s);
      for (int i = 0; i < a.script_ops; ++i)
        std::printf("%d %s\n", s, describe(gen.next()).c_str());
    }
    std::int64_t total = 0;
    for (const auto& f : layout.read) total += f.size;
    for (const auto& own : layout.own)
      for (const auto& f : own) total += f.size;
    std::printf("data_bytes %lld\n", static_cast<long long>(total));
    return 0;
  }
  if (a.mode != "setup" && a.mode != "run") die("unknown mode " + a.mode);
  if (a.out.empty() || a.pid <= 0 || a.ports.chirp == 0 || a.ports.http == 0)
    die("--out, --pid, --chirp and --http are required");

  Findings findings;
  const std::int64_t t_begin = mono_ns();
  admin_setup(layout, a.ports);
  std::vector<std::unique_ptr<Session>> sessions;
  for (int s = 0; s < kSessions; ++s)
    sessions.push_back(std::make_unique<Session>(layout, a.ports, s, findings));
  parallel(sessions, &Session::connect, "connect");
  parallel(sessions, &Session::populate, "populate");
  const std::int64_t t_populated = mono_ns();
  PhaseRec warm;
  if (a.mode == "run") warm = run_phase(sessions, mono_ns() + kWarmupNs);
  const std::int64_t t_ready = mono_ns();

  std::ostringstream result;
  result << "{\"workload\":" << json_string(a.workload) << ",\"seed\":" << a.seed
         << ",\"mode\":" << json_string(a.mode) << ",\"t_begin_ns\":" << t_begin
         << ",\"t_populated_ns\":" << t_populated
         << ",\"t_ready_ns\":" << t_ready
         << ",\"warmup\":{\"attempted\":" << warm.attempted
         << ",\"failed\":" << warm.failed << "}";

  if (a.mode == "run") {
    result << ",\"phases\":[";
    const auto span_ns = static_cast<std::int64_t>(a.seconds * 1e9);
    if (a.trace == 0) {
      const Snapshot s0 = take_snapshot(a.ports, a.pid, false);
      PhaseRec r = run_phase(sessions, s0.t_ns + span_ns);
      const Snapshot s1 = take_snapshot(a.ports, a.pid, false);
      dump_phase_samples(a.out, "timed", r);
      result << phase_json("timed", r, s0, s1, "");
    } else {
      // Untraced half first (the baseline for trace.overhead_frac), then
      // the same load with /trace polled.
      const Snapshot u0 = take_snapshot(a.ports, a.pid, true);
      PhaseRec ur = run_phase(sessions, u0.t_ns + span_ns / 2);
      const Snapshot u1 = take_snapshot(a.ports, a.pid, true);
      dump_phase_samples(a.out, "untraced", ur);
      result << phase_json("untraced", ur, u0, u1, "") << ",";

      TracePoller poller(a.ports, a.pid);
      poller.open_window();
      const Snapshot t0 = take_snapshot(a.ports, a.pid, true);
      poller.start();
      PhaseRec tr = run_phase(sessions, t0.t_ns + span_ns / 2);
      const Snapshot t1 = take_snapshot(a.ports, a.pid, true);
      poller.stop();
      dump_phase_samples(a.out, "traced", tr);
      poller.write_spans(a.out + "/spans.txt");
      result << phase_json("traced", tr, t0, t1, poller.summary_json());
    }
    result << "]";
    for (auto& s : sessions) s->final_check();
  }

  result << ",\"checked\":" << findings.checked_count()
         << ",\"check_failures\":" << findings.check_failures()
         << ",\"messages\":[";
  const auto msgs = findings.messages();
  for (std::size_t i = 0; i < msgs.size(); ++i)
    result << (i ? "," : "") << json_string(msgs[i]);
  result << "]}\n";
  std::ofstream(a.out + "/result.json") << result.str();
  return 0;
}
