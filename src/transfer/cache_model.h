// Gray-box model of the kernel buffer cache (paper Section 4.2, building on
// Arpaci-Dusseau's gray-box methodology and the Burnett et al. USENIX '02
// work the paper cites).
//
// NeST runs at user level and cannot see the kernel cache, but it *can*
// observe every byte it reads and writes. This model mirrors the kernel's
// (assumed LRU) replacement over those observations with a configurable
// estimated cache size, and predicts whether a file is resident — the
// signal cache-aware scheduling needs.
//
// Representation: one global LRU list of *runs* {file, lo, hi}. A run says
// pages lo..hi of one file are resident and occupy one contiguous stretch
// of the global recency order, least recent at lo and most recent at hi.
// Each file keeps its runs in a map keyed by lo, so a call finds its file
// with one path lookup and its pages with one ordered-map search, never a
// per-page hash.
//
// Exactness: the model is a page-level LRU — the same pages are resident,
// in the same recency order, as touching each page one at a time
// (move a resident page to the front; else evict from the tail while the
// cache is full, then push the page). With a capacity of 0 pages that loop
// still keeps the last page touched, and so does this model.
//
// Cost per call: observe_access is O(runs the range touches + runs it
// evicts) map/list steps; a sequential stream extends the front run and
// trims the tail run, so a 64 KiB block is a few map operations.
// resident_fraction is O(log runs + runs of the file the range overlaps)
// — one step for a file that was read or written straight through.
// observe_remove is O(runs of the file).
//
// Not thread-safe; transfer::TransferCore serialises it under cache_mu_.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <string>
#include <unordered_map>

namespace nest::transfer {

class CacheModel {
 public:
  CacheModel(std::int64_t estimated_cache_bytes, std::int64_t page_bytes)
      : capacity_pages_(estimated_cache_bytes / page_bytes),
        page_bytes_(page_bytes) {}
  // Runs point at their file's entry; a copy would alias the original's.
  CacheModel(const CacheModel&) = delete;
  CacheModel& operator=(const CacheModel&) = delete;

  // Record that the server read/wrote [offset, offset+len) of `path`
  // through the kernel. Both populate the (modeled) cache.
  void observe_access(const std::string& path, std::int64_t offset,
                      std::int64_t len);

  // Record that `path` was removed (its pages die with it).
  void observe_remove(const std::string& path);

  // Predicted fraction of bytes [offset, offset+size) resident right now.
  double resident_fraction(const std::string& path, std::int64_t offset,
                           std::int64_t size) const;

  std::int64_t page_bytes() const { return page_bytes_; }
  std::int64_t tracked_pages() const { return tracked_; }

 private:
  struct File;
  struct Run {
    File* file;
    std::int64_t lo;
    std::int64_t hi;
  };
  using Lru = std::list<Run>;  // front = MRU
  struct File {
    const std::string* path = nullptr;  // this entry's key in files_
    std::map<std::int64_t, Lru::iterator> runs;  // by lo, disjoint
  };

  // Move resident pages p..e (all inside run `r`) to the front.
  void touch(File& f, Lru::iterator r, std::int64_t p, std::int64_t e);
  // Make non-resident pages p..e the most recent, evicting as the
  // page-at-a-time loop would.
  void insert_fresh(File& f, std::int64_t p, std::int64_t e);
  // Drop the `n` least recent pages. A file left with no run loses its
  // entry, except `keep` (the file being accessed).
  void evict(std::int64_t n, const File* keep);

  std::int64_t capacity_pages_;
  std::int64_t page_bytes_;
  std::int64_t tracked_ = 0;
  Lru lru_;
  std::unordered_map<std::string, File> files_;
};

}  // namespace nest::transfer
