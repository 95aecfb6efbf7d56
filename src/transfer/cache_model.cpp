#include "transfer/cache_model.h"

#include <algorithm>
#include <iterator>

namespace nest::transfer {

void CacheModel::observe_access(const std::string& path, std::int64_t offset,
                                std::int64_t len) {
  if (len <= 0) return;
  const std::int64_t first = offset / page_bytes_;
  const std::int64_t last = (offset + len - 1) / page_bytes_;
  const auto [fit, inserted] = files_.try_emplace(path);
  File& f = fit->second;
  if (inserted) f.path = &fit->first;
  // Walk the range as alternating resident / non-resident stretches,
  // re-reading the state after each: evicting for one stretch may take
  // pages that a later stretch of this same range found resident.
  for (std::int64_t p = first; p <= last;) {
    const auto next = f.runs.upper_bound(p);  // first run starting after p
    if (next != f.runs.begin()) {
      const Lru::iterator r = std::prev(next)->second;
      if (r->hi >= p) {
        const std::int64_t e = std::min(r->hi, last);
        touch(f, r, p, e);
        p = e + 1;
        continue;
      }
    }
    const std::int64_t e =
        next == f.runs.end() ? last : std::min(last, next->first - 1);
    insert_fresh(f, p, e);
    p = e + 1;
  }
}

void CacheModel::touch(File& f, Lru::iterator r, std::int64_t p,
                       std::int64_t e) {
  // Already the most recent pages, in page order: nothing moves.
  if (r == lru_.begin() && e == r->hi) return;
  // The pages of r outside p..e keep r's place in the recency order, the
  // part above e more recent than the part below p.
  const Lru::iterator after = std::next(r);
  if (p > r->lo) {
    const auto mit = f.runs.find(r->lo);
    mit->second = lru_.insert(after, Run{&f, r->lo, p - 1});
    f.runs.emplace_hint(std::next(mit), p, r);
    r->lo = p;
  }
  if (e < r->hi) {
    f.runs.emplace(e + 1, lru_.insert(std::next(r), Run{&f, e + 1, r->hi}));
    r->hi = e;
  }
  const Lru::iterator front = lru_.begin();
  if (front != r && front->file == &f && front->hi + 1 == p) {
    // p..e continues the front run in both page and recency order.
    front->hi = e;
    f.runs.erase(p);
    lru_.erase(r);
  } else {
    lru_.splice(lru_.begin(), lru_, r);
  }
}

void CacheModel::insert_fresh(File& f, std::int64_t p, std::int64_t e) {
  // The page loop evicts the tail page before each push once the cache is
  // full, and at capacity 0 still keeps the page it pushed last.
  const std::int64_t cap = std::max<std::int64_t>(capacity_pages_, 1);
  const std::int64_t over = tracked_ + (e - p + 1) - cap;
  if (over > 0) {
    // The `over` least recent pages go: resident ones first, then (for a
    // range longer than the cache) the head of this range itself.
    const std::int64_t old = std::min(over, tracked_);
    evict(old, &f);
    p += over - old;
  }
  if (!lru_.empty() && lru_.front().file == &f && lru_.front().hi + 1 == p) {
    lru_.front().hi = e;
  } else {
    lru_.push_front(Run{&f, p, e});
    f.runs.emplace(p, lru_.begin());
  }
  tracked_ += e - p + 1;
}

void CacheModel::evict(std::int64_t n, const File* keep) {
  while (n > 0) {
    const Lru::iterator t = std::prev(lru_.end());
    File& f = *t->file;
    const std::int64_t k = std::min(n, t->hi - t->lo + 1);
    n -= k;
    tracked_ -= k;
    if (t->lo + k <= t->hi) {
      auto node = f.runs.extract(t->lo);
      node.key() = t->lo += k;
      f.runs.insert(std::move(node));
      continue;
    }
    f.runs.erase(t->lo);
    lru_.erase(t);
    if (f.runs.empty() && &f != keep) files_.erase(files_.find(*f.path));
  }
}

void CacheModel::observe_remove(const std::string& path) {
  const auto fit = files_.find(path);
  if (fit == files_.end()) return;
  for (const auto& [lo, r] : fit->second.runs) {
    tracked_ -= r->hi - lo + 1;
    lru_.erase(r);
  }
  files_.erase(fit);
}

double CacheModel::resident_fraction(const std::string& path,
                                     std::int64_t offset,
                                     std::int64_t size) const {
  if (size <= 0) return 1.0;
  const std::int64_t first = offset / page_bytes_;
  const std::int64_t last = (offset + size - 1) / page_bytes_;
  std::int64_t resident = 0;
  if (const auto fit = files_.find(path); fit != files_.end()) {
    const auto& runs = fit->second.runs;
    // Start at the run that may straddle `first`.
    auto it = runs.upper_bound(first);
    if (it != runs.begin()) --it;
    for (; it != runs.end() && it->first <= last; ++it) {
      const std::int64_t from = std::max(it->first, first);
      const std::int64_t to = std::min(it->second->hi, last);
      if (to >= from) resident += to - from + 1;
    }
  }
  return static_cast<double>(resident) / static_cast<double>(last - first + 1);
}

}  // namespace nest::transfer
