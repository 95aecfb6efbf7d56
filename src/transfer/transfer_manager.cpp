#include "transfer/transfer_manager.h"

#include <cassert>

namespace nest::transfer {

TransferManager::TransferManager(Clock& clock, Options options)
    : clock_(clock),
      options_(options),
      scheduler_(make_scheduler(options.scheduler, clock)),
      cache_model_(options.cache_model_bytes, options.cache_model_page) {
  assert(scheduler_ != nullptr && "unknown scheduler kind");
}

TransferRequest* TransferManager::create_request(const std::string& protocol,
                                                 Direction dir,
                                                 const std::string& path,
                                                 std::int64_t size,
                                                 double cached_fraction,
                                                 const std::string& user,
                                                 std::int64_t offset) {
  auto req = std::make_unique<TransferRequest>();
  req->id = next_id_++;
  req->protocol = protocol;
  req->user = user;
  req->dir = dir;
  req->path = path;
  req->offset = offset;
  req->size = size;
  req->arrival = clock_.now();
  req->cached_fraction = cached_fraction;
  std::size_t cls = 0;
  while (cls + 1 < kByteClasses.size() && kByteClasses[cls] != protocol) ++cls;
  req->class_bytes = &class_bytes_[cls];  // falls through to "other"
  TransferRequest* raw = req.get();
  requests_[raw->id] = std::move(req);
  in_flight_.fetch_add(1, std::memory_order_relaxed);
  return raw;
}

void TransferManager::complete(TransferRequest* r) {
  latency_.record(clock_.now() - r->arrival);
  completed_.fetch_add(1, std::memory_order_relaxed);
  in_flight_.fetch_sub(1, std::memory_order_relaxed);
  requests_.erase(r->id);
}

std::map<std::string, std::int64_t> TransferManager::class_bytes() const {
  std::map<std::string, std::int64_t> out;
  for (std::size_t i = 0; i < kByteClasses.size(); ++i) {
    const std::int64_t n = class_bytes_[i].load(std::memory_order_relaxed);
    if (n != 0) out.emplace(kByteClasses[i], n);
  }
  return out;
}

std::int64_t TransferManager::total_bytes() const {
  std::int64_t n = 0;
  for (const auto& c : class_bytes_) n += c.load(std::memory_order_relaxed);
  return n;
}

StrideScheduler* TransferManager::stride() {
  return dynamic_cast<StrideScheduler*>(scheduler_.get());
}

}  // namespace nest::transfer
