#include "transfer/transfer_manager.h"

#include <cassert>

namespace nest::transfer {

TransferManager::TransferManager(Clock& clock, Options options)
    : clock_(clock),
      options_(options),
      scheduler_(make_scheduler(options.scheduler, clock)),
      cache_model_(options.cache_model_bytes, options.cache_model_page),
      latencies_(options.latency_samples_per_stripe) {
  assert(scheduler_ != nullptr && "unknown scheduler kind");
}

TransferRequest* TransferManager::create_request(const std::string& protocol,
                                                 Direction dir,
                                                 const std::string& path,
                                                 std::int64_t size,
                                                 const std::string& user) {
  auto req = std::make_unique<TransferRequest>();
  req->id = next_id_++;
  req->protocol = protocol;
  req->user = user;
  req->dir = dir;
  req->path = path;
  req->size = size;
  req->arrival = clock_.now();
  req->cached_fraction = cache_model_.resident_fraction(path, size);
  TransferRequest* raw = req.get();
  requests_[raw->id] = std::move(req);
  in_flight_.fetch_add(1, std::memory_order_relaxed);
  return raw;
}

void TransferManager::charge(TransferRequest* r, std::int64_t bytes) {
  r->done += bytes;
  account_bytes(r->protocol, bytes);
  scheduler_->charge(r, bytes);
  cache_model_.observe_access(r->path, r->done - bytes, bytes);
}

void TransferManager::complete(TransferRequest* r) {
  latencies_.record(clock_.now() - r->arrival);
  completed_.fetch_add(1, std::memory_order_relaxed);
  in_flight_.fetch_sub(1, std::memory_order_relaxed);
  requests_.erase(r->id);
}

StrideScheduler* TransferManager::stride() {
  return dynamic_cast<StrideScheduler*>(scheduler_.get());
}

}  // namespace nest::transfer
