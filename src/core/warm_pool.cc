#include "core/warm_pool.h"

namespace lfi {

WarmPool::WarmPool(Factory factory, Policy policy)
    : state_(std::make_shared<State>()) {
  state_->factory = std::move(factory);
  state_->policy = policy;
}

WarmPool::Stats WarmPool::stats() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->stats;
}

std::unique_ptr<WarmTarget> WarmPool::State::Checkout() {
  {
    std::lock_guard<std::mutex> lock(mu);
    if (!idle.empty()) {
      std::unique_ptr<WarmTarget> instance = std::move(idle.back());
      idle.pop_back();
      return instance;
    }
    ++stats.builds;
  }
  // Build outside the lock: bring-up is the expensive part this pool exists
  // to amortize, and other workers should not serialize behind it.
  return factory();
}

JobResult WarmPool::State::RunJob(const CampaignJob& job) {
  std::unique_ptr<WarmTarget> instance = Checkout();
  JobResult result;
  try {
    result = instance->Run(job);
  } catch (...) {
    // The harness absorbs expected failures (SimCrash is caught inside
    // RunTest); anything that still unwinds leaves the instance in an
    // unknown state, so it must not be re-pooled.
    std::lock_guard<std::mutex> lock(mu);
    ++stats.runs;
    stats.dropped += policy == Policy::kReuse ? 1 : 0;
    throw;
  }
  bool reusable = policy == Policy::kReuse && instance->Reset();
  std::lock_guard<std::mutex> lock(mu);
  ++stats.runs;
  if (reusable) {
    ++stats.resets;
    idle.push_back(std::move(instance));
  } else if (policy == Policy::kReuse) {
    ++stats.dropped;
  }
  return result;
}

}  // namespace lfi
