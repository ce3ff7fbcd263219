#include "src/correctables/batch_scheduler.h"

#include <cassert>
#include <utility>

namespace icg {
namespace {

std::string CohortKey(bool is_read, const std::string& scope, const LevelVec& levels) {
  std::string key(is_read ? "r" : "w");
  key.push_back('\0');
  key += scope;
  key.push_back('\0');
  key += LevelsToString(levels);
  return key;
}

}  // namespace

BatchScheduler::BatchScheduler(EventLoop* loop, FlushFn flush)
    : loop_(loop), flush_(std::move(flush)) {
  assert(flush_ != nullptr);
}

BatchScheduler::~BatchScheduler() {
  for (const auto& [key, open] : pending_) {
    if (open.timer != 0 && loop_ != nullptr) {
      loop_->Cancel(open.timer);
    }
  }
}

void BatchScheduler::SetConfig(const BatchConfig& config) {
  config_ = config;
  if (loop_ == nullptr || pending_.empty()) {
    return;
  }
  // Re-arm every pending cohort against the new window, measured from the cohort's
  // original open time. Timers are cancelled before anything flushes and each cohort
  // is handled exactly once, so a waiter can neither be stranded (its timer cancelled
  // with no replacement) nor delivered twice (Flush erases before invoking).
  std::vector<std::string> flush_now;
  const SimTime now = loop_->Now();
  for (auto& [key, open] : pending_) {
    if (open.timer != 0) {
      loop_->Cancel(open.timer);
      open.timer = 0;
    }
    const SimTime deadline = open.opened_at + config_.batch_window;
    if (config_.batch_window == 0 || deadline <= now) {
      // Shrink-to-0 (batching disabled: no timer would ever fire again) or a deadline
      // already in the past under the new window: flush now. Collected first: Flush
      // mutates pending_.
      flush_now.push_back(key);
      continue;
    }
    const std::string timer_key = key;
    open.timer = loop_->ScheduleAt(deadline, [this, timer_key]() { Flush(timer_key); });
  }
  for (const std::string& key : flush_now) {
    Flush(key);
  }
}

void BatchScheduler::Admit(bool is_read, std::string scope, const LevelVec& levels,
                           Operation op, std::shared_ptr<void> waiter) {
  assert(enabled());
  std::string key = CohortKey(is_read, scope, levels);
  auto it = pending_.find(key);
  if (it == pending_.end()) {
    Open open;
    open.cohort.is_read = is_read;
    open.cohort.scope = std::move(scope);
    open.cohort.levels = levels;
    open.opened_at = loop_->Now();
    // The window opens with the cohort's first admission; later joiners do not extend
    // it, so no waiter is delayed more than one batch_window.
    open.timer = loop_->Schedule(config_.batch_window,
                                 [this, key]() { Flush(key); });
    it = pending_.emplace(std::move(key), std::move(open)).first;
  }
  it->second.cohort.ops.push_back(Pending{std::move(op), std::move(waiter)});
  if (it->second.cohort.ops.size() >= kMaxBatchOps) {
    Flush(it->first);
  }
}

void BatchScheduler::Flush(const std::string& key) {
  auto it = pending_.find(key);
  if (it == pending_.end()) {
    return;  // already flushed (size cap raced the timer)
  }
  if (it->second.timer != 0) {
    loop_->Cancel(it->second.timer);
  }
  Cohort cohort = std::move(it->second.cohort);
  // Erase before invoking the flush handler: a handler callback may submit follow-up
  // operations that must open a fresh cohort, not append to the one being flushed.
  pending_.erase(it);
  flush_(std::move(cohort));
}

void BatchScheduler::FlushAll() {
  while (!pending_.empty()) {
    Flush(pending_.begin()->first);
  }
}

size_t BatchScheduler::pending_ops() const {
  size_t total = 0;
  for (const auto& [key, open] : pending_) {
    total += open.cohort.ops.size();
  }
  return total;
}

}  // namespace icg
