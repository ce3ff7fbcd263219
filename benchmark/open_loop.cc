#include "benchmark/open_loop.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/harness/executors.h"

namespace icg::benchmark {

namespace {

uint64_t Fnv(uint64_t hash, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xff;
    hash *= 1099511628211ULL;
  }
  return hash;
}

}  // namespace

OpenLoop::OpenLoop(Deployment& deployment, LoadPlan plan, uint64_t seed, Tracer& tracer)
    : deployment_(deployment),
      plan_(plan),
      tracer_(tracer),
      front_(deployment.front()),
      arrival_rng_(seed * 0x9e3779b97f4a7c15ULL + 1) {
  const WorkloadConfig config = YcsbConfigFor(deployment.spec());
  for (size_t i = 0; i < deployment.clients().size(); ++i) {
    workloads_.emplace_back(config, seed * 1000 + 17 + i);
  }
  ops_.reserve(static_cast<size_t>(plan.rate * ToSeconds(plan.window_end()) * 1.05) + 1024);
}

int64_t OpenLoop::window_failed() const { return window_arrivals_ - window_completed_; }

void OpenLoop::Run(SimTime until, const ChunkHook& hook) {
  if (!started_) {
    started_ = true;
    ScheduleNextArrival();
  }
  until = std::min(until, plan_.end());
  while (run_to_ < until) {
    run_to_ = std::min(run_to_ + kChunk, until);
    if (tracer_.enabled()) {
      tracer_.BeginChunk();
      deployment_.RunUntil(run_to_);
      tracer_.EndChunk();
    } else {
      deployment_.RunUntil(run_to_);
    }
    if (hook) {
      hook(run_to_);
    }
  }
}

void OpenLoop::ScheduleNextArrival() {
  next_due_us_ += arrival_rng_.NextExponential(1e6 / plan_.rate);
  const auto due = static_cast<SimTime>(std::llround(next_due_us_));
  if (due >= plan_.window_end()) {
    return;
  }
  front_.ScheduleAt(std::max(due, front_.Now()), [this]() { OnArrival(); });
}

void OpenLoop::OnArrival() {
  Span span(tracer_, Layer::kHarness);
  const SimTime now = front_.Now();
  const auto due = static_cast<SimTime>(std::llround(next_due_us_));
  max_lateness_ = std::max(max_lateness_, now - due);

  const int64_t index = arrivals();
  const auto client =
      static_cast<int16_t>(arrival_rng_.NextBounded(deployment_.clients().size()));
  YcsbOp op;
  {
    Span ycsb(tracer_, Layer::kYcsb);
    op = workloads_[static_cast<size_t>(client)].NextOp();
  }
  Op state;
  state.due = due;
  state.client = client;
  state.in_window = due >= plan_.window_start();
  ops_.push_back(state);
  if (state.in_window) {
    window_arrivals_++;
  }
  if (tracer_.enabled() && index % Tracer::kSampleEvery == 0) {
    sampled_keys_.emplace(index, op.key);
  }
  if (!op.is_read) {
    user_writes_++;
    user_write_bytes_ += static_cast<int64_t>(op.key.size() + op.value.size());
  }

  if (deployment_.ads() != nullptr) {
    SubmitAds(index, op);
  } else {
    if (!op.is_read) {
      written_.push_back(KeyIndexOf(op.key));
    }
    SubmitKv(index, deployment_.clients()[static_cast<size_t>(client)], op);
  }
  ScheduleNextArrival();
}

void OpenLoop::SubmitKv(int64_t index, CorrectableClient* client, const YcsbOp& op) {
  Span span(tracer_, Layer::kCorrectables);
  Correctable<OpResult> invocation = op.is_read
                                         ? client->Invoke(Operation::Get(op.key))
                                         : client->InvokeStrong(Operation::Put(op.key, op.value));
  invocation.SetCallbacks(
      [this, index](const View<OpResult>& v) { OnView(index, v.level, /*terminal=*/false); },
      [this, index](const View<OpResult>& v) { OnView(index, v.level, /*terminal=*/true); },
      [this, index](const Status&) {
        Span span(tracer_, Layer::kHarness);
        OnTerminal(index, /*ok=*/false);
      });
}

void OpenLoop::SubmitAds(int64_t index, const YcsbOp& op) {
  AdsSystem& ads = *deployment_.ads();
  const int64_t uid = KeyIndexOf(op.key) % ads.config().num_profiles;
  if (op.is_read) {
    Span span(tracer_, Layer::kApps);
    ads.FetchAdsByUserId(uid, /*use_icg=*/true,
                         [this, index](RefFetchOutcome outcome) { OnAdsRead(index, outcome); });
    return;
  }
  // A profile update is one strong put (exactly AdsSystem::UpdateProfile), submitted
  // here so the view contract is checked on it like on every other KV invocation.
  written_.push_back(uid);
  YcsbOp put;
  put.is_read = false;
  put.key = AdsSystem::ProfileKey(uid);
  put.value = ads.ProfileValue(uid, ++ads_version_);
  SubmitKv(index, deployment_.clients().front(), put);
}

void OpenLoop::OnView(int64_t index, ConsistencyLevel level, bool terminal) {
  Span span(tracer_, Layer::kHarness);
  Op& op = ops_[static_cast<size_t>(index)];
  if (op.terminals > 0) {
    violations_.views_after_terminal++;
  }
  if (op.has_view && !IsStrongerOrEqual(level, op.last_level)) {
    violations_.non_monotone_views++;
  }
  op.has_view = true;
  op.last_level = level;
  if (terminal) {
    if (level != ConsistencyLevel::kStrong) {
      violations_.weak_finals++;
    }
    OnTerminal(index, /*ok=*/true);
    return;
  }
  if (op.prelim_at < 0) {
    op.prelim_at = front_.Now();
    if (op.in_window) {
      prelim_.Record(op.prelim_at - op.due);
    }
  }
}

void OpenLoop::OnTerminal(int64_t index, bool ok) {
  Op& op = ops_[static_cast<size_t>(index)];
  if (++op.terminals > 1) {
    violations_.duplicate_terminals++;
    return;
  }
  const SimTime now = front_.Now();
  history_hash_ = Fnv(Fnv(history_hash_, static_cast<uint64_t>(index)),
                      static_cast<uint64_t>(now) * 2 + (ok ? 1 : 0));
  if (!ok) {
    errors_++;
    return;
  }
  completed_++;
  if (op.in_window) {
    window_completed_++;
    final_.Record(now - op.due);
  }
  // Sampled at arrival, so only invocations that arrived while tracing are recorded.
  if (const auto it = sampled_keys_.find(index); it != sampled_keys_.end()) {
    tracer_.RecordInvocation(index, op.client, it->second, op.due, op.prelim_at, now);
    sampled_keys_.erase(it);
  }
}

void OpenLoop::OnAdsRead(int64_t index, const RefFetchOutcome& outcome) {
  Span span(tracer_, Layer::kHarness);
  Op& op = ops_[static_cast<size_t>(index)];
  if (outcome.preliminary_latency.has_value()) {
    op.prelim_at = op.due + *outcome.preliminary_latency;
    if (*outcome.preliminary_latency > outcome.latency) {
      violations_.ads_prelim_after_final++;
    }
    if (op.in_window && op.terminals == 0) {
      prelim_.Record(*outcome.preliminary_latency);
    }
  }
  if (!outcome.ok) {
    violations_.ads_not_ok++;
  }
  ads_.reads++;
  ads_.objects += static_cast<int64_t>(outcome.objects);
  ads_.speculated += outcome.speculated ? 1 : 0;
  ads_.misspeculated += outcome.misspeculated ? 1 : 0;
  OnTerminal(index, outcome.ok);
}

std::vector<std::string> OpenLoop::WrittenKeySample(size_t n, uint64_t seed) const {
  std::vector<int64_t> keys = written_;
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  n = std::min(n, keys.size());
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {  // seeded partial Fisher-Yates
    std::swap(keys[i], keys[i + rng.NextBounded(keys.size() - i)]);
  }
  keys.resize(n);
  std::vector<std::string> out;
  out.reserve(keys.size());
  for (const int64_t key : keys) {
    out.push_back(deployment_.ads() != nullptr ? AdsSystem::ProfileKey(key)
                                               : CoreWorkload::KeyForIndex(key));
  }
  return out;
}

}  // namespace icg::benchmark
