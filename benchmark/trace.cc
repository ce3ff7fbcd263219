#include "benchmark/trace.h"

#include <cstdio>
#include <utility>

namespace icg::benchmark {

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kSim:
      return "sim";
    case Layer::kHarness:
      return "harness";
    case Layer::kCorrectables:
      return "correctables";
    case Layer::kApps:
      return "apps";
    case Layer::kYcsb:
      return "ycsb";
  }
  return "?";
}

Tracer::Tracer() : origin_ns_(WallNs()) {}

void Tracer::Enable() {
  enabled_ = true;
  events_.reserve(kMaxEvents);
  stack_.reserve(16);
}

void Tracer::BeginChunk() {
  chunk_ = Open{Layer::kSim, next_id_++, WallNs(), 0};
}

void Tracer::EndChunk() { Close(chunk_, 0, WallNs()); }

void Tracer::Begin(Layer layer) { stack_.push_back(Open{layer, next_id_++, WallNs(), 0}); }

void Tracer::End() {
  const int64_t end_ns = WallNs();
  const Open open = stack_.back();
  stack_.pop_back();
  Open& parent = stack_.empty() ? chunk_ : stack_.back();
  parent.child_ns += end_ns - open.start_ns;
  Close(open, parent.id, end_ns);
}

void Tracer::Close(const Open& open, int64_t parent, int64_t end_ns) {
  const int64_t dur = end_ns - open.start_ns;
  LayerTotals& totals = totals_[static_cast<int>(open.layer)];
  totals.spans += 1;
  totals.total_ns += dur;
  totals.self_ns += dur - open.child_ns;
  Push(Event{false, LayerName(open.layer), open.id, parent, open.start_ns - origin_ns_, dur, 0,
             {}});
}

void Tracer::RecordInvocation(int64_t id, int client, const std::string& key, SimTime due,
                              SimTime prelim_at, SimTime final_at) {
  Push(Event{true, "invoke", id, 0, due, final_at - due, client, key});
  if (prelim_at >= 0) {
    Push(Event{true, "prelim", id, 0, due, prelim_at - due, client, key});
  }
  const SimTime final_from = prelim_at >= 0 ? prelim_at : due;
  Push(Event{true, "final", id, 0, final_from, final_at - final_from, client, key});
}

void Tracer::Push(Event event) {
  if (events_.size() < kMaxEvents) {
    events_.push_back(std::move(event));
  }
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  // pid 1: wall-clock spans (ts/dur in us of real time); pid 2: virtual-time spans of
  // sampled invocations (ts/dur in us of simulated time, one row per client).
  std::fprintf(f,
               "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
               "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":"
               "\"wall time\"}},\n"
               "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"args\":{\"name\":"
               "\"virtual time (sampled invocations)\"}}");
  for (const Event& e : events_) {
    if (e.is_virtual) {
      std::fprintf(f,
                   ",\n{\"name\":\"%s\",\"cat\":\"invocation\",\"ph\":\"X\",\"ts\":%lld,"
                   "\"dur\":%lld,\"pid\":2,\"tid\":%d,\"args\":{\"inv\":%lld,\"client\":%d,"
                   "\"key\":\"%s\"}}",
                   e.name, static_cast<long long>(e.ts), static_cast<long long>(e.dur),
                   e.client, static_cast<long long>(e.id), e.client, e.key.c_str());
    } else {
      std::fprintf(f,
                   ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                   "\"dur\":%.3f,\"pid\":1,\"tid\":1,\"args\":{\"id\":%lld,\"parent\":%lld}}",
                   e.name, e.name, static_cast<double>(e.ts) / 1e3,
                   static_cast<double>(e.dur) / 1e3, static_cast<long long>(e.id),
                   static_cast<long long>(e.parent));
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace icg::benchmark
