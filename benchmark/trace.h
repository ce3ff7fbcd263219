// Span tracer for the benchmark's traced runs.
//
// Wall-time spans are recorded around the benchmark's own calls into each layer's public
// API (no instrumentation inside src/). Each span knows its parent, so a layer's self
// time is its span time minus the part covered by its children. Totals are accumulated
// for every span; the first kMaxEvents events are also kept in a preallocated buffer and
// written out as Chrome trace-event JSON (chrome://tracing, ui.perfetto.dev).
//
// A tracer starts disabled; Enable() switches it on between chunks, when no span is open.
//
// Threading: chunk spans are opened and closed by the thread that advances the world,
// between LoopGroup rounds; every other span is opened on the front loop, which exactly
// one thread runs at a time (rounds are separated by barriers). No two threads touch the
// tracer at once.
#ifndef ICG_BENCHMARK_TRACE_H_
#define ICG_BENCHMARK_TRACE_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/types.h"

namespace icg::benchmark {

enum class Layer : int { kSim, kHarness, kCorrectables, kApps, kYcsb };
inline constexpr int kNumLayers = 5;
const char* LayerName(Layer layer);

inline int64_t WallNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  static constexpr size_t kMaxEvents = 200000;
  static constexpr int64_t kSampleEvery = 64;  // virtual spans: 1 invocation in 64

  struct LayerTotals {
    int64_t spans = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
  };

  Tracer();

  void Enable();
  bool enabled() const { return enabled_; }

  // The chunk span (layer sim) around one 50 ms advance of the world; its children are
  // the front-loop spans that ran while the chunk advanced.
  void BeginChunk();
  void EndChunk();

  void Begin(Layer layer);
  void End();

  // Virtual-time spans of one sampled invocation: due -> first view -> final view.
  // `prelim_at` < 0 when the invocation delivered no preliminary view.
  void RecordInvocation(int64_t id, int client, const std::string& key, SimTime due,
                        SimTime prelim_at, SimTime final_at);

  const LayerTotals& totals(Layer layer) const { return totals_[static_cast<int>(layer)]; }

  // Writes the buffered events as Chrome trace-event JSON. Returns false on IO failure.
  bool WriteChromeJson(const std::string& path) const;

 private:
  struct Open {
    Layer layer;
    int64_t id;
    int64_t start_ns;
    int64_t child_ns;
  };
  struct Event {
    bool is_virtual;
    const char* name;  // the layer, or invoke / prelim / final for virtual spans
    int64_t id;        // span id, or the invocation's arrival index
    int64_t parent;    // wall spans only
    int64_t ts;        // wall ns since the tracer was built, or virtual us
    int64_t dur;
    int client;        // virtual spans only
    std::string key;   // virtual spans only
  };

  void Close(const Open& open, int64_t parent, int64_t end_ns);
  void Push(Event event);

  bool enabled_ = false;
  int64_t origin_ns_;
  int64_t next_id_ = 1;
  std::array<LayerTotals, kNumLayers> totals_{};
  std::vector<Open> stack_;
  // The open chunk: its id parents the front-loop spans, and child_ns collects their
  // durations.
  Open chunk_{Layer::kSim, 0, 0, 0};
  std::vector<Event> events_;
};

// RAII span; free when tracing is off beyond one predictable branch.
class Span {
 public:
  Span(Tracer& tracer, Layer layer) : tracer_(tracer.enabled() ? &tracer : nullptr) {
    if (tracer_ != nullptr) {
      tracer_->Begin(layer);
    }
  }
  ~Span() {
    if (tracer_ != nullptr) {
      tracer_->End();
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
};

}  // namespace icg::benchmark

#endif  // ICG_BENCHMARK_TRACE_H_
