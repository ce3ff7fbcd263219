// Lightweight event counters, alone or named in a registry, for per-component
// instrumentation (replicas, Zab servers, stores, the LoopGroup).
#ifndef ICG_COMMON_METRICS_H_
#define ICG_COMMON_METRICS_H_

#include <cstdint>
#include <map>
#include <string>

namespace icg {

// Monotonic event counter.
class Counter {
 public:
  void Increment(int64_t n = 1) { value_ += n; }
  int64_t value() const { return value_; }
  void Reset() { value_ = 0; }

 private:
  int64_t value_ = 0;
};

// Named counters for ad-hoc instrumentation (confirmations sent, read repairs, retries).
// Not thread-safe by design: the whole simulation is single-threaded.
class MetricRegistry {
 public:
  Counter& GetCounter(const std::string& name) { return counters_[name]; }

  int64_t Value(const std::string& name) const {
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second.value();
  }

  const std::map<std::string, Counter>& counters() const { return counters_; }

  void Reset() {
    for (auto& [name, counter] : counters_) {
      counter.Reset();
    }
  }

 private:
  std::map<std::string, Counter> counters_;
};

}  // namespace icg

#endif  // ICG_COMMON_METRICS_H_
