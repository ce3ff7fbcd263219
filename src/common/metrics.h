// Lightweight event counters, alone or named in a registry, for per-component
// instrumentation (replicas, Zab servers, stores, the LoopGroup).
#ifndef ICG_COMMON_METRICS_H_
#define ICG_COMMON_METRICS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>

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
// Not thread-safe by design: the whole simulation is single-threaded. Lookups take a
// string_view and compare without building a std::string, so bumping an existing
// counter allocates nothing, however long its name.
class MetricRegistry {
 public:
  using Counters = std::map<std::string, Counter, std::less<>>;

  Counter& GetCounter(std::string_view name) {
    auto it = counters_.find(name);
    if (it == counters_.end()) {
      it = counters_.emplace(std::string(name), Counter{}).first;
    }
    return it->second;
  }

  int64_t Value(std::string_view name) const {
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second.value();
  }

  const Counters& counters() const { return counters_; }

  void Reset() {
    for (auto& [name, counter] : counters_) {
      counter.Reset();
    }
  }

 private:
  Counters counters_;
};

}  // namespace icg

#endif  // ICG_COMMON_METRICS_H_
