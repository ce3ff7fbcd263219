// Shared helpers for the figure-reproduction benchmarks: the --smoke flag, aligned
// tables with a header naming the paper figure being regenerated, plus machine-readable
// JSON summaries (BENCH_<name>.json) so CI and perf-trajectory tooling can consume bench
// results without parsing tables.
#ifndef ICG_BENCH_BENCH_UTIL_H_
#define ICG_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "src/common/histogram.h"
#include "src/common/types.h"
#include "src/harness/icg_contract.h"

namespace icg::bench {

// The one flag the load benches take: true for --smoke, which shortens the trial. Any
// other argument prints a usage line on stderr and exits 2, before the bench has run or
// written anything.
inline bool ParseSmokeFlag(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") != 0) {
      std::fprintf(stderr, "%s: unknown argument '%s'\nusage: %s [--smoke]\n", argv[0],
                   argv[i], argv[0]);
      std::exit(2);
    }
    smoke = true;
  }
  return smoke;
}

inline void PrintHeader(const std::string& figure, const std::string& description) {
  std::printf("\n=== %s ===\n%s\n\n", figure.c_str(), description.c_str());
}

class Table {
 public:
  explicit Table(std::vector<std::string> columns) : columns_(std::move(columns)) {}

  void AddRow(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }

  void Print() const {
    std::vector<size_t> widths(columns_.size());
    for (size_t i = 0; i < columns_.size(); ++i) {
      widths[i] = columns_[i].size();
    }
    for (const auto& row : rows_) {
      for (size_t i = 0; i < row.size() && i < widths.size(); ++i) {
        widths[i] = std::max(widths[i], row[i].size());
      }
    }
    PrintRow(columns_, widths);
    std::string rule;
    for (size_t i = 0; i < widths.size(); ++i) {
      rule += std::string(widths[i], '-') + (i + 1 < widths.size() ? "-+-" : "");
    }
    std::printf("%s\n", rule.c_str());
    for (const auto& row : rows_) {
      PrintRow(row, widths);
    }
    std::printf("\n");
  }

 private:
  static void PrintRow(const std::vector<std::string>& cells, const std::vector<size_t>& widths) {
    std::string line;
    for (size_t i = 0; i < widths.size(); ++i) {
      const std::string& cell = i < cells.size() ? cells[i] : std::string();
      line += cell + std::string(widths[i] - cell.size(), ' ');
      if (i + 1 < widths.size()) {
        line += " | ";
      }
    }
    std::printf("%s\n", line.c_str());
  }

  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string Fmt(double value, int decimals = 1) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
  return buf;
}

// Events per fixed-width bucket of virtual time, from 0 to a horizon (later events land
// in the last bucket): the phase throughputs of a load trial.
class RateBuckets {
 public:
  RateBuckets(SimDuration width, SimTime horizon)
      : width_(width), counts_(static_cast<size_t>(horizon / width) + 8, 0) {}

  void Add(SimTime at) { counts_[std::min(IndexOf(at), counts_.size() - 1)]++; }

  size_t size() const { return counts_.size(); }
  size_t IndexOf(SimTime at) const { return static_cast<size_t>(at / width_); }
  // Bucket `i`'s rate per second.
  double RateAt(size_t i) const { return static_cast<double>(counts_[i]) / ToSeconds(width_); }
  // Events in, and mean rate per second over, the whole buckets from the one holding
  // `from` up to (not including) the one holding `to`, or to the last bucket.
  int64_t Count(SimTime from, SimTime to = std::numeric_limits<SimTime>::max()) const {
    int64_t events = 0;
    for (size_t i = IndexOf(from); i < End(to); ++i) {
      events += counts_[i];
    }
    return events;
  }
  double Rate(SimTime from, SimTime to) const {
    const size_t first = IndexOf(from);
    const size_t last = End(to);
    return last <= first ? 0.0
                         : static_cast<double>(Count(from, to)) /
                               ToSeconds(static_cast<SimDuration>(last - first) * width_);
  }
  // The lowest bucket rate over the same buckets (+infinity when there are none): a
  // transition's dip.
  double MinRate(SimTime from, SimTime to) const {
    double lowest = std::numeric_limits<double>::infinity();
    for (size_t i = IndexOf(from); i < End(to); ++i) {
      lowest = std::min(lowest, RateAt(i));
    }
    return lowest;
  }
  // Milliseconds from `from` to the end of the first of those buckets whose rate reaches
  // `rate`, or -1 when none does: how long a transition took to recover.
  double MillisToReach(double rate, SimTime from, SimTime to) const {
    for (size_t i = IndexOf(from); i < End(to); ++i) {
      if (RateAt(i) >= rate) {
        return ToMillis(static_cast<SimTime>(i + 1) * width_ - from);
      }
    }
    return -1.0;
  }

 private:
  size_t End(SimTime to) const { return std::min(IndexOf(to), counts_.size()); }

  SimDuration width_;
  std::vector<int64_t> counts_;
};

// Accumulates a flat set of metrics and writes them as BENCH_<name>.json next to the
// working directory (one file per bench target, overwritten per run). Nesting is
// expressed with dotted keys ("coords3.final.p99_ms"), which keeps the format trivially
// greppable and diffable across runs.
class JsonSummary {
 public:
  explicit JsonSummary(std::string bench_name) : name_(std::move(bench_name)) {}

  void Add(const std::string& key, double value, int decimals = 3) {
    entries_.push_back({key, Fmt(value, decimals)});
  }
  void Add(const std::string& key, int64_t value) {
    entries_.push_back({key, std::to_string(value)});
  }
  void AddString(const std::string& key, const std::string& value) {
    entries_.push_back({key, "\"" + Escape(value) + "\""});
  }

  // The standard per-trial block: throughput plus p50/p99 of the preliminary and final
  // latency distributions, under `prefix.`.
  void AddLatencies(const std::string& prefix, double throughput_ops,
                    const LatencySummary& preliminary, const LatencySummary& final_view) {
    Add(prefix + ".throughput_ops", throughput_ops, 1);
    Add(prefix + ".final.p50_ms", final_view.p50_ms());
    Add(prefix + ".final.p99_ms", final_view.p99_ms());
    if (preliminary.count > 0) {
      Add(prefix + ".preliminary.p50_ms", preliminary.p50_ms());
      Add(prefix + ".preliminary.p99_ms", preliminary.p99_ms());
    }
  }

  // Writes BENCH_<name>.json and reports the path on stdout. Returns false (with a
  // warning) if the file cannot be opened; benches never fail on summary IO.
  //
  // Every summary records the machine's core count as "cores" so wall-clock numbers
  // (speedups, ns/op) committed as baselines carry the hardware they were measured on,
  // and --check-style gates can refuse to compare across different machines — plus the
  // build's git sha as "git_sha" so the perf trajectory is attributable across PRs.
  bool Write() const {
    const std::string path = "BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
      return false;
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\"", Escape(name_).c_str());
    std::fprintf(f, ",\n  \"cores\": %u", std::thread::hardware_concurrency());
#ifdef ICG_GIT_SHA
    std::fprintf(f, ",\n  \"git_sha\": \"%s\"", ICG_GIT_SHA);
#else
    std::fprintf(f, ",\n  \"git_sha\": \"unknown\"");
#endif
    for (const auto& [key, value] : entries_) {
      std::fprintf(f, ",\n  \"%s\": %s", Escape(key).c_str(), value.c_str());
    }
    std::fprintf(f, "\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
    return true;
  }

 private:
  struct Entry {
    std::string key;
    std::string value;  // pre-rendered JSON value
  };

  static std::string Escape(const std::string& raw) {
    std::string out;
    out.reserve(raw.size());
    for (const char c : raw) {
      switch (c) {
        case '"':
          out += "\\\"";
          break;
        case '\\':
          out += "\\\\";
          break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
          } else {
            out += c;
          }
      }
    }
    return out;
  }

  std::string name_;
  std::vector<Entry> entries_;
};

// The violation counters the checked load benches report: second terminals, level
// regressions, and views after a terminal.
inline void AddViolationCounts(JsonSummary& json, const IcgContractChecker& checker) {
  json.Add("oracle.duplicate_finals", checker.count(Violation::kExtraTerminal));
  json.Add("oracle.monotonicity_violations", checker.count(Violation::kLevelRegressed));
  json.Add("oracle.views_after_terminal", checker.count(Violation::kViewAfterTerminal));
}

}  // namespace icg::bench

#endif  // ICG_BENCH_BENCH_UTIL_H_
