// icg_bench: one workload of the ICG stack benchmark per process.
//
//   icg_bench --workload W [--seed N] [--trace 0|1] [--smoke]
//
// Untraced (--trace 0): builds the deployment five times, or five batches of builds
// (setup_s is the median; the last build is kept), runs the open-loop load with a 10 s
// warmup, the workload's fixed virtual timed window and a 5 s drain, checks the outputs,
// then climbs the capacity ladder on fresh worlds. Traced (--trace 1): runs the same
// window once untraced and once with spans on (fresh world, same seed) and reports the
// per-layer metrics; end-to-end metrics always come from untraced runs.
//
// Prints `<workload> <metric> <value> <unit>` and `check.<name> ok|FAIL` lines, writes
// build-release/benchmark/<workload>.json (.layers.json and .trace.json when traced)
// under the working directory, and ends stdout with one JSON object: {"correct",
// "attempted", "failed", "metrics"}. Exits 1 if a check fails, 2 on bad arguments.
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "benchmark/layers.h"
#include "benchmark/open_loop.h"
#include "benchmark/trace.h"
#include "benchmark/workloads.h"

namespace icg::benchmark {
namespace {

constexpr SimDuration kWarmup = Seconds(10);
constexpr SimDuration kDrain = Seconds(5);
constexpr SimDuration kPrefix = Seconds(30);  // width-determinism fingerprint horizon
constexpr int kSegments = 20;
// setup_s is the median of this many samples. Five, not three: the first two builds of
// a process take up to 1.7x as long as later ones (fresh pages from the kernel), and a
// median of three would often land on one of them.
constexpr int kSetupSamples = 5;
constexpr size_t kAgreementSample = 1000;
// final_p999_ms must rest on at least this many samples beyond it.
constexpr int64_t kMinTailSamples = 100;

struct Options {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 1;
  bool trace = false;
  bool smoke = false;
};

constexpr const char* kOutDir = "build-release/benchmark";

struct Metric {
  std::string name;
  double value;
  std::string unit;
  bool in_result_line = true;  // false: printed and filed, but not a benchmark metric
};

struct Check {
  std::string name;
  bool ok;
};

int CpuCount() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return 1;
  }
  return std::max(1, CPU_COUNT(&set));
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n == 0 ? 0.0 : n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

double Ms(SimDuration us) { return static_cast<double>(us) / 1000.0; }

LoadPlan MainPlan(const Options& options) {
  LoadPlan plan;
  plan.rate = options.spec->rate;
  plan.segments = kSegments;
  if (options.smoke) {
    plan.warmup = Seconds(5);
    plan.window = Seconds(10);
    plan.drain = Seconds(5);
    return plan;
  }
  plan.warmup = kWarmup;
  plan.window = options.spec->window;
  plan.drain = kDrain;
  return plan;
}

// --- Fingerprint for the width-determinism check ----------------------------------------

uint64_t Mix(uint64_t hash, int64_t value) {
  hash ^= static_cast<uint64_t>(value) + 0x9e3779b97f4a7c15ULL + (hash << 6) + (hash >> 2);
  return hash;
}

uint64_t Fingerprint(Deployment& deployment, const OpenLoop& load) {
  const ClientStats s = deployment.MergedClientStats();
  uint64_t h = load.history_hash();
  for (const int64_t v :
       {load.completed(), load.errors(), s.invocations, s.views_delivered,
        s.confirmations, s.divergences, s.stale_views_dropped, s.errors, s.timeouts,
        s.batched_invocations, s.coalesced_reads, s.cross_tick_batches, s.batched_writes,
        s.overload_sheds}) {
    h = Mix(h, v);
  }
  if (LoopGroup* group = deployment.group()) {
    h = Mix(h, static_cast<int64_t>(group->barrier_schedule_hash()));
    h = Mix(h, group->rounds());
  }
  return h;
}

// --- One measured run -------------------------------------------------------------------

struct Measured {
  Counters start;
  Counters end;
  std::vector<double> segment_ops_per_s;
  std::vector<double> segment_cpu_us_per_op;
  double peak_rss_mb = 0;
  uint64_t prefix_fingerprint = 0;
  double prefix_wall_s = 0;
};

// Runs `load` through warmup, the timed window (timed per segment) and the drain.
// `sampler` is non-null for a traced run: spans and samples then cover the timed window.
Measured RunMeasured(Deployment& deployment, OpenLoop& load, Tracer& tracer,
                     SimTime prefix, LayerSampler* sampler) {
  const LoadPlan& plan = load.plan();
  Measured m;
  const int64_t run_start = WallNs();
  const auto hook = [&](SimTime chunk_end) {
    if (chunk_end == prefix) {
      m.prefix_fingerprint = Fingerprint(deployment, load);
      m.prefix_wall_s = static_cast<double>(WallNs() - run_start) / 1e9;
    }
    if (sampler != nullptr && chunk_end > plan.window_start() &&
        chunk_end <= plan.window_end()) {
      sampler->Sample(deployment, load);
    }
  };
  load.Run(plan.window_start(), hook);
  if (sampler != nullptr) {
    tracer.Enable();
  }
  m.start = Capture(deployment, load, tracer);
  Counters segment_start = m.start;
  for (int i = 1; i <= plan.segments; ++i) {
    load.Run(plan.window_start() + plan.window * i / plan.segments, hook);
    const Counters segment_end = Capture(deployment, load, tracer);
    const auto ops = static_cast<double>(segment_end.completed - segment_start.completed);
    m.segment_ops_per_s.push_back(
        Ratio(ops, static_cast<double>(segment_end.wall_ns - segment_start.wall_ns) / 1e9));
    m.segment_cpu_us_per_op.push_back(
        Ratio(static_cast<double>(segment_end.cpu_ns - segment_start.cpu_ns) / 1e3, ops));
    segment_start = segment_end;
  }
  m.end = segment_start;
  m.peak_rss_mb = PeakRssMb();
  load.Run(plan.end(), hook);
  return m;
}

std::vector<Check> RunChecks(Deployment& deployment, const OpenLoop& load,
                             uint64_t seed) {
  std::vector<Check> checks;
  const ClientStats stats = deployment.MergedClientStats();
  checks.push_back({"view_contract",
                    load.violations().total() == 0 && stats.stale_views_dropped == 0});
  checks.push_back({"accounting", load.outstanding() == 0 &&
                                      load.arrivals() ==
                                          load.completed() + load.errors()});
  checks.push_back({"no_errors", load.errors() == 0});
  bool agree = true;
  const std::vector<KvReplica*> replicas = deployment.replicas();
  const std::vector<std::string> keys = load.WrittenKeySample(kAgreementSample, seed);
  for (const std::string& key : keys) {
    const auto reference = replicas.front()->LocalGet(key);
    for (KvReplica* replica : replicas) {
      const auto value = replica->LocalGet(key);
      agree = agree && value.has_value() && reference.has_value() && *value == *reference;
    }
  }
  checks.push_back({"replicas_agree", agree && !keys.empty()});
  checks.push_back({"generator_lateness", load.max_lateness() == 0});
  return checks;
}

// --- Capacity ladder --------------------------------------------------------------------
//
// Rungs run at nominal * 1.1^k on fresh worlds (same seed). The ladder climbs from the
// nominal rung (k = 0) to the first failing rung, k <= 12; if the nominal rung already
// fails it walks down to k = -3 instead. The [pass, fail] bracket is then halved twice,
// and capacity_ops is the rate at which the final p99 crosses the limit, interpolated in
// k between the bracket's ends; a bracket whose failing end lost operations (errors or
// backlog) has no crossing to interpolate, so its passing end is the capacity.

constexpr int kTopRung = 12;
constexpr int kBottomRung = -3;
constexpr int kBisections = 2;

struct Rung {
  double k = 0;
  double rate = 0;
  double p99_ms = 0;
  double completion = 0;
  int64_t errors = 0;
  bool pass = false;
};

struct Ladder {
  std::vector<Rung> rungs;
  double capacity = 0;
};

Rung RunRung(const Options& options, double k, SimDuration warmup, SimDuration measure) {
  const WorkloadSpec& spec = *options.spec;
  Rung rung;
  rung.k = k;
  rung.rate = spec.rate * std::pow(1.1, k);
  Deployment deployment(spec, options.seed, /*threads=*/0);
  Tracer off;
  LoadPlan plan;
  plan.rate = rung.rate;
  plan.warmup = warmup;
  plan.window = measure;
  plan.drain = kDrain;
  OpenLoop load(deployment, plan, options.seed, off);
  load.Run(plan.end());
  rung.errors = load.errors();
  rung.completion = Ratio(static_cast<double>(load.window_completed()),
                          static_cast<double>(load.window_arrivals()));
  rung.p99_ms = Ms(load.final_latency().Percentile(99));
  rung.pass = rung.errors == 0 && rung.completion >= 0.99 && rung.p99_ms <= spec.p99_limit_ms;
  return rung;
}

Ladder RunLadder(const Options& options) {
  const WorkloadSpec& spec = *options.spec;
  const SimDuration warmup = options.smoke ? Seconds(5) : kWarmup;
  const SimDuration measure = options.smoke ? Seconds(10) : spec.rung_measure;
  const int top = options.smoke ? 2 : kTopRung;
  Ladder ladder;
  const auto run = [&](double k) {
    ladder.rungs.push_back(RunRung(options, k, warmup, measure));
    return ladder.rungs.back();
  };
  std::optional<Rung> pass;
  std::optional<Rung> fail;
  if (const Rung nominal = run(0); nominal.pass) {
    pass = nominal;
    for (int k = 1; k <= top && !fail; ++k) {
      const Rung rung = run(k);
      (rung.pass ? pass : fail) = rung;
    }
  } else {
    fail = nominal;
    for (int k = -1; k >= kBottomRung && !pass; --k) {
      const Rung rung = run(k);
      (rung.pass ? pass : fail) = rung;
    }
  }
  if (!pass) {
    return ladder;
  }
  ladder.capacity = pass->rate;
  if (!fail) {
    return ladder;
  }
  for (int i = 0; i < (options.smoke ? 0 : kBisections); ++i) {
    const Rung rung = run((pass->k + fail->k) / 2);
    (rung.pass ? pass : fail) = rung;
  }
  ladder.capacity = pass->rate;
  if (fail->errors == 0 && fail->completion >= 0.99 && fail->p99_ms > pass->p99_ms) {
    const double k = pass->k + (fail->k - pass->k) * (spec.p99_limit_ms - pass->p99_ms) /
                                   (fail->p99_ms - pass->p99_ms);
    ladder.capacity = spec.rate * std::pow(1.1, k);
  }
  return ladder;
}

// --- Output -----------------------------------------------------------------------------

std::string Num(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", std::isfinite(value) ? value : 0.0);
  return buf;
}

struct Report {
  std::vector<Metric> metrics;
  std::vector<Check> checks;
  Ladder ladder;
  std::vector<double> segment_ops_per_s;  // untraced timed window, per segment
  int64_t attempted = 0;
  int64_t failed = 0;

  bool correct() const {
    return std::all_of(checks.begin(), checks.end(), [](const Check& c) { return c.ok; });
  }
};

void WriteResultsFile(const Options& options, const Report& report, int threads) {
  std::error_code ec;
  std::filesystem::create_directories(kOutDir, ec);
  const std::string path = std::string(kOutDir) + "/" + options.spec->name +
                           (options.trace ? ".layers.json" : ".json");
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"workload\": \"%s\",\n  \"seed\": %llu,\n  \"window_s\": %s,\n",
               options.spec->name, static_cast<unsigned long long>(options.seed),
               Num(static_cast<double>(MainPlan(options).window) / 1e6).c_str());
  std::fprintf(f, "  \"trace\": %s,\n  \"smoke\": %s,\n  \"nproc\": %d,\n  \"threads\": %d,\n",
               options.trace ? "true" : "false", options.smoke ? "true" : "false", CpuCount(),
               threads);
  std::fprintf(f, "  \"git_sha\": \"%s\",\n  \"metrics\": {", ICG_BENCH_GIT_SHA);
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    std::fprintf(f, "%s\n    \"%s\": {\"value\": %s, \"unit\": \"%s\"}", i ? "," : "",
                 m.name.c_str(), Num(m.value).c_str(), m.unit.c_str());
  }
  std::fprintf(f, "\n  },\n  \"checks\": {");
  for (size_t i = 0; i < report.checks.size(); ++i) {
    std::fprintf(f, "%s\n    \"%s\": %s", i ? "," : "", report.checks[i].name.c_str(),
                 report.checks[i].ok ? "true" : "false");
  }
  std::fprintf(f, "\n  },\n  \"wall_ops_per_s_segments\": [");
  for (size_t i = 0; i < report.segment_ops_per_s.size(); ++i) {
    std::fprintf(f, "%s%s", i ? ", " : "", Num(report.segment_ops_per_s[i]).c_str());
  }
  std::fprintf(f, "],\n  \"ladder\": [");
  for (size_t i = 0; i < report.ladder.rungs.size(); ++i) {
    const Rung& r = report.ladder.rungs[i];
    std::fprintf(f,
                 "%s\n    {\"k\": %s, \"rate\": %s, \"final_p99_ms\": %s, \"completion\": %s, "
                 "\"errors\": %lld, \"pass\": %s}",
                 i ? "," : "", Num(r.k).c_str(), Num(r.rate).c_str(), Num(r.p99_ms).c_str(),
                 Num(r.completion).c_str(), static_cast<long long>(r.errors),
                 r.pass ? "true" : "false");
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
}

void Print(const Options& options, const Report& report) {
  for (const Metric& m : report.metrics) {
    std::printf("%s %s %s %s\n", options.spec->name, m.name.c_str(), Num(m.value).c_str(),
                m.unit.c_str());
  }
  for (const Check& c : report.checks) {
    std::printf("check.%s %s\n", c.name.c_str(), c.ok ? "ok" : "FAIL");
  }
  std::string line = "{\"correct\": " + std::string(report.correct() ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(report.attempted) +
                     ", \"failed\": " + std::to_string(report.failed) + ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : report.metrics) {
    if (m.in_result_line) {
      line += (first ? "\"" : ", \"") + m.name + "\": {\"value\": " + Num(m.value) +
              ", \"unit\": \"" + m.unit + "\"}";
      first = false;
    }
  }
  std::printf("%s}}\n", line.c_str());
  std::fflush(stdout);
}

// --- Phases -----------------------------------------------------------------------------

struct Setup {
  std::unique_ptr<Deployment> deployment;
  std::vector<double> total_s;
  std::vector<double> stack_build_s;
  std::vector<double> preload_s;
};

// Takes kSetupSamples samples, each the mean over spec.setup_builds consecutive builds.
// Only the builds are timed, not the teardowns between them. The last build is kept.
Setup BuildDeployments(const Options& options, int threads) {
  Setup setup;
  const int builds = options.smoke ? 1 : options.spec->setup_builds;
  for (int sample = 0; sample < (options.smoke ? 1 : kSetupSamples); ++sample) {
    int64_t total_ns = 0;
    double stack_build_s = 0;
    double preload_s = 0;
    for (int i = 0; i < builds; ++i) {
      setup.deployment.reset();
      const int64_t start = WallNs();
      setup.deployment = std::make_unique<Deployment>(*options.spec, options.seed, threads);
      total_ns += WallNs() - start;
      stack_build_s += setup.deployment->setup_times().stack_build_s;
      preload_s += setup.deployment->setup_times().preload_s;
    }
    setup.total_s.push_back(static_cast<double>(total_ns) / 1e9 / builds);
    setup.stack_build_s.push_back(stack_build_s / builds);
    setup.preload_s.push_back(preload_s / builds);
  }
  return setup;
}

// The width-0 reference for placed-lanes-w4: the same world driven sequentially up to
// the fingerprint horizon. Returns {fingerprint, wall seconds}.
std::pair<uint64_t, double> ReferencePrefix(const Options& options, const LoadPlan& plan,
                                            SimTime prefix) {
  Deployment deployment(*options.spec, options.seed, /*threads=*/0);
  Tracer off;
  OpenLoop load(deployment, plan, options.seed, off);
  const int64_t start = WallNs();
  load.Run(prefix);
  const double wall_s = static_cast<double>(WallNs() - start) / 1e9;
  return {Fingerprint(deployment, load), wall_s};
}

void AddEndToEnd(Report& report, const OpenLoop& load, const Measured& m,
                 double setup_s) {
  const double ops = static_cast<double>(m.end.completed - m.start.completed);
  const LatencyRecorder& prelim = load.prelim_latency();
  const LatencyRecorder& fin = load.final_latency();
  report.metrics.push_back({"prelim_p50_ms", Ms(prelim.Percentile(50)), "ms"});
  report.metrics.push_back({"prelim_p99_ms", Ms(prelim.Percentile(99)), "ms"});
  report.metrics.push_back({"final_p50_ms", Ms(fin.Percentile(50)), "ms"});
  report.metrics.push_back({"final_p99_ms", Ms(fin.Percentile(99)), "ms"});
  report.metrics.push_back({"final_p999_ms", Ms(fin.Percentile(99.9)), "ms"});
  report.metrics.push_back({"capacity_ops", 0, "ops/s"});  // set once the ladder has run
  report.metrics.push_back(
      {"bytes_per_op", Ratio(static_cast<double>(m.end.net_bytes - m.start.net_bytes), ops),
       "B"});
  report.metrics.push_back(
      {"msgs_per_op",
       Ratio(static_cast<double>(m.end.net_messages - m.start.net_messages), ops), "count"});
  report.metrics.push_back({"wall_ops_per_s", Median(m.segment_ops_per_s), "ops/s"});
  report.metrics.push_back({"cpu_us_per_op", Median(m.segment_cpu_us_per_op), "us"});
  report.metrics.push_back({"setup_s", setup_s, "s"});
  report.metrics.push_back({"peak_rss_mb", m.peak_rss_mb, "MB"});
}

void AddLayers(Report& report, const Measured& m, const LayerSampler& sampler) {
  const Counters& a = m.start;
  const Counters& b = m.end;
  const double ops = static_cast<double>(b.completed - a.completed);
  const double wall_ns = static_cast<double>(b.wall_ns - a.wall_ns);
  const double window_us = static_cast<double>(b.now - a.now);
  const auto layer = [&](Layer l) {
    const size_t i = static_cast<size_t>(l);
    return Tracer::LayerTotals{b.layers[i].spans - a.layers[i].spans,
                               b.layers[i].total_ns - a.layers[i].total_ns,
                               b.layers[i].self_ns - a.layers[i].self_ns};
  };
  const auto d = [](int64_t end, int64_t start) { return static_cast<double>(end - start); };
  const auto add = [&](const char* name, double value, const char* unit) {
    report.metrics.push_back({name, value, unit});
  };

  const auto ycsb = layer(Layer::kYcsb);
  add("ycsb.next_op_ns", Ratio(static_cast<double>(ycsb.total_ns), ycsb.spans), "ns");
  add("harness.bench_self_ns_per_op",
      Ratio(static_cast<double>(layer(Layer::kHarness).self_ns), ops), "ns");

  const auto corr = layer(Layer::kCorrectables);
  add("correctables.submit_ns", Ratio(static_cast<double>(corr.total_ns), corr.spans), "ns");
  const ClientStats& sa = a.stats;
  const ClientStats& sb = b.stats;
  add("correctables.views_per_op", Ratio(d(sb.views_delivered, sa.views_delivered), ops),
      "count");
  add("correctables.confirmation_share",
      Ratio(d(sb.confirmations, sa.confirmations), d(sb.icg_invocations, sa.icg_invocations)),
      "fraction");
  add("correctables.coalesced_read_share",
      Ratio(d(sb.coalesced_reads, sa.coalesced_reads), d(sb.invocations, sa.invocations)),
      "fraction");
  add("correctables.batch_ops_per_flush",
      Ratio(d(sb.batched_writes, sa.batched_writes) + d(sb.coalesced_reads, sa.coalesced_reads) +
                d(sb.batched_invocations, sa.batched_invocations),
            d(sb.cross_tick_batches, sa.cross_tick_batches)),
      "count");
  add("correctables.divergence_pct",
      100.0 * Ratio(d(sb.divergences, sa.divergences), d(sb.icg_invocations, sa.icg_invocations)),
      "%");
  add("correctables.router_outstanding_p99",
      static_cast<double>(sampler.router_outstanding().Percentile(99)), "count");
  add("correctables.timeouts", d(sb.timeouts, sa.timeouts), "count");
  add("correctables.stale_views_dropped", d(sb.stale_views_dropped, sa.stale_views_dropped),
      "count");

  add("apps.call_share", Ratio(static_cast<double>(layer(Layer::kApps).total_ns), wall_ns),
      "fraction");
  add("apps.objects_per_read", Ratio(d(b.ads.objects, a.ads.objects), d(b.ads.reads, a.ads.reads)),
      "count");
  add("apps.misspeculation_pct",
      100.0 * Ratio(d(b.ads.misspeculated, a.ads.misspeculated),
                    d(b.ads.speculated, a.ads.speculated)),
      "%");

  double busy_max = 0;
  double busy_sum = 0;
  for (size_t i = 0; i < b.busy.size(); ++i) {
    const double share = Ratio(d(b.busy[i], a.busy[i]), window_us);
    busy_max = std::max(busy_max, share);
    busy_sum += share;
  }
  add("kvstore.busy_share_max", busy_max, "fraction");
  add("kvstore.busy_share_mean", Ratio(busy_sum, static_cast<double>(b.busy.size())),
      "fraction");
  add("kvstore.service_jobs_per_op", Ratio(d(b.service_jobs, a.service_jobs), ops), "count");
  add("kvstore.queue_wait_mean_ms", sampler.queue_wait().Summarize().mean_us / 1000.0, "ms");
  add("kvstore.queue_wait_p99_ms", Ms(sampler.queue_wait().Percentile(99)), "ms");
  add("kvstore.wal.syncs_per_write",
      Ratio(d(b.wal_syncs, a.wal_syncs), d(b.user_writes, a.user_writes)), "count");
  add("kvstore.wal.records_per_sync",
      Ratio(d(b.wal_records, a.wal_records), d(b.wal_syncs, a.wal_syncs)), "count");
  add("kvstore.wal.bytes_per_user_byte", sampler.wal_bytes_per_user_byte(), "ratio");
  add("kvstore.snapshots", d(b.snapshots, a.snapshots), "count");
  add("kvstore.snapshot_bytes", static_cast<double>(b.snapshot_bytes), "B");

  add("sim.events_per_op", Ratio(d(b.events, a.events), ops), "count");
  add("sim.self_ns_per_event",
      Ratio(static_cast<double>(layer(Layer::kSim).self_ns), d(b.events, a.events)), "ns");
  add("sim.network.client_bytes_per_op", Ratio(d(b.client_bytes, a.client_bytes), ops), "B");
  add("sim.network.peer_bytes_per_op",
      Ratio(d(b.net_bytes, a.net_bytes) - d(b.client_bytes, a.client_bytes), ops), "B");
  add("sim.network.dropped", d(b.dropped, a.dropped), "count");

  const double rounds = d(b.rounds, a.rounds);
  const auto lg = [&](size_t i) { return d(b.loop_group[i], a.loop_group[i]); };
  add("sim.loop_group.barrier_wait_share", Ratio(lg(0), wall_ns), "fraction");
  add("sim.loop_group.rounds_per_sim_s", Ratio(rounds, window_us / 1e6), "1/s");
  add("sim.loop_group.rounds_inline_share", Ratio(lg(1), rounds), "fraction");
  add("sim.loop_group.rounds_idle_share", Ratio(lg(2), rounds), "fraction");
  add("sim.loop_group.rounds_widened_share", Ratio(lg(3), rounds), "fraction");
  add("sim.loop_group.channel_msgs_per_op", Ratio(lg(4), ops), "count");
  add("sim.loop_group.late_deliveries_per_op", Ratio(lg(5), ops), "count");
}

int Run(const Options& options) {
  const WorkloadSpec& spec = *options.spec;
  const bool placed = spec.kind == WorkloadKind::kPlacedLanesW4;
  const int threads = placed ? std::min(4, CpuCount()) : 0;
  const LoadPlan plan = MainPlan(options);
  const SimTime prefix = placed ? std::min(kPrefix, plan.end()) : -1;

  Report report;
  Setup setup = BuildDeployments(options, threads);

  // The untraced run: end-to-end metrics, or the baseline of the tracing overhead.
  Tracer off;
  Measured untraced;
  {
    OpenLoop load(*setup.deployment, plan, options.seed, off);
    untraced = RunMeasured(*setup.deployment, load, off, prefix, nullptr);
    report.checks = RunChecks(*setup.deployment, load, options.seed);
    const int64_t tail_samples = load.final_latency().count() / 1000;  // beyond p99.9
    if (!options.smoke) {
      report.checks.push_back({"p999_tail_samples", tail_samples >= kMinTailSamples});
    }
    report.segment_ops_per_s = untraced.segment_ops_per_s;
    report.attempted = load.window_arrivals();
    report.failed = load.window_failed();
    if (!options.trace) {
      AddEndToEnd(report, load, untraced, Median(setup.total_s));
      report.metrics.push_back(
          {"error_rate",
           Ratio(static_cast<double>(load.window_failed()),
                 static_cast<double>(load.window_arrivals())),
           "fraction", /*in_result_line=*/false});
      report.metrics.push_back({"final_p999_tail_samples", static_cast<double>(tail_samples),
                                "count", /*in_result_line=*/false});
    }
  }
  setup.deployment.reset();

  double width_speedup = 0;
  if (placed) {
    const auto [fingerprint, wall0_s] = ReferencePrefix(options, plan, prefix);
    report.checks.push_back({"width_determinism", fingerprint == untraced.prefix_fingerprint});
    width_speedup = Ratio(wall0_s, untraced.prefix_wall_s);
  }

  if (options.trace) {
    Tracer tracer;
    Deployment deployment(spec, options.seed, threads);
    OpenLoop load(deployment, plan, options.seed, tracer);
    LayerSampler sampler;
    const Measured traced = RunMeasured(deployment, load, tracer, -1, &sampler);
    for (Check check : RunChecks(deployment, load, options.seed)) {
      check.name = "traced." + check.name;
      report.checks.push_back(check);
    }
    report.metrics.push_back({"harness.stack_build_s", Median(setup.stack_build_s), "s"});
    report.metrics.push_back({"harness.preload_s", Median(setup.preload_s), "s"});
    report.metrics.push_back(
        {"harness.trace_overhead",
         1.0 - Ratio(Median(traced.segment_ops_per_s), Median(untraced.segment_ops_per_s)),
         "fraction"});
    AddLayers(report, traced, sampler);
    report.metrics.push_back({"sim.loop_group.width_speedup", width_speedup, "x"});
    const std::string path = std::string(kOutDir) + "/" + spec.name + ".trace.json";
    std::error_code ec;
    std::filesystem::create_directories(kOutDir, ec);
    if (!tracer.WriteChromeJson(path)) {
      std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    }
  } else {
    report.ladder = RunLadder(options);
    for (Metric& metric : report.metrics) {
      if (metric.name == "capacity_ops") {
        metric.value = report.ladder.capacity;
      }
    }
    if (placed) {
      report.metrics.push_back(
          {"width_speedup", width_speedup, "x", /*in_result_line=*/false});
    }
  }

  WriteResultsFile(options, report, threads);
  Print(options, report);
  return report.correct() ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      options->spec = FindWorkload(argv[++i]);
      if (options->spec == nullptr) {
        std::fprintf(stderr, "unknown workload: %s\n", argv[i]);
        return false;
      }
    } else if (arg == "--seed" && has_value) {
      options->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--trace" && has_value) {
      options->trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--smoke") {
      options->smoke = true;
    } else {
      std::fprintf(stderr, "unknown or incomplete argument: %s\n", arg.c_str());
      return false;
    }
  }
  if (options->spec == nullptr) {
    std::fprintf(stderr, "usage: icg_bench --workload W [--seed N] [--trace 0|1] [--smoke]\n");
    return false;
  }
  return true;
}

}  // namespace
}  // namespace icg::benchmark

int main(int argc, char** argv) {
  icg::benchmark::Options options;
  if (!icg::benchmark::ParseArgs(argc, argv, &options)) {
    return 2;
  }
  return icg::benchmark::Run(options);
}
