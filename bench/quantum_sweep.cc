// Quantum-policy sweep: how many barriers does the parallel substrate pay for a pulsed
// workload, per cross-loop message actually delivered?
//
// The workload is OPEN-loop and bursty by construction — the regime fixed quanta handle
// worst. Four loops; every 250ms each loop fans out a burst of cross-loop messages
// (depth-2 hop chains), then the whole group goes quiescent until the next pulse. A
// fixed quantum must pick its poison: a small quantum delivers bursts promptly but
// marches barrier-by-barrier through the idle gap; a large quantum skips the gap
// cheaply but taxes every hop with up-to-a-quantum delivery delay. The adaptive policy
// (round width follows the earliest pending activity, clamped to [base, cap]) gets
// both: base-width rounds through each burst, cap-width strides across the gap.
//
// Every policy runs the identical virtual workload at thread widths 0, 2, and 4 and
// must produce bit-identical traces, round counts, and barrier-schedule hashes (the
// adaptive schedule is a function of virtual time only — never of thread timing).
//
// Gate (deterministic, any core count): adaptive must beat EVERY fixed quantum on
// messages-per-barrier. Wall clock and p99 delivery lateness are reported per policy;
// the sweep shows fixed quanta trading one against the other while adaptive takes both.
//
// Flags: --smoke shortens the trial. Writes BENCH_quantum_sweep.json.
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/histogram.h"
#include "src/sim/event_loop.h"
#include "src/sim/loop_group.h"

namespace icg {
namespace {

constexpr int kLoops = 4;
constexpr int kFanout = 8;    // messages each loop launches per pulse
constexpr int kDepth = 2;     // hops per message chain
constexpr SimDuration kPulsePeriod = Millis(250);
constexpr SimDuration kHopDelay = 100;  // requested delivery delay per hop (us)

struct Policy {
  std::string name;
  SimDuration quantum;
  bool adaptive;
};

struct PolicyOutcome {
  double wall_seconds = 0;
  int64_t rounds = 0;
  int64_t channel_messages = 0;
  int64_t rounds_widened = 0;
  uint64_t trace_hash = 0;      // order-and-time fingerprint of every delivery
  uint64_t schedule_hash = 0;   // exact barrier sequence
  double msgs_per_barrier = 0;
  LatencySummary lateness;      // delivery time minus requested time, per hop
};

// The pulsed mesh: each delivery folds (loop, virtual now) into a running FNV-1a hash
// — equal hashes mean every hop landed on the same loop at the same virtual time in
// the same order.
struct PulsedMesh {
  explicit PulsedMesh(LoopGroup::Options options) : group(options) {
    for (int i = 0; i < kLoops; ++i) {
      loops.push_back(std::make_unique<EventLoop>());
      group.Attach(loops.back().get());
    }
  }

  void Fold(uint64_t value) {
    hash ^= value;
    hash *= 1099511628211ULL;
  }

  void Hop(int at, int remaining) {
    const SimTime now = loops[static_cast<size_t>(at)]->Now();
    Fold(static_cast<uint64_t>(at) * 1469598103934665603ULL + 17);
    Fold(static_cast<uint64_t>(now));
    if (remaining == 0) return;
    const int next = (at + 1) % kLoops;
    const SimTime when = now + kHopDelay;
    group.Post(next, when, [this, next, remaining, when]() {
      lateness.Record(loops[static_cast<size_t>(next)]->Now() - when);
      Hop(next, remaining - 1);
    });
  }

  // Schedules every pulse up front: an open-loop plan fixed before the clock starts.
  void PlanPulses(int periods) {
    for (int p = 0; p < periods; ++p) {
      const SimTime at = static_cast<SimTime>(p) * kPulsePeriod;
      for (int i = 0; i < kLoops; ++i) {
        loops[static_cast<size_t>(i)]->ScheduleAt(at, [this, i]() {
          for (int m = 0; m < kFanout; ++m) {
            Hop(i, kDepth);
          }
        });
      }
    }
  }

  LoopGroup group;
  std::vector<std::unique_ptr<EventLoop>> loops;
  LatencyRecorder lateness;
  uint64_t hash = 1469598103934665603ULL;
};

PolicyOutcome RunPolicy(const Policy& policy, int threads, int periods) {
  LoopGroup::Options options;
  options.threads = threads;
  options.quantum = policy.quantum;
  options.adaptive_quantum = policy.adaptive;
  options.max_quantum = policy.adaptive ? Millis(50) : SimDuration{0};
  PulsedMesh mesh(options);
  mesh.PlanPulses(periods);

  const SimTime horizon = static_cast<SimTime>(periods) * kPulsePeriod;
  const auto start = std::chrono::steady_clock::now();
  mesh.group.RunUntil(horizon);
  const auto stop = std::chrono::steady_clock::now();

  PolicyOutcome out;
  out.wall_seconds = std::chrono::duration<double>(stop - start).count();
  out.rounds = mesh.group.rounds();
  out.channel_messages = mesh.group.metrics().Value("channel_messages");
  out.rounds_widened = mesh.group.metrics().Value("rounds_widened");
  out.trace_hash = mesh.hash;
  out.schedule_hash = mesh.group.barrier_schedule_hash();
  out.msgs_per_barrier =
      out.rounds > 0
          ? static_cast<double>(out.channel_messages) / static_cast<double>(out.rounds)
          : 0.0;
  out.lateness = mesh.lateness.Summarize();
  return out;
}

}  // namespace
}  // namespace icg

int main(int argc, char** argv) {
  using namespace icg;
  const bool smoke = bench::ParseSmokeFlag(argc, argv);
  const int periods = smoke ? 4 : 16;
  const int64_t expected_messages =
      static_cast<int64_t>(periods) * kLoops * kFanout * kDepth;

  bench::PrintHeader(
      "Quantum-policy sweep: barriers paid per cross-loop message, pulsed load",
      "4 loops, a depth-2 fan-out burst on every loop each 250ms, quiescent between.\n"
      "Fixed quanta trade delivery lateness against barrier count; the adaptive policy\n"
      "follows pending activity (base 0.5ms, cap 50ms) and must beat every fixed\n"
      "quantum on messages-per-barrier. All policies width-swept for determinism.");

  const std::vector<Policy> policies = {
      {"fixed 0.5ms", Micros(500), false}, {"fixed 1ms", Millis(1), false},
      {"fixed 2ms", Millis(2), false},     {"fixed 4ms", Millis(4), false},
      {"fixed 8ms", Millis(8), false},     {"adaptive", Micros(500), true},
  };

  bench::Table table({"policy", "rounds", "msgs", "msgs/barrier", "lateness p50 (ms)",
                      "lateness p99 (ms)", "widened", "wall (ms)"});
  bench::JsonSummary json("quantum_sweep");
  json.Add("loops", static_cast<int64_t>(kLoops));
  json.Add("periods", static_cast<int64_t>(periods));
  json.Add("pulse_period_ms", static_cast<double>(kPulsePeriod) / 1000.0, 1);
  json.Add("expected_messages", expected_messages);

  bool deterministic = true;
  bool complete = true;
  double adaptive_mpb = 0;
  double best_fixed_mpb = 0;
  std::string best_fixed;
  for (const Policy& policy : policies) {
    const PolicyOutcome seq = RunPolicy(policy, 0, periods);
    // Width sweep: the same virtual workload on real threads must replay the identical
    // delivery trace AND the identical barrier schedule.
    for (const int width : {2, 4}) {
      const PolicyOutcome w = RunPolicy(policy, width, periods);
      if (w.trace_hash != seq.trace_hash || w.rounds != seq.rounds ||
          w.schedule_hash != seq.schedule_hash) {
        std::printf("DIVERGED: %s at width %d\n", policy.name.c_str(), width);
        deterministic = false;
      }
    }
    if (seq.channel_messages != expected_messages) {
      complete = false;
    }
    table.AddRow({policy.name, std::to_string(seq.rounds),
                  std::to_string(seq.channel_messages),
                  bench::Fmt(seq.msgs_per_barrier, 3),
                  bench::Fmt(seq.lateness.p50_ms()), bench::Fmt(seq.lateness.p99_ms()),
                  std::to_string(seq.rounds_widened),
                  bench::Fmt(seq.wall_seconds * 1e3, 1)});

    std::string key = policy.adaptive ? "adaptive" : policy.name;
    for (char& c : key) {
      if (c == ' ' || c == '.') c = '_';
    }
    json.Add(key + ".rounds", seq.rounds);
    json.Add(key + ".msgs_per_barrier", seq.msgs_per_barrier, 3);
    json.Add(key + ".lateness_p99_ms", seq.lateness.p99_ms());
    json.Add(key + ".wall_ms", seq.wall_seconds * 1e3, 2);
    if (policy.adaptive) {
      adaptive_mpb = seq.msgs_per_barrier;
      json.Add("adaptive.rounds_widened", seq.rounds_widened);
    } else if (seq.msgs_per_barrier > best_fixed_mpb) {
      best_fixed_mpb = seq.msgs_per_barrier;
      best_fixed = policy.name;
    }
  }
  table.Print();

  json.Add("best_fixed.msgs_per_barrier", best_fixed_mpb, 3);
  json.AddString("best_fixed.policy", best_fixed);
  json.Add("deterministic", deterministic ? int64_t{1} : int64_t{0});
  json.Add("adaptive_beats_every_fixed",
           adaptive_mpb > best_fixed_mpb ? int64_t{1} : int64_t{0});
  json.Write();

  std::printf("adaptive %.3f msgs/barrier vs best fixed (%s) %.3f\n", adaptive_mpb,
              best_fixed.c_str(), best_fixed_mpb);
  if (!deterministic) {
    std::printf("FAIL: a policy diverged across thread widths\n");
    return 1;
  }
  if (!complete) {
    std::printf("FAIL: a policy did not deliver the full message plan\n");
    return 1;
  }
  // The headline gate, purely virtual so it holds on any machine: adaptive must beat
  // every fixed quantum on messages-per-barrier for this pulsed load.
  if (adaptive_mpb <= best_fixed_mpb) {
    std::printf("FAIL: adaptive %.3f msgs/barrier does not beat best fixed %.3f (%s)\n",
                adaptive_mpb, best_fixed_mpb, best_fixed.c_str());
    return 1;
  }
  std::printf("PASS\n");
  return 0;
}
