// bench.hpp — shared scaffolding of the repository benchmark: options,
// statistics, the span recorder used by traced runs, ground truth from the
// floorplan, and the result/report printer.
//
// The benchmark measures through the library's public API only. Traced runs
// time the benchmark's own calls into each layer (em, sim, afe, analysis,
// fleet, net); nothing inside src/ is instrumented for it.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "sim/chip_simulator.hpp"
#include "trojan/trojan.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double ms_since(Clock::time_point t0) {
  return ms_between(t0, Clock::now());
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Test-sized run: same code paths and gates, smaller inputs.
  bool smoke = false;
  /// Root of the source checkout (tests/golden lives under it).
  std::string repo_root = ".";
};

/// good / (good + bad); 0 when both are 0.
inline double share_of(std::uint64_t good, std::uint64_t bad) {
  return good + bad == 0 ? 0.0
                         : static_cast<double>(good) /
                               static_cast<double>(good + bad);
}

/// Nearest-rank quantile; 0 for an empty sample.
double quantile(std::vector<double> v, double q);

/// Process CPU time (user + system) in seconds, from getrusage.
double process_cpu_s();

/// Peak resident set size of the process in MiB, from getrusage.
double peak_rss_mib();

/// JSON array of `v` (the report lists every repetition of a one-shot
/// timing next to the fastest, which is the metric).
std::string json_list(const std::vector<double>& v);

/// Index of the fastest member of each group of equivalent operations.
/// Operations with the same `group` do the same work (the same input run
/// again, or a fleet tick); a group's members are spread over the run, so
/// its fastest one rarely falls inside a stretch of contention from other
/// tenants of the machine. Groups are returned in ascending group order.
std::vector<std::size_t> fastest_of_groups(
    const std::vector<double>& ms, const std::vector<std::size_t>& group);

/// Spans around the benchmark's calls into one layer. Inert (a plain call)
/// unless tracing is on. Thread-safe: spans may be recorded from pool
/// workers.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}

  template <class F>
  decltype(auto) span(const char* name, F&& f) {
    if (!on_) return f();
    const Guard guard{this, name, Clock::now()};
    return f();
  }

  std::vector<double> durations_ms(std::string_view name) const;
  double total_ms(std::string_view name) const;
  std::size_t count(std::string_view name) const;
  double p50_ms(std::string_view name) const {
    return quantile(durations_ms(name), 0.5);
  }

  /// Time within [t0, t1] covered by the union of the spans the calling
  /// thread recorded.
  double covered_ms(Clock::time_point t0, Clock::time_point t1) const;

 private:
  struct Span {
    const char* name;
    Clock::time_point t0, t1;
    std::thread::id tid;
  };
  struct Guard {
    Tracer* tracer;
    const char* name;
    Clock::time_point t0;
    ~Guard() { tracer->record(name, t0, Clock::now()); }
  };
  void record(const char* name, Clock::time_point t0, Clock::time_point t1);

  bool on_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Ground-truth class of a scenario: 0 = clean, 1..4 = T1..T4.
using TruthClass = std::size_t;
inline constexpr std::array<const char*, 5> kClassNames = {"clean", "t1", "t2",
                                                           "t3", "t4"};
inline constexpr std::array<std::optional<psa::trojan::TrojanKind>, 5>
    kClassKinds = {std::nullopt, psa::trojan::TrojanKind::kT1AmCarrier,
                   psa::trojan::TrojanKind::kT2KeyLeak,
                   psa::trojan::TrojanKind::kT3CdmaLeak,
                   psa::trojan::TrojanKind::kT4DoS};

TruthClass class_of(const std::optional<psa::trojan::TrojanKind>& kind);

/// Scenario of class `c` (clean baseline or that Trojan active) at `seed`.
psa::sim::Scenario scenario_for(TruthClass c, std::uint64_t seed);

/// Seed number `stream` of the inputs a run derives from its --seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

/// Standard sensor a Trojan sits under on the aes_testchip floorplan: the
/// sensor whose region contains the module centroid with its own centre
/// nearest to it (standard sensor regions overlap by a third).
std::size_t truth_sensor(psa::trojan::TrojanKind kind);

/// Verdicts right/total per ground-truth class.
struct ClassTally {
  std::array<std::size_t, 5> right{};
  std::array<std::size_t, 5> total{};
  void add(TruthClass c, bool correct) {
    total[c] += 1;
    right[c] += correct ? 1 : 0;
  }
  double accuracy() const;
  std::string json() const;
};

/// Everything one run prints. `metrics` becomes the contract's result line
/// (run.py attaches units); `report` is printed on the line before it.
class Result {
 public:
  void metric(const std::string& name, double value) { metrics_[name] = value; }
  /// An exact count: printed in the report, and a per-layer metric too
  /// when `as_metric` is set.
  void count(const std::string& name, std::uint64_t value,
             bool as_metric = false);
  void note(const std::string& key, const std::string& json_value) {
    notes_[key] = json_value;
  }
  /// A failed correctness gate: the run is incorrect and exits non-zero.
  void fail(const std::string& why);

  std::size_t attempted = 0;
  std::size_t failed = 0;

  /// Prints the report line and the result line; returns the exit code.
  int print(const Options& opt, std::size_t pool_threads) const;

 private:
  std::map<std::string, double> metrics_;
  std::map<std::string, std::uint64_t> counts_;
  std::map<std::string, std::string> notes_;
  std::vector<std::string> gate_failures_;
};

int run_fleet(const Options& opt);
int run_forensics(const Options& opt);
int run_serve(const Options& opt);

}  // namespace perfbench
