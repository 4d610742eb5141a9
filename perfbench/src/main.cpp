// main.cpp — entry point of the repository benchmark.
//
// Usage: perfbench --workload fleet|forensics|serve --seed N --seconds S
//                  --trace 0|1 [--smoke] [--repo-root DIR]
//
// Prints a report line (host record, exact counts, per-class ground truth,
// gate failures) and then one result line with the metric values. run.py
// wraps this binary into the benchmark's command-line contract.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.hpp"
#include "common/rng.hpp"
#include "common/simd/simd.hpp"
#include "layout/floorplan.hpp"

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto at = static_cast<std::size_t>(std::lround(pos));
  return v[std::min(at, v.size() - 1)];
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string json_list(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%s%.6g", i ? "," : "", v[i]);
    out += buf;
  }
  return out + "]";
}

std::vector<std::size_t> fastest_of_groups(
    const std::vector<double>& ms, const std::vector<std::size_t>& group) {
  std::map<std::size_t, std::size_t> best;  // group -> index
  for (std::size_t i = 0; i < ms.size(); ++i) {
    const auto [it, fresh] = best.emplace(group[i], i);
    if (!fresh && ms[i] < ms[it->second]) it->second = i;
  }
  std::vector<std::size_t> out;
  for (const auto& [g, i] : best) out.push_back(i);
  return out;
}

void Tracer::record(const char* name, Clock::time_point t0,
                    Clock::time_point t1) {
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, t0, t1, std::this_thread::get_id()});
}

std::vector<double> Tracer::durations_ms(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back(ms_between(s.t0, s.t1));
  }
  return out;
}

double Tracer::total_ms(std::string_view name) const {
  double sum = 0.0;
  for (const double d : durations_ms(name)) sum += d;
  return sum;
}

std::size_t Tracer::count(std::string_view name) const {
  return durations_ms(name).size();
}

double Tracer::covered_ms(Clock::time_point t0, Clock::time_point t1) const {
  std::vector<std::pair<Clock::time_point, Clock::time_point>> iv;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    const std::thread::id me = std::this_thread::get_id();
    for (const Span& s : spans_) {
      const Clock::time_point a = std::max(s.t0, t0);
      const Clock::time_point b = std::min(s.t1, t1);
      if (s.tid == me && b > a) iv.emplace_back(a, b);
    }
  }
  std::sort(iv.begin(), iv.end());
  double sum = 0.0;
  Clock::time_point reach = t0;
  for (const auto& [a, b] : iv) {
    if (b <= reach) continue;
    sum += ms_between(std::max(a, reach), b);
    reach = b;
  }
  return sum;
}

TruthClass class_of(const std::optional<psa::trojan::TrojanKind>& kind) {
  for (std::size_t c = 0; c < kClassKinds.size(); ++c) {
    if (kClassKinds[c] == kind) return c;
  }
  return 0;
}

psa::sim::Scenario scenario_for(TruthClass c, std::uint64_t seed) {
  return kClassKinds[c] ? psa::sim::Scenario::with_trojan(*kClassKinds[c], seed)
                        : psa::sim::Scenario::baseline(seed);
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t st = seed * 0x9E3779B97F4A7C15ULL + stream;
  return psa::splitmix64(st) >> 16;  // keep seeds printable and positive
}

std::size_t truth_sensor(psa::trojan::TrojanKind kind) {
  static const psa::layout::Floorplan plan =
      psa::layout::Floorplan::aes_testchip();
  const psa::Point c = plan.module_centroid(psa::trojan::module_name(kind));
  std::size_t best = 0;
  double best_d2 = -1.0;
  for (std::size_t k = 0; k < psa::layout::kNumStandardSensors; ++k) {
    const psa::Rect region = psa::layout::standard_sensor_region(k);
    if (!region.contains(c)) continue;
    const psa::Point m = region.center();
    const double d2 = (m.x - c.x) * (m.x - c.x) + (m.y - c.y) * (m.y - c.y);
    if (best_d2 < 0.0 || d2 < best_d2) {
      best = k;
      best_d2 = d2;
    }
  }
  return best;
}

double ClassTally::accuracy() const {
  std::size_t r = 0, t = 0;
  for (std::size_t c = 0; c < total.size(); ++c) {
    r += right[c];
    t += total[c];
  }
  return t == 0 ? 0.0 : static_cast<double>(r) / static_cast<double>(t);
}

std::string ClassTally::json() const {
  std::string out = "{";
  for (std::size_t c = 0; c < total.size(); ++c) {
    if (c) out += ',';
    out += std::string("\"") + kClassNames[c] + "\":[" +
           std::to_string(right[c]) + "," + std::to_string(total[c]) + "]";
  }
  return out + "}";
}

void Result::count(const std::string& name, std::uint64_t value,
                   bool as_metric) {
  counts_[name] = value;
  if (as_metric) metric(name, static_cast<double>(value));
}

void Result::fail(const std::string& why) {
  std::fprintf(stderr, "GATE FAILED: %s\n", why.c_str());
  gate_failures_.push_back(why);
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += (ch == '\n') ? ' ' : ch;
  }
  return out;
}

std::string fmt_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int Result::print(const Options& opt, std::size_t pool_threads) const {
  std::vector<std::string> failures = gate_failures_;
  for (const auto& [name, value] : metrics_) {
    if (!std::isfinite(value)) failures.push_back("metric " + name + " not finite");
  }
  const bool ok = failures.empty();

  std::string report = "{\"report\":{\"workload\":\"" + opt.workload +
                       "\",\"seed\":" + std::to_string(opt.seed) +
                       ",\"trace\":" + (opt.trace ? "1" : "0") +
                       ",\"smoke\":" + (opt.smoke ? "true" : "false");
  report += ",\"host\":{\"nproc\":" +
            std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
            ",\"simd_isa\":\"" +
            psa::simd::isa_name(psa::simd::active_isa()) +
            "\",\"pool_threads\":" + std::to_string(pool_threads) +
            ",\"compiler\":\"" + json_escape(__VERSION__) +
            "\",\"build_type\":\"" PERFBENCH_BUILD_TYPE "\"}";
  report += ",\"counts\":{";
  bool first = true;
  for (const auto& [name, value] : counts_) {
    if (!first) report += ',';
    first = false;
    report += "\"" + name + "\":" + std::to_string(value);
  }
  report += "}";
  for (const auto& [key, value] : notes_) {
    report += ",\"" + key + "\":" + value;
  }
  report += ",\"gate_failures\":[";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    if (i) report += ',';
    report += "\"" + json_escape(failures[i]) + "\"";
  }
  report += "]}}";
  std::printf("%s\n", report.c_str());

  std::string line = std::string("{\"correct\":") + (ok ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(attempted) +
                     ",\"failed\":" + std::to_string(failed) +
                     ",\"metrics\":{";
  first = true;
  for (const auto& [name, value] : metrics_) {
    if (!first) line += ',';
    first = false;
    line += "\"" + name + "\":" + fmt_double(value);
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return ok && attempted > 0 ? 0 : 1;
}

}  // namespace perfbench

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload fleet|forensics|serve --seed N "
               "--seconds S --trace 0|1 [--smoke] [--repo-root DIR]\n");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      opt.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--repo-root" && has_value) {
      opt.repo_root = argv[++i];
    } else if (arg == "--smoke") {
      opt.smoke = true;
    } else {
      usage();
      return 2;
    }
  }
  if (!(opt.seconds > 0.0) || opt.seconds > 120.0) {
    std::fprintf(stderr, "--seconds must be in (0, 120]\n");
    return 2;
  }
  try {
    if (opt.workload == "fleet") return perfbench::run_fleet(opt);
    if (opt.workload == "forensics") return perfbench::run_forensics(opt);
    if (opt.workload == "serve") return perfbench::run_serve(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  usage();
  return 2;
}
