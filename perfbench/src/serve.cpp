// serve.cpp — detection as a service over loopback HTTP.
//
// An in-process HttpServer + ScanService with a calibrated DetectorBank
// (scales 2), on the golden configuration (placement seed 42, 256 cycles
// per trace, 3 enrollment traces, 2 averages) so served bits can be checked
// against tests/golden. The pool has 2 threads; ServingConfig keeps its
// default workers. One generator uses 2 connections in an open loop at a
// fixed offered rate, cycling four kinds of request:
//
//   * a golden t1..t4 /scan sent on both connections at the same due time,
//     so the pair can coalesce and the repeated scenario hits the activity
//     cache;
//   * a fresh-seed /scan (clean/t1..t4 rotating);
//   * a fresh-seed /scan?detectors=all (the detector bank);
//   * a /trace with a pre-generated sensor-10 trace (no synthesis, no
//     coalescing), so a sim-side change should move /scan and not /trace.
//
// Every request is timed from its due time, so a stall also charges the
// requests queued behind it.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <set>
#include <thread>

#include "analysis/detector_bank.hpp"
#include "bench.hpp"
#include "common/parallel.hpp"
#include "em/fluxmap_cache.hpp"
#include "layers.hpp"
#include "layout/floorplan.hpp"
#include "net/serving.hpp"
#include "psa/programmer.hpp"

namespace perfbench {

namespace psim = psa::sim;
namespace pan = psa::analysis;

namespace {

constexpr std::size_t kPoolThreads = 2;
/// Schedule slots per second; each slot of four carries 5 requests (the
/// golden pair counts twice), so the offered load is 1.25 x this: 40 req/s,
/// about a sixth of the mix's capacity over two connections on an idle
/// 4-core host (at 200 req/s p50 rose from 7 ms to 93 ms). Other tenants
/// of a shared host can slow it 1.5-2x for minutes; at 80 req/s that
/// already tripled p50, so the rate keeps such a host far from saturation
/// and latency close to service time.
constexpr double kSlotsPerSecond = 32.0;
/// A 2xx response later than this (from its due time) is not goodput.
constexpr double kLatencyLimitMs = 100.0;
/// Distinct pre-generated /trace inputs, cycled.
constexpr std::size_t kTraceBodies = 32;
constexpr std::uint64_t kGoldenSeed = 42;

enum Kind { kGoldenPair = 0, kFresh = 1, kBank = 2, kTrace = 3 };
constexpr const char* kKindNames[4] = {"golden_pair", "fresh_scan",
                                       "bank_scan", "trace"};

pan::PipelineConfig golden_config() {
  pan::PipelineConfig cfg;
  cfg.cycles_per_trace = 256;
  cfg.enrollment_traces = 3;
  cfg.detection_averages = 2;
  return cfg;
}

std::string trojan_field(TruthClass c) {
  return c == 0 ? "none" : kClassNames[c];
}

/// One request of the schedule.
struct Request {
  Kind kind;
  double due_s;        // offset from the schedule start
  std::size_t conn;    // 0 or 1
  std::size_t input;   // distinct input id (golden: class; trace: body)
  TruthClass truth;
  std::uint64_t seed;  // scenario seed (/scan kinds)
  std::string target;
  const std::string* body;
};

struct Response {
  int status = 0;
  std::string body;
  double latency_ms = 0.0;  // from due time
  double service_ms = 0.0;  // from send time
  double late_ms = 0.0;     // send time minus due time
};

/// Blocking POST over a fresh loopback connection ("" on failure).
std::string http_post(std::uint16_t port, const std::string& target,
                      const std::string& body) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  timeval tv{};
  tv.tv_sec = 10;  // a stuck response is a timeout failure, not a hang
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return "";
  }
  const std::string wire = "POST " + target +
                           " HTTP/1.1\r\nHost: localhost\r\nContent-Type: "
                           "application/json\r\nContent-Length: " +
                           std::to_string(body.size()) + "\r\n\r\n" + body;
  std::size_t sent = 0;
  while (sent < wire.size()) {
    const ssize_t n = ::send(fd, wire.data() + sent, wire.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  std::string resp;
  char buf[8192];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof buf, 0)) > 0) {
    resp.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return resp;
}

int status_of(const std::string& resp) {
  if (resp.size() < 12 || resp.compare(0, 9, "HTTP/1.1 ") != 0) return 0;
  return std::atoi(resp.c_str() + 9);
}

/// The top-level `"detected":` of a verdict body (the first occurrence).
std::optional<bool> detected_of(const std::string& body) {
  const std::size_t at = body.find("\"detected\":");
  if (at == std::string::npos) return std::nullopt;
  return body.compare(at + 11, 4, "true") == 0;
}

/// The bit patterns listed in "scores_hex" of a /scan body.
std::vector<std::string> scores_hex_of(const std::string& body) {
  std::vector<std::string> out;
  const std::size_t open = body.find("\"scores_hex\":[");
  if (open == std::string::npos) return out;
  const std::size_t end = body.find(']', open);
  std::size_t at = body.find('"', open + 14);
  while (at < end) {
    const std::size_t close = body.find('"', at + 1);
    out.push_back(body.substr(at + 1, close - at - 1));
    at = body.find('"', close + 1);
  }
  return out;
}

std::string hex_bits(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(v)));
  return buf;
}

/// The committed golden scan scores of `name` ("t1".."t4"), read from
/// tests/golden/<name>.golden (empty when unreadable).
std::vector<std::string> golden_scores(const std::string& root,
                                       const std::string& name) {
  std::ifstream in(root + "/tests/golden/" + name + ".golden");
  std::vector<std::string> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line != "scores 16") continue;
    for (int i = 0; i < 16 && std::getline(in, line); ++i) out.push_back(line);
    break;
  }
  return out;
}

std::string trace_body(const std::vector<double>& samples, double rate_hz) {
  std::string body = "{\"sensor\":";
  body += std::to_string(10) + ",\"sample_rate_hz\":";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", rate_hz);
  body += buf;
  body += ",\"samples\":[";
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (i) body += ',';
    std::snprintf(buf, sizeof buf, "%.17g", samples[i]);
    body += buf;
  }
  return body + "]}";
}

/// Everything a served run needs, built once per set-up repetition.
struct Stack {
  Stack() = default;
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;
  ~Stack() { stop(); }

  std::unique_ptr<psim::ChipSimulator> chip;
  std::unique_ptr<pan::Pipeline> pipeline;
  std::unique_ptr<pan::DetectorBank> bank;
  std::unique_ptr<psa::net::ScanService> service;
  std::unique_ptr<psa::net::HttpServer> server;

  void stop() {
    if (service) service->stop();  // before the server (see serving.hpp)
    if (server) server->stop();
    server.reset();
    service.reset();
    bank.reset();
    pipeline.reset();
    chip.reset();
  }
};

}  // namespace

int run_serve(const Options& opt) {
  psa::set_thread_count(kPoolThreads);
  Result r;
  Tracer tracer(opt.trace);
  const pan::PipelineConfig cfg = golden_config();
  const psim::Scenario normal = psim::Scenario::baseline(kGoldenSeed);

  // Set-up: chip + Pipeline views + bank construction + server bind, cold,
  // fastest of several: two before the load and one after it.
  const auto build = [&](Stack& out) {
    out.stop();
    psa::em::FluxMapCache::global().clear();
    const Clock::time_point t0 = Clock::now();
    out.chip = std::make_unique<psim::ChipSimulator>(
        psim::SimTiming{}, psa::layout::Floorplan::aes_testchip(), kGoldenSeed);
    if (opt.trace) {
      for (std::size_t k = 0; k < 16; ++k) {
        tracer.span(kSpanViewBuild, [&] {
          return out.chip->view_from_program(
              psa::sensor::CoilProgrammer::standard_sensor(k), "probe");
        });
      }
    }
    out.pipeline = std::make_unique<pan::Pipeline>(*out.chip, cfg);
    out.bank = std::make_unique<pan::DetectorBank>(
        *out.pipeline, pan::BankConfig{.scales = 2, .detectors = {}});
    out.service = std::make_unique<psa::net::ScanService>(*out.pipeline);
    out.service->attach_detector_bank(out.bank.get());
    out.server = std::make_unique<psa::net::HttpServer>();
    out.service->install(*out.server);
    psa::net::HttpServer::Options options;
    options.connection_threads = 4;
    if (!out.server->start(options)) {
      throw std::runtime_error("cannot bind a loopback port");
    }
    return ms_since(t0) / 1000.0;
  };
  const bool repeat = !opt.trace && !opt.smoke;
  Stack stack;
  std::vector<double> setup_s{build(stack)};
  if (repeat) setup_s.push_back(build(stack));
  pan::Pipeline& pipeline = *stack.pipeline;
  const std::uint16_t port = stack.server->port();

  // Enrollment: Pipeline::enroll + DetectorBank::calibrate, fastest of
  // several, five before the load and five after it (re-enrolling on the
  // same scenario rebuilds identical detectors). The golden baseline makes
  // served scores match tests/golden.
  std::vector<double> enroll_s;
  const auto enroll = [&] {
    const Clock::time_point t0 = Clock::now();
    pipeline.enroll(normal);
    tracer.span("analysis.bank_calibrate",
                [&] { stack.bank->calibrate(normal); });
    enroll_s.push_back(ms_since(t0) / 1000.0);
  };
  for (std::size_t rep = 0; rep < (opt.smoke ? 1 : 5); ++rep) enroll();
  LayerCalls calls(pipeline, tracer);
  double enroll_cover = 1.0;
  if (opt.trace) {
    const Clock::time_point t0 = Clock::now();
    calls.enroll(normal);
    const Clock::time_point t1 = Clock::now();
    enroll_cover = tracer.covered_ms(t0, t1) / ms_between(t0, t1);
    if (const std::string d = calls.check_enrollment(); !d.empty()) r.fail(d);
  }

  std::array<std::vector<std::string>, 5> golden;
  for (TruthClass c = 1; c < 5; ++c) {
    golden[c] = golden_scores(opt.repo_root, kClassNames[c]);
    if (golden[c].size() != 16) {
      r.fail(std::string("cannot read tests/golden/") + kClassNames[c] +
             ".golden under " + opt.repo_root);
      return r.print(opt, kPoolThreads);
    }
  }

  // Inputs, all generated from --seed before the clock starts.
  std::vector<std::string> trace_bodies(kTraceBodies);
  std::vector<TruthClass> trace_truth(kTraceBodies);
  for (std::size_t b = 0; b < kTraceBodies; ++b) {
    trace_truth[b] = b % 5;
    const psim::MeasuredTrace tr = stack.chip->measure(
        pipeline.sensor_view(10),
        scenario_for(trace_truth[b], derive_seed(opt.seed, 1000 + b)),
        cfg.cycles_per_trace);
    trace_bodies[b] = trace_body(tr.samples, tr.sample_rate_hz);
  }
  const double duration_s = opt.smoke ? 1.0 : opt.seconds;
  const std::size_t n_slots =
      static_cast<std::size_t>(duration_s * kSlotsPerSecond);
  std::vector<std::string> scan_bodies;
  scan_bodies.reserve(n_slots);
  std::vector<Request> reqs;
  for (std::size_t j = 0; j < n_slots; ++j) {
    const double due = static_cast<double>(j) / kSlotsPerSecond;
    const Kind kind = static_cast<Kind>(j % 4);
    const std::size_t round = j / 4;
    Request q{kind, due, round % 2, 0, 0, 0, "/scan", nullptr};
    if (kind == kGoldenPair) {
      q.truth = 1 + round % 4;
      q.input = q.truth;
      q.seed = kGoldenSeed;
    } else if (kind == kTrace) {
      q.input = round % kTraceBodies;
      q.truth = trace_truth[q.input];
      q.target = "/trace";
      q.body = &trace_bodies[q.input];
      q.conn = 1 - q.conn;
    } else {
      q.truth = (round + (kind == kBank ? 2 : 0)) % 5;
      q.seed = derive_seed(opt.seed, j);
      q.input = j;
      if (kind == kBank) {
        q.target = "/scan?detectors=all";
      } else {
        q.conn = 1 - q.conn;  // balances the two connections' work
      }
    }
    if (kind != kTrace) {
      scan_bodies.push_back("{\"trojan\":\"" + trojan_field(q.truth) +
                            "\",\"seed\":" + std::to_string(q.seed) + "}");
      q.body = &scan_bodies.back();
    }
    reqs.push_back(q);
    if (kind == kGoldenPair) {
      q.conn = 1 - q.conn;
      reqs.push_back(q);
    }
  }

  // Open-loop generator: one thread per connection, each sending its
  // requests at their due times (or at once when running late).
  std::vector<Response> resp(reqs.size());
  const double cpu0 = process_cpu_s();
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  const auto due_at = [&](const Request& q) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(q.due_s));
  };
  std::vector<std::jthread> conns;  // joined on every path
  for (std::size_t c = 0; c < 2; ++c) {
    conns.emplace_back([&, c] {
      for (std::size_t i = 0; i < reqs.size(); ++i) {
        if (reqs[i].conn != c) continue;
        const Clock::time_point due = due_at(reqs[i]);
        std::this_thread::sleep_until(due);
        const Clock::time_point sent = Clock::now();
        const std::string raw = http_post(port, reqs[i].target, *reqs[i].body);
        const Clock::time_point done = Clock::now();
        Response& out = resp[i];
        out.status = status_of(raw);
        const std::size_t split = raw.find("\r\n\r\n");
        if (split != std::string::npos) out.body = raw.substr(split + 4);
        out.latency_ms = ms_between(due, done);
        out.service_ms = ms_between(sent, done);
        out.late_ms = ms_between(due, sent);
      }
    });
  }
  for (std::jthread& t : conns) t.join();
  const Clock::time_point end = Clock::now();
  const double load_s = ms_between(start, end) / 1000.0;
  const double load_cpu = process_cpu_s() - cpu0;

  // Accounting and gates.
  ClassTally tally;
  std::set<std::pair<int, std::size_t>> judged;  // distinct (kind, input)
  std::vector<double> latency_ms, late_ms;
  std::size_t good = 0;
  double sim_ms_sum = 0.0;
  std::size_t verdicts = 0, infected = 0, infected_detected = 0;
  const double trace_ms =
      static_cast<double>(cfg.cycles_per_trace) / psim::SimTiming{}.clock_hz *
      1000.0;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const Request& q = reqs[i];
    const Response& p = resp[i];
    r.attempted += 1;
    latency_ms.push_back(p.latency_ms);
    late_ms.push_back(p.late_ms);
    const std::optional<bool> det = detected_of(p.body);
    bool ok = p.status >= 200 && p.status < 300 && det.has_value();
    if (ok && q.kind == kGoldenPair && scores_hex_of(p.body) != golden[q.truth]) {
      r.fail(std::string("served scores of golden ") + kClassNames[q.truth] +
             " differ from tests/golden");
      ok = false;
    }
    if (!ok) {
      r.failed += 1;
      continue;
    }
    if (p.latency_ms <= kLatencyLimitMs) good += 1;
    verdicts += 1;
    sim_ms_sum += trace_ms * (q.kind == kTrace
                                  ? 1.0
                                  : static_cast<double>(17 * cfg.detection_averages));
    const int group = q.kind == kGoldenPair ? 0 : static_cast<int>(q.kind);
    if (judged.insert({group, q.input}).second) {
      tally.add(q.truth, *det == (q.truth != 0));
      if (q.truth != 0) {
        infected += 1;
        if (*det) infected_detected += 1;
      }
    }
  }
  r.note("verdicts_by_class", tally.json());
  psa::net::ServingQueue& queue = stack.service->queue();
  const std::uint64_t submitted = queue.submitted(), executed = queue.executed(),
                      coalesced = queue.coalesced(), shed = queue.shed();
  {
    const psim::ActivitySynthesis::Stats syn = stack.chip->synthesis().stats();
    const psa::em::FluxMapCache::Stats fm =
        psa::em::FluxMapCache::global().stats();
    r.count("requests", reqs.size());
    r.count("sim.synthesis_hits", syn.hits, opt.trace);
    r.count("sim.synthesis_misses", syn.misses, opt.trace);
    r.count("em.fluxmap_hits", fm.hits, opt.trace);
    r.count("em.fluxmap_misses", fm.misses, opt.trace);
    r.count("net.submitted", submitted, opt.trace);
    r.count("net.executed", executed, opt.trace);
    r.count("net.coalesced", coalesced, opt.trace);
    r.count("net.shed", shed, opt.trace);
    if (opt.trace) {
      r.metric("sim.synthesis_hit_ratio", share_of(syn.hits, syn.misses));
      r.metric("em.fluxmap_hit_ratio", share_of(fm.hits, fm.misses));
    }
  }
  {
    std::string mix = "{";
    for (int k = 0; k < 4; ++k) {
      std::vector<double> lat;
      for (std::size_t i = 0; i < reqs.size(); ++i) {
        if (reqs[i].kind == k) lat.push_back(resp[i].latency_ms);
      }
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "%s\"%s\":{\"requests\":%zu,\"p50_ms\":%.3f,\"p90_ms\":%.3f}",
                    k ? "," : "", kKindNames[k], lat.size(),
                    quantile(lat, 0.5), quantile(lat, 0.9));
      mix += buf;
    }
    r.note("by_kind", mix + "}");
    char buf[96];
    std::snprintf(buf, sizeof buf, "{\"offered_per_s\":%.2f,\"limit_ms\":%.0f}",
                  1.25 * kSlotsPerSecond, kLatencyLimitMs);
    r.note("load", buf);
  }

  if (!opt.trace) {
    if (repeat) {
      for (std::size_t rep = 0; rep < 5; ++rep) enroll();
      setup_s.push_back(build(stack));
    }
    stack.stop();
    r.note("setup_s", json_list(setup_s));
    r.note("enroll_s", json_list(enroll_s));
    r.metric("setup_s", *std::min_element(setup_s.begin(), setup_s.end()));
    r.metric("enroll_s", *std::min_element(enroll_s.begin(), enroll_s.end()));
    r.metric("throughput_per_s", static_cast<double>(good) / load_s);
    r.metric("latency_ms_p50", quantile(latency_ms, 0.5));
    r.metric("latency_ms_p90", quantile(latency_ms, 0.9));
    r.metric("ok_share", share_of(r.attempted - r.failed, r.failed));
    r.metric("verdict_accuracy", tally.accuracy());
    r.metric("mttd_ticks", infected_detected == 0
                               ? 0.0
                               : static_cast<double>(infected) /
                                     static_cast<double>(infected_detected));
    r.metric("sim_ms_to_verdict",
             verdicts == 0 ? 0.0 : sim_ms_sum / static_cast<double>(verdicts));
    r.metric("peak_rss_mb", peak_rss_mib());
    return r.print(opt, kPoolThreads);
  }

  // Traced run: recompute served requests in process, once through the
  // Pipeline / bank calls (untraced) and once through the spanned layer
  // calls, each on a cold activity cache; gate both against the served bits.
  std::vector<double> overhead_ms;
  double untraced_ms = 0.0, traced_ms = 0.0, covered_ms = 0.0;
  const std::size_t per_kind = opt.smoke ? 2 : 12;
  std::array<std::size_t, 4> done_by_kind{};
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const Request& q = reqs[i];
    if (done_by_kind[q.kind] >= per_kind || resp[i].status != 200) continue;
    done_by_kind[q.kind] += 1;
    const psim::Scenario sc = scenario_for(q.truth, q.seed);
    bool det_untraced = false, det_traced = false;
    std::array<double, 16> scores_untraced{}, scores_traced{};
    const psa::afe::SpectrumAnalyzer analyzer(cfg.analyzer);
    psim::MeasuredTrace trace_in;
    if (q.kind == kTrace) {  // the served input, regenerated untimed
      trace_in = stack.chip->measure(
          pipeline.sensor_view(10),
          scenario_for(q.truth, derive_seed(opt.seed, 1000 + q.input)),
          cfg.cycles_per_trace);
    }

    stack.chip->synthesis().invalidate();
    Clock::time_point t0 = Clock::now();
    if (q.kind == kTrace) {
      det_untraced = pipeline
                         .score_spectrum(10, analyzer.sweep(trace_in.samples,
                                                            trace_in.sample_rate_hz))
                         .detected;
    } else {
      scores_untraced = pipeline.scan_scores(sc);
      const pan::LocalizationResult loc =
          pan::localize_from_scores(scores_untraced, pipeline.sensor_mask());
      det_untraced = pipeline.detect(loc.best_sensor, sc).detected;
      if (q.kind == kBank) (void)stack.bank->scan(sc);
    }
    const double plain_ms = ms_since(t0);

    stack.chip->synthesis().invalidate();
    t0 = Clock::now();
    if (q.kind == kTrace) {
      const psa::dsp::Spectrum spec = tracer.span(kSpanSweep, [&] {
        return analyzer.sweep(trace_in.samples, trace_in.sample_rate_hz);
      });
      det_traced = tracer.span(kSpanScore, [&] {
                     return pipeline.score_spectrum(10, spec);
                   }).detected;
    } else {
      const pan::AnalysisReport rep = calls.analyze(sc, /*identify=*/false);
      scores_traced = rep.localization.heat;
      det_traced = rep.detection.detected;
      if (q.kind == kBank) {
        (void)tracer.span("analysis.bank_scan",
                          [&] { return stack.bank->scan(sc); });
      }
    }
    const Clock::time_point t1 = Clock::now();
    untraced_ms += plain_ms;
    traced_ms += ms_between(t0, t1);
    covered_ms += tracer.covered_ms(t0, t1);
    overhead_ms.push_back(resp[i].service_ms - plain_ms);

    bool same = det_untraced == det_traced &&
                det_traced == detected_of(resp[i].body).value_or(!det_traced);
    if (q.kind != kTrace) {
      std::vector<std::string> hex;
      for (const double v : scores_traced) hex.push_back(hex_bits(v));
      same = same && same_bits(scores_untraced.data(), scores_traced.data(), 16) &&
             hex == scores_hex_of(resp[i].body);
    }
    if (!same) {
      r.fail(std::string("in-process ") + kKindNames[q.kind] + " request " +
             std::to_string(i) + " differs from the served verdict");
    }
  }
  stack.stop();
  const double coverage = traced_ms > 0.0 ? covered_ms / traced_ms : 0.0;
  if (coverage < 0.9 || enroll_cover < 0.9) {
    r.fail("layer spans cover too little of the traced computations");
  }

  r.metric("em.view_build_ms_p50", tracer.p50_ms(kSpanViewBuild));
  r.metric("sim.measure_batch_ms_p50", tracer.p50_ms(kSpanMeasureBatch));
  r.metric("sim.measure_ms_p50", tracer.p50_ms(kSpanMeasure));
  r.count("sim.traces_measured",
          16 * tracer.count(kSpanMeasureBatch) + tracer.count(kSpanMeasure),
          true);
  r.metric("afe.sweep_ms_p50", tracer.p50_ms(kSpanSweep));
  r.count("afe.sweeps", tracer.count(kSpanSweep), true);
  r.metric("analysis.enroll_fold_ms", tracer.total_ms(kSpanFold));
  r.metric("analysis.score_us_p50", 1000.0 * tracer.p50_ms(kSpanScore));
  r.metric("analysis.localize_us_p50", 1000.0 * tracer.p50_ms(kSpanLocalize));
  r.metric("analysis.bank_calibrate_ms",
           quantile(tracer.durations_ms("analysis.bank_calibrate"), 0.0));
  r.metric("analysis.bank_scan_ms_p50", tracer.p50_ms("analysis.bank_scan"));
  r.metric("net.overhead_ms_p50", quantile(overhead_ms, 0.5));
  r.metric("net.coalesced_ratio", submitted == 0
                                      ? 0.0
                                      : static_cast<double>(coalesced) /
                                            static_cast<double>(submitted));
  r.metric("net.generator_late_ms_p90", quantile(late_ms, 0.9));
  r.metric("parallel.cpu_utilization", load_cpu / (load_s * kPoolThreads));
  r.metric("trace.overhead_pct",
           untraced_ms > 0.0 ? 100.0 * (traced_ms - untraced_ms) / untraced_ms
                             : 0.0);
  r.metric("trace.coverage_pct", 100.0 * std::min(coverage, enroll_cover));
  return r.print(opt, kPoolThreads);
}

}  // namespace perfbench
