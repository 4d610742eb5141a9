// forensics.cpp — the paper's cross-domain flow, one operation at a time.
//
// One chip, default PipelineConfig, a pool of 1 thread and one caller in a
// closed loop. Each operation is Pipeline::analyze (scan -> localize ->
// detect -> zero-span identify) on a fresh scenario, followed by
// refine_localization at the winning sensor when it detects. The inputs
// are 15 scenarios rotating clean/t1/t2/t3/t4 with seeds drawn from --seed,
// run in rounds until time is up; the activity-synthesis cache is emptied
// before every operation, so every operation misses it and the sim, afe and
// analysis compute path dominates. One thread makes this the steadiest
// workload; a change to the parallel layer is predicted to leave it
// unchanged.
#include <algorithm>
#include <cstdio>
#include <memory>

#include "bench.hpp"
#include "common/parallel.hpp"
#include "em/fluxmap_cache.hpp"
#include "layers.hpp"
#include "layout/floorplan.hpp"
#include "psa/programmer.hpp"

namespace perfbench {

namespace psim = psa::sim;
namespace pan = psa::analysis;

namespace {

constexpr std::size_t kPoolThreads = 1;
/// Operations between two enrollment repetitions.
constexpr std::size_t kOpsPerEnroll = 8;
/// Distinct inputs, run in rounds. Verdicts and exact counts cover the
/// first round, so they repeat run to run; an input's latency is the
/// fastest of its rounds.
constexpr std::size_t kInputs = 15;

/// One operation: analyze, then refine at the winner when it detects.
struct Op {
  pan::AnalysisReport report;
  std::optional<pan::RefinedLocation> refined;
};

bool verdict_correct(TruthClass c, const Op& op) {
  if (c == 0) return !op.report.detection.detected;
  return op.report.detection.detected &&
         op.report.localization.best_sensor == truth_sensor(*kClassKinds[c]) &&
         op.report.identification.kind == kClassKinds[c];
}

std::string diff_refine(const std::optional<pan::RefinedLocation>& a,
                        const std::optional<pan::RefinedLocation>& b) {
  if (a.has_value() != b.has_value()) return "refine presence";
  if (!a) return "";
  if (!same_bits(a->quadrant_heat.data(), b->quadrant_heat.data(), 4) ||
      a->best_quadrant != b->best_quadrant) {
    return "refine heat";
  }
  return "";
}

}  // namespace

int run_forensics(const Options& opt) {
  psa::set_thread_count(kPoolThreads);
  Result r;
  Tracer tracer(opt.trace);
  const pan::PipelineConfig cfg{};
  const std::uint64_t placement = 42 + derive_seed(opt.seed, 1) % 1000;
  const psim::Scenario normal =
      psim::Scenario::baseline(derive_seed(opt.seed, 2));

  // Set-up: chip + Pipeline (16 flux-map views), cold, fastest of several:
  // two before the loop and one after it. A traced run instead builds the
  // 16 views one by one under spans and then the Pipeline on the warm cache.
  const auto build = [&](std::unique_ptr<psim::ChipSimulator>& chip,
                         std::unique_ptr<pan::Pipeline>& pipeline) {
    pipeline.reset();
    chip.reset();
    psa::em::FluxMapCache::global().clear();
    const Clock::time_point t0 = Clock::now();
    chip = std::make_unique<psim::ChipSimulator>(
        psim::SimTiming{}, psa::layout::Floorplan::aes_testchip(), placement);
    if (opt.trace) {
      for (std::size_t k = 0; k < 16; ++k) {
        tracer.span(kSpanViewBuild, [&] {
          return chip->view_from_program(
              psa::sensor::CoilProgrammer::standard_sensor(k), "probe");
        });
      }
    }
    pipeline = std::make_unique<pan::Pipeline>(*chip, cfg);
    return ms_since(t0) / 1000.0;
  };
  const bool repeat = !opt.trace && !opt.smoke;
  std::unique_ptr<psim::ChipSimulator> chip;
  std::unique_ptr<pan::Pipeline> pipeline;
  std::vector<double> setup_s{build(chip, pipeline)};
  if (repeat) setup_s.push_back(build(chip, pipeline));

  // Enrollment: Pipeline::enroll, fastest of several. Re-enrolling on the
  // same scenario rebuilds identical detectors, so the repetitions are
  // spread through the run (one every kOpsPerEnroll operations, outside
  // the operations' time) and sample more than one stretch of host
  // contention.
  std::vector<double> enroll_s;
  const auto enroll_once = [&] {
    const Clock::time_point t0 = Clock::now();
    pipeline->enroll(normal);
    enroll_s.push_back(ms_since(t0) / 1000.0);
  };
  enroll_once();
  LayerCalls calls(*pipeline, tracer);
  double enroll_cover = 1.0;
  if (opt.trace) {
    const Clock::time_point t0 = Clock::now();
    calls.enroll(normal);
    const Clock::time_point t1 = Clock::now();
    enroll_cover = tracer.covered_ms(t0, t1) / ms_between(t0, t1);
    if (const std::string d = calls.check_enrollment(); !d.empty()) r.fail(d);
  }

  const auto run_op = [&](const psim::Scenario& sc, bool recomposed) {
    Op op;
    op.report = recomposed ? calls.analyze(sc) : pipeline->analyze(sc);
    if (op.report.detection.detected) {
      const auto refine = [&] {
        return pipeline->refine_localization(
            op.report.localization.best_sensor,
            op.report.detection.peak_freq_hz, sc);
      };
      op.refined = recomposed ? tracer.span(kSpanRefine, refine) : refine();
    }
    return op;
  };

  // Warm-up: one operation per class fills the quadrant views refine uses.
  for (TruthClass c = 0; c < 5; ++c) {
    (void)run_op(scenario_for(c, derive_seed(opt.seed, 3 + c)), false);
  }

  const std::size_t n_inputs = opt.smoke ? 5 : kInputs;
  std::vector<psim::Scenario> inputs;
  for (std::size_t i = 0; i < n_inputs; ++i) {
    inputs.push_back(scenario_for(i % 5, derive_seed(opt.seed, 100 + i)));
  }
  std::vector<double> latency_ms;
  std::vector<std::size_t> op_input, op_traces;
  ClassTally tally;
  std::size_t traces = 0, sweeps = 0, zero_spans = 0;
  const auto snapshot_counts = [&] {
    const psim::ActivitySynthesis::Stats syn = chip->synthesis().stats();
    const psa::em::FluxMapCache::Stats fm =
        psa::em::FluxMapCache::global().stats();
    r.count("ops_counted", latency_ms.size());
    r.count("sim.synthesis_hits", syn.hits, opt.trace);
    r.count("sim.synthesis_misses", syn.misses, opt.trace);
    r.count("em.fluxmap_hits", fm.hits, opt.trace);
    r.count("em.fluxmap_misses", fm.misses, opt.trace);
    if (opt.trace) {
      r.metric("sim.synthesis_hit_ratio", share_of(syn.hits, syn.misses));
      r.metric("em.fluxmap_hit_ratio", share_of(fm.hits, fm.misses));
    } else {
      r.count("sim.traces_measured", traces);
      r.count("afe.sweeps", sweeps);
      r.count("afe.zero_spans", zero_spans);
    }
  };
  std::size_t infected = 0, infected_detected = 0, verdicts = 0;
  double sim_ms_sum = 0.0;
  double untraced_ms = 0.0, traced_ms = 0.0, covered_ms = 0.0;
  const double trace_s =
      static_cast<double>(cfg.cycles_per_trace) / psim::SimTiming{}.clock_hz;
  // A traced run runs two rounds whatever the time, so its span counts
  // repeat exactly too.
  const std::size_t max_ops =
      opt.smoke ? n_inputs : opt.trace ? 2 * n_inputs : SIZE_MAX;
  const double cpu0 = process_cpu_s();
  const Clock::time_point loop_t0 = Clock::now();
  Clock::time_point deadline =
      loop_t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(opt.seconds));
  Clock::duration enrolling{};
  for (std::size_t i = 0;
       i < max_ops && (opt.trace || Clock::now() < deadline); ++i) {
    if (repeat && i % kOpsPerEnroll == kOpsPerEnroll - 1) {
      const Clock::time_point e0 = Clock::now();
      enroll_once();
      enrolling += Clock::now() - e0;
      deadline += Clock::now() - e0;
    }
    const std::size_t input = i % n_inputs;
    const TruthClass c = input % 5;
    const psim::Scenario& sc = inputs[input];
    const bool first_round = i < n_inputs;
    r.attempted += 1;
    try {
      chip->synthesis().invalidate();
      const Clock::time_point t0 = Clock::now();
      const Op op = run_op(sc, false);
      const double ms = ms_since(t0);
      latency_ms.push_back(ms);
      if (opt.trace) {
        // Same operation again through the recomposed, spanned layer calls
        // on an equally cold synthesis cache.
        chip->synthesis().invalidate();
        const Clock::time_point t1 = Clock::now();
        const Op traced = run_op(sc, true);
        const Clock::time_point t2 = Clock::now();
        untraced_ms += ms;
        traced_ms += ms_between(t1, t2);
        covered_ms += tracer.covered_ms(t1, t2);
        std::string d = diff_report(op.report, traced.report);
        if (d.empty()) d = diff_refine(op.refined, traced.refined);
        if (!d.empty()) {
          r.fail("operation " + std::to_string(i) + ": " + d);
          r.failed += 1;
        }
      }
      const std::size_t n_refine =
          op.refined ? 4 * cfg.detection_averages : 0;
      op_input.push_back(input);
      op_traces.push_back(op.report.traces_consumed + n_refine);
      if (first_round) {
        tally.add(c, verdict_correct(c, op));
        if (c != 0) {
          infected += 1;
          infected_detected += op.report.detection.detected ? 1 : 0;
        }
        traces += op.report.traces_consumed + n_refine;
        zero_spans += op.report.detection.detected ? 1 : 0;
        sweeps += 17 * cfg.detection_averages + n_refine;
        sim_ms_sum += static_cast<double>(op.report.traces_consumed) *
                      trace_s * 1000.0;
        verdicts += 1;
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "operation %zu failed: %s\n", i, e.what());
      r.failed += 1;
    }
    if (r.attempted == n_inputs) snapshot_counts();
  }
  const double loop_s =
      std::chrono::duration<double>(Clock::now() - loop_t0 - enrolling).count();
  if (repeat) {
    std::unique_ptr<psim::ChipSimulator> spare_chip;
    std::unique_ptr<pan::Pipeline> spare;
    setup_s.push_back(build(spare_chip, spare));
  }
  if (r.attempted < n_inputs) snapshot_counts();
  const double cpu_util =
      (process_cpu_s() - cpu0) / (loop_s * static_cast<double>(kPoolThreads));
  r.note("verdicts_by_class", tally.json());

  if (!opt.trace) {
    r.note("setup_s", json_list(setup_s));
    r.note("enroll_s", json_list(enroll_s));
    r.metric("setup_s", *std::min_element(setup_s.begin(), setup_s.end()));
    r.metric("enroll_s", *std::min_element(enroll_s.begin(), enroll_s.end()));
    // Latency and throughput over each input's fastest round (see
    // fastest_of_groups).
    std::vector<double> best_ms;
    double best_traces = 0.0, best_total_ms = 0.0;
    for (const std::size_t i : fastest_of_groups(latency_ms, op_input)) {
      best_ms.push_back(latency_ms[i]);
      best_traces += static_cast<double>(op_traces[i]);
      best_total_ms += latency_ms[i];
    }
    r.note("latency_samples", "{\"kept\":" + std::to_string(best_ms.size()) +
                                  ",\"run\":" +
                                  std::to_string(latency_ms.size()) + "}");
    r.metric("throughput_per_s", best_traces / (best_total_ms / 1000.0));
    r.metric("latency_ms_p50", quantile(best_ms, 0.5));
    r.metric("latency_ms_p90", quantile(best_ms, 0.9));
    r.metric("ok_share", share_of(r.attempted - r.failed, r.failed));
    r.metric("verdict_accuracy", tally.accuracy());
    r.metric("mttd_ticks", infected_detected == 0
                               ? 0.0
                               : static_cast<double>(infected) /
                                     static_cast<double>(infected_detected));
    r.metric("sim_ms_to_verdict",
             verdicts == 0 ? 0.0
                           : sim_ms_sum / static_cast<double>(verdicts));
    r.metric("peak_rss_mb", peak_rss_mib());
  } else {
    const double coverage = traced_ms > 0.0 ? covered_ms / traced_ms : 0.0;
    if (coverage < 0.9 || enroll_cover < 0.9) {
      r.fail("layer spans cover too little of the traced operations");
    }
    r.metric("em.view_build_ms_p50", tracer.p50_ms(kSpanViewBuild));
    r.metric("sim.measure_batch_ms_p50", tracer.p50_ms(kSpanMeasureBatch));
    r.metric("sim.measure_ms_p50", tracer.p50_ms(kSpanMeasure));
    r.count("sim.traces_measured",
            16 * tracer.count(kSpanMeasureBatch) + tracer.count(kSpanMeasure),
            true);
    r.metric("afe.sweep_ms_p50", tracer.p50_ms(kSpanSweep));
    r.metric("afe.zero_span_ms_p50", tracer.p50_ms(kSpanZeroSpan));
    r.count("afe.sweeps", tracer.count(kSpanSweep), true);
    r.metric("analysis.enroll_fold_ms", tracer.total_ms(kSpanFold));
    r.metric("analysis.score_us_p50", 1000.0 * tracer.p50_ms(kSpanScore));
    r.metric("analysis.localize_us_p50", 1000.0 * tracer.p50_ms(kSpanLocalize));
    r.metric("analysis.refine_ms_p50", tracer.p50_ms(kSpanRefine));
    r.metric("analysis.identify_ms_p50", tracer.p50_ms(kSpanIdentify));
    r.metric("parallel.cpu_utilization", cpu_util);
    r.metric("trace.overhead_pct",
             untraced_ms > 0.0 ? 100.0 * (traced_ms - untraced_ms) / untraced_ms
                               : 0.0);
    r.metric("trace.coverage_pct", 100.0 * std::min(coverage, enroll_cover));
  }
  return r.print(opt, kPoolThreads);
}

}  // namespace perfbench
