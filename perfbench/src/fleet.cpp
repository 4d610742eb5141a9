// fleet.cpp — many chips monitored at once by the batched tick scheduler.
//
// 20 ChipSessions from make_fleet_specs(20, 4, seed): 5 cohorts of 4, so
// clean, t1, t2, t3 and t4 chips are all present. The pool has 2 threads.
// After enrollment, ticks run back to back (closed loop). Enrollment of many
// sessions (the detector fold) and cohort-shared activity synthesis (cache
// hits) do most of the work; this is the only workload where the
// scheduler's parallel_for over cohort shards matters.
#include <algorithm>
#include <memory>
#include <set>

#include "bench.hpp"
#include "common/parallel.hpp"
#include "em/fluxmap_cache.hpp"
#include "fleet/fleet.hpp"
#include "layers.hpp"
#include "obs/registry.hpp"
#include "psa/programmer.hpp"

namespace perfbench {

namespace psim = psa::sim;
namespace pfl = psa::fleet;

namespace {

constexpr std::size_t kPoolThreads = 2;
/// Exact counts and verdicts cover enrollment plus this many ticks.
constexpr std::size_t kCountedTicks = 100;
/// Ticks each fleet of a traced run executes.
constexpr std::size_t kTracedTicks = 200;
/// The timed ticks split into this many equal stretches of the run; the
/// tick statistics use the fastest of the ticks at one offset into each.
constexpr std::size_t kTickStretches = 8;
/// Spare fleets built and enrolled after the loop (each costs a full
/// enrollment, about 9 s); set-up and enrollment are the fastest over the
/// measured fleet and the spares.
constexpr std::size_t kSpareFleets = 1;

struct FleetCounts {
  std::size_t synthesis_hits = 0, synthesis_misses = 0;
};

/// Sum over the distinct activity caches (cohort mates share one).
FleetCounts synthesis_counts(pfl::FleetEngine& engine) {
  FleetCounts c;
  std::set<const psim::ActivitySynthesis*> seen;
  for (std::size_t k = 0; k < engine.size(); ++k) {
    const psim::ActivitySynthesis& syn = engine.session(k).chip().synthesis();
    if (!seen.insert(&syn).second) continue;
    const psim::ActivitySynthesis::Stats st = syn.stats();
    c.synthesis_hits += st.hits;
    c.synthesis_misses += st.misses;
  }
  return c;
}

/// Sessions whose debounced alarm is raised right now, read from the
/// per-chip "fleet.chip<k>.alarmed" gauges (the engine counts alarm edges
/// only for infected sessions after activation, so a clean session's false
/// alarm shows nowhere else).
std::vector<bool> alarmed_now(std::size_t n_sessions) {
  std::vector<bool> out(n_sessions, false);
  for (const auto& [name, value] : psa::obs::Registry::global().snapshot().gauges) {
    if (name.rfind("fleet.chip", 0) != 0 || value == 0.0) continue;
    const std::size_t dot = name.find('.', 10);
    if (dot == std::string::npos || name.compare(dot, 9, ".alarmed") != 0 ||
        dot + 8 != name.size()) {
      continue;  // other gauges, and the traced fleet's "#2" duplicates
    }
    const std::size_t k = std::stoul(name.substr(10, dot - 10));
    if (k < n_sessions) out[k] = true;
  }
  return out;
}

/// Ticks the engine scheduled that a session did not complete.
std::size_t lost_session_ticks(const pfl::FleetEngine& engine) {
  std::size_t lost = 0;
  for (std::size_t k = 0; k < engine.size(); ++k) {
    lost += engine.tick_index() - engine.session(k).ticks_done();
  }
  return lost;
}

}  // namespace

int run_fleet(const Options& opt) {
  psa::set_thread_count(kPoolThreads);
  Result r;
  Tracer tracer(opt.trace);
  const std::size_t n_sessions = opt.smoke ? 5 : 20;
  const std::size_t cohort = opt.smoke ? 1 : 4;
  const std::vector<pfl::ChipSpec> specs =
      pfl::make_fleet_specs(n_sessions, cohort, opt.seed);
  pfl::FleetConfig fcfg;
  fcfg.per_chip_metrics = true;  // the alarmed gauges give clean verdicts
  fcfg.z_history_limit = 1 << 16;

  // Set-up: the fleet build (per chip: simulator + Pipeline views), cold,
  // fastest of several: two before the loop (the first is the measured
  // fleet, whose per-chip gauges keep the plain names) and the spares after
  // it. A traced run builds the 16 standard views one by one under spans
  // first.
  const auto build = [&](std::unique_ptr<pfl::FleetEngine>& out) {
    psa::em::FluxMapCache::global().clear();
    const Clock::time_point t0 = Clock::now();
    if (opt.trace) {
      const psim::ChipSimulator chip(psim::SimTiming{},
                                     psa::layout::Floorplan::aes_testchip(),
                                     specs[0].placement_seed);
      for (std::size_t k = 0; k < 16; ++k) {
        tracer.span(kSpanViewBuild, [&] {
          return chip.view_from_program(
              psa::sensor::CoilProgrammer::standard_sensor(k), "probe");
        });
      }
    }
    out = std::make_unique<pfl::FleetEngine>(specs, fcfg);
    return ms_since(t0) / 1000.0;
  };
  // FleetEngine::enroll takes seconds: one shot per fleet, and the fastest
  // of the measured fleet and the spares.
  const auto enroll = [&](pfl::FleetEngine& fleet) {
    const Clock::time_point t0 = Clock::now();
    fleet.enroll();
    return ms_since(t0) / 1000.0;
  };
  const bool repeat = !opt.trace && !opt.smoke;
  std::unique_ptr<pfl::FleetEngine> engine, spare;
  std::vector<double> setup_s{build(engine)};
  if (repeat) {
    setup_s.push_back(build(spare));
    spare.reset();
  }

  double cpu0 = process_cpu_s();
  std::vector<double> enroll_s{enroll(*engine)};
  double busy_cpu_s = process_cpu_s() - cpu0, busy_s = enroll_s[0];
  Clock::time_point t0 = Clock::now();

  // Traced run: a second fleet from the same specs, enrolled under a span,
  // its enrollment also recomposed from layer calls and gated against it.
  std::unique_ptr<pfl::FleetEngine> traced;
  double traced_enroll_ms = 0.0, recomposed_ms = 0.0, covered_ms = 0.0;
  if (opt.trace) {
    traced = std::make_unique<pfl::FleetEngine>(specs, fcfg);
    t0 = Clock::now();
    tracer.span("fleet.enroll", [&] { traced->enroll(); });
    traced_enroll_ms = ms_since(t0);
    for (std::size_t k = 0; k < traced->size(); ++k) {
      pfl::ChipSession& s = traced->session(k);
      LayerCalls calls(s.pipeline(), tracer);
      const Clock::time_point a = Clock::now();
      calls.enroll(psim::Scenario::baseline(s.spec().seed));
      const Clock::time_point b = Clock::now();
      recomposed_ms += ms_between(a, b);
      covered_ms += tracer.covered_ms(a, b);
      if (const std::string d = calls.check_enrollment(); !d.empty()) {
        r.fail(s.spec().label + " " + d);
      }
    }
  }

  // Counts and verdicts cover enrollment plus the first counted_ticks
  // ticks, so they do not depend on how many ticks fit in the run.
  const std::size_t counted_ticks = opt.smoke ? 10 : kCountedTicks;
  ClassTally tally;
  std::vector<bool> ever_alarmed(n_sessions, false);
  const auto snapshot_counts = [&] {
    for (std::size_t k = 0; k < engine->size(); ++k) {
      const pfl::ChipSession& s = engine->session(k);
      const TruthClass c = class_of(s.spec().trojan);
      tally.add(c, c == 0 ? !ever_alarmed[k] : s.alarms() > 0);
    }
    const FleetCounts c = synthesis_counts(*engine);
    const psa::em::FluxMapCache::Stats fm =
        psa::em::FluxMapCache::global().stats();
    const pfl::FleetRollup roll = engine->rollup();
    const psa::analysis::PipelineConfig& pc = specs[0].pipeline;
    r.count("ticks_counted", engine->tick_index());
    r.count("sim.synthesis_hits", c.synthesis_hits, opt.trace);
    r.count("sim.synthesis_misses", c.synthesis_misses, opt.trace);
    r.count("em.fluxmap_hits", fm.hits, opt.trace);
    r.count("em.fluxmap_misses", fm.misses, opt.trace);
    r.count("fleet.alarms", roll.alarms, opt.trace);
    r.count("fleet.quarantined", roll.quarantined, opt.trace);
    const std::size_t traces =
        n_sessions * (16 * pc.enrollment_traces + engine->tick_index());
    r.count("sim.traces_measured", traces, opt.trace);
    r.count("afe.sweeps", traces, opt.trace);
    if (opt.trace) {
      r.metric("sim.synthesis_hit_ratio",
               share_of(c.synthesis_hits, c.synthesis_misses));
      r.metric("em.fluxmap_hit_ratio", share_of(fm.hits, fm.misses));
    }
  };

  // Closed loop of single ticks. A traced run runs a fixed tick count and
  // alternates an untraced tick of the first fleet with a traced tick of
  // the second, so drift on the host hits both alike.
  std::vector<double> tick_ms;
  double traced_ticks_ms = 0.0, traced_tick_cpu_s = 0.0;
  const std::size_t max_ticks =
      opt.trace ? (opt.smoke ? counted_ticks : kTracedTicks)
                : (opt.smoke ? counted_ticks : SIZE_MAX);
  const Clock::time_point loop_t0 = Clock::now();
  const Clock::time_point deadline =
      loop_t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(opt.seconds));
  while (tick_ms.size() < max_ticks &&
         (opt.trace || Clock::now() < deadline)) {
    cpu0 = process_cpu_s();
    t0 = Clock::now();
    if (engine->run_ticks(1) != 1) break;  // whole fleet quarantined
    tick_ms.push_back(ms_since(t0));
    busy_s += tick_ms.back() / 1000.0;
    busy_cpu_s += process_cpu_s() - cpu0;
    if (tick_ms.size() <= counted_ticks) {
      const std::vector<bool> now = alarmed_now(n_sessions);
      for (std::size_t k = 0; k < n_sessions; ++k) {
        ever_alarmed[k] = ever_alarmed[k] || now[k];
      }
    }
    if (tick_ms.size() == counted_ticks) snapshot_counts();
    if (traced) {
      cpu0 = process_cpu_s();
      t0 = Clock::now();
      tracer.span("fleet.tick", [&] { traced->run_ticks(1); });
      traced_ticks_ms += ms_since(t0);
      traced_tick_cpu_s += process_cpu_s() - cpu0;
    }
  }
  for (std::size_t k = 0; repeat && k < kSpareFleets; ++k) {
    setup_s.push_back(build(spare));
    enroll_s.push_back(enroll(*spare));
    spare.reset();
  }
  if (tick_ms.size() < counted_ticks) snapshot_counts();
  const std::size_t ticks = tick_ms.size();

  const std::size_t lost = lost_session_ticks(*engine);
  r.attempted = n_sessions * ticks;
  r.failed = lost;
  r.note("verdicts_by_class", tally.json());
  const double mttd = engine->rollup().mean_mttd_ticks;

  if (!opt.trace) {
    const psa::analysis::PipelineConfig& pc = specs[0].pipeline;
    r.note("setup_s", json_list(setup_s));
    r.note("enroll_s", json_list(enroll_s));
    r.metric("setup_s", *std::min_element(setup_s.begin(), setup_s.end()));
    r.metric("enroll_s", *std::min_element(enroll_s.begin(), enroll_s.end()));
    // Tick statistics over the fastest of the ticks at one offset into
    // each stretch of the run (every tick does equivalent work; see
    // fastest_of_groups).
    const std::size_t stretch = std::max<std::size_t>(1, ticks / kTickStretches);
    std::vector<std::size_t> offset(ticks);
    for (std::size_t t = 0; t < ticks; ++t) offset[t] = t % stretch;
    std::vector<double> best_ms;
    double best_total_ms = 0.0;
    for (const std::size_t i : fastest_of_groups(tick_ms, offset)) {
      best_ms.push_back(tick_ms[i]);
      best_total_ms += tick_ms[i];
    }
    r.note("latency_samples", "{\"kept\":" + std::to_string(best_ms.size()) +
                                  ",\"run\":" + std::to_string(ticks) + "}");
    r.metric("throughput_per_s",
             static_cast<double>(n_sessions * best_ms.size()) /
                 (best_total_ms / 1000.0));
    r.metric("latency_ms_p50", quantile(best_ms, 0.5));
    r.metric("latency_ms_p90", quantile(best_ms, 0.9));
    r.metric("ok_share", share_of(r.attempted - r.failed, r.failed));
    r.metric("verdict_accuracy", tally.accuracy());
    r.metric("mttd_ticks", mttd);
    r.metric("sim_ms_to_verdict",
             mttd * static_cast<double>(pc.cycles_per_trace) /
                 psim::SimTiming{}.clock_hz * 1000.0);
    r.metric("peak_rss_mb", peak_rss_mib());
    return r.print(opt, kPoolThreads);
  }

  for (std::size_t k = 0; k < engine->size(); ++k) {
    const std::vector<double>& za = engine->session(k).z_history();
    const std::vector<double>& zb = traced->session(k).z_history();
    if (za.size() != zb.size() ||
        !same_bits(za.data(), zb.data(), za.size())) {
      r.fail("z-stream of " + engine->session(k).spec().label +
             " differs between the untraced and traced fleet");
    }
  }
  const double coverage = recomposed_ms > 0.0 ? covered_ms / recomposed_ms : 0.0;
  if (coverage < 0.9) r.fail("layer spans cover too little of enrollment");

  double untraced_ticks_ms = 0.0;
  for (const double ms : tick_ms) untraced_ticks_ms += ms;
  r.metric("em.view_build_ms_p50", tracer.p50_ms(kSpanViewBuild));
  r.metric("sim.measure_batch_ms_p50", tracer.p50_ms(kSpanMeasureBatch));
  r.metric("afe.sweep_ms_p50", tracer.p50_ms(kSpanSweep));
  r.metric("analysis.enroll_fold_ms",
           tracer.total_ms(kSpanFold) / static_cast<double>(traced->size()));
  r.metric("fleet.enroll_ms_per_session",
           traced_enroll_ms / static_cast<double>(traced->size()));
  r.metric("fleet.tick_ms_p50", tracer.p50_ms("fleet.tick"));
  r.metric("fleet.cpu_utilization",
           traced_tick_cpu_s / (traced_ticks_ms / 1000.0 * kPoolThreads));
  r.metric("parallel.cpu_utilization", busy_cpu_s / (busy_s * kPoolThreads));
  r.metric("trace.overhead_pct",
           100.0 * (traced_ticks_ms - untraced_ticks_ms) / untraced_ticks_ms);
  r.metric("trace.coverage_pct", 100.0 * coverage);
  return r.print(opt, kPoolThreads);
}

}  // namespace perfbench
