#include "analysis/pipeline.hpp"

#include <span>
#include <stdexcept>

#include "common/parallel.hpp"
#include "obs/obs.hpp"
#include "psa/programmer.hpp"

namespace psa::analysis {

Pipeline::Pipeline(const sim::ChipSimulator& chip, const PipelineConfig& cfg)
    : chip_(chip), cfg_(cfg), analyzer_(cfg.analyzer) {
  views_.reserve(16);
  for (std::size_t k = 0; k < 16; ++k) {
    views_.push_back(chip_.view_from_program(
        sensor::CoilProgrammer::standard_sensor(k),
        "sensor" + std::to_string(k)));
  }
  detectors_.assign(16, GoldenFreeDetector(cfg_.detector));
}

const sim::SensorView& Pipeline::sensor_view(std::size_t k) const {
  if (k >= views_.size()) throw std::out_of_range("Pipeline::sensor_view");
  return views_[k];
}

bool Pipeline::sensor_masked(std::size_t k) const {
  if (k >= masked_.size()) throw std::out_of_range("Pipeline::sensor_masked");
  return masked_[k];
}

std::size_t Pipeline::next_healthy_sensor(std::size_t k) const {
  for (std::size_t step = 0; step < masked_.size(); ++step) {
    const std::size_t cand = (k + step) % masked_.size();
    if (!masked_[cand]) return cand;
  }
  throw std::runtime_error("Pipeline: every sensor is masked");
}

DegradedModeReport Pipeline::configure_degraded(
    const sensor::ArrayFaults& faults) {
  PSA_TRACE_SPAN("pipeline.configure_degraded");
  DegradedModeReport report;
  const sensor::SelfTest selftest;
  report.selftest = selftest.run(faults);

  faults_ = faults;
  degraded_ = true;
  masked_ = {};
  substituted_ = {};
  enrolled_ = false;  // backgrounds were learned on the old coil set
  detectors_.assign(16, GoldenFreeDetector(cfg_.detector));

  for (std::size_t k = 0; k < layout::kNumStandardSensors; ++k) {
    const std::string label = "sensor" + std::to_string(k);
    if (report.selftest.entries[k].pass) {
      // Standard coil verified: the effective geometry is unchanged (any
      // geometry-altering fault surfaces as an open/short), so the view is
      // rebuilt from the faulted program for the record.
      sensor::SensorProgram p = sensor::CoilProgrammer::standard_sensor(k);
      faults.inject_into(p.switches);
      views_[k] = chip_.view_from_program(p, label);
      continue;
    }
    // Reprogram around the damage: try the four 6-wire quadrant loops
    // inside the sensor's span, in fixed order for determinism.
    bool found = false;
    for (std::size_t q = 0; q < 4 && !found; ++q) {
      sensor::SensorProgram sub = quadrant_program(k, q / 2, q % 2);
      const sensor::SelfTestEntry check = selftest.test_program(
          sub, faults, label + "-sub" + std::to_string(q));
      if (!check.pass) continue;
      faults.inject_into(sub.switches);
      views_[k] = chip_.view_from_program(sub, label + "-sub" +
                                                   std::to_string(q));
      substituted_[k] = true;
      found = true;
    }
    if (!found) masked_[k] = true;
  }
  for (std::size_t k = 0; k < layout::kNumStandardSensors; ++k) {
    if (masked_[k]) PSA_COUNTER_ADD("analysis.degraded.masked_sensors", 1);
    if (substituted_[k]) {
      PSA_COUNTER_ADD("analysis.degraded.substituted_sensors", 1);
    }
  }
  report.masked = masked_;
  report.substituted = substituted_;
  PSA_EVENT(kWarn, "pipeline.degraded",
            {{"masked", report.masked_count()},
             {"substituted", report.substituted_count()},
             {"healthy", report.healthy_count()}});
  return report;
}

dsp::Spectrum Pipeline::measure_spectrum(std::size_t sensor,
                                         const sim::Scenario& scenario,
                                         std::uint64_t seed_salt) const {
  PSA_TRACE_SPAN("pipeline.measure_spectrum", {{"sensor", sensor}});
  // Traces are measured concurrently into index-addressed slots: each trace
  // derives its seed from (scenario seed, salt, trace index) alone, and the
  // averaging below folds the slots serially in index order, so the result
  // is bit-identical for any thread count.
  std::vector<dsp::Spectrum> sweeps(cfg_.detection_averages);
  parallel_for(0, cfg_.detection_averages, 1,
               [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      sim::Scenario s = scenario;
      // Each physical trace sees fresh noise and plaintexts.
      std::uint64_t mix = scenario.seed ^ (seed_salt * 0x9E3779B97F4A7C15ULL);
      s.seed = splitmix64(mix) + i + 1;
      const sim::MeasuredTrace tr =
          chip_.measure(sensor_view(sensor), s, cfg_.cycles_per_trace);
      sweeps[i] = analyzer_.sweep(tr.samples, tr.sample_rate_hz);
    }
  });
  return dsp::average_spectra(sweeps);
}

void Pipeline::enroll(const sim::Scenario& normal) {
  PSA_TRACE_SPAN("pipeline.enroll", {{"traces", cfg_.enrollment_traces}});
  PSA_TIME_SCOPE_US("analysis.enroll.us");
  // All sensors observe the same die, so enrollment trace i is ONE chip
  // execution measured through every coil (the paper's array reads multiple
  // channels of a single run): its seed depends only on i, the scenario's
  // activity is synthesized once per trace, and measure_batch fans the cheap
  // per-sensor tails across the pool. Spectra land in index-addressed slots
  // and each detector folds its own slots, so enrollment stays bit-identical
  // at any thread count.
  std::vector<const sim::SensorView*> ptrs(16);
  for (std::size_t k = 0; k < 16; ++k) {
    ptrs[k] = masked_[k] ? nullptr : &views_[k];  // degraded: no coil
  }
  std::vector<std::vector<dsp::Spectrum>> spectra(
      16, std::vector<dsp::Spectrum>(cfg_.enrollment_traces));
  for (std::size_t i = 0; i < cfg_.enrollment_traces; ++i) {
    PSA_TRACE_SPAN("pipeline.enroll_trace", {{"trace", i}});
    sim::Scenario s = normal;
    s.seed = normal.seed + 1000 + i;
    const std::vector<sim::MeasuredTrace> batch = chip_.measure_batch(
        std::span<const sim::SensorView* const>(ptrs), s,
        cfg_.cycles_per_trace);
    parallel_for(0, 16, 1, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t k = lo; k < hi; ++k) {
        if (masked_[k]) continue;
        spectra[k][i] =
            analyzer_.sweep(batch[k].samples, batch[k].sample_rate_hz);
      }
    });
  }
  PSA_TRACE_SPAN("pipeline.enroll_fold");
  parallel_for(0, 16, 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t k = lo; k < hi; ++k) {
      if (masked_[k]) continue;
      detectors_[k].enroll(spectra[k]);
    }
  });
  enrolled_ = true;
}

DetectionResult Pipeline::detect(std::size_t sensor,
                                 const sim::Scenario& scenario) const {
  PSA_TRACE_SPAN("pipeline.detect", {{"sensor", sensor}});
  if (!enrolled_) throw std::logic_error("Pipeline: enroll() first");
  if (sensor < masked_.size() && masked_[sensor]) {
    throw std::runtime_error("Pipeline: sensor " + std::to_string(sensor) +
                             " is masked (self-test failure)");
  }
  const dsp::Spectrum spec =
      measure_spectrum(sensor, scenario, /*seed_salt=*/sensor + 1);
  const DetectionResult result = detectors_[sensor].score(spec);
  PSA_HISTOGRAM_RECORD("analysis.detect.z", result.score);
  if (result.detected) {
    PSA_COUNTER_ADD("analysis.detections", 1);
    PSA_EVENT(kWarn, "detector.z_crossing",
              {{"sensor", sensor},
               {"z", result.score},
               {"threshold", cfg_.detector.z_threshold},
               {"peak_freq_hz", result.peak_freq_hz},
               {"novel_peak", result.peak_is_novel ? 1 : 0}});
  }
  return result;
}

dsp::Spectrum Pipeline::single_sweep(std::size_t sensor,
                                     const sim::Scenario& scenario) const {
  const sim::MeasuredTrace tr =
      chip_.measure(sensor_view(sensor), scenario, cfg_.cycles_per_trace);
  return analyzer_.sweep(tr.samples, tr.sample_rate_hz);
}

DetectionResult Pipeline::score_spectrum(std::size_t sensor,
                                         const dsp::Spectrum& spectrum) const {
  if (!enrolled_) throw std::logic_error("Pipeline: enroll() first");
  if (sensor >= detectors_.size()) {
    throw std::out_of_range("Pipeline::score_spectrum");
  }
  const DetectionResult result = detectors_[sensor].score(spectrum);
  if (result.detected) {
    PSA_EVENT(kWarn, "detector.z_crossing",
              {{"sensor", sensor},
               {"z", result.score},
               {"threshold", cfg_.detector.z_threshold},
               {"peak_freq_hz", result.peak_freq_hz},
               {"novel_peak", result.peak_is_novel ? 1 : 0}});
  }
  return result;
}

std::array<double, 16> Pipeline::scan_scores(
    const sim::Scenario& scenario) const {
  PSA_TRACE_SPAN("pipeline.scan", {{"averages", cfg_.detection_averages}});
  PSA_TIME_SCOPE_US("analysis.scan.us");
  if (!enrolled_) throw std::logic_error("Pipeline: enroll() first");
  std::array<double, 16> scores{};
  // The physical bench reads multiple channels of the SAME chip execution,
  // so scan trace i is one run measured through every coil: its seed depends
  // only on i (not the sensor), the activity synthesizes once per trace, and
  // measure_batch fans out the per-sensor tails. Sweeps land in
  // index-addressed slots and each detector folds its own slots serially,
  // so the scores are bit-identical at any thread count. (This seeding is
  // deliberately not detect()'s per-sensor salt — the scan shares traces.)
  std::vector<const sim::SensorView*> ptrs(16);
  for (std::size_t k = 0; k < 16; ++k) {
    ptrs[k] = masked_[k] ? nullptr : &views_[k];  // degraded: slot stays 0
  }
  std::vector<std::vector<dsp::Spectrum>> sweeps(
      16, std::vector<dsp::Spectrum>(cfg_.detection_averages));
  for (std::size_t i = 0; i < cfg_.detection_averages; ++i) {
    sim::Scenario s = scenario;
    std::uint64_t mix = scenario.seed ^ (17 * 0x9E3779B97F4A7C15ULL);
    s.seed = splitmix64(mix) + i + 1;
    const std::vector<sim::MeasuredTrace> batch = chip_.measure_batch(
        std::span<const sim::SensorView* const>(ptrs), s,
        cfg_.cycles_per_trace);
    parallel_for(0, 16, 1, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t k = lo; k < hi; ++k) {
        if (masked_[k]) continue;
        sweeps[k][i] =
            analyzer_.sweep(batch[k].samples, batch[k].sample_rate_hz);
      }
    });
  }
  parallel_for(0, scores.size(), 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t k = lo; k < hi; ++k) {
      if (masked_[k]) continue;
      PSA_TRACE_SPAN("scan.sensor", {{"sensor", k}});
      // Heat value: physical amplitude excess, comparable across sensors
      // (z-scores are not — a quiet corner sensor has a tiny MAD).
      scores[k] =
          detectors_[k].score(dsp::average_spectra(sweeps[k])).peak_delta_v;
      PSA_HISTOGRAM_RECORD("analysis.scan.score_delta_v", scores[k]);
    }
  });
  return scores;
}

LocalizationResult Pipeline::localize(const sim::Scenario& scenario) const {
  return localize_from_scores(scan_scores(scenario), masked_);
}

dsp::ZeroSpanTrace Pipeline::zero_span_trace(
    std::size_t sensor, double freq_hz, const sim::Scenario& scenario) const {
  sim::Scenario s = scenario;
  s.seed = splitmix64(s.seed) + 0x5A;
  const sim::MeasuredTrace tr =
      chip_.measure(sensor_view(sensor), s, cfg_.identification_cycles);
  return analyzer_.zero_span(tr.samples, tr.sample_rate_hz, freq_hz,
                             cfg_.zero_span_rbw_hz);
}

IdentificationResult Pipeline::identify(std::size_t sensor, double freq_hz,
                                        const sim::Scenario& scenario) const {
  const TrojanIdentifier identifier(cfg_.identifier);
  return identifier.identify(zero_span_trace(sensor, freq_hz, scenario));
}

RefinedLocation Pipeline::refine_localization(
    std::size_t sensor, double freq_hz, const sim::Scenario& scenario) const {
  PSA_TRACE_SPAN("pipeline.refine", {{"sensor", sensor}});
  PSA_TIME_SCOPE_US("analysis.refine.us");
  std::array<double, 4> heat{};
  std::array<bool, 4> valid{true, true, true, true};
  // The four quadrant coils read the same chip execution: trace i's seed
  // no longer depends on the quadrant, so each trace's activity synthesizes
  // once and measure_batch produces all four quadrant views from it.
  std::vector<sim::SensorView> qviews(4);
  for (std::size_t q = 0; q < 4; ++q) {
    sensor::SensorProgram qp = quadrant_program(sensor, q / 2, q % 2);
    if (degraded_) {
      // The damaged crossbar may be unable to form this quadrant coil.
      faults_.inject_into(qp.switches);
      if (!qp.extract().ok()) {
        valid[q] = false;
        continue;
      }
    }
    qviews[q] = chip_.view_from_program(
        qp, "s" + std::to_string(sensor) + "q" + std::to_string(q));
  }
  std::vector<const sim::SensorView*> ptrs(4);
  for (std::size_t q = 0; q < 4; ++q) {
    ptrs[q] = valid[q] ? &qviews[q] : nullptr;
  }
  std::vector<std::vector<dsp::Spectrum>> sweeps(
      4, std::vector<dsp::Spectrum>(cfg_.detection_averages));
  for (std::size_t i = 0; i < cfg_.detection_averages; ++i) {
    sim::Scenario s = scenario;
    s.seed = splitmix64(s.seed) + 31 + i;
    const std::vector<sim::MeasuredTrace> batch = chip_.measure_batch(
        std::span<const sim::SensorView* const>(ptrs), s,
        cfg_.cycles_per_trace);
    parallel_for(0, 4, 1, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t q = lo; q < hi; ++q) {
        if (!valid[q]) continue;
        sweeps[q][i] =
            analyzer_.sweep(batch[q].samples, batch[q].sample_rate_hz);
      }
    });
  }
  for (std::size_t q = 0; q < 4; ++q) {
    if (!valid[q]) continue;
    // The anomaly line is novel (near the enrolled floor), so its raw
    // magnitude through each quadrant coil is Trojan-dominated.
    heat[q] = dsp::average_spectra(sweeps[q]).value_at(freq_hz);
  }
  return refine_from_heat(sensor, heat, valid);
}

AnalysisReport Pipeline::analyze(const sim::Scenario& scenario) const {
  AnalysisReport report;
  report.localization = localize(scenario);
  report.traces_consumed = 16 * cfg_.detection_averages;

  // Detection verdict re-derived at the winning sensor (it carries the
  // strongest sidebands).
  report.detection =
      detect(report.localization.best_sensor, scenario);
  report.traces_consumed += cfg_.detection_averages;

  if (report.detection.detected) {
    report.identification =
        identify(report.localization.best_sensor,
                 report.detection.peak_freq_hz, scenario);
    report.traces_consumed += 1;
  }
  return report;
}

}  // namespace psa::analysis
