#include "layers.hpp"

#include <cstring>
#include <span>

#include "analysis/identifier.hpp"
#include "analysis/localizer.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "dsp/spectrum.hpp"

namespace perfbench {

namespace psim = psa::sim;
namespace pan = psa::analysis;

bool same_bits(const double* a, const double* b, std::size_t n) {
  return std::memcmp(a, b, n * sizeof(double)) == 0;
}

std::string diff_detection(const pan::DetectionResult& a,
                           const pan::DetectionResult& b) {
  if (a.detected != b.detected) return "detected";
  if (!same_bits(&a.score, &b.score, 1)) return "score";
  if (!same_bits(&a.peak_freq_hz, &b.peak_freq_hz, 1)) return "peak_freq_hz";
  if (!same_bits(&a.peak_delta_v, &b.peak_delta_v, 1)) return "peak_delta_v";
  if (a.peak_is_novel != b.peak_is_novel) return "peak_is_novel";
  if (a.anomalous_bins != b.anomalous_bins) return "anomalous_bins";
  return "";
}

std::string diff_report(const pan::AnalysisReport& a,
                        const pan::AnalysisReport& b) {
  if (!same_bits(a.localization.heat.data(), b.localization.heat.data(), 16)) {
    return "scan scores";
  }
  if (a.localization.best_sensor != b.localization.best_sensor ||
      a.localization.localized != b.localization.localized) {
    return "localization";
  }
  if (const std::string d = diff_detection(a.detection, b.detection);
      !d.empty()) {
    return "detection " + d;
  }
  if (a.identification.kind != b.identification.kind) return "identification";
  if (a.traces_consumed != b.traces_consumed) return "traces_consumed";
  return "";
}

template <class F>
void LayerCalls::fan_out(const char* span, std::size_t n, F&& body) const {
  tracer_.span(span, [&] {
    psa::parallel_for(0, n, 1, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t k = lo; k < hi; ++k) body(k);
    });
  });
}

LayerCalls::LayerCalls(const pan::Pipeline& pipeline, Tracer& tracer)
    : pipeline_(pipeline),
      tracer_(tracer),
      analyzer_(pipeline.config().analyzer),
      views_(16) {
  for (std::size_t k = 0; k < 16; ++k) views_[k] = &pipeline.sensor_view(k);
}

void LayerCalls::enroll(const psim::Scenario& normal) {
  const pan::PipelineConfig& cfg = pipeline_.config();
  const psim::ChipSimulator& chip = pipeline_.chip();
  spectra_.assign(16, std::vector<psa::dsp::Spectrum>(cfg.enrollment_traces));
  for (std::size_t i = 0; i < cfg.enrollment_traces; ++i) {
    psim::Scenario s = normal;
    s.seed = normal.seed + 1000 + i;
    const std::vector<psim::MeasuredTrace> batch =
        tracer_.span(kSpanMeasureBatch, [&] {
          return chip.measure_batch(
              std::span<const psim::SensorView* const>(views_), s,
              cfg.cycles_per_trace);
        });
    fan_out(kSpanSweepFanOut, 16, [&](std::size_t k) {
      spectra_[k][i] = tracer_.span(kSpanSweep, [&] {
        return analyzer_.sweep(batch[k].samples, batch[k].sample_rate_hz);
      });
    });
  }
  detectors_.assign(16, pan::GoldenFreeDetector(cfg.detector));
  fan_out(kSpanFoldFanOut, 16, [&](std::size_t k) {
    tracer_.span(kSpanFold, [&] { detectors_[k].enroll(spectra_[k]); });
  });
}

std::string LayerCalls::check_enrollment() const {
  for (std::size_t k = 0; k < 16; ++k) {
    for (const psa::dsp::Spectrum& probe : spectra_[k]) {
      const std::string d = diff_detection(detectors_[k].score(probe),
                                           pipeline_.score_spectrum(k, probe));
      if (!d.empty()) {
        return "enrollment of sensor " + std::to_string(k) + ": " + d;
      }
    }
  }
  return "";
}

std::array<double, 16> LayerCalls::scan(const psim::Scenario& scenario) const {
  const pan::PipelineConfig& cfg = pipeline_.config();
  const psim::ChipSimulator& chip = pipeline_.chip();
  std::vector<std::vector<psa::dsp::Spectrum>> sweeps(
      16, std::vector<psa::dsp::Spectrum>(cfg.detection_averages));
  for (std::size_t i = 0; i < cfg.detection_averages; ++i) {
    psim::Scenario s = scenario;
    std::uint64_t mix = scenario.seed ^ (17 * 0x9E3779B97F4A7C15ULL);
    s.seed = psa::splitmix64(mix) + i + 1;
    const std::vector<psim::MeasuredTrace> batch =
        tracer_.span(kSpanMeasureBatch, [&] {
          return chip.measure_batch(
              std::span<const psim::SensorView* const>(views_), s,
              cfg.cycles_per_trace);
        });
    fan_out(kSpanSweepFanOut, 16, [&](std::size_t k) {
      sweeps[k][i] = tracer_.span(kSpanSweep, [&] {
        return analyzer_.sweep(batch[k].samples, batch[k].sample_rate_hz);
      });
    });
  }
  std::array<double, 16> scores{};
  fan_out(kSpanScoreFanOut, 16, [&](std::size_t k) {
    const psa::dsp::Spectrum avg = tracer_.span(
        kSpanAverage, [&] { return psa::dsp::average_spectra(sweeps[k]); });
    scores[k] = tracer_.span(kSpanScore, [&] {
      return detectors_[k].score(avg).peak_delta_v;
    });
  });
  return scores;
}

psa::dsp::Spectrum LayerCalls::measure_spectrum(
    std::size_t sensor, const psim::Scenario& scenario,
    std::uint64_t seed_salt) const {
  const pan::PipelineConfig& cfg = pipeline_.config();
  std::vector<psa::dsp::Spectrum> sweeps(cfg.detection_averages);
  fan_out(kSpanMeasureFanOut, cfg.detection_averages, [&](std::size_t i) {
    psim::Scenario s = scenario;
    std::uint64_t mix = scenario.seed ^ (seed_salt * 0x9E3779B97F4A7C15ULL);
    s.seed = psa::splitmix64(mix) + i + 1;
    const psim::MeasuredTrace tr = tracer_.span(kSpanMeasure, [&] {
      return pipeline_.chip().measure(*views_[sensor], s,
                                      cfg.cycles_per_trace);
    });
    sweeps[i] = tracer_.span(kSpanSweep, [&] {
      return analyzer_.sweep(tr.samples, tr.sample_rate_hz);
    });
  });
  return tracer_.span(kSpanAverage,
                      [&] { return psa::dsp::average_spectra(sweeps); });
}

pan::AnalysisReport LayerCalls::analyze(const psim::Scenario& scenario,
                                        bool identify) const {
  const pan::PipelineConfig& cfg = pipeline_.config();
  pan::AnalysisReport report;
  const std::array<double, 16> scores = scan(scenario);
  report.localization = tracer_.span(kSpanLocalize, [&] {
    return pan::localize_from_scores(scores, pipeline_.sensor_mask());
  });
  report.traces_consumed = 16 * cfg.detection_averages;

  const std::size_t best = report.localization.best_sensor;
  const psa::dsp::Spectrum spec = measure_spectrum(best, scenario, best + 1);
  report.detection =
      tracer_.span(kSpanScore, [&] { return detectors_[best].score(spec); });
  report.traces_consumed += cfg.detection_averages;

  if (identify && report.detection.detected) {
    psim::Scenario s = scenario;
    s.seed = psa::splitmix64(s.seed) + 0x5A;
    const psim::MeasuredTrace tr = tracer_.span(kSpanMeasure, [&] {
      return pipeline_.chip().measure(*views_[best], s,
                                      cfg.identification_cycles);
    });
    const psa::dsp::ZeroSpanTrace zs = tracer_.span(kSpanZeroSpan, [&] {
      return analyzer_.zero_span(tr.samples, tr.sample_rate_hz,
                                 report.detection.peak_freq_hz,
                                 cfg.zero_span_rbw_hz);
    });
    report.identification = tracer_.span(kSpanIdentify, [&] {
      return pan::TrojanIdentifier(cfg.identifier).identify(zs);
    });
    report.traces_consumed += 1;
  }
  return report;
}

}  // namespace perfbench
