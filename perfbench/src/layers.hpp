// layers.hpp — the Pipeline's enroll / scan / analyze flows recomposed from
// the public calls of each layer (sim, afe, dsp, analysis), with a span
// around every call. Traced runs use these to split an operation's time by
// layer; every recomposed result is gated bit-identical against the
// Pipeline's own result for the same inputs.
//
// The seeding and the parallel_for fan-out below mirror
// src/analysis/pipeline.cpp exactly; a change
// there that keeps the goldens but alters the seeding shows up here as a
// failed identity gate, not as a silent drift of the traced numbers.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "analysis/pipeline.hpp"
#include "bench.hpp"

namespace perfbench {

/// Span names (also the per-layer metric sources).
inline constexpr const char* kSpanViewBuild = "em.view_build";
inline constexpr const char* kSpanMeasureBatch = "sim.measure_batch";
inline constexpr const char* kSpanMeasure = "sim.measure";
inline constexpr const char* kSpanSweep = "afe.sweep";
inline constexpr const char* kSpanZeroSpan = "afe.zero_span";
inline constexpr const char* kSpanAverage = "dsp.average";
inline constexpr const char* kSpanFold = "analysis.enroll_fold";
inline constexpr const char* kSpanScore = "analysis.score";
inline constexpr const char* kSpanLocalize = "analysis.localize";
inline constexpr const char* kSpanIdentify = "analysis.identify";
inline constexpr const char* kSpanRefine = "analysis.refine";
/// Spans around a parallel_for, on the calling thread only: they cover the
/// caller's wait for pool workers running the per-item spans inside.
inline constexpr const char* kSpanSweepFanOut = "afe.sweep_fan_out";
inline constexpr const char* kSpanFoldFanOut = "analysis.fold_fan_out";
inline constexpr const char* kSpanScoreFanOut = "analysis.score_fan_out";
inline constexpr const char* kSpanMeasureFanOut = "sim.measure_fan_out";

class LayerCalls {
 public:
  LayerCalls(const psa::analysis::Pipeline& pipeline, Tracer& tracer);

  /// Pipeline::enroll: one measure_batch per enrollment trace, 16 sweeps
  /// each, then 16 detector folds into this object's own detectors.
  void enroll(const psa::sim::Scenario& normal);

  /// Pipeline::scan_scores from the detectors enroll() built.
  std::array<double, 16> scan(const psa::sim::Scenario& scenario) const;

  /// Pipeline::analyze (localize -> detect at the winner -> identify).
  /// Without `identify` it stops after the detection verdict, which is what
  /// the serving /scan job computes.
  psa::analysis::AnalysisReport analyze(const psa::sim::Scenario& scenario,
                                        bool identify = true) const;

  /// Empty when every recomposed detector scores `probe[k]` bit-identically
  /// to Pipeline::score_spectrum(k, probe[k]); else what differed.
  std::string check_enrollment() const;

 private:
  /// parallel_for over [0, n) under one span on the calling thread.
  template <class F>
  void fan_out(const char* span, std::size_t n, F&& body) const;

  psa::dsp::Spectrum measure_spectrum(std::size_t sensor,
                                      const psa::sim::Scenario& scenario,
                                      std::uint64_t seed_salt) const;

  const psa::analysis::Pipeline& pipeline_;
  Tracer& tracer_;
  psa::afe::SpectrumAnalyzer analyzer_;
  std::vector<const psa::sim::SensorView*> views_;
  std::vector<psa::analysis::GoldenFreeDetector> detectors_;
  std::vector<std::vector<psa::dsp::Spectrum>> spectra_;
};

/// Bit-exact comparison of two detection results ("" when identical).
std::string diff_detection(const psa::analysis::DetectionResult& a,
                           const psa::analysis::DetectionResult& b);

/// Bit-exact comparison of two analysis reports ("" when identical).
std::string diff_report(const psa::analysis::AnalysisReport& a,
                        const psa::analysis::AnalysisReport& b);

/// memcmp of two double arrays.
bool same_bits(const double* a, const double* b, std::size_t n);

}  // namespace perfbench
