// golden_common.hpp — the golden-vector contract shared by the generator
// (tools/make_goldens) and the regression suite (tests/golden_test).
//
// A GoldenRun captures one Trojan scenario end to end: the 16-sensor scan
// score vector, the localization pick derived from it, and the detection
// spectrum measured at the winning sensor. Everything is serialized as the
// raw 64-bit pattern of each double (hex), so the committed references pin
// results to the BIT, not to a tolerance: any reordering of floating-point
// work anywhere in the synthesis → EM → AFE → DSP → detector chain shows up
// as a failed diff. The pipeline's bit-identity contract (index-addressed
// slots, seed-forked RNG) is what makes this reproducible at any thread
// count.
//
// The text format is deliberately deterministic — fixed field order, one
// hex word per double, LF line endings — so `make_goldens` regenerating an
// unchanged tree writes byte-identical files (the suite asserts this).
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/detector_bank.hpp"
#include "analysis/localizer.hpp"
#include "analysis/pipeline.hpp"
#include "fixtures.hpp"
#include "trojan/trojan.hpp"

namespace psa::golden {

/// One scenario's pinned results.
struct GoldenRun {
  std::string name;  // "t1".."t4" (trojan::module_name)
  std::uint64_t seed = 0;
  std::array<double, 16> scores{};
  std::uint64_t best_sensor = 0;
  bool localized = false;
  double contrast_db = 0.0;
  std::vector<double> freq_hz;    // detection spectrum at best_sensor
  std::vector<double> magnitude;  // same length as freq_hz
};

/// The pipeline configuration the goldens are generated under. Light enough
/// for CI, heavy enough to exercise enrollment, the scan and localization.
inline analysis::PipelineConfig golden_config() {
  analysis::PipelineConfig cfg;
  cfg.cycles_per_trace = 256;
  cfg.enrollment_traces = 3;
  cfg.detection_averages = 2;
  return cfg;
}

/// Compute all four Trojan scenarios' golden runs at tests::kGoldenSeed.
/// One chip + one enrollment, exactly like the generator — callers at any
/// thread count must reproduce the committed bits.
inline std::vector<GoldenRun> compute_golden_runs() {
  const sim::ChipSimulator chip = tests::make_chip();
  analysis::Pipeline pipeline(chip, golden_config());
  pipeline.enroll(sim::Scenario::baseline(tests::kGoldenSeed));

  std::vector<GoldenRun> runs;
  for (trojan::TrojanKind kind :
       {trojan::TrojanKind::kT1AmCarrier, trojan::TrojanKind::kT2KeyLeak,
        trojan::TrojanKind::kT3CdmaLeak, trojan::TrojanKind::kT4DoS}) {
    const sim::Scenario scenario =
        sim::Scenario::with_trojan(kind, tests::kGoldenSeed);
    GoldenRun run;
    run.name = trojan::module_name(kind);
    run.seed = tests::kGoldenSeed;
    run.scores = pipeline.scan_scores(scenario);
    const analysis::LocalizationResult loc =
        analysis::localize_from_scores(run.scores);
    run.best_sensor = loc.best_sensor;
    run.localized = loc.localized;
    run.contrast_db = loc.contrast_db;
    const dsp::Spectrum spec = pipeline.measure_spectrum(
        loc.best_sensor, scenario, /*seed_salt=*/loc.best_sensor + 1);
    run.freq_hz = spec.freq_hz;
    run.magnitude = spec.magnitude;
    runs.push_back(std::move(run));
  }
  return runs;
}

inline std::string hex_bits(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(
                    std::bit_cast<std::uint64_t>(v)));
  return buf;
}

inline double bits_hex(const std::string& s) {
  return std::bit_cast<double>(
      static_cast<std::uint64_t>(std::stoull(s, nullptr, 16)));
}

inline std::string serialize(const GoldenRun& run) {
  std::ostringstream os;
  os << "psa-golden v1\n";
  os << "name " << run.name << "\n";
  os << "seed " << run.seed << "\n";
  os << "scores " << run.scores.size() << "\n";
  for (const double s : run.scores) os << hex_bits(s) << "\n";
  os << "best_sensor " << run.best_sensor << "\n";
  os << "localized " << (run.localized ? 1 : 0) << "\n";
  os << "contrast_db " << hex_bits(run.contrast_db) << "\n";
  os << "spectrum " << run.freq_hz.size() << "\n";
  for (std::size_t i = 0; i < run.freq_hz.size(); ++i) {
    os << hex_bits(run.freq_hz[i]) << " " << hex_bits(run.magnitude[i])
       << "\n";
  }
  return os.str();
}

// ---------------------------------------------------------------------------
// Detector-bank goldens: every Detector implementation's verdict on the four
// Trojan scenarios, pinned to the bit. One row per detector plus the fused
// ensemble; each row carries the calibrated threshold and, per scenario, the
// score bits, the detected flag and the peak tile. Format "psa-detector-
// golden v1", one file (detectors.golden) for the whole bank.

struct DetectorScenarioGolden {
  double score = 0.0;
  bool detected = false;
  std::uint64_t peak_tile = 0;
};

struct DetectorGoldenRow {
  std::string name;  // detector name, or "ensemble"
  double threshold = 0.0;
  std::vector<DetectorScenarioGolden> runs;  // one per scenario, in order
};

struct DetectorGoldens {
  std::uint64_t seed = 0;
  std::size_t scales = 0;
  std::vector<std::string> scenarios;  // "t1".."t4"
  std::vector<DetectorGoldenRow> rows;
};

/// Compute the detector-bank goldens at tests::kGoldenSeed: one chip, one
/// enrollment, a two-scale bank (die + sensors) over all registered
/// detectors, scanning t1..t4. Bit-reproducible at any thread count.
inline DetectorGoldens compute_detector_goldens() {
  const sim::ChipSimulator chip = tests::make_chip();
  analysis::Pipeline pipeline(chip, golden_config());
  const sim::Scenario normal = sim::Scenario::baseline(tests::kGoldenSeed);
  pipeline.enroll(normal);

  analysis::DetectorBank bank(pipeline, analysis::BankConfig{.scales = 2, .detectors = {}});
  bank.calibrate(normal);

  DetectorGoldens g;
  g.seed = tests::kGoldenSeed;
  g.scales = bank.config().scales;
  for (std::size_t i = 0; i < bank.size(); ++i) {
    DetectorGoldenRow row;
    row.name = std::string(bank.detector(i).name());
    row.threshold = bank.detector(i).threshold();
    g.rows.push_back(std::move(row));
  }
  DetectorGoldenRow ensemble;
  ensemble.name = "ensemble";
  ensemble.threshold = 1.0;  // fused scores are threshold-normalized
  g.rows.push_back(std::move(ensemble));

  for (trojan::TrojanKind kind :
       {trojan::TrojanKind::kT1AmCarrier, trojan::TrojanKind::kT2KeyLeak,
        trojan::TrojanKind::kT3CdmaLeak, trojan::TrojanKind::kT4DoS}) {
    g.scenarios.emplace_back(trojan::module_name(kind));
    const analysis::EnsembleVerdict v =
        bank.scan(sim::Scenario::with_trojan(kind, tests::kGoldenSeed));
    for (std::size_t i = 0; i < v.parts.size(); ++i) {
      DetectorScenarioGolden s;
      s.score = v.parts[i].verdict.score;
      s.detected = v.parts[i].verdict.detected;
      s.peak_tile = v.parts[i].verdict.peak_tile;
      g.rows.at(i).runs.push_back(s);
    }
    DetectorScenarioGolden fused;
    fused.score = v.score;
    fused.detected = v.detected;
    fused.peak_tile = 0;
    g.rows.back().runs.push_back(fused);
  }
  return g;
}

inline std::string serialize(const DetectorGoldens& g) {
  std::ostringstream os;
  os << "psa-detector-golden v1\n";
  os << "seed " << g.seed << "\n";
  os << "scales " << g.scales << "\n";
  os << "scenarios " << g.scenarios.size();
  for (const std::string& s : g.scenarios) os << " " << s;
  os << "\n";
  os << "detectors " << g.rows.size() << "\n";
  for (const DetectorGoldenRow& row : g.rows) {
    os << row.name << " " << hex_bits(row.threshold);
    for (const DetectorScenarioGolden& r : row.runs) {
      os << " " << hex_bits(r.score) << " " << (r.detected ? 1 : 0) << " "
         << r.peak_tile;
    }
    os << "\n";
  }
  return os.str();
}

inline DetectorGoldens parse_detectors(const std::string& text) {
  std::istringstream is(text);
  std::string magic;
  std::string version;
  is >> magic >> version;
  if (magic != "psa-detector-golden" || version != "v1") {
    throw std::runtime_error("detector golden parse: bad header");
  }
  auto expect_key = [&](const char* key) {
    std::string tok;
    is >> tok;
    if (tok != key) {
      throw std::runtime_error("detector golden parse: expected '" +
                               std::string(key) + "', got '" + tok + "'");
    }
  };
  DetectorGoldens g;
  expect_key("seed");
  is >> g.seed;
  expect_key("scales");
  is >> g.scales;
  expect_key("scenarios");
  std::size_t n_scen = 0;
  is >> n_scen;
  g.scenarios.resize(n_scen);
  for (std::string& s : g.scenarios) is >> s;
  expect_key("detectors");
  std::size_t n_rows = 0;
  is >> n_rows;
  std::string word;
  for (std::size_t r = 0; r < n_rows; ++r) {
    DetectorGoldenRow row;
    is >> row.name >> word;
    row.threshold = bits_hex(word);
    row.runs.resize(n_scen);
    for (DetectorScenarioGolden& run : row.runs) {
      int detected = 0;
      is >> word >> detected >> run.peak_tile;
      run.score = bits_hex(word);
      run.detected = detected != 0;
    }
    g.rows.push_back(std::move(row));
  }
  if (!is) throw std::runtime_error("detector golden parse: truncated file");
  return g;
}

inline GoldenRun parse(const std::string& text) {
  std::istringstream is(text);
  auto expect_key = [&](const char* key) {
    std::string tok;
    is >> tok;
    if (tok != key) {
      throw std::runtime_error("golden parse: expected '" + std::string(key) +
                               "', got '" + tok + "'");
    }
  };
  std::string magic;
  std::string version;
  is >> magic >> version;
  if (magic != "psa-golden" || version != "v1") {
    throw std::runtime_error("golden parse: bad header");
  }
  GoldenRun run;
  expect_key("name");
  is >> run.name;
  expect_key("seed");
  is >> run.seed;
  expect_key("scores");
  std::size_t n_scores = 0;
  is >> n_scores;
  if (n_scores != run.scores.size()) {
    throw std::runtime_error("golden parse: bad score count");
  }
  std::string word;
  for (double& s : run.scores) {
    is >> word;
    s = bits_hex(word);
  }
  expect_key("best_sensor");
  is >> run.best_sensor;
  expect_key("localized");
  int localized = 0;
  is >> localized;
  run.localized = localized != 0;
  expect_key("contrast_db");
  is >> word;
  run.contrast_db = bits_hex(word);
  expect_key("spectrum");
  std::size_t n_bins = 0;
  is >> n_bins;
  run.freq_hz.resize(n_bins);
  run.magnitude.resize(n_bins);
  for (std::size_t i = 0; i < n_bins; ++i) {
    std::string f;
    std::string m;
    is >> f >> m;
    run.freq_hz[i] = bits_hex(f);
    run.magnitude[i] = bits_hex(m);
  }
  if (!is) throw std::runtime_error("golden parse: truncated file");
  return run;
}

}  // namespace psa::golden
