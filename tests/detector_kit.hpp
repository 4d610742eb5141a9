// detector_kit.hpp — the shared Detector conformance kit.
//
// Every analysis::Detector implementation instantiates this parameterized
// suite (see detector_bank_test.cpp) and must pass the same four contracts:
//
//   1. Determinism — calibrate + score is a pure function of its inputs:
//      score BYTES (std::bit_cast, not approximate equality) are identical
//      across repeated runs and across pool thread counts.
//   2. Enrollment-only calibration — the threshold derives from enrollment
//      observations alone: scoring never mutates it, recalibration on the
//      same data reproduces it bit-exactly, and scoring before calibration
//      throws. No test-scenario data can leak into the decision rule.
//   3. Mask-awareness — a masked tile is never read: arbitrary garbage
//      (even NaN) in a masked tile's spectrum cannot perturb the score by
//      a single bit.
//   4. Monotone response — the score is non-decreasing in the Trojan's
//      emission amplitude.
//
// The kit runs on synthetic observations (no chip simulation): a noise
// floor plus clock harmonics at 33/66/99 MHz, with per-tile analog gain
// drift, and an injectable Trojan signature (sidebands at 47.5 / 52.5 MHz,
// strongest in sensor tile 2) scaled by `trojan_amp`.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "analysis/detectors.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "fixtures.hpp"

namespace psa::tests {

inline std::uint64_t score_bits(double x) {
  return std::bit_cast<std::uint64_t>(x);
}

/// One synthetic spectrum tile: noise floor + clock comb + optional Trojan
/// sidebands, all scaled by an analog `gain`.
inline dsp::Spectrum synthetic_tile(std::uint64_t seed, double trojan_amp,
                                    double gain) {
  constexpr std::size_t kBins = 512;
  constexpr double kFMax = 120.0e6;
  dsp::Spectrum s;
  s.freq_hz.resize(kBins);
  s.magnitude.resize(kBins);
  Rng rng(seed);
  for (std::size_t i = 0; i < kBins; ++i) {
    const double f =
        kFMax * static_cast<double>(i) / static_cast<double>(kBins - 1);
    s.freq_hz[i] = f;
    double mag = 1.0e-6 * (1.0 + 0.25 * rng.uniform());
    for (const double h : {33.0e6, 66.0e6, 99.0e6}) {
      const double d = (f - h) / 0.8e6;
      mag += 3.0e-4 * std::exp(-d * d);
    }
    {
      const double d1 = (f - 47.5e6) / 0.6e6;
      const double d2 = (f - 52.5e6) / 0.6e6;
      mag += trojan_amp * (std::exp(-d1 * d1) + 0.6 * std::exp(-d2 * d2));
    }
    s.magnitude[i] = gain * mag;
  }
  return s;
}

/// A two-scale observation: [whole-die (1 tile), sensors (4 tiles)],
/// sensor_scale = 1. The Trojan is localized under sensor tile 2.
inline analysis::Observation synthetic_observation(std::uint64_t seed,
                                                   double trojan_amp) {
  analysis::Observation obs;
  Rng gains(seed ^ 0xD1CEULL);
  const auto gain = [&gains]() {
    return std::exp(0.03 * gains.gaussian());
  };

  analysis::Observation::Scale die;
  die.name = "die";
  die.tiles.push_back(
      synthetic_tile(seed * 1000003ULL + 99, 0.5 * trojan_amp, gain()));
  die.masked.assign(1, 0);
  obs.scales.push_back(std::move(die));

  analysis::Observation::Scale sensors;
  sensors.name = "sensor";
  const double tile_amp[4] = {0.05, 0.3, 1.0, 0.05};
  for (std::size_t k = 0; k < 4; ++k) {
    sensors.tiles.push_back(synthetic_tile(seed * 1000003ULL + k,
                                           tile_amp[k] * trojan_amp, gain()));
  }
  sensors.masked.assign(4, 0);
  obs.sensor_scale = obs.scales.size();
  obs.scales.push_back(std::move(sensors));
  return obs;
}

inline std::vector<analysis::Observation> synthetic_enrollment(
    std::uint64_t seed, std::size_t n = 6) {
  std::vector<analysis::Observation> enrollment;
  enrollment.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    enrollment.push_back(synthetic_observation(seed + 31 * i, 0.0));
  }
  return enrollment;
}

/// How the kit builds the detector under test.
struct DetectorFactory {
  std::string name;
  std::function<std::unique_ptr<analysis::Detector>()> make;
};

// gtest prints a parameter into every test's listed name; without this it
// dumps the struct's bytes, heap pointers included, so names change per run.
inline void PrintTo(const DetectorFactory& factory, std::ostream* os) {
  *os << factory.name;
}

inline std::string DetectorFactoryName(
    const testing::TestParamInfo<DetectorFactory>& info) {
  return info.param.name;
}

class DetectorConformance : public testing::TestWithParam<DetectorFactory> {
 protected:
  std::unique_ptr<analysis::Detector> make() const { return GetParam().make(); }

  /// Calibrated-and-scored bytes for one full run at `threads` pool threads.
  std::uint64_t run_bits(std::size_t threads, std::uint64_t seed,
                         double amp) const {
    ThreadCountGuard guard;
    set_thread_count(threads);
    auto det = make();
    det->calibrate(synthetic_enrollment(seed));
    return score_bits(det->score(synthetic_observation(seed + 7, amp)).score);
  }
};

TEST_P(DetectorConformance, NameMatchesFactory) {
  EXPECT_EQ(make()->name(), GetParam().name);
}

TEST_P(DetectorConformance, ScoreBytesDeterministicAcrossRunsAndThreads) {
  const std::uint64_t clean1 = run_bits(1, 500, 0.0);
  const std::uint64_t clean4 = run_bits(4, 500, 0.0);
  const std::uint64_t clean1b = run_bits(1, 500, 0.0);
  EXPECT_EQ(clean1, clean4);
  EXPECT_EQ(clean1, clean1b);
  const std::uint64_t hot1 = run_bits(1, 500, 2.0e-3);
  const std::uint64_t hot4 = run_bits(4, 500, 2.0e-3);
  EXPECT_EQ(hot1, hot4);
}

TEST_P(DetectorConformance, ScoreBeforeCalibrateThrows) {
  auto det = make();
  EXPECT_FALSE(det->calibrated());
  EXPECT_THROW(det->score(synthetic_observation(1, 0.0)), std::logic_error);
}

TEST_P(DetectorConformance, RejectsTinyEnrollment) {
  auto det = make();
  std::vector<analysis::Observation> two = {synthetic_observation(1, 0.0),
                                            synthetic_observation(2, 0.0)};
  EXPECT_THROW(det->calibrate(two), std::invalid_argument);
}

TEST_P(DetectorConformance, CalibrationIsEnrollmentOnly) {
  const auto enrollment = synthetic_enrollment(900);
  auto det = make();
  det->calibrate(enrollment);
  ASSERT_TRUE(det->calibrated());
  const std::uint64_t thr_before = score_bits(det->threshold());

  // Scoring — including wildly anomalous observations — must not move the
  // threshold: score() is const and the decision rule is enrollment-only.
  for (int i = 0; i < 3; ++i) {
    (void)det->score(synthetic_observation(901 + i, 5.0e-3));
  }
  EXPECT_EQ(score_bits(det->threshold()), thr_before);

  // Recalibration on the same enrollment reproduces the rule bit-exactly.
  auto det2 = make();
  det2->calibrate(enrollment);
  EXPECT_EQ(score_bits(det2->threshold()), thr_before);
  const analysis::Observation probe = synthetic_observation(950, 1.0e-3);
  EXPECT_EQ(score_bits(det->score(probe).score),
            score_bits(det2->score(probe).score));
}

TEST_P(DetectorConformance, MaskedTilesAreNeverRead) {
  // Calibrate with sensor tile 3 masked throughout enrollment.
  auto enrollment = synthetic_enrollment(700);
  for (analysis::Observation& obs : enrollment) {
    obs.scales[obs.sensor_scale].masked[3] = 1;
  }
  auto det = make();
  det->calibrate(enrollment);

  analysis::Observation clean = synthetic_observation(777, 1.0e-3);
  clean.scales[clean.sensor_scale].masked[3] = 1;
  analysis::Observation garbage = clean;  // identical except the masked tile
  for (double& m : garbage.scales[garbage.sensor_scale].tiles[3].magnitude) {
    m = std::numeric_limits<double>::quiet_NaN();
  }
  const auto a = det->score(clean);
  const auto b = det->score(garbage);
  EXPECT_EQ(score_bits(a.score), score_bits(b.score));
  EXPECT_EQ(a.detected, b.detected);
  EXPECT_EQ(a.peak_tile, b.peak_tile);
  EXPECT_TRUE(std::isfinite(a.score));
}

TEST_P(DetectorConformance, ScoreMonotoneInTrojanAmplitude) {
  auto det = make();
  det->calibrate(synthetic_enrollment(300));
  const double amp0 = 4.0e-4;
  double prev = -1.0;
  for (const double amp : {amp0, 4.0 * amp0, 16.0 * amp0}) {
    const double s = det->score(synthetic_observation(333, amp)).score;
    EXPECT_GE(s, prev) << "amplitude " << amp;
    prev = s;
  }
  // And a strong Trojan must actually cross the calibrated threshold.
  EXPECT_TRUE(det->score(synthetic_observation(333, 16.0 * amp0)).detected);
}

}  // namespace psa::tests
