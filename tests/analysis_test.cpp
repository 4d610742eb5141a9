// Analysis layer in isolation: golden-free detector, localizer folding,
// identifier signature rules on synthetic envelopes.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <vector>

#include "analysis/detector.hpp"
#include "dsp/stats.hpp"
#include "analysis/identifier.hpp"
#include "analysis/localizer.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "fixtures.hpp"

namespace psa::analysis {
namespace {

dsp::Spectrum background(Rng& rng, double line_at_33 = 1.0, int bins = 200) {
  // `bins`-bin spectrum 0..120 MHz with a floor, a 33 MHz comb line, and
  // multiplicative jitter — a miniature of the chip's display spectrum.
  dsp::Spectrum s;
  for (int i = 0; i < bins; ++i) {
    const double f = 120.0e6 * i / (bins - 1);
    s.freq_hz.push_back(f);
    double m = 1.0e-4 * (1.0 + 0.1 * rng.gaussian());
    if (std::fabs(f - 33.0e6) < 0.7e6) m += line_at_33;
    s.magnitude.push_back(std::max(m, 1e-7));
  }
  return s;
}

std::vector<dsp::Spectrum> enrollment_set(Rng& rng, int n = 8) {
  std::vector<dsp::Spectrum> v;
  for (int i = 0; i < n; ++i) v.push_back(background(rng));
  return v;
}

TEST(Detector, RequiresEnrollment) {
  GoldenFreeDetector det;
  EXPECT_FALSE(det.enrolled());
  Rng rng(tests::kRngStreamBase + 1);
  const dsp::Spectrum obs = background(rng);
  EXPECT_THROW(det.score(obs), std::logic_error);
  EXPECT_THROW(det.zscores(obs), std::logic_error);
}

TEST(Detector, EnrollValidation) {
  GoldenFreeDetector det;
  Rng rng(tests::kRngStreamBase + 2);
  std::vector<dsp::Spectrum> two = {background(rng), background(rng)};
  EXPECT_THROW(det.enroll(two), std::invalid_argument);
}

TEST(Detector, QuietObservationScoresLow) {
  GoldenFreeDetector det;
  Rng rng(tests::kRngStreamBase + 3);
  det.enroll(enrollment_set(rng));
  const DetectionResult r = det.score(background(rng));
  EXPECT_FALSE(r.detected);
  EXPECT_LT(r.score, det.params().z_threshold);
}

TEST(Detector, NewSidebandDetectedAndNovel) {
  GoldenFreeDetector det;
  Rng rng(tests::kRngStreamBase + 4);
  det.enroll(enrollment_set(rng));
  dsp::Spectrum obs = background(rng);
  // Inject a sideband at 48 MHz, away from the 33 MHz harmonic.
  const std::size_t bin = obs.nearest_bin(48.0e6);
  obs.magnitude[bin] += 0.02;
  obs.magnitude[bin + 1] += 0.015;
  const DetectionResult r = det.score(obs);
  EXPECT_TRUE(r.detected);
  EXPECT_TRUE(r.peak_is_novel);
  EXPECT_NEAR(r.peak_freq_hz, 48.0e6, 1.5e6);
  EXPECT_GT(r.peak_delta_v, 0.01);
}

TEST(Detector, GrownHarmonicDetectedButNotNovel) {
  // Normalization off: this test checks the harmonic-guard semantics on a
  // synthetic background whose single line dominates the band norm.
  GoldenFreeDetector::Params params;
  params.normalize = false;
  GoldenFreeDetector det(params);
  Rng rng(tests::kRngStreamBase + 5);
  det.enroll(enrollment_set(rng));
  dsp::Spectrum obs = background(rng);
  // The 33 MHz line grows strongly but no new line appears. Make the growth
  // span two bins so min_anomalous_bins is met.
  const std::size_t bin = obs.nearest_bin(33.0e6);
  obs.magnitude[bin] *= 1.5;
  obs.magnitude[bin - 1] += 0.3;
  const DetectionResult r = det.score(obs);
  EXPECT_TRUE(r.detected);
  // Peak falls back to the harmonic but is flagged non-novel (inside the
  // clock guard or below the novelty ratio).
  EXPECT_FALSE(r.peak_is_novel);
}

TEST(Detector, LowFrequencyBinsMasked) {
  GoldenFreeDetector det;
  Rng rng(tests::kRngStreamBase + 6);
  det.enroll(enrollment_set(rng));
  dsp::Spectrum obs = background(rng);
  obs.magnitude[obs.nearest_bin(5.0e6)] += 100.0;  // below min_freq_hz
  const DetectionResult r = det.score(obs);
  EXPECT_FALSE(r.detected);
}

TEST(Detector, DeltasArePhysicalVolts) {
  GoldenFreeDetector::Params params;
  params.normalize = false;
  GoldenFreeDetector det(params);
  Rng rng(tests::kRngStreamBase + 7);
  det.enroll(enrollment_set(rng));
  dsp::Spectrum obs = background(rng);
  const std::size_t bin = obs.nearest_bin(60.0e6);
  obs.magnitude[bin] += 0.5;
  const DetectionResult r = det.score(obs);
  EXPECT_EQ(r.peak_freq_hz, obs.freq_hz[bin]);
  EXPECT_NEAR(r.peak_delta_v, 0.5, 0.01);
}

TEST(Detector, GridMismatchThrows) {
  GoldenFreeDetector det;
  Rng rng(tests::kRngStreamBase + 8);
  det.enroll(enrollment_set(rng));
  dsp::Spectrum small;
  small.freq_hz = {0.0, 1.0};
  small.magnitude = {0.0, 0.0};
  EXPECT_THROW(det.score(small), std::invalid_argument);
}

TEST(Detector, NormalizationAbsorbsGainDrift) {
  // A pure analog gain change (every bin scaled alike) must not alarm: the
  // detector keys on spectral shape.
  GoldenFreeDetector det;  // normalize = true by default
  Rng rng(tests::kRngStreamBase + 9);
  det.enroll(enrollment_set(rng));
  dsp::Spectrum obs = background(rng);
  for (double& m : obs.magnitude) m *= 1.25;  // +25 % gain drift
  const DetectionResult r = det.score(obs);
  EXPECT_FALSE(r.detected);
}

TEST(Detector, NormalizedStillCatchesNewLine) {
  GoldenFreeDetector det;
  Rng rng(tests::kRngStreamBase + 10);
  det.enroll(enrollment_set(rng));
  dsp::Spectrum obs = background(rng);
  for (double& m : obs.magnitude) m *= 1.15;  // drift AND a new sideband
  const std::size_t bin = obs.nearest_bin(48.0e6);
  obs.magnitude[bin] += 0.05;
  obs.magnitude[bin + 1] += 0.04;
  const DetectionResult r = det.score(obs);
  EXPECT_TRUE(r.detected);
  EXPECT_NEAR(r.peak_freq_hz, 48.0e6, 1.5e6);
}

// ------------------------------------------------- enrollment fold oracle

/// GoldenFreeDetector as first written: the enrollment fold re-normalizes
/// every spectrum inside its per-bin loop (O(traces x bins^2)), and score()
/// normalizes the observation once for the z-scores and again for the
/// novelty test. Kept here only as the bit-exact oracle for the linear fold.
struct ReferenceDetector {
  GoldenFreeDetector::Params p;
  std::vector<double> freq_hz, median, spread;
  double ref_norm = 0.0;

  double band_norm(const dsp::Spectrum& s) const {
    double sum = 0.0;
    std::size_t n = 0;
    for (std::size_t b = 0; b < s.size(); ++b) {
      if (s.freq_hz[b] < p.min_freq_hz) continue;
      sum += s.magnitude[b];
      ++n;
    }
    return n > 0 ? sum / static_cast<double>(n) : 0.0;
  }

  std::vector<double> normalized(const dsp::Spectrum& s) const {
    std::vector<double> mags = s.magnitude;
    if (p.normalize && ref_norm > 0.0) {
      const double norm = band_norm(s);
      if (norm > 0.0) {
        const double scale = ref_norm / norm;
        for (double& m : mags) m *= scale;
      }
    }
    return mags;
  }

  void enroll(std::span<const dsp::Spectrum> enrollment) {
    const std::size_t bins = enrollment.front().size();
    freq_hz = enrollment.front().freq_hz;
    median.assign(bins, 0.0);
    spread.assign(bins, 0.0);
    std::vector<double> norms;
    for (const dsp::Spectrum& s : enrollment) norms.push_back(band_norm(s));
    ref_norm = dsp::median(norms);
    std::vector<double> column(enrollment.size());
    for (std::size_t b = 0; b < bins; ++b) {
      for (std::size_t i = 0; i < enrollment.size(); ++i) {
        const std::vector<double> mags = normalized(enrollment[i]);
        column[i] = mags[b];
      }
      median[b] = dsp::median(column);
      spread[b] = 1.4826 * dsp::median_abs_deviation(column) + p.mad_floor;
    }
  }

  std::vector<double> zscores(const dsp::Spectrum& obs) const {
    const std::vector<double> mags = normalized(obs);
    std::vector<double> z(median.size());
    for (std::size_t b = 0; b < z.size(); ++b) {
      if (freq_hz[b] < p.min_freq_hz) {
        z[b] = 0.0;
        continue;
      }
      z[b] = (mags[b] - median[b]) / spread[b];
    }
    return z;
  }

  DetectionResult score(const dsp::Spectrum& obs) const {
    const std::vector<double> z = zscores(obs);
    const std::vector<double> mags = normalized(obs);
    DetectionResult r;
    double best_any_delta = -1.0;
    double best_novel_delta = -1.0;
    std::size_t best_any = 0;
    std::size_t best_novel = 0;
    for (std::size_t b = 0; b < z.size(); ++b) {
      r.score = std::max(r.score, z[b]);
      if (z[b] <= p.z_threshold) continue;
      r.anomalous_bins.push_back(b);
      const double delta = obs.magnitude[b] - median[b];
      if (delta > best_any_delta) {
        best_any_delta = delta;
        best_any = b;
      }
      const double offset = std::fabs(
          freq_hz[b] - p.clock_hz * std::round(freq_hz[b] / p.clock_hz));
      const bool novel = mags[b] > p.novelty_ratio * median[b] &&
                         offset > p.harmonic_guard_hz;
      if (novel && delta > best_novel_delta) {
        best_novel_delta = delta;
        best_novel = b;
      }
    }
    r.detected = r.anomalous_bins.size() >= p.min_anomalous_bins &&
                 r.score > p.z_threshold;
    if (best_novel_delta >= 0.0) {
      r.peak_freq_hz = freq_hz[best_novel];
      r.peak_delta_v = best_novel_delta;
      r.peak_is_novel = true;
    } else if (best_any_delta >= 0.0) {
      r.peak_freq_hz = freq_hz[best_any];
      r.peak_delta_v = best_any_delta;
    }
    return r;
  }
};

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Zero every in-band magnitude, so the spectrum's band norm is 0.
dsp::Spectrum zero_in_band(dsp::Spectrum s, double min_freq_hz) {
  for (std::size_t b = 0; b < s.size(); ++b) {
    if (s.freq_hz[b] >= min_freq_hz) s.magnitude[b] = 0.0;
  }
  return s;
}

TEST(Detector, LinearFoldMatchesPerBinOracleBitForBit) {
  Rng rng(tests::kRngStreamBase + 11);
  for (const std::size_t n : {3u, 4u, 8u}) {
    for (const bool normalize : {true, false}) {
      // 0 zero-norm spectra, one (skipped by normalization), or a majority
      // (the reference norm itself is 0, so nothing is rescaled).
      for (const std::size_t zeros : {std::size_t{0}, std::size_t{1},
                                      n / 2 + 1}) {
        SCOPED_TRACE(::testing::Message() << "n=" << n << " normalize="
                                          << normalize << " zeros=" << zeros);
        GoldenFreeDetector::Params params;
        params.normalize = normalize;
        std::vector<dsp::Spectrum> set;
        for (std::size_t i = 0; i < n; ++i) {
          dsp::Spectrum s = background(rng);
          for (double& m : s.magnitude) m *= 1.0 + 0.05 * i;  // gain drift
          set.push_back(i < zeros ? zero_in_band(s, params.min_freq_hz) : s);
        }
        GoldenFreeDetector det(params);
        det.enroll(set);
        ReferenceDetector ref{params};
        ref.enroll(set);

        dsp::Spectrum sideband = background(rng);
        sideband.magnitude[sideband.nearest_bin(48.0e6)] += 0.02;
        sideband.magnitude[sideband.nearest_bin(48.0e6) + 1] += 0.015;
        dsp::Spectrum drifted = background(rng);
        for (double& m : drifted.magnitude) m *= 1.25;
        for (const dsp::Spectrum& obs :
             {background(rng), sideband, drifted,
              zero_in_band(background(rng), params.min_freq_hz), set.front()}) {
          EXPECT_TRUE(same_bits(det.zscores(obs), ref.zscores(obs)));
          const DetectionResult got = det.score(obs);
          const DetectionResult want = ref.score(obs);
          EXPECT_TRUE(same_bits(got.score, want.score));
          EXPECT_EQ(got.detected, want.detected);
          EXPECT_TRUE(same_bits(got.peak_freq_hz, want.peak_freq_hz));
          EXPECT_TRUE(same_bits(got.peak_delta_v, want.peak_delta_v));
          EXPECT_EQ(got.peak_is_novel, want.peak_is_novel);
          EXPECT_EQ(got.anomalous_bins, want.anomalous_bins);
        }
      }
    }
  }
}

TEST(Detector, EnrollCostIsLinearInBins) {
  // Fastest of 5 interleaved enrollments at 1x and 8x the bin count. A fold
  // linear in traces x bins scales ~8x; the per-bin re-normalizing fold it
  // replaced scaled ~64x.
  Rng rng(tests::kRngStreamBase + 12);
  const auto make_set = [&rng](int bins) {
    std::vector<dsp::Spectrum> set;
    for (int i = 0; i < 8; ++i) set.push_back(background(rng, 1.0, bins));
    return set;
  };
  const std::vector<dsp::Spectrum> small = make_set(1024);
  const std::vector<dsp::Spectrum> large = make_set(8 * 1024);
  const auto enroll_s = [](const std::vector<dsp::Spectrum>& set) {
    GoldenFreeDetector det;
    const auto t0 = std::chrono::steady_clock::now();
    det.enroll(set);
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
  };
  double t1 = std::numeric_limits<double>::infinity();
  double t8 = t1;
  for (int rep = 0; rep < 5; ++rep) {
    t1 = std::min(t1, enroll_s(small));
    t8 = std::min(t8, enroll_s(large));
  }
  EXPECT_LT(t8, 20.0 * t1) << "1x: " << t1 * 1e3 << " ms, 8x: " << t8 * 1e3
                           << " ms";
}

// ---------------------------------------------------------------- localizer

TEST(Localizer, ArgmaxAndRegion) {
  std::array<double, 16> scores{};
  scores[10] = 1.0;
  scores[0] = 0.001;
  const LocalizationResult r = localize_from_scores(scores);
  EXPECT_TRUE(r.localized);
  EXPECT_EQ(r.best_sensor, 10u);
  EXPECT_EQ(r.region, layout::standard_sensor_region(10));
  EXPECT_GT(r.contrast_db, 20.0);
}

TEST(Localizer, FlatHeatMapNotLocalized) {
  std::array<double, 16> scores;
  scores.fill(0.5);
  const LocalizationResult r = localize_from_scores(scores);
  EXPECT_FALSE(r.localized);
  EXPECT_NEAR(r.contrast_db, 0.0, 1e-9);
}

TEST(Localizer, ContrastIsCapped) {
  std::array<double, 16> scores{};
  scores[3] = 2.0;  // every other sensor exactly zero
  const LocalizationResult r = localize_from_scores(scores);
  EXPECT_LE(r.contrast_db, 80.0 + 1e-9);
}

TEST(Localizer, AsciiHeatmapMarksWinner) {
  std::array<double, 16> scores{};
  scores[10] = 1.0;
  const LocalizationResult r = localize_from_scores(scores);
  const std::string art = r.ascii_heatmap();
  EXPECT_NE(art.find('*'), std::string::npos);
  EXPECT_NE(art.find('9'), std::string::npos);
}

// --------------------------------------------------------------- identifier

constexpr double kEnvRate = 10.0e6;

std::vector<double> t1_like(std::size_t n) {
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / kEnvRate;
    x[i] = 1.0 + 0.8 * std::sin(kTwoPi * 750.0e3 * t);
  }
  return x;
}

std::vector<double> t2_like(std::size_t n) {
  // Slow rail-to-rail trigger-run gating: ~64 µs period square.
  std::vector<double> x(n);
  const std::size_t period = static_cast<std::size_t>(64e-6 * kEnvRate);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = ((i / (period / 2)) % 2 == 0) ? 1.0 : 0.05;
  }
  return x;
}

std::vector<double> t3_like(std::size_t n, Rng& rng) {
  // PN chips at ~500 kHz: random binary, aperiodic.
  std::vector<double> x(n);
  const std::size_t chip = static_cast<std::size_t>(kEnvRate / 500.0e3);
  double level = 1.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (i % chip == 0) level = (rng() & 1) ? 1.0 : 0.05;
    x[i] = level;
  }
  return x;
}

std::vector<double> t4_like(std::size_t n) {
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / kEnvRate;
    x[i] = 1.0 + 0.03 * std::sin(kTwoPi * 1.0e3 * t);
  }
  return x;
}

TEST(Identifier, T1Signature) {
  const TrojanIdentifier id;
  const auto r = id.identify_envelope(t1_like(4096), kEnvRate);
  ASSERT_TRUE(r.kind.has_value());
  EXPECT_EQ(*r.kind, trojan::TrojanKind::kT1AmCarrier);
  EXPECT_NE(r.rationale.find("radio carrier"), std::string::npos);
}

TEST(Identifier, T2Signature) {
  const TrojanIdentifier id;
  const auto r = id.identify_envelope(t2_like(8192), kEnvRate);
  ASSERT_TRUE(r.kind.has_value());
  EXPECT_EQ(*r.kind, trojan::TrojanKind::kT2KeyLeak);
}

TEST(Identifier, T3Signature) {
  const TrojanIdentifier id;
  Rng rng(tests::kRngStreamBase + 12);
  const auto r = id.identify_envelope(t3_like(8192, rng), kEnvRate);
  ASSERT_TRUE(r.kind.has_value());
  EXPECT_EQ(*r.kind, trojan::TrojanKind::kT3CdmaLeak);
}

TEST(Identifier, T4Signature) {
  const TrojanIdentifier id;
  const auto r = id.identify_envelope(t4_like(4096), kEnvRate);
  ASSERT_TRUE(r.kind.has_value());
  EXPECT_EQ(*r.kind, trojan::TrojanKind::kT4DoS);
}

TEST(Identifier, ZeroSpanTraceOverload) {
  dsp::ZeroSpanTrace tr;
  const auto env = t4_like(2048);
  tr.magnitude = env;
  for (std::size_t i = 0; i < env.size(); ++i) {
    tr.time_s.push_back(static_cast<double>(i) / kEnvRate);
  }
  const TrojanIdentifier id;
  const auto r = id.identify(tr);
  ASSERT_TRUE(r.kind.has_value());
  EXPECT_EQ(*r.kind, trojan::TrojanKind::kT4DoS);
}

TEST(Identifier, UnsupervisedClusteringSeparatesFourKinds) {
  // The paper's "without full supervision" claim: envelopes of the four
  // Trojans fall into four clusters with no labels.
  Rng rng(tests::kRngStreamBase + 13);
  std::vector<ml::EnvelopeFeatures> feats;
  std::vector<int> truth;
  for (int rep = 0; rep < 6; ++rep) {
    feats.push_back(ml::extract_envelope_features(t1_like(4096), kEnvRate));
    truth.push_back(1);
    feats.push_back(ml::extract_envelope_features(t2_like(8192), kEnvRate));
    truth.push_back(2);
    feats.push_back(
        ml::extract_envelope_features(t3_like(8192, rng), kEnvRate));
    truth.push_back(3);
    feats.push_back(ml::extract_envelope_features(t4_like(4096), kEnvRate));
    truth.push_back(4);
  }
  Rng krng(tests::kRngStreamBase + 14);
  const auto labels = cluster_envelopes(feats, 4, krng);
  // Clustering is label-permutation-invariant: check purity instead.
  std::size_t correct = 0;
  for (int kind = 1; kind <= 4; ++kind) {
    std::array<int, 4> votes{};
    for (std::size_t i = 0; i < labels.size(); ++i) {
      if (truth[i] == kind) ++votes[labels[i]];
    }
    correct += static_cast<std::size_t>(
        *std::max_element(votes.begin(), votes.end()));
  }
  const double purity =
      static_cast<double>(correct) / static_cast<double>(labels.size());
  EXPECT_GE(purity, 0.9);
}

}  // namespace
}  // namespace psa::analysis
