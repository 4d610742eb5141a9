#include "analysis/detector.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dsp/stats.hpp"

namespace psa::analysis {

double GoldenFreeDetector::band_norm(const dsp::Spectrum& s) const {
  double sum = 0.0;
  std::size_t n = 0;
  for (std::size_t b = 0; b < s.size(); ++b) {
    if (s.freq_hz[b] < p_.min_freq_hz) continue;
    sum += s.magnitude[b];
    ++n;
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

std::vector<double> GoldenFreeDetector::normalized(
    const dsp::Spectrum& s) const {
  std::vector<double> mags = s.magnitude;
  if (p_.normalize && ref_norm_ > 0.0) {
    const double norm = band_norm(s);
    if (norm > 0.0) {
      const double scale = ref_norm_ / norm;
      for (double& m : mags) m *= scale;
    }
  }
  return mags;
}

void GoldenFreeDetector::enroll(std::span<const dsp::Spectrum> enrollment) {
  if (enrollment.size() < 3) {
    throw std::invalid_argument("GoldenFreeDetector: need >= 3 spectra");
  }
  const std::size_t bins = enrollment.front().size();
  for (const dsp::Spectrum& s : enrollment) {
    if (s.size() != bins) {
      throw std::invalid_argument("GoldenFreeDetector: grid mismatch");
    }
  }
  freq_hz_ = enrollment.front().freq_hz;
  median_.assign(bins, 0.0);
  spread_.assign(bins, 0.0);

  // Normalization reference: median in-band mean across the enrollment set.
  std::vector<double> norms;
  norms.reserve(enrollment.size());
  for (const dsp::Spectrum& s : enrollment) norms.push_back(band_norm(s));
  ref_norm_ = dsp::median(norms);

  // Normalize each spectrum once, then fold bin columns: O(traces x bins).
  std::vector<std::vector<double>> mags;
  for (const dsp::Spectrum& s : enrollment) mags.push_back(normalized(s));
  std::vector<double> column(enrollment.size());
  for (std::size_t b = 0; b < bins; ++b) {
    for (std::size_t i = 0; i < mags.size(); ++i) column[i] = mags[i][b];
    median_[b] = dsp::median(column);
    spread_[b] = 1.4826 * dsp::median_abs_deviation(column) + p_.mad_floor;
  }
}

void GoldenFreeDetector::check_scorable(const dsp::Spectrum& s) const {
  if (!enrolled()) throw std::logic_error("GoldenFreeDetector: not enrolled");
  if (s.size() != median_.size()) {
    throw std::invalid_argument("GoldenFreeDetector: grid mismatch");
  }
}

double GoldenFreeDetector::z_at(double mag, std::size_t b) const {
  if (freq_hz_[b] < p_.min_freq_hz) return 0.0;
  return (mag - median_[b]) / spread_[b];
}

std::vector<double> GoldenFreeDetector::zscores(
    const dsp::Spectrum& observation) const {
  check_scorable(observation);
  std::vector<double> z = normalized(observation);
  for (std::size_t b = 0; b < z.size(); ++b) z[b] = z_at(z[b], b);
  return z;
}

DetectionResult GoldenFreeDetector::score(
    const dsp::Spectrum& observation) const {
  check_scorable(observation);
  const std::vector<double> mags = normalized(observation);
  DetectionResult r;
  double best_any_delta = -1.0;
  double best_novel_delta = -1.0;
  std::size_t best_any = 0;
  std::size_t best_novel = 0;
  for (std::size_t b = 0; b < mags.size(); ++b) {
    const double z = z_at(mags[b], b);
    r.score = std::max(r.score, z);
    if (z <= p_.z_threshold) continue;
    r.anomalous_bins.push_back(b);
    // Physical amplitude excess, *not* drift-normalized: normalization
    // divides by the in-band mean, which a strong Trojan right under the
    // sensor inflates — deflating exactly the sensor that should win the
    // localization scan. Gain drift is percent-level against tens of dB of
    // spatial contrast.
    const double delta = observation.magnitude[b] - median_[b];
    if (delta > best_any_delta) {
      best_any_delta = delta;
      best_any = b;
    }
    const double offset =
        std::fabs(freq_hz_[b] -
                  p_.clock_hz * std::round(freq_hz_[b] / p_.clock_hz));
    const bool novel =
        mags[b] > p_.novelty_ratio * median_[b] &&
        offset > p_.harmonic_guard_hz;
    if (novel && delta > best_novel_delta) {
      best_novel_delta = delta;
      best_novel = b;
    }
  }
  r.detected = r.anomalous_bins.size() >= p_.min_anomalous_bins &&
               r.score > p_.z_threshold;
  if (best_novel_delta >= 0.0) {
    r.peak_freq_hz = freq_hz_[best_novel];
    r.peak_delta_v = best_novel_delta;
    r.peak_is_novel = true;
  } else if (best_any_delta >= 0.0) {
    r.peak_freq_hz = freq_hz_[best_any];
    r.peak_delta_v = best_any_delta;
  }
  return r;
}

}  // namespace psa::analysis
