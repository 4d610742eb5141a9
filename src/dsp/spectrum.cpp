#include "dsp/spectrum.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "common/units.hpp"
#include "dsp/fft.hpp"

namespace psa::dsp {

std::vector<double> Spectrum::magnitude_db() const {
  std::vector<double> out(magnitude.size());
  for (std::size_t i = 0; i < magnitude.size(); ++i) {
    out[i] = amplitude_db(magnitude[i]);
  }
  return out;
}

double Spectrum::value_at(double hz) const {
  if (freq_hz.empty()) return 0.0;
  if (hz <= freq_hz.front()) return magnitude.front();
  if (hz >= freq_hz.back()) return magnitude.back();
  const auto it = std::lower_bound(freq_hz.begin(), freq_hz.end(), hz);
  const std::size_t hi = static_cast<std::size_t>(it - freq_hz.begin());
  const std::size_t lo = hi - 1;
  const double span_hz = freq_hz[hi] - freq_hz[lo];
  const double t = span_hz > 0.0 ? (hz - freq_hz[lo]) / span_hz : 0.0;
  return magnitude[lo] + t * (magnitude[hi] - magnitude[lo]);
}

std::size_t Spectrum::nearest_bin(double hz) const {
  if (freq_hz.empty()) throw std::logic_error("Spectrum::nearest_bin: empty");
  const auto it = std::lower_bound(freq_hz.begin(), freq_hz.end(), hz);
  if (it == freq_hz.begin()) return 0;
  if (it == freq_hz.end()) return freq_hz.size() - 1;
  const std::size_t hi = static_cast<std::size_t>(it - freq_hz.begin());
  return (hz - freq_hz[hi - 1] <= freq_hz[hi] - hz) ? hi - 1 : hi;
}

std::optional<std::size_t> Spectrum::try_peak_bin(double f_lo,
                                                  double f_hi) const {
  if (f_lo > f_hi) std::swap(f_lo, f_hi);
  // The grid ascends, so the window is one contiguous run: binary-search its
  // left edge instead of scanning every bin below it.
  const auto first = std::lower_bound(freq_hz.begin(), freq_hz.end(), f_lo);
  std::optional<std::size_t> best;
  double best_mag = -1.0;
  for (std::size_t i = static_cast<std::size_t>(first - freq_hz.begin());
       i < size() && freq_hz[i] <= f_hi; ++i) {
    if (magnitude[i] > best_mag) {
      best_mag = magnitude[i];
      best = i;
    }
  }
  return best;
}

std::size_t Spectrum::peak_bin(double f_lo, double f_hi) const {
  const std::optional<std::size_t> best = try_peak_bin(f_lo, f_hi);
  if (!best) {
    throw std::invalid_argument("Spectrum::peak_bin: no bin in window");
  }
  return *best;
}

namespace {

// Shared core of the fast paths: cached window, then the packed real FFT
// unpacked only for the first `n_bins` half-spectrum bins (0 = all).
Spectrum amplitude_spectrum_fast(std::span<const double> signal,
                                 double sample_rate_hz, WindowKind window,
                                 std::size_t n_bins) {
  if (signal.empty() || sample_rate_hz <= 0.0) {
    throw std::invalid_argument("amplitude_spectrum: bad inputs");
  }
  const std::size_t n = next_pow2(signal.size());
  const std::shared_ptr<const CachedWindow> w =
      cached_window(window, signal.size());
  thread_local std::vector<cplx> half;
  rfft_band(signal, w->coeffs, n_bins == 0 ? n / 2 + 1 : n_bins, half);
  // Window amplitude correction uses the pre-padding length.
  const double scale =
      2.0 / (w->coherent_gain * static_cast<double>(signal.size()));

  Spectrum s;
  s.freq_hz.resize(half.size());
  s.magnitude.resize(half.size());
  const double df = sample_rate_hz / static_cast<double>(n);
  for (std::size_t k = 0; k < half.size(); ++k) {
    s.freq_hz[k] = df * static_cast<double>(k);
    // sqrt(re^2+im^2) instead of std::abs's overflow-proof hypot: these are
    // sub-volt magnitudes, and the spectrum values already carry the packed
    // FFT's ~1 ulp rounding.
    const double re = half[k].real();
    const double im = half[k].imag();
    double m = std::sqrt(re * re + im * im) * scale;
    if (k == 0 || k == n / 2) m *= 0.5;  // DC/Nyquist: no mirror
    s.magnitude[k] = m;
  }
  return s;
}

}  // namespace

Spectrum amplitude_spectrum(std::span<const double> signal,
                            double sample_rate_hz, WindowKind window) {
  return amplitude_spectrum_fast(signal, sample_rate_hz, window, 0);
}

Spectrum amplitude_spectrum_band(std::span<const double> signal,
                                 double sample_rate_hz, double f_max_hz,
                                 WindowKind window) {
  if (f_max_hz <= 0.0) {
    throw std::invalid_argument("amplitude_spectrum_band: bad f_max");
  }
  const std::size_t n = next_pow2(signal.size());
  const double df = sample_rate_hz / static_cast<double>(n);
  // Bins 0..ceil(f_max/df): the last one sits at or above f_max so the
  // display resample can interpolate right up to its edge.
  const std::size_t n_bins =
      static_cast<std::size_t>(std::ceil(f_max_hz / df)) + 1;
  return amplitude_spectrum_fast(signal, sample_rate_hz, window, n_bins);
}

Spectrum amplitude_spectrum_reference(std::span<const double> signal,
                                      double sample_rate_hz,
                                      WindowKind window) {
  if (signal.empty() || sample_rate_hz <= 0.0) {
    throw std::invalid_argument("amplitude_spectrum: bad inputs");
  }
  const std::size_t n = next_pow2(signal.size());
  std::vector<double> buf(signal.begin(), signal.end());
  const std::vector<double> w = make_window(window, signal.size());
  apply_window(std::span<double>(buf.data(), signal.size()), w);
  buf.resize(n, 0.0);

  const std::vector<cplx> half = rfft_reference(buf);
  // Window amplitude correction uses the pre-padding length.
  const double cg = coherent_gain(w);
  const double scale =
      2.0 / (cg * static_cast<double>(signal.size()));

  Spectrum s;
  s.freq_hz.resize(half.size());
  s.magnitude.resize(half.size());
  const double df = sample_rate_hz / static_cast<double>(n);
  for (std::size_t k = 0; k < half.size(); ++k) {
    s.freq_hz[k] = df * static_cast<double>(k);
    double m = std::abs(half[k]) * scale;
    if (k == 0 || k == half.size() - 1) m *= 0.5;  // DC/Nyquist: no mirror
    s.magnitude[k] = m;
  }
  return s;
}

void average_spectra_into(std::span<const Spectrum> spectra, Spectrum& out) {
  if (spectra.empty()) throw std::invalid_argument("average_spectra: empty");
  out = spectra.front();  // copy-assign reuses out's buffers when sized
  for (std::size_t i = 1; i < spectra.size(); ++i) {
    if (spectra[i].size() != out.size()) {
      throw std::invalid_argument("average_spectra: grid mismatch");
    }
    for (std::size_t k = 0; k < out.size(); ++k) {
      // Equal bin counts are not enough: averaging bin k of two different
      // frequency grids silently mixes unrelated frequencies.
      const double fa = out.freq_hz[k];
      const double fb = spectra[i].freq_hz[k];
      const double tol = 1e-6 + 1e-9 * std::fabs(fa);
      if (std::fabs(fa - fb) > tol) {
        throw std::invalid_argument(
            "average_spectra: frequency grids differ");
      }
      out.magnitude[k] += spectra[i].magnitude[k];
    }
  }
  const double inv = 1.0 / static_cast<double>(spectra.size());
  for (double& m : out.magnitude) m *= inv;
}

Spectrum average_spectra(std::span<const Spectrum> spectra) {
  Spectrum avg;
  average_spectra_into(spectra, avg);
  return avg;
}

Spectrum resample(const Spectrum& s, double f_max_hz, std::size_t n_points) {
  if (n_points < 2) throw std::invalid_argument("resample: need >=2 points");
  Spectrum out;
  out.freq_hz.resize(n_points);
  out.magnitude.resize(n_points);
  // Both grids ascend, so one forward-moving cursor replaces value_at's
  // per-point binary search; the boundary handling and interpolation
  // arithmetic mirror value_at exactly.
  std::size_t hi = 0;
  for (std::size_t i = 0; i < n_points; ++i) {
    const double f =
        f_max_hz * static_cast<double>(i) / static_cast<double>(n_points - 1);
    out.freq_hz[i] = f;
    if (s.freq_hz.empty()) {
      out.magnitude[i] = 0.0;
    } else if (f <= s.freq_hz.front()) {
      out.magnitude[i] = s.magnitude.front();
    } else if (f >= s.freq_hz.back()) {
      out.magnitude[i] = s.magnitude.back();
    } else {
      while (s.freq_hz[hi] < f) ++hi;
      const std::size_t lo = hi - 1;
      const double span_hz = s.freq_hz[hi] - s.freq_hz[lo];
      const double t = span_hz > 0.0 ? (f - s.freq_hz[lo]) / span_hz : 0.0;
      out.magnitude[i] =
          s.magnitude[lo] + t * (s.magnitude[hi] - s.magnitude[lo]);
    }
  }
  return out;
}

std::vector<double> difference_db(const Spectrum& a, const Spectrum& b) {
  std::vector<double> out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double mb = b.value_at(a.freq_hz[i]);
    out[i] = amplitude_db(a.magnitude[i]) - amplitude_db(mb);
  }
  return out;
}

}  // namespace psa::dsp
