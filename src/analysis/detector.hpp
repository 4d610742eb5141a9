// detector.hpp — golden-model-free frequency-domain Trojan detection.
//
// No Trojan-free reference chip exists (the paper's threat model assumes the
// whole batch may be infected). Instead the detector *enrolls on the device
// itself*: it learns per-bin statistics of the spectrum under normal
// operation over a short enrollment window. A Trojan payload that later
// activates adds new spectral lines — sidebands of the clock harmonics
// (48 / 84 MHz on the test chip) — which show up as extreme robust z-scores
// against the enrolled background. Robust statistics (median / MAD) keep a
// Trojan that is already active during enrollment from fully absorbing into
// the baseline, and keep occasional outlier bins from causing false alarms.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "dsp/spectrum.hpp"

namespace psa::analysis {

struct DetectionResult {
  bool detected = false;
  double score = 0.0;         // strongest robust z across bins
  /// Frequency to hand to zero-span mode: the strongest *novel* spectral
  /// line (a bin whose enrolled magnitude was near the floor — a Trojan
  /// sideband), falling back to the strongest anomalous bin.
  double peak_freq_hz = 0.0;
  /// Amplitude excess (observed − enrolled median) at the peak [V]. Unlike
  /// z, this is a physical quantity comparable across sensors, so the
  /// localization heat map is built from it.
  double peak_delta_v = 0.0;
  bool peak_is_novel = false;  // peak is a new line, not a grown harmonic
  std::vector<std::size_t> anomalous_bins;  // all bins above threshold
};

class GoldenFreeDetector {
 public:
  struct Params {
    double z_threshold = 25.0;   // robust z that triggers detection
    double mad_floor = 1.0e-7;   // guards bins with near-zero spread [V]
    std::size_t min_anomalous_bins = 2;  // sidebands come in groups
    /// Bins below this frequency are ignored: the AC-coupled front-end has
    /// no calibrated response there, so their near-zero spread would
    /// dominate the z-scores with meaningless values.
    double min_freq_hz = 12.0e6;
    /// An anomalous bin counts as a *novel line* when the observation
    /// exceeds this multiple of the enrolled median — i.e. the line was not
    /// part of the background comb (Trojan sidebands), as opposed to a
    /// clock harmonic that merely grew.
    double novelty_ratio = 4.0;
    /// Normalize every spectrum by its in-band mean magnitude before
    /// scoring. Removes per-measurement analog gain drift — the detector
    /// keys on spectral *shape* (new lines), not absolute level.
    bool normalize = true;
    /// The system clock is known to the analyst; bins within
    /// `harmonic_guard_hz` of any clock harmonic are never chosen as the
    /// *novel* peak (their leakage skirts light up whenever a harmonic
    /// grows, but zero-span there would just show the clock line).
    double clock_hz = 33.0e6;
    double harmonic_guard_hz = 2.5e6;
  };

  GoldenFreeDetector() : GoldenFreeDetector(Params()) {}
  explicit GoldenFreeDetector(const Params& p) : p_(p) {}

  /// Learn per-bin median and MAD from enrollment spectra (>= 3). All
  /// spectra must share one frequency grid.
  void enroll(std::span<const dsp::Spectrum> enrollment);

  bool enrolled() const { return !median_.empty(); }

  /// Score one observation against the enrolled background.
  DetectionResult score(const dsp::Spectrum& observation) const;

  /// Per-bin robust z-scores.
  std::vector<double> zscores(const dsp::Spectrum& observation) const;

  const Params& params() const { return p_; }

 private:
  /// In-band mean magnitude of a spectrum (the normalization reference).
  double band_norm(const dsp::Spectrum& s) const;
  /// Observation magnitudes after optional drift normalization.
  std::vector<double> normalized(const dsp::Spectrum& s) const;
  /// Throws unless enrolled and `s` is on the enrolled grid.
  void check_scorable(const dsp::Spectrum& s) const;
  /// Robust z-score of normalized magnitude `mag` in bin `b` (0 when the
  /// bin is below the frequency mask).
  double z_at(double mag, std::size_t b) const;

  Params p_;
  std::vector<double> freq_hz_;
  std::vector<double> median_;
  std::vector<double> spread_;  // 1.4826*MAD + floor
  double ref_norm_ = 0.0;       // median band norm of the enrollment set
};

}  // namespace psa::analysis
