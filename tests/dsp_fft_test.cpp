// FFT correctness: impulse/sine spectra, Parseval, linearity, round-trips,
// and bit-identity of the planned band-limited spectrum path with the
// copy-window-swap-unpack path it replaced.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

#include "afe/spectrum_analyzer.hpp"
#include "common/rng.hpp"
#include "common/simd/simd.hpp"
#include "common/units.hpp"
#include "dsp/fft.hpp"
#include "dsp/spectrum.hpp"
#include "dsp/window.hpp"

namespace psa::dsp {
namespace {

TEST(FftBasics, Pow2Helpers) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(1024));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(12));
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(5), 8u);
  EXPECT_EQ(next_pow2(1024), 1024u);
  EXPECT_EQ(next_pow2(1025), 2048u);
}

TEST(Fft, RejectsNonPow2) {
  std::vector<cplx> data(12);
  EXPECT_THROW(fft_inplace(data), std::invalid_argument);
}

TEST(Fft, ImpulseIsFlat) {
  std::vector<cplx> data(64, {0.0, 0.0});
  data[0] = {1.0, 0.0};
  fft_inplace(data);
  for (const cplx& c : data) {
    EXPECT_NEAR(c.real(), 1.0, 1e-12);
    EXPECT_NEAR(c.imag(), 0.0, 1e-12);
  }
}

TEST(Fft, DcOnly) {
  std::vector<cplx> data(32, {2.0, 0.0});
  fft_inplace(data);
  EXPECT_NEAR(std::abs(data[0]), 64.0, 1e-10);
  for (std::size_t k = 1; k < data.size(); ++k) {
    EXPECT_NEAR(std::abs(data[k]), 0.0, 1e-10);
  }
}

TEST(Fft, SinePeaksAtItsBin) {
  const std::size_t n = 256;
  const std::size_t bin = 17;
  std::vector<cplx> data(n);
  for (std::size_t i = 0; i < n; ++i) {
    data[i] = std::sin(kTwoPi * static_cast<double>(bin * i) /
                       static_cast<double>(n));
  }
  fft_inplace(data);
  // Sine amplitude 1 -> |X[bin]| = n/2.
  EXPECT_NEAR(std::abs(data[bin]), static_cast<double>(n) / 2.0, 1e-9);
  EXPECT_NEAR(std::abs(data[n - bin]), static_cast<double>(n) / 2.0, 1e-9);
  for (std::size_t k = 0; k < n; ++k) {
    if (k == bin || k == n - bin) continue;
    EXPECT_NEAR(std::abs(data[k]), 0.0, 1e-8) << "bin " << k;
  }
}

TEST(Fft, ParsevalHolds) {
  Rng rng(31);
  const std::size_t n = 512;
  std::vector<cplx> data(n);
  double time_energy = 0.0;
  for (auto& c : data) {
    c = {rng.gaussian(), rng.gaussian()};
    time_energy += std::norm(c);
  }
  fft_inplace(data);
  double freq_energy = 0.0;
  for (const auto& c : data) freq_energy += std::norm(c);
  EXPECT_NEAR(freq_energy / static_cast<double>(n), time_energy,
              time_energy * 1e-10);
}

TEST(Fft, Linearity) {
  Rng rng(77);
  const std::size_t n = 128;
  std::vector<cplx> a(n), b(n), sum(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = {rng.gaussian(), 0.0};
    b[i] = {rng.gaussian(), 0.0};
    sum[i] = 2.0 * a[i] + 3.0 * b[i];
  }
  fft_inplace(a);
  fft_inplace(b);
  fft_inplace(sum);
  for (std::size_t k = 0; k < n; ++k) {
    const cplx expect = 2.0 * a[k] + 3.0 * b[k];
    EXPECT_NEAR(std::abs(sum[k] - expect), 0.0, 1e-9);
  }
}

TEST(Ifft, RoundTripRestoresSignal) {
  Rng rng(5);
  const std::size_t n = 1024;
  std::vector<cplx> data(n);
  std::vector<cplx> orig(n);
  for (std::size_t i = 0; i < n; ++i) {
    data[i] = {rng.gaussian(), rng.gaussian()};
    orig[i] = data[i];
  }
  fft_inplace(data);
  ifft_inplace(data);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(std::abs(data[i] - orig[i]), 0.0, 1e-10);
  }
}

TEST(Rfft, MatchesFullFftHalf) {
  Rng rng(9);
  const std::size_t n = 256;
  std::vector<double> x(n);
  for (double& v : x) v = rng.gaussian();
  const std::vector<cplx> half = rfft(x);
  ASSERT_EQ(half.size(), n / 2 + 1);

  std::vector<cplx> full(x.begin(), x.end());
  fft_inplace(full);
  for (std::size_t k = 0; k <= n / 2; ++k) {
    EXPECT_NEAR(std::abs(half[k] - full[k]), 0.0, 1e-10);
  }
}

TEST(Rfft, IrfftRoundTrip) {
  Rng rng(21);
  const std::size_t n = 512;
  std::vector<double> x(n);
  for (double& v : x) v = rng.gaussian();
  const std::vector<double> y = irfft(rfft(x), n);
  ASSERT_EQ(y.size(), n);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(y[i], x[i], 1e-10);
}

// The spectrum path before the plan, the bit-reversed gather and the
// band-limited unpack: copy and window the signal, pad it, pack it into a
// half-length planar transform, bit-reverse it in place with swaps, run the
// radix-2 stages with the scalar reference butterfly, unpack every bin,
// then take the band's magnitudes and resample. Every value the library
// produces must match it bit for bit.
namespace oracle {

struct Twiddles {
  std::vector<double> re;
  std::vector<double> im;
};

Twiddles twiddles(std::size_t n, bool inverse) {
  Twiddles t;
  t.re.resize(n - 1);
  t.im.resize(n - 1);
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double ang =
        (inverse ? kTwoPi : -kTwoPi) / static_cast<double>(len);
    const cplx wlen(std::cos(ang), std::sin(ang));
    cplx w(1.0, 0.0);
    for (std::size_t k = 0; k < len / 2; ++k) {
      t.re[len / 2 - 1 + k] = w.real();
      t.im[len / 2 - 1 + k] = w.imag();
      w *= wlen;
    }
  }
  return t;
}

void fft_planar(double* re, double* im, std::size_t n, const Twiddles& t) {
  std::size_t j = 0;
  for (std::size_t i = 1; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) {
      std::swap(re[i], re[j]);
      std::swap(im[i], im[j]);
    }
  }
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t h = len / 2;
    const double* wr = t.re.data() + (h - 1);
    const double* wi = t.im.data() + (h - 1);
    for (std::size_t i = 0; i < n; i += len) {
      for (std::size_t k = 0; k < h; ++k) {
        double& ar = re[i + k];
        double& ai = im[i + k];
        double& br = re[i + h + k];
        double& bi = im[i + h + k];
        const double vr = br * wr[k] - bi * wi[k];
        const double vi = br * wi[k] + bi * wr[k];
        const double ur = ar;
        const double ui = ai;
        ar = ur + vr;
        ai = ui + vi;
        br = ur - vr;
        bi = ui - vi;
      }
    }
  }
}

std::vector<cplx> fft(std::vector<cplx> a) {
  const std::size_t n = a.size();
  if (n == 1) return a;
  std::vector<double> re(n), im(n);
  for (std::size_t i = 0; i < n; ++i) {
    re[i] = a[i].real();
    im[i] = a[i].imag();
  }
  fft_planar(re.data(), im.data(), n, twiddles(n, /*inverse=*/false));
  for (std::size_t i = 0; i < n; ++i) a[i] = cplx(re[i], im[i]);
  return a;
}

std::vector<cplx> rfft(std::span<const double> signal) {
  const std::size_t n = signal.size();
  if (n < 4) return rfft_reference(signal);
  const std::size_t m = n / 2;
  std::vector<double> re(m), im(m);
  for (std::size_t j = 0; j < m; ++j) {
    re[j] = signal[2 * j];
    im[j] = signal[2 * j + 1];
  }
  fft_planar(re.data(), im.data(), m, twiddles(m, /*inverse=*/false));
  const Twiddles tn = twiddles(n, /*inverse=*/false);
  std::vector<cplx> out(m + 1);
  for (std::size_t k = 0; k <= m; ++k) {
    const std::size_t ki = k & (m - 1);
    const std::size_t kj = (m - k) & (m - 1);
    const cplx zk(re[ki], im[ki]);
    const cplx zmk(re[kj], -im[kj]);
    const cplx even = 0.5 * (zk + zmk);
    const cplx odd = cplx(0.0, -0.5) * (zk - zmk);
    const cplx w = (k == m) ? cplx(-1.0, 0.0)
                            : cplx(tn.re[m - 1 + k], tn.im[m - 1 + k]);
    out[k] = even + w * odd;
  }
  return out;
}

// n_bins == 0: every bin.
Spectrum amplitude_spectrum(std::span<const double> signal, double rate_hz,
                            WindowKind window, std::size_t n_bins) {
  const std::size_t n = next_pow2(signal.size());
  std::vector<double> buf(signal.begin(), signal.end());
  const std::vector<double> w = make_window(window, signal.size());
  apply_window(std::span<double>(buf.data(), signal.size()), w);
  buf.resize(n, 0.0);
  const std::vector<cplx> half = rfft(buf);
  const double scale =
      2.0 / (coherent_gain(w) * static_cast<double>(signal.size()));
  if (n_bins == 0 || n_bins > half.size()) n_bins = half.size();
  Spectrum s;
  s.freq_hz.resize(n_bins);
  s.magnitude.resize(n_bins);
  const double df = rate_hz / static_cast<double>(n);
  for (std::size_t k = 0; k < n_bins; ++k) {
    s.freq_hz[k] = df * static_cast<double>(k);
    const double re = half[k].real();
    const double im = half[k].imag();
    double m = std::sqrt(re * re + im * im) * scale;
    if (k == 0 || k == half.size() - 1) m *= 0.5;
    s.magnitude[k] = m;
  }
  return s;
}

Spectrum band(std::span<const double> signal, double rate_hz, double f_max_hz,
              WindowKind window) {
  const double df = rate_hz / static_cast<double>(next_pow2(signal.size()));
  const auto n_bins = static_cast<std::size_t>(std::ceil(f_max_hz / df)) + 1;
  return amplitude_spectrum(signal, rate_hz, window, n_bins);
}

Spectrum sweep(std::span<const double> trace, double rate_hz,
               const afe::SpectrumAnalyzerParams& p) {
  return resample(band(trace, rate_hz, p.f_max_hz, p.window), p.f_max_hz,
                  p.points);
}

}  // namespace oracle

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool same_bits(const std::vector<cplx>& a, const std::vector<cplx>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(cplx)) == 0;
}

bool same_bits(const Spectrum& a, const Spectrum& b) {
  return same_bits(a.freq_hz, b.freq_hz) && same_bits(a.magnitude, b.magnitude);
}

std::vector<double> noisy_tone(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = 0.3 * std::sin(0.37 * static_cast<double>(i)) +
           1e-3 * rng.gaussian();
  }
  return x;
}

// Every power of two from 4 to 65536, and lengths that pad (below, just
// above and well inside a power of two, odd and even).
std::vector<std::size_t> spectrum_lengths() {
  std::vector<std::size_t> lens = {1, 2, 3, 5, 6, 7, 100, 1000, 1025, 4095,
                                   20000, 32767, 40001};
  for (std::size_t n = 4; n <= 65536; n <<= 1) lens.push_back(n);
  return lens;
}

const WindowKind kWindows[] = {WindowKind::kRectangular, WindowKind::kHann,
                               WindowKind::kHamming,
                               WindowKind::kBlackmanHarris,
                               WindowKind::kFlatTop};

// Runs `body` under each kernel table (AVX2 only where the host has it).
template <typename Body>
void for_each_isa(const Body& body) {
  const simd::Isa prev = simd::active_isa();
  for (simd::Isa isa : {simd::Isa::kScalar, simd::Isa::kAvx2}) {
    if (simd::set_isa(isa) != isa) continue;
    SCOPED_TRACE(simd::isa_name(isa));
    body();
  }
  simd::set_isa(prev);
}

TEST(FftOracle, FftInplaceMatchesBitForBit) {
  for_each_isa([] {
    for (std::size_t n = 1; n <= 65536; n <<= 1) {
      Rng rng(n);
      std::vector<cplx> data(n);
      for (cplx& c : data) c = {rng.gaussian(), rng.gaussian()};
      const std::vector<cplx> want = oracle::fft(data);
      fft_inplace(data);
      EXPECT_TRUE(same_bits(data, want)) << "n=" << n;
    }
  });
}

TEST(FftOracle, RfftMatchesBitForBit) {
  for_each_isa([] {
    for (std::size_t n = 1; n <= 65536; n <<= 1) {
      const std::vector<double> x = noisy_tone(n, 3 * n);
      EXPECT_TRUE(same_bits(rfft(x), oracle::rfft(x))) << "n=" << n;
    }
  });
}

TEST(FftOracle, AmplitudeSpectrumMatchesBitForBit) {
  for_each_isa([] {
    for (const WindowKind w : kWindows) {
      for (const std::size_t len : spectrum_lengths()) {
        const std::vector<double> x = noisy_tone(len, len + 1);
        EXPECT_TRUE(same_bits(amplitude_spectrum(x, 1.056e9, w),
                              oracle::amplitude_spectrum(x, 1.056e9, w, 0)))
            << to_string(w) << " len=" << len;
      }
    }
  });
}

TEST(FftOracle, BandSpectrumMatchesBitForBit) {
  // 120 MHz is the analyzer's span; 2 GHz lies above Nyquist, so the bin
  // count clamps to the whole half-spectrum.
  for_each_isa([] {
    for (const double f_max : {120.0e6, 2.0e9}) {
      for (const WindowKind w : kWindows) {
        for (const std::size_t len : spectrum_lengths()) {
          const std::vector<double> x = noisy_tone(len, len + 2);
          EXPECT_TRUE(
              same_bits(amplitude_spectrum_band(x, 1.056e9, f_max, w),
                        oracle::band(x, 1.056e9, f_max, w)))
              << to_string(w) << " len=" << len << " f_max=" << f_max;
        }
      }
    }
  });
}

TEST(FftOracle, AnalyzerSweepMatchesBitForBit) {
  for_each_isa([] {
    for (const double f_max : {120.0e6, 2.0e9}) {
      for (const WindowKind w : kWindows) {
        const afe::SpectrumAnalyzerParams p{
            .f_max_hz = f_max, .points = 2000, .window = w};
        const afe::SpectrumAnalyzer analyzer(p);
        for (const std::size_t len : spectrum_lengths()) {
          const std::vector<double> x = noisy_tone(len, len + 3);
          EXPECT_TRUE(same_bits(analyzer.sweep(x, 1.056e9),
                                oracle::sweep(x, 1.056e9, p)))
              << to_string(w) << " len=" << len << " f_max=" << f_max;
        }
      }
    }
  });
}

TEST(Irfft, RejectsBadSizes) {
  std::vector<cplx> half(9);
  EXPECT_THROW(irfft(half, 32), std::invalid_argument);  // needs 17
  EXPECT_THROW(irfft(half, 15), std::invalid_argument);  // not pow2
}

}  // namespace
}  // namespace psa::dsp
