// kernels_scalar.cpp — the reference implementations. These are the exact
// loops the callers ran before the simd:: layer existed; every vector
// variant is defined as "bit-identical to this". Keep them boring.
#include "common/simd/kernels.hpp"

namespace psa::simd::detail {
namespace {

void scale_scalar(double* dst, const double* src, std::size_t n, double k) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = src[i] * k;
}

void scale_inplace_scalar(double* x, std::size_t n, double k) {
  for (std::size_t i = 0; i < n; ++i) x[i] *= k;
}

void axpy_scalar(double* y, const double* x, std::size_t n, double a) {
  for (std::size_t i = 0; i < n; ++i) y[i] += a * x[i];
}

void noise_accumulate_scalar(double* y, const double* unit, const double* spur,
                             std::size_t n, double sigma, double noise_scale) {
  for (std::size_t i = 0; i < n; ++i) {
    y[i] += noise_scale * ((0.0 + sigma * unit[i]) + spur[i]);
  }
}

void flux_from_charges_scalar(double* flux, const double* charge,
                              std::size_t n_cycles,
                              std::size_t samples_per_cycle, const double* kern,
                              std::size_t taps, double q_to_amps,
                              double vdd_scale, double flux_scale) {
  for (std::size_t c = 0; c < n_cycles; ++c) {
    const double q = charge[c];
    if (q == 0.0) continue;
    const std::size_t base = c * samples_per_cycle;
    for (std::size_t k = 0; k < taps; ++k) {
      const double amps = (q * kern[k] * q_to_amps) * vdd_scale;
      flux[base + k] += flux_scale * amps;
    }
  }
}

void fft_stage_scalar(double* re, double* im, std::size_t n, std::size_t len,
                      const double* wr, const double* wi) {
  const std::size_t h = len / 2;
  for (std::size_t i = 0; i < n; i += len) {
    double* ar = re + i;
    double* ai = im + i;
    double* br = re + i + h;
    double* bi = im + i + h;
    for (std::size_t k = 0; k < h; ++k) {
      const double vr = br[k] * wr[k] - bi[k] * wi[k];
      const double vi = br[k] * wi[k] + bi[k] * wr[k];
      const double ur = ar[k];
      const double ui = ai[k];
      ar[k] = ur + vr;
      ai[k] = ui + vi;
      br[k] = ur - vr;
      bi[k] = ui - vi;
    }
  }
}

void fft_stage_pair_scalar(double* re, double* im, std::size_t n,
                           std::size_t len, const double* wr,
                           const double* wi) {
  const std::size_t h = len / 2;
  fft_stage_scalar(re, im, n, len, wr, wi);
  fft_stage_scalar(re, im, n, 2 * len, wr + h, wi + h);
}

void fft_butterflies_scalar(double* ar, double* ai, double* br, double* bi,
                            std::size_t n, double wr, double wi) {
  for (std::size_t k = 0; k < n; ++k) {
    const double vr = br[k] * wr - bi[k] * wi;
    const double vi = br[k] * wi + bi[k] * wr;
    const double ur = ar[k];
    const double ui = ai[k];
    ar[k] = ur + vr;
    ai[k] = ui + vi;
    br[k] = ur - vr;
    bi[k] = ui - vi;
  }
}

void goertzel_sums_scalar(const double* signal, const double* window,
                          std::size_t block, double coeff,
                          const std::size_t* starts, std::size_t count,
                          double* s1_out, double* s2_out) {
  for (std::size_t b = 0; b < count; ++b) {
    const double* x = signal + starts[b];
    double s1 = 0.0;
    double s2 = 0.0;
    for (std::size_t i = 0; i < block; ++i) {
      const double s0 = x[i] * window[i] + coeff * s1 - s2;
      s2 = s1;
      s1 = s0;
    }
    s1_out[b] = s1;
    s2_out[b] = s2;
  }
}

}  // namespace

const KernelTable kScalarKernels = {
    scale_scalar,          scale_inplace_scalar,
    axpy_scalar,           noise_accumulate_scalar,
    flux_from_charges_scalar, fft_stage_scalar,
    fft_stage_pair_scalar, fft_butterflies_scalar,
    goertzel_sums_scalar,
};

}  // namespace psa::simd::detail
