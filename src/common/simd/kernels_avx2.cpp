// kernels_avx2.cpp — AVX2 variants, bit-identical to kernels_scalar.cpp.
//
// Rules (see simd.hpp): only mul/add/sub intrinsics — never FMA — and the
// per-element operation order is exactly the scalar loop's. This TU is the
// only one compiled with -mavx2, and CMake adds -ffp-contract=off alongside
// it so the compiler cannot fuse the remainder loops either. The file
// compiles to an empty TU when the toolchain/arch can't do AVX2; dispatch
// then never offers Isa::kAvx2.
#include "common/simd/kernels.hpp"

#if defined(PSA_SIMD_HAVE_AVX2)

#include <immintrin.h>

namespace psa::simd::detail {
namespace {

void scale_avx2(double* dst, const double* src, std::size_t n, double k) {
  const __m256d vk = _mm256_set1_pd(k);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(dst + i, _mm256_mul_pd(_mm256_loadu_pd(src + i), vk));
  }
  for (; i < n; ++i) dst[i] = src[i] * k;
}

void scale_inplace_avx2(double* x, std::size_t n, double k) {
  const __m256d vk = _mm256_set1_pd(k);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(x + i, _mm256_mul_pd(_mm256_loadu_pd(x + i), vk));
  }
  for (; i < n; ++i) x[i] *= k;
}

void axpy_avx2(double* y, const double* x, std::size_t n, double a) {
  const __m256d va = _mm256_set1_pd(a);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d t = _mm256_mul_pd(va, _mm256_loadu_pd(x + i));
    _mm256_storeu_pd(y + i, _mm256_add_pd(_mm256_loadu_pd(y + i), t));
  }
  for (; i < n; ++i) y[i] += a * x[i];
}

void noise_accumulate_avx2(double* y, const double* unit, const double* spur,
                           std::size_t n, double sigma, double noise_scale) {
  const __m256d vsigma = _mm256_set1_pd(sigma);
  const __m256d vns = _mm256_set1_pd(noise_scale);
  const __m256d vzero = _mm256_set1_pd(0.0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    // (0.0 + sigma*g) + spur, then * noise_scale — grouping as in scalar.
    __m256d t = _mm256_mul_pd(vsigma, _mm256_loadu_pd(unit + i));
    t = _mm256_add_pd(vzero, t);
    t = _mm256_add_pd(t, _mm256_loadu_pd(spur + i));
    t = _mm256_mul_pd(vns, t);
    _mm256_storeu_pd(y + i, _mm256_add_pd(_mm256_loadu_pd(y + i), t));
  }
  for (; i < n; ++i) {
    y[i] += noise_scale * ((0.0 + sigma * unit[i]) + spur[i]);
  }
}

void flux_one_cycle(double* flux, double q, const double* kern,
                    std::size_t taps, double q_to_amps, double vdd_scale,
                    double flux_scale) {
  for (std::size_t k = 0; k < taps; ++k) {
    const double amps = (q * kern[k] * q_to_amps) * vdd_scale;
    flux[k] += flux_scale * amps;
  }
}

void flux_from_charges_avx2(double* flux, const double* charge,
                            std::size_t n_cycles,
                            std::size_t samples_per_cycle, const double* kern,
                            std::size_t taps, double q_to_amps,
                            double vdd_scale, double flux_scale) {
  // Vectorize across CYCLES (4 per register): the per-tap multiply chain is
  // elementwise in q, so lane c computes exactly the scalar chain for its
  // cycle. The q == 0.0 skip is preserved with a compare mask: an all-zero
  // group is skipped, an all-nonzero group takes the vector path, a mixed
  // group falls back to per-lane scalar (rare: idle stretches are all-zero).
  const __m256d vzero = _mm256_set1_pd(0.0);
  const __m256d vrate = _mm256_set1_pd(q_to_amps);
  const __m256d vvdd = _mm256_set1_pd(vdd_scale);
  const __m256d vfs = _mm256_set1_pd(flux_scale);
  std::size_t c = 0;
  for (; c + 4 <= n_cycles; c += 4) {
    const __m256d vq = _mm256_loadu_pd(charge + c);
    const int zeros =
        _mm256_movemask_pd(_mm256_cmp_pd(vq, vzero, _CMP_EQ_OQ));
    if (zeros == 0xF) continue;
    if (zeros == 0) {
      for (std::size_t k = 0; k < taps; ++k) {
        __m256d t = _mm256_mul_pd(vq, _mm256_set1_pd(kern[k]));
        t = _mm256_mul_pd(t, vrate);
        t = _mm256_mul_pd(t, vvdd);
        t = _mm256_mul_pd(vfs, t);
        alignas(32) double amps[4];
        _mm256_store_pd(amps, t);
        // Strided accumulate: the four target slots live one cycle apart.
        flux[(c + 0) * samples_per_cycle + k] += amps[0];
        flux[(c + 1) * samples_per_cycle + k] += amps[1];
        flux[(c + 2) * samples_per_cycle + k] += amps[2];
        flux[(c + 3) * samples_per_cycle + k] += amps[3];
      }
      continue;
    }
    for (std::size_t lane = 0; lane < 4; ++lane) {
      const double q = charge[c + lane];
      if (q == 0.0) continue;
      flux_one_cycle(flux + (c + lane) * samples_per_cycle, q, kern, taps,
                     q_to_amps, vdd_scale, flux_scale);
    }
  }
  for (; c < n_cycles; ++c) {
    const double q = charge[c];
    if (q == 0.0) continue;
    flux_one_cycle(flux + c * samples_per_cycle, q, kern, taps, q_to_amps,
                   vdd_scale, flux_scale);
  }
}

void fft_stage_avx2(double* re, double* im, std::size_t n, std::size_t len,
                    const double* wr, const double* wi) {
  const std::size_t h = len / 2;
  for (std::size_t i = 0; i < n; i += len) {
    double* ar = re + i;
    double* ai = im + i;
    double* br = re + i + h;
    double* bi = im + i + h;
    std::size_t k = 0;
    for (; k + 4 <= h; k += 4) {
      const __m256d vbr = _mm256_loadu_pd(br + k);
      const __m256d vbi = _mm256_loadu_pd(bi + k);
      const __m256d vwr = _mm256_loadu_pd(wr + k);
      const __m256d vwi = _mm256_loadu_pd(wi + k);
      const __m256d vr =
          _mm256_sub_pd(_mm256_mul_pd(vbr, vwr), _mm256_mul_pd(vbi, vwi));
      const __m256d vi =
          _mm256_add_pd(_mm256_mul_pd(vbr, vwi), _mm256_mul_pd(vbi, vwr));
      const __m256d ur = _mm256_loadu_pd(ar + k);
      const __m256d ui = _mm256_loadu_pd(ai + k);
      _mm256_storeu_pd(ar + k, _mm256_add_pd(ur, vr));
      _mm256_storeu_pd(ai + k, _mm256_add_pd(ui, vi));
      _mm256_storeu_pd(br + k, _mm256_sub_pd(ur, vr));
      _mm256_storeu_pd(bi + k, _mm256_sub_pd(ui, vi));
    }
    for (; k < h; ++k) {
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

// One butterfly per lane: (u, b) -> (u + v, u - v) with v = b * w, in
// fft_stage's operation order.
inline void butterfly(__m256d& ur, __m256d& ui, __m256d& br, __m256d& bi,
                      __m256d wr, __m256d wi) {
  const __m256d vr = _mm256_sub_pd(_mm256_mul_pd(br, wr), _mm256_mul_pd(bi, wi));
  const __m256d vi = _mm256_add_pd(_mm256_mul_pd(br, wi), _mm256_mul_pd(bi, wr));
  br = _mm256_sub_pd(ur, vr);
  bi = _mm256_sub_pd(ui, vi);
  ur = _mm256_add_pd(ur, vr);
  ui = _mm256_add_pd(ui, vi);
}

// A group of 2*len holds quarters q0..q3 of h = len/2 elements: the len
// stage pairs (q0, q1) and (q2, q3) on twiddle k, then the 2*len stage
// pairs (q0, q2) on twiddle k and (q1, q3) on twiddle h + k. Four lanes of
// k at a time keep all four quarters in registers between the two stages.
void fft_stage_pair_avx2(double* re, double* im, std::size_t n,
                         std::size_t len, const double* wr,
                         const double* wi) {
  const std::size_t h = len / 2;
  if (h % 4 != 0) {
    fft_stage_avx2(re, im, n, len, wr, wi);
    fft_stage_avx2(re, im, n, 2 * len, wr + h, wi + h);
    return;
  }
  const double* w2r = wr + h;
  const double* w2i = wi + h;
  for (std::size_t i = 0; i < n; i += 2 * len) {
    double* r = re + i;
    double* m = im + i;
    for (std::size_t k = 0; k < h; k += 4) {
      __m256d r0 = _mm256_loadu_pd(r + k);
      __m256d m0 = _mm256_loadu_pd(m + k);
      __m256d r1 = _mm256_loadu_pd(r + h + k);
      __m256d m1 = _mm256_loadu_pd(m + h + k);
      __m256d r2 = _mm256_loadu_pd(r + 2 * h + k);
      __m256d m2 = _mm256_loadu_pd(m + 2 * h + k);
      __m256d r3 = _mm256_loadu_pd(r + 3 * h + k);
      __m256d m3 = _mm256_loadu_pd(m + 3 * h + k);
      const __m256d w1r = _mm256_loadu_pd(wr + k);
      const __m256d w1i = _mm256_loadu_pd(wi + k);
      butterfly(r0, m0, r1, m1, w1r, w1i);
      butterfly(r2, m2, r3, m3, w1r, w1i);
      butterfly(r0, m0, r2, m2, _mm256_loadu_pd(w2r + k),
                _mm256_loadu_pd(w2i + k));
      butterfly(r1, m1, r3, m3, _mm256_loadu_pd(w2r + h + k),
                _mm256_loadu_pd(w2i + h + k));
      _mm256_storeu_pd(r + k, r0);
      _mm256_storeu_pd(m + k, m0);
      _mm256_storeu_pd(r + h + k, r1);
      _mm256_storeu_pd(m + h + k, m1);
      _mm256_storeu_pd(r + 2 * h + k, r2);
      _mm256_storeu_pd(m + 2 * h + k, m2);
      _mm256_storeu_pd(r + 3 * h + k, r3);
      _mm256_storeu_pd(m + 3 * h + k, m3);
    }
  }
}

void fft_butterflies_avx2(double* ar, double* ai, double* br, double* bi,
                          std::size_t n, double wr, double wi) {
  const __m256d vwr = _mm256_set1_pd(wr);
  const __m256d vwi = _mm256_set1_pd(wi);
  std::size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    __m256d ur = _mm256_loadu_pd(ar + k);
    __m256d ui = _mm256_loadu_pd(ai + k);
    __m256d vbr = _mm256_loadu_pd(br + k);
    __m256d vbi = _mm256_loadu_pd(bi + k);
    butterfly(ur, ui, vbr, vbi, vwr, vwi);
    _mm256_storeu_pd(ar + k, ur);
    _mm256_storeu_pd(ai + k, ui);
    _mm256_storeu_pd(br + k, vbr);
    _mm256_storeu_pd(bi + k, vbi);
  }
  for (; k < n; ++k) {
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

void goertzel_sums_avx2(const double* signal, const double* window,
                        std::size_t block, double coeff,
                        const std::size_t* starts, std::size_t count,
                        double* s1_out, double* s2_out) {
  // Four independent hop offsets per register; the recurrence itself runs
  // in scalar order within each lane, so no reassociation happens.
  const __m256d vcoeff = _mm256_set1_pd(coeff);
  std::size_t b = 0;
  for (; b + 4 <= count; b += 4) {
    const double* x0 = signal + starts[b + 0];
    const double* x1 = signal + starts[b + 1];
    const double* x2 = signal + starts[b + 2];
    const double* x3 = signal + starts[b + 3];
    __m256d s1 = _mm256_set1_pd(0.0);
    __m256d s2 = _mm256_set1_pd(0.0);
    for (std::size_t i = 0; i < block; ++i) {
      const __m256d x = _mm256_set_pd(x3[i], x2[i], x1[i], x0[i]);
      const __m256d xw = _mm256_mul_pd(x, _mm256_set1_pd(window[i]));
      const __m256d s0 =
          _mm256_sub_pd(_mm256_add_pd(xw, _mm256_mul_pd(vcoeff, s1)), s2);
      s2 = s1;
      s1 = s0;
    }
    _mm256_storeu_pd(s1_out + b, s1);
    _mm256_storeu_pd(s2_out + b, s2);
  }
  for (; b < count; ++b) {
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

const KernelTable kAvx2Kernels = {
    scale_avx2,          scale_inplace_avx2,
    axpy_avx2,           noise_accumulate_avx2,
    flux_from_charges_avx2, fft_stage_avx2,
    fft_stage_pair_avx2,  fft_butterflies_avx2,
    goertzel_sums_avx2,
};

}  // namespace psa::simd::detail

#endif  // PSA_SIMD_HAVE_AVX2
