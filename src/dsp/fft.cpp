#include "dsp/fft.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "common/simd/simd.hpp"
#include "common/units.hpp"

namespace psa::dsp {

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

namespace {

void bit_reverse_permute(std::span<cplx> a) {
  const std::size_t n = a.size();
  std::size_t j = 0;
  for (std::size_t i = 1; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(a[i], a[j]);
  }
}

void fft_core_naive(std::span<cplx> a, bool inverse) {
  const std::size_t n = a.size();
  if (!is_pow2(n)) {
    throw std::invalid_argument("fft: size must be a power of two");
  }
  bit_reverse_permute(a);
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double ang =
        (inverse ? kTwoPi : -kTwoPi) / static_cast<double>(len);
    const cplx wlen(std::cos(ang), std::sin(ang));
    for (std::size_t i = 0; i < n; i += len) {
      cplx w(1.0, 0.0);
      for (std::size_t k = 0; k < len / 2; ++k) {
        const cplx u = a[i + k];
        const cplx v = a[i + k + len / 2] * w;
        a[i + k] = u + v;
        a[i + k + len / 2] = u - v;
        w *= wlen;
      }
    }
  }
}

// Everything a size-n transform needs besides its data, computed once per
// (n, direction) and shared process-wide.
//
// Twiddles: every stage's factors, flattened — the stage with half-length
// h = len/2 owns the h values starting at h-1 (total n-1). Each stage's
// values are generated by the same w *= wlen recurrence fft_core_naive runs
// per butterfly group, so the table-driven transform produces bit-identical
// output; it just stops recomputing the recurrence on every call. Held as
// split re/im planes for the planar core and the rfft unpack.
//
// Bit reversal, factored for the tiled gather: with n = 2^b and tiles of
// T = 2^t (t <= b/2), write an index as p = A*2^(b-t) + M*T + B (A, B < T).
// Its reversal is rev_t(B)*2^(b-t) + rev_(b-2t)(M)*T + rev_t(A), so one
// tile of T x T outputs sharing M reads T contiguous runs of T inputs.
struct Plan {
  std::vector<double> wr;
  std::vector<double> wi;
  std::size_t tile_bits = 0;
  std::vector<std::size_t> tile_rev;  // rev_t(B), B < T
  std::vector<std::size_t> mid_rev;   // rev_(b-2t)(M) * T, M < n / T^2
};

// 32 x 32 tiles: two planes of one tile fill 16 KiB, well inside L1.
constexpr std::size_t kMaxTileBits = 5;

std::size_t reverse_bits(std::size_t x, std::size_t bits) {
  std::size_t r = 0;
  for (std::size_t i = 0; i < bits; ++i) r |= ((x >> i) & 1u) << (bits - 1 - i);
  return r;
}

std::shared_ptr<const Plan> plan_for(std::size_t n, bool inverse) {
  using Key = std::pair<std::size_t, bool>;
  static std::mutex mu;
  static std::map<Key, std::shared_ptr<const Plan>> cache;

  const Key key{n, inverse};
  {
    std::lock_guard<std::mutex> lock(mu);
    const auto it = cache.find(key);
    if (it != cache.end()) return it->second;
  }
  auto plan = std::make_shared<Plan>();
  plan->wr.resize(n - 1);
  plan->wi.resize(n - 1);
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double ang =
        (inverse ? kTwoPi : -kTwoPi) / static_cast<double>(len);
    const cplx wlen(std::cos(ang), std::sin(ang));
    cplx w(1.0, 0.0);
    for (std::size_t k = 0; k < len / 2; ++k) {
      plan->wr[len / 2 - 1 + k] = w.real();
      plan->wi[len / 2 - 1 + k] = w.imag();
      w *= wlen;
    }
  }
  std::size_t bits = 0;
  while ((std::size_t{1} << bits) < n) ++bits;
  const std::size_t t = std::min(kMaxTileBits, bits / 2);
  plan->tile_bits = t;
  plan->tile_rev.resize(std::size_t{1} << t);
  for (std::size_t b = 0; b < plan->tile_rev.size(); ++b) {
    plan->tile_rev[b] = reverse_bits(b, t);
  }
  plan->mid_rev.resize(n >> (2 * t));
  for (std::size_t m = 0; m < plan->mid_rev.size(); ++m) {
    plan->mid_rev[m] = reverse_bits(m, bits - 2 * t) << t;
  }
  std::lock_guard<std::mutex> lock(mu);
  const auto it = cache.find(key);
  if (it != cache.end()) return it->second;
  // A few transform sizes exist per process (one per trace length family);
  // reset rather than grow without bound if that ever stops being true.
  if (cache.size() >= 16) cache.clear();
  return cache.emplace(key, std::move(plan)).first->second;
}

// Fill planar re/im[0..n) with input element rev(p) at position p, the
// bit-reversed order the in-place radix-2 stages consume, and run the
// stages of length 2..T on the way. load(j, count, re, im) writes input
// elements j..j+count to re/im[0..count); it is only ever asked for
// contiguous runs, which it reads (and windows or deinterleaves)
// sequentially. Runs land in an L1-resident tile and leave it transposed
// through the reversal, so neither side walks memory with a power-of-two
// stride element by element (which aliases L1 sets).
//
// With p = A*2^(b-t) + M*T + B (see Plan), output B of a tile is tile row
// rev_t(B). The partners of a stage-len butterfly (B and B + h, twiddle
// k = B mod h, h = len/2) are therefore whole rows: the rows of twiddle k
// form one run starting at row rev_t(k), and their partners the run T/len
// rows further on. The short stages run as run-against-run vector
// butterflies on the tile before it is written out.
template <typename Load>
void gather_bit_reversed(const Plan& plan, std::size_t n, double* re,
                         double* im, const Load& load) {
  const std::size_t t = plan.tile_bits;
  const std::size_t tile = std::size_t{1} << t;
  const std::size_t stride = n >> t;
  const std::size_t* rev = plan.tile_rev.data();
  alignas(64) double tr[1u << (2 * kMaxTileBits)];
  alignas(64) double ti[1u << (2 * kMaxTileBits)];
  for (std::size_t mid = 0; mid < plan.mid_rev.size(); ++mid) {
    const std::size_t in_base = plan.mid_rev[mid];
    for (std::size_t r = 0; r < tile; ++r) {
      load(r * stride + in_base, tile, tr + r * tile, ti + r * tile);
    }
    for (std::size_t h = 1; h < tile; h <<= 1) {
      const std::size_t run = tile / (2 * h) * tile;
      for (std::size_t k = 0; k < h; ++k) {
        const std::size_t a = rev[k] * tile;
        simd::fft_butterflies(tr + a, ti + a, tr + a + run, ti + a + run, run,
                              plan.wr[h - 1 + k], plan.wi[h - 1 + k]);
      }
    }
    const std::size_t out_base = mid << t;
    for (std::size_t a = 0; a < tile; ++a) {
      double* orow = re + a * stride + out_base;
      double* irow = im + a * stride + out_base;
      const std::size_t col = rev[a];
      for (std::size_t b = 0; b < tile; ++b) {
        orow[b] = tr[rev[b] * tile + col];
        irow[b] = ti[rev[b] * tile + col];
      }
    }
  }
}

// The radix-2 stages the gather left, over bit-reversed planar data. Each
// butterfly is the dispatched simd kernel's (AVX2 or the bit-identical
// scalar reference, see common/simd). Stages up to kStageBlock run block by
// block, so a block stays in L1 through all of them, and two consecutive
// stages share one pass over the data where both remain. Neither changes a
// butterfly's inputs, only when it runs, so the result is the same.
constexpr std::size_t kStageBlock = 1024;

void run_stages(double* re, double* im, std::size_t n, const Plan& plan) {
  // Stages first..count on count elements, two per pass while two fit.
  const auto stages = [&](double* r, double* i, std::size_t count,
                          std::size_t first) {
    for (std::size_t len = first; len <= count;) {
      const double* wr = plan.wr.data() + (len / 2 - 1);
      const double* wi = plan.wi.data() + (len / 2 - 1);
      if (2 * len <= count) {
        simd::fft_stage_pair(r, i, count, len, wr, wi);
        len <<= 2;
      } else {
        simd::fft_stage(r, i, count, len, wr, wi);
        len <<= 1;
      }
    }
  };
  const std::size_t first = std::size_t{2} << plan.tile_bits;
  const std::size_t block = std::min(n, kStageBlock);
  for (std::size_t b = 0; b < n; b += block) {
    stages(re + b, im + b, block, first);
  }
  stages(re, im, n, std::max(first, 2 * block));
}

void fft_core(std::span<cplx> a, bool inverse) {
  const std::size_t n = a.size();
  if (!is_pow2(n)) {
    throw std::invalid_argument("fft: size must be a power of two");
  }
  if (n == 1) return;
  const std::shared_ptr<const Plan> plan = plan_for(n, inverse);
  thread_local std::vector<double> re, im;
  re.resize(n);
  im.resize(n);
  gather_bit_reversed(*plan, n, re.data(), im.data(),
                      [&](std::size_t j, std::size_t count, double* dr,
                          double* di) {
                        for (std::size_t c = 0; c < count; ++c) {
                          dr[c] = a[j + c].real();
                          di[c] = a[j + c].imag();
                        }
                      });
  run_stages(re.data(), im.data(), n, *plan);
  for (std::size_t i = 0; i < n; ++i) a[i] = cplx(re[i], im[i]);
}

}  // namespace

void fft_inplace(std::span<cplx> data) { fft_core(data, /*inverse=*/false); }

void ifft_inplace(std::span<cplx> data) {
  fft_core(data, /*inverse=*/true);
  const double inv_n = 1.0 / static_cast<double>(data.size());
  for (cplx& c : data) c *= inv_n;
}

void rfft_band(std::span<const double> signal, std::span<const double> window,
               std::size_t n_bins, std::vector<cplx>& out) {
  const std::size_t len = signal.size();
  if (len == 0 || (!window.empty() && window.size() != len)) {
    throw std::invalid_argument("rfft_band: bad sizes");
  }
  const std::size_t n = next_pow2(len);
  const std::size_t m = n / 2;
  n_bins = std::min(n_bins, m + 1);
  if (n < 4) {
    std::vector<double> buf(n, 0.0);
    for (std::size_t i = 0; i < len; ++i) {
      buf[i] = window.empty() ? signal[i] : signal[i] * window[i];
    }
    const std::vector<cplx> full = rfft_reference(buf);
    out.assign(full.begin(), full.begin() + static_cast<std::ptrdiff_t>(n_bins));
    return;
  }

  // Pack adjacent real samples into one half-length complex transform: the
  // even samples are the real plane, the odd samples the imaginary plane.
  // The gather windows each sample on the way in and zero-fills the padding
  // past the signal, so no windowed or padded copy of the signal exists.
  const std::shared_ptr<const Plan> half_plan = plan_for(m, /*inverse=*/false);
  thread_local std::vector<double> re, im;
  re.resize(m);
  im.resize(m);
  const double* x = signal.data();
  const double* w = window.data();
  // The gather reads runs a power-of-two stride apart, which the hardware
  // prefetcher does not follow; a trace fresh from the measurement chain
  // sits in the last-level cache, so request it (and the window) in order.
  for (std::size_t i = 0; i < len; i += 8) {
    __builtin_prefetch(x + i, 0, 2);
    if (w != nullptr) __builtin_prefetch(w + i, 0, 2);
  }
  const auto sample = [&](std::size_t i) {
    if (i >= len) return 0.0;
    return w == nullptr ? x[i] : x[i] * w[i];
  };
  gather_bit_reversed(
      *half_plan, m, re.data(), im.data(),
      [&](std::size_t j, std::size_t count, double* dr, double* di) {
        const std::size_t i0 = 2 * j;
        if (i0 + 2 * count > len) {
          for (std::size_t c = 0; c < count; ++c) {
            dr[c] = sample(i0 + 2 * c);
            di[c] = sample(i0 + 2 * c + 1);
          }
        } else if (w == nullptr) {
          for (std::size_t c = 0; c < count; ++c) {
            dr[c] = x[i0 + 2 * c];
            di[c] = x[i0 + 2 * c + 1];
          }
        } else {
          for (std::size_t c = 0; c < count; ++c) {
            dr[c] = x[i0 + 2 * c] * w[i0 + 2 * c];
            di[c] = x[i0 + 2 * c + 1] * w[i0 + 2 * c + 1];
          }
        }
      });
  run_stages(re.data(), im.data(), m, *half_plan);

  // Unpack: X[k] = E[k] + e^{-2*pi*i*k/n} * O[k], where E/O are the spectra
  // of the even/odd sample streams recovered from Z's conjugate symmetry.
  // The unpack twiddles e^{-2*pi*i*k/n}, k < m, are exactly the last stage
  // of the size-n forward table. Only the requested bins are unpacked.
  const std::shared_ptr<const Plan> plan = plan_for(n, /*inverse=*/false);
  const double* wnr = plan->wr.data() + (m - 1);
  const double* wni = plan->wi.data() + (m - 1);
  out.resize(n_bins);
  for (std::size_t k = 0; k < n_bins; ++k) {
    const std::size_t ki = k & (m - 1);
    const std::size_t kj = (m - k) & (m - 1);
    const cplx zk(re[ki], im[ki]);
    const cplx zmk(re[kj], -im[kj]);
    const cplx even = 0.5 * (zk + zmk);
    const cplx odd = cplx(0.0, -0.5) * (zk - zmk);
    const cplx tw = (k == m) ? cplx(-1.0, 0.0) : cplx(wnr[k], wni[k]);
    out[k] = even + tw * odd;
  }
}

std::vector<cplx> rfft(std::span<const double> signal) {
  if (!is_pow2(signal.size())) {
    throw std::invalid_argument("rfft: size must be a power of two");
  }
  std::vector<cplx> out;
  rfft_band(signal, {}, signal.size() / 2 + 1, out);
  return out;
}

std::vector<cplx> rfft_reference(std::span<const double> signal) {
  const std::size_t n = signal.size();
  if (!is_pow2(n)) {
    throw std::invalid_argument("rfft: size must be a power of two");
  }
  std::vector<cplx> buf(signal.begin(), signal.end());
  fft_core_naive(buf, /*inverse=*/false);
  buf.resize(n / 2 + 1);
  return buf;
}

std::vector<double> irfft(std::span<const cplx> half, std::size_t n) {
  if (!is_pow2(n) || half.size() != n / 2 + 1) {
    throw std::invalid_argument("irfft: inconsistent sizes");
  }
  std::vector<cplx> full(n);
  for (std::size_t k = 0; k < half.size(); ++k) full[k] = half[k];
  for (std::size_t k = 1; k < n / 2; ++k) full[n - k] = std::conj(half[k]);
  ifft_inplace(full);
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = full[i].real();
  return out;
}

}  // namespace psa::dsp
