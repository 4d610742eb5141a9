// Bit-identity suite for the runtime-dispatched simd:: kernels: every
// vectorized kernel must produce byte-for-byte the scalar reference's
// output, across sizes that exercise the remainder lanes (n % 4 != 0,
// n % 8 != 0) and the masked q == 0 skip paths. Also pins down the
// dispatch semantics (set_isa clamping, isa_name) and checks two end-to-end
// consumers (rfft, zero_span) stay bitwise stable across dispatch flips.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "common/simd/simd.hpp"
#include "dsp/fft.hpp"
#include "dsp/goertzel.hpp"
#include "dsp/window.hpp"

namespace psa {
namespace {

// Sizes chosen so every vector width's main loop AND remainder loop run:
// n in {1..9} covers 0-2 full 4-lane groups with all remainders, the rest
// covers larger bodies with n % 4 and n % 8 of every residue.
const std::vector<std::size_t> kSizes = {1,  2,  3,  4,  5,   7,   8,  9,
                                         15, 16, 17, 31, 33,  63,  65, 100,
                                         127, 129, 256, 1000};

std::vector<double> random_vec(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (double& x : v) x = rng.uniform(-3.0, 3.0);
  return v;
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Run `body` once under scalar and once under AVX2 dispatch, returning the
/// two results for comparison. Skips (returns false) when the host can't do
/// AVX2 — the dispatch then has a single variant and there is nothing to
/// cross-check.
template <typename Body>
bool run_both(const Body& body, std::vector<double>* scalar_out,
              std::vector<double>* vector_out) {
  if (simd::best_supported_isa() != simd::Isa::kAvx2) return false;
  const simd::Isa prev = simd::active_isa();
  simd::set_isa(simd::Isa::kScalar);
  *scalar_out = body();
  simd::set_isa(simd::Isa::kAvx2);
  *vector_out = body();
  simd::set_isa(prev);
  return true;
}

TEST(SimdDispatch, SetIsaClampsAndReports) {
  const simd::Isa prev = simd::active_isa();
  EXPECT_EQ(simd::set_isa(simd::Isa::kScalar), simd::Isa::kScalar);
  EXPECT_EQ(simd::active_isa(), simd::Isa::kScalar);
  // Asking for AVX2 yields AVX2 where supported, scalar otherwise — never
  // an unsupported table.
  const simd::Isa got = simd::set_isa(simd::Isa::kAvx2);
  EXPECT_EQ(got, simd::best_supported_isa());
  EXPECT_EQ(simd::active_isa(), got);
  simd::set_isa(prev);
}

TEST(SimdDispatch, IsaNames) {
  EXPECT_STREQ(simd::isa_name(simd::Isa::kScalar), "scalar");
  EXPECT_STREQ(simd::isa_name(simd::Isa::kAvx2), "avx2");
}

TEST(SimdBitIdentity, Scale) {
  for (std::size_t n : kSizes) {
    const std::vector<double> src = random_vec(n, 11 + n);
    std::vector<double> a, b;
    if (!run_both(
            [&] {
              std::vector<double> dst(n, -1.0);
              simd::scale(dst.data(), src.data(), n, 1.7e-15);
              return dst;
            },
            &a, &b)) {
      GTEST_SKIP() << "host has no AVX2; single-variant dispatch";
    }
    EXPECT_TRUE(bitwise_equal(a, b)) << "scale diverged at n=" << n;
  }
}

TEST(SimdBitIdentity, ScaleInplace) {
  for (std::size_t n : kSizes) {
    const std::vector<double> init = random_vec(n, 23 + n);
    std::vector<double> a, b;
    if (!run_both(
            [&] {
              std::vector<double> x = init;
              simd::scale_inplace(x.data(), n, 0.97531);
              return x;
            },
            &a, &b)) {
      GTEST_SKIP() << "host has no AVX2; single-variant dispatch";
    }
    EXPECT_TRUE(bitwise_equal(a, b)) << "scale_inplace diverged at n=" << n;
  }
}

TEST(SimdBitIdentity, Axpy) {
  for (std::size_t n : kSizes) {
    const std::vector<double> x = random_vec(n, 37 + n);
    const std::vector<double> y0 = random_vec(n, 41 + n);
    std::vector<double> a, b;
    if (!run_both(
            [&] {
              std::vector<double> y = y0;
              simd::axpy(y.data(), x.data(), n, -2.5e-7);
              return y;
            },
            &a, &b)) {
      GTEST_SKIP() << "host has no AVX2; single-variant dispatch";
    }
    EXPECT_TRUE(bitwise_equal(a, b)) << "axpy diverged at n=" << n;
  }
}

TEST(SimdBitIdentity, NoiseAccumulate) {
  for (std::size_t n : kSizes) {
    const std::vector<double> unit = random_vec(n, 53 + n);
    const std::vector<double> spur = random_vec(n, 59 + n);
    const std::vector<double> y0 = random_vec(n, 61 + n);
    std::vector<double> a, b;
    if (!run_both(
            [&] {
              std::vector<double> y = y0;
              simd::noise_accumulate(y.data(), unit.data(), spur.data(), n,
                                     3.3e-6, 1.25);
              return y;
            },
            &a, &b)) {
      GTEST_SKIP() << "host has no AVX2; single-variant dispatch";
    }
    EXPECT_TRUE(bitwise_equal(a, b)) << "noise_accumulate diverged at n=" << n;
  }
}

TEST(SimdBitIdentity, FluxFromCharges) {
  const double kern[3] = {0.25, 0.5, 0.25};
  // Zero patterns stress all three AVX2 group paths: no zeros (vector),
  // all zeros (skip), mixed within a 4-lane group (per-lane fallback).
  for (std::size_t n_cycles : kSizes) {
    for (int pattern = 0; pattern < 3; ++pattern) {
      const std::size_t spc = 8;
      std::vector<double> charge = random_vec(n_cycles, 67 + n_cycles);
      for (std::size_t c = 0; c < n_cycles; ++c) {
        if (pattern == 1) charge[c] = 0.0;
        if (pattern == 2 && c % 3 != 0) charge[c] = 0.0;
      }
      const std::vector<double> flux0 =
          random_vec(n_cycles * spc, 71 + n_cycles);
      std::vector<double> a, b;
      if (!run_both(
              [&] {
                std::vector<double> flux = flux0;
                simd::flux_from_charges(flux.data(), charge.data(), n_cycles,
                                        spc, kern, 3, 2.56e9, 0.9, 9e-8);
                return flux;
              },
              &a, &b)) {
        GTEST_SKIP() << "host has no AVX2; single-variant dispatch";
      }
      EXPECT_TRUE(bitwise_equal(a, b))
          << "flux_from_charges diverged at n_cycles=" << n_cycles
          << " pattern=" << pattern;
    }
  }
}

TEST(SimdBitIdentity, FftStage) {
  // Every stage length of a 32-point transform: h = 1 and 2 are pure
  // remainder, h = 4 pure vector, h = 8/16 vector + alignment variety.
  const std::size_t n = 32;
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t h = len / 2;
    const std::vector<double> re0 = random_vec(n, 73 + len);
    const std::vector<double> im0 = random_vec(n, 79 + len);
    const std::vector<double> wr = random_vec(h, 83 + len);
    const std::vector<double> wi = random_vec(h, 89 + len);
    std::vector<double> a, b;
    if (!run_both(
            [&] {
              std::vector<double> re = re0;
              std::vector<double> im = im0;
              simd::fft_stage(re.data(), im.data(), n, len, wr.data(),
                              wi.data());
              re.insert(re.end(), im.begin(), im.end());
              return re;
            },
            &a, &b)) {
      GTEST_SKIP() << "host has no AVX2; single-variant dispatch";
    }
    EXPECT_TRUE(bitwise_equal(a, b)) << "fft_stage diverged at len=" << len;
  }
}

// The short stages (h = 1 and 2) fall to the AVX2 kernel's scalar tail;
// group counts 1..9, 17 and 33 leave every remainder of a 4-lane body.
TEST(SimdBitIdentity, FftStageShortLengths) {
  for (std::size_t len : {2ul, 4ul}) {
    const std::size_t h = len / 2;
    for (std::size_t groups : {1ul, 2ul, 3ul, 4ul, 5ul, 7ul, 9ul, 17ul, 33ul}) {
      const std::size_t n = len * groups;
      const std::vector<double> re0 = random_vec(n, 131 + n);
      const std::vector<double> im0 = random_vec(n, 137 + n);
      const std::vector<double> wr = random_vec(h, 139 + len);
      const std::vector<double> wi = random_vec(h, 149 + len);
      std::vector<double> a, b;
      if (!run_both(
              [&] {
                std::vector<double> re = re0;
                std::vector<double> im = im0;
                simd::fft_stage(re.data(), im.data(), n, len, wr.data(),
                                wi.data());
                re.insert(re.end(), im.begin(), im.end());
                return re;
              },
              &a, &b)) {
        GTEST_SKIP() << "host has no AVX2; single-variant dispatch";
      }
      EXPECT_TRUE(bitwise_equal(a, b))
          << "fft_stage diverged at len=" << len << " n=" << n;
    }
  }
}

// How the len-2 and len-4 stages run on a bit-reversal tile: runs of any
// length against a fixed twiddle.
TEST(SimdBitIdentity, FftButterflies) {
  for (std::size_t n : kSizes) {
    const std::vector<double> ar0 = random_vec(n, 151 + n);
    const std::vector<double> ai0 = random_vec(n, 157 + n);
    const std::vector<double> br0 = random_vec(n, 163 + n);
    const std::vector<double> bi0 = random_vec(n, 167 + n);
    std::vector<double> a, b;
    if (!run_both(
            [&] {
              std::vector<double> ar = ar0, ai = ai0, br = br0, bi = bi0;
              simd::fft_butterflies(ar.data(), ai.data(), br.data(),
                                    bi.data(), n, 0.70710678118654757,
                                    -0.70710678118654746);
              for (const auto* v : {&ai, &br, &bi}) {
                ar.insert(ar.end(), v->begin(), v->end());
              }
              return ar;
            },
            &a, &b)) {
      GTEST_SKIP() << "host has no AVX2; single-variant dispatch";
    }
    EXPECT_TRUE(bitwise_equal(a, b)) << "fft_butterflies diverged at n=" << n;
  }
}

// Two stages in one pass: h = 1 and 2 take the two-stage fallback, h >= 4
// the fused quarter loop, over 1..3 groups of 2*len.
TEST(SimdBitIdentity, FftStagePair) {
  for (std::size_t len = 2; len <= 64; len <<= 1) {
    const std::size_t h = len / 2;
    for (std::size_t groups : {1ul, 2ul, 3ul}) {
      const std::size_t n = 2 * len * groups;
      const std::vector<double> re0 = random_vec(n, 173 + n);
      const std::vector<double> im0 = random_vec(n, 179 + n);
      const std::vector<double> wr = random_vec(3 * h, 181 + len);
      const std::vector<double> wi = random_vec(3 * h, 191 + len);
      const auto run = [&](bool paired) {
        std::vector<double> re = re0;
        std::vector<double> im = im0;
        if (paired) {
          simd::fft_stage_pair(re.data(), im.data(), n, len, wr.data(),
                               wi.data());
        } else {
          simd::fft_stage(re.data(), im.data(), n, len, wr.data(), wi.data());
          simd::fft_stage(re.data(), im.data(), n, 2 * len, wr.data() + h,
                          wi.data() + h);
        }
        re.insert(re.end(), im.begin(), im.end());
        return re;
      };
      // Under the active table, the pair equals its two stages...
      EXPECT_TRUE(bitwise_equal(run(true), run(false)))
          << "fft_stage_pair != two stages at len=" << len << " n=" << n;
      // ...and the AVX2 pair equals the scalar one.
      std::vector<double> a, b;
      if (!run_both([&] { return run(true); }, &a, &b)) {
        GTEST_SKIP() << "host has no AVX2; single-variant dispatch";
      }
      EXPECT_TRUE(bitwise_equal(a, b))
          << "fft_stage_pair diverged at len=" << len << " n=" << n;
    }
  }
}

TEST(SimdBitIdentity, GoertzelSums) {
  // Block counts 1..9 cover 0-2 full 4-block groups plus every remainder.
  for (std::size_t count = 1; count <= 9; ++count) {
    for (std::size_t block : {5ul, 16ul, 33ul}) {
      const std::size_t hop = 3;
      const std::vector<double> signal =
          random_vec(block + hop * count, 97 + count + block);
      const std::vector<double> window = random_vec(block, 101 + block);
      std::vector<std::size_t> starts(count);
      for (std::size_t b = 0; b < count; ++b) starts[b] = b * hop;
      std::vector<double> a, b;
      if (!run_both(
              [&] {
                std::vector<double> s1(count), s2(count);
                simd::goertzel_sums(signal.data(), window.data(), block,
                                    1.618, starts.data(), count, s1.data(),
                                    s2.data());
                s1.insert(s1.end(), s2.begin(), s2.end());
                return s1;
              },
              &a, &b)) {
        GTEST_SKIP() << "host has no AVX2; single-variant dispatch";
      }
      EXPECT_TRUE(bitwise_equal(a, b))
          << "goertzel_sums diverged at count=" << count
          << " block=" << block;
    }
  }
}

// End-to-end: the two dispatch paths must agree through the real consumers,
// not just kernel-by-kernel — this is what lets the golden suite pass under
// either PSA_SIMD setting.
TEST(SimdEndToEnd, RfftBitIdenticalAcrossDispatch) {
  const std::vector<double> signal = random_vec(1024, 103);
  std::vector<double> a, b;
  const auto run = [&] {
    const std::vector<dsp::cplx> out = dsp::rfft(signal);
    std::vector<double> flat;
    flat.reserve(out.size() * 2);
    for (const dsp::cplx& c : out) {
      flat.push_back(c.real());
      flat.push_back(c.imag());
    }
    return flat;
  };
  if (!run_both(run, &a, &b)) {
    GTEST_SKIP() << "host has no AVX2; single-variant dispatch";
  }
  EXPECT_TRUE(bitwise_equal(a, b));
}

TEST(SimdEndToEnd, ZeroSpanBitIdenticalAcrossDispatch) {
  std::vector<double> signal = random_vec(4096, 107);
  for (std::size_t i = 0; i < signal.size(); ++i) {
    signal[i] += std::sin(0.1 * static_cast<double>(i));
  }
  std::vector<double> a, b;
  const auto run = [&] {
    const dsp::ZeroSpanTrace tr =
        dsp::zero_span(signal, 1e6, 2.5e4, /*block=*/250, /*hop=*/100);
    return tr.magnitude;
  };
  if (!run_both(run, &a, &b)) {
    GTEST_SKIP() << "host has no AVX2; single-variant dispatch";
  }
  EXPECT_TRUE(bitwise_equal(a, b));
}

// The batched zero_span must also match the one-goertzel-per-block
// formulation it replaced, whatever the active dispatch is.
TEST(SimdEndToEnd, ZeroSpanMatchesPerBlockGoertzel) {
  std::vector<double> signal = random_vec(2048, 109);
  const std::size_t block = 200;
  const std::size_t hop = 64;
  const double rate = 1e6;
  const double f0 = 3.1e4;
  const dsp::ZeroSpanTrace tr = dsp::zero_span(signal, rate, f0, block, hop);

  const std::vector<double> win =
      dsp::make_window(dsp::WindowKind::kHann, block);
  const double cg = dsp::coherent_gain(win);
  std::vector<double> buf(block);
  std::size_t idx = 0;
  for (std::size_t start = 0; start + block <= signal.size(); start += hop) {
    for (std::size_t i = 0; i < block; ++i) {
      buf[i] = signal[start + i] * win[i];
    }
    const std::complex<double> y = dsp::goertzel(buf, rate, f0);
    ASSERT_LT(idx, tr.magnitude.size());
    const double expect = std::abs(y) / cg;
    EXPECT_EQ(tr.magnitude[idx], expect) << "block " << idx;
    ++idx;
  }
  EXPECT_EQ(idx, tr.magnitude.size());
}

}  // namespace
}  // namespace psa
