// kernels.hpp — internal dispatch table shared by the simd:: variants.
// Each implementation TU (kernels_scalar.cpp, kernels_avx2.cpp) fills one
// KernelTable; dispatch.cpp picks one at startup and simd.hpp's free
// functions indirect through it. Not installed / not for use outside
// src/common/simd.
#pragma once

#include <cstddef>

namespace psa::simd::detail {

struct KernelTable {
  void (*scale)(double*, const double*, std::size_t, double);
  void (*scale_inplace)(double*, std::size_t, double);
  void (*axpy)(double*, const double*, std::size_t, double);
  void (*noise_accumulate)(double*, const double*, const double*, std::size_t,
                           double, double);
  void (*flux_from_charges)(double*, const double*, std::size_t, std::size_t,
                            const double*, std::size_t, double, double,
                            double);
  void (*fft_stage)(double*, double*, std::size_t, std::size_t, const double*,
                    const double*);
  void (*fft_stage_pair)(double*, double*, std::size_t, std::size_t,
                         const double*, const double*);
  void (*fft_butterflies)(double*, double*, double*, double*, std::size_t,
                          double, double);
  void (*goertzel_sums)(const double*, const double*, std::size_t, double,
                        const std::size_t*, std::size_t, double*, double*);
};

extern const KernelTable kScalarKernels;

#if defined(PSA_SIMD_HAVE_AVX2)
extern const KernelTable kAvx2Kernels;
#endif

}  // namespace psa::simd::detail
