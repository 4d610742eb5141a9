// dispatch.cpp — pick a KernelTable once at startup and route the public
// simd:: entry points through it.
//
// Resolution order: PSA_SIMD env ("scalar" | "avx2" | "auto"/unset), clamped
// to what the binary was built with AND what the CPU reports. The choice is
// a single atomic pointer swap so set_isa() (benches, bit-identity tests)
// can flip between variants at run time without re-reading the environment.
#include "common/simd/simd.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "common/simd/kernels.hpp"

namespace psa::simd {
namespace {

struct Dispatch {
  Isa isa;
  const detail::KernelTable* table;
};

const Dispatch kScalarDispatch{Isa::kScalar, &detail::kScalarKernels};
#if defined(PSA_SIMD_HAVE_AVX2)
const Dispatch kAvx2Dispatch{Isa::kAvx2, &detail::kAvx2Kernels};
#endif

const Dispatch* dispatch_for(Isa isa) {
#if defined(PSA_SIMD_HAVE_AVX2)
  if (isa == Isa::kAvx2) return &kAvx2Dispatch;
#else
  (void)isa;
#endif
  return &kScalarDispatch;
}

Isa env_choice() {
  const char* env = std::getenv("PSA_SIMD");
  if (env != nullptr) {
    if (std::strcmp(env, "scalar") == 0) return Isa::kScalar;
    if (std::strcmp(env, "avx2") == 0) return Isa::kAvx2;
    // Anything else (including "auto") falls through to detection.
  }
  return best_supported_isa();
}

Isa initial_isa() {
  const Isa want = env_choice();
  if (want == Isa::kAvx2 && best_supported_isa() != Isa::kAvx2) {
    return Isa::kScalar;  // requested AVX2 on a CPU/build without it
  }
  return want;
}

std::atomic<const Dispatch*>& current() {
  static std::atomic<const Dispatch*> d{dispatch_for(initial_isa())};
  return d;
}

const detail::KernelTable& table() {
  return *current().load(std::memory_order_acquire)->table;
}

}  // namespace

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::kAvx2:
      return "avx2";
    case Isa::kScalar:
      break;
  }
  return "scalar";
}

Isa best_supported_isa() {
#if defined(PSA_SIMD_HAVE_AVX2)
  if (__builtin_cpu_supports("avx2")) return Isa::kAvx2;
#endif
  return Isa::kScalar;
}

Isa active_isa() {
  return current().load(std::memory_order_acquire)->isa;
}

Isa set_isa(Isa isa) {
  if (isa == Isa::kAvx2 && best_supported_isa() != Isa::kAvx2) {
    isa = Isa::kScalar;
  }
  const Dispatch* d = dispatch_for(isa);
  current().store(d, std::memory_order_release);
  return d->isa;
}

void scale(double* dst, const double* src, std::size_t n, double k) {
  table().scale(dst, src, n, k);
}

void scale_inplace(double* x, std::size_t n, double k) {
  table().scale_inplace(x, n, k);
}

void axpy(double* y, const double* x, std::size_t n, double a) {
  table().axpy(y, x, n, a);
}

void noise_accumulate(double* y, const double* unit, const double* spur,
                      std::size_t n, double sigma, double noise_scale) {
  table().noise_accumulate(y, unit, spur, n, sigma, noise_scale);
}

void flux_from_charges(double* flux, const double* charge,
                       std::size_t n_cycles, std::size_t samples_per_cycle,
                       const double* pulse_kernel, std::size_t pulse_taps,
                       double q_to_amps, double vdd_scale, double flux_scale) {
  table().flux_from_charges(flux, charge, n_cycles, samples_per_cycle,
                            pulse_kernel, pulse_taps, q_to_amps, vdd_scale,
                            flux_scale);
}

void fft_stage(double* re, double* im, std::size_t n, std::size_t len,
               const double* wr, const double* wi) {
  table().fft_stage(re, im, n, len, wr, wi);
}

void fft_stage_pair(double* re, double* im, std::size_t n, std::size_t len,
                    const double* wr, const double* wi) {
  table().fft_stage_pair(re, im, n, len, wr, wi);
}

void fft_butterflies(double* ar, double* ai, double* br, double* bi,
                     std::size_t n, double wr, double wi) {
  table().fft_butterflies(ar, ai, br, bi, n, wr, wi);
}

void goertzel_sums(const double* signal, const double* window,
                   std::size_t block, double coeff, const std::size_t* starts,
                   std::size_t count, double* s1_out, double* s2_out) {
  table().goertzel_sums(signal, window, block, coeff, starts, count, s1_out,
                        s2_out);
}

}  // namespace psa::simd
