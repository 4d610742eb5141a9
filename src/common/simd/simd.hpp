// simd.hpp — runtime-dispatched vector kernels for the scan hot path.
//
// Every kernel here exists in (at least) two implementations: a scalar
// reference and an AVX2 variant. Dispatch is resolved ONCE, on first use,
// from the CPU's capabilities and the PSA_SIMD environment variable
// ("scalar" forces the reference path, "avx2" requests AVX2 when the CPU
// has it, anything else / unset means auto-detect). Benches and tests can
// override at runtime with set_isa().
//
// Bit-exactness policy (the reason this layer can sit under the golden
// suite without relaxing a single ulp):
//
//   * Vector variants perform exactly the scalar per-element operations in
//     exactly the scalar order — lane i of a vector op is the same
//     multiply/add/sub the scalar loop would have executed for element i.
//   * No FMA. Fused multiply-add changes results (one rounding instead of
//     two), so the AVX2 kernels use only mul/add/sub intrinsics and their
//     translation unit is compiled with -ffp-contract=off to stop the
//     compiler from fusing behind our back.
//   * No reassociation. Kernels with loop-carried dependencies (Goertzel's
//     recurrence) vectorize ACROSS independent problems (4 hop offsets per
//     register), never within one recurrence.
//
// Consequently scalar and AVX2 dispatch produce bit-identical doubles, the
// scalar path stays the normative reference, and PSA_SIMD=scalar is a
// debugging/verification switch rather than a different numerical contract.
// Any future kernel that cannot meet this bar (e.g. a horizontal-sum
// reduction) must document its ulp bound here the way dsp::rfft documents
// its packed-transform equivalence.
#pragma once

#include <cstddef>

namespace psa::simd {

enum class Isa {
  kScalar = 0,
  kAvx2 = 1,
};

/// Human-readable name ("scalar", "avx2") for logs and bench JSON.
const char* isa_name(Isa isa);

/// Best instruction set this binary AND this CPU support.
Isa best_supported_isa();

/// The instruction set the dispatched kernels below currently use. First
/// call resolves PSA_SIMD + CPU detection; later calls are a load.
Isa active_isa();

/// Force the dispatch (clamped to best_supported_isa(); asking for AVX2 on
/// a non-AVX2 CPU yields scalar). Returns the ISA actually installed. Not
/// safe to call concurrently with in-flight kernels — switch at arm
/// boundaries, the way bench_scan_throughput and the bit-identity tests do.
Isa set_isa(Isa isa);

// ---------------------------------------------------------------------------
// Dispatched kernels. Each documents the exact scalar semantics its vector
// variants reproduce bit-for-bit.
// ---------------------------------------------------------------------------

/// dst[i] = src[i] * k                      (em::toggles_to_charges)
void scale(double* dst, const double* src, std::size_t n, double k);

/// x[i] *= k                                (gain-drift application)
void scale_inplace(double* x, std::size_t n, double k);

/// y[i] += a * x[i]                         (em::accumulate_flux)
void axpy(double* y, const double* x, std::size_t n, double a);

/// y[i] += noise_scale * ((0.0 + sigma * unit[i]) + spur[i])
/// (the sensor-tail noise add; the 0.0 + grouping is part of the
/// bit-identity contract with em::generate_noise).
void noise_accumulate(double* y, const double* unit, const double* spur,
                      std::size_t n, double sigma, double noise_scale);

/// The packed-charge flux accumulation (em::accumulate_flux_from_charges):
/// for each cycle c with q = charge[c] != 0.0, for each pulse tap k:
///   amps = (q * pulse_kernel[k] * q_to_amps) * vdd_scale
///   flux[c * samples_per_cycle + k] += flux_scale * amps
/// Cycles with q == 0.0 are skipped (their flux slots are untouched, so
/// -0.0 / NaN payloads in the accumulator are preserved exactly).
void flux_from_charges(double* flux, const double* charge,
                       std::size_t n_cycles, std::size_t samples_per_cycle,
                       const double* pulse_kernel, std::size_t pulse_taps,
                       double q_to_amps, double vdd_scale, double flux_scale);

/// One radix-2 stage of the planar split re/im FFT: for every block of
/// `len` starting at i (step len), with h = len/2 and twiddle planes
/// wr/wi[0..h):
///   vr = br[k]*wr[k] - bi[k]*wi[k];  vi = br[k]*wi[k] + bi[k]*wr[k]
///   (ar[k], br[k]) = (ar[k] + vr, ar[k] - vr)   and same for imaginary.
void fft_stage(double* re, double* im, std::size_t n, std::size_t len,
               const double* wr, const double* wi);

/// fft_stage at len, then at 2*len, in one pass over the data. wr/wi hold
/// the len stage's h twiddles followed by the 2*len stage's 2h (the layout
/// of a flat per-stage table). Each element sees the same butterflies in
/// the same order as the two separate stages.
void fft_stage_pair(double* re, double* im, std::size_t n, std::size_t len,
                    const double* wr, const double* wi);

/// fft_stage's butterfly between two runs of n elements that share one
/// twiddle (wr, wi):
///   vr = br[k]*wr - bi[k]*wi;  vi = br[k]*wi + bi[k]*wr
///   (ar[k], br[k]) = (ar[k] + vr, ar[k] - vr)   and same for imaginary.
/// The short stages run this way on a bit-reversal tile (dsp/fft.cpp),
/// where the partners of a len-2 or len-4 butterfly sit in different rows.
void fft_butterflies(double* ar, double* ai, double* br, double* bi,
                     std::size_t n, double wr, double wi);

/// Goertzel recurrence over `count` windowed blocks of one signal:
/// for each block b starting at starts[b], run
///   s0 = signal[starts[b] + i] * window[i] + coeff * s1 - s2
/// for i in [0, block), writing the final (s1, s2) pair per block. The
/// AVX2 variant runs 4 blocks per register — the recurrence itself is
/// never reassociated.
void goertzel_sums(const double* signal, const double* window,
                   std::size_t block, double coeff, const std::size_t* starts,
                   std::size_t count, double* s1_out, double* s2_out);

}  // namespace psa::simd
