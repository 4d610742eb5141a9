// fft.hpp — iterative radix-2 FFT, implemented from scratch (no external DSP
// dependency). Sizes must be powers of two; the spectrum-analyzer layer picks
// its window lengths accordingly.
#pragma once

#include <complex>
#include <span>
#include <vector>

namespace psa::dsp {

using cplx = std::complex<double>;

/// True when n is a nonzero power of two.
constexpr bool is_pow2(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

/// Smallest power of two >= n (n must be <= 2^63).
std::size_t next_pow2(std::size_t n);

/// In-place forward FFT (decimation-in-time, bit-reversal permutation).
/// X[k] = sum_n x[n] exp(-2*pi*i*k*n/N). Throws std::invalid_argument if the
/// size is not a power of two.
void fft_inplace(std::span<cplx> data);

/// In-place inverse FFT with 1/N normalization.
void ifft_inplace(std::span<cplx> data);

/// Forward FFT of a real signal; returns the N/2+1 non-negative-frequency
/// bins. Input size must be a power of two. Equivalent to rfft_band with no
/// window and every bin.
std::vector<cplx> rfft(std::span<const double> signal);

/// The first `n_bins` (clamped to N/2+1) non-negative-frequency bins of the
/// real FFT of window[i]*signal[i], zero-padded to N = next_pow2(size).
/// An empty `window` means rectangular; otherwise it must match the signal
/// length. `out` is resized to the bin count, so a reused vector keeps its
/// storage.
///
/// Implemented as a packed real FFT: the even/odd samples form one
/// half-length complex FFT that is then unpacked with e^{-i·pi·k/(N/2)}
/// twiddles — half the butterflies of the straightforward complex transform.
/// The samples are windowed and gathered straight into bit-reversed order,
/// and only the requested bins are unpacked. The result matches
/// rfft_reference to ~1 ulp per bin (the shorter butterfly chain rounds
/// differently), which every spectral consumer in this repo is insensitive
/// to, and is bit-identical to windowing a padded copy and running the
/// packed transform with an in-place bit reversal (see DESIGN.md §10).
void rfft_band(std::span<const double> signal, std::span<const double> window,
               std::size_t n_bins, std::vector<cplx>& out);

/// The original real-input FFT, kept verbatim: full-length complex transform
/// with per-butterfly twiddle recurrence and no lookup tables. Ground truth
/// for the packed path's accuracy test and the "before" arm of
/// bench_scan_throughput.
std::vector<cplx> rfft_reference(std::span<const double> signal);

/// Inverse of rfft: reconstructs the length-n real signal from its n/2+1
/// half-spectrum (conjugate symmetry is assumed, imaginary residue dropped).
std::vector<double> irfft(std::span<const cplx> half_spectrum, std::size_t n);

}  // namespace psa::dsp
