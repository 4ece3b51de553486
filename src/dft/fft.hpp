#pragma once
// From-scratch complex FFT: iterative radix-2, recursive mixed-radix for
// 2^a*3^b*5^c sizes, and Bluestein's algorithm for arbitrary lengths, plus
// the 3D transforms used on plane-wave grids. Forward transforms are
// unnormalised; the inverse divides by N so ifft(fft(x)) == x.
//
// All transforms run through FftPlan: a per-length object that owns the
// precomputed twiddle tables, bit-reversal permutation and (for Bluestein
// lengths) the chirp and its convolution spectra. Plans are immutable after
// construction, so one plan can execute many lines concurrently; a
// process-wide cache (fft_plan) hands out one plan per length. fft3d
// batches independent grid lines and spreads them across the thread pool.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "dft/matrix.hpp"

namespace ndft::dft {

/// Transform direction.
enum class FftDirection { kForward, kInverse };

/// A reusable transform plan for one length. Construction factors the
/// length, builds the twiddle/bit-reversal tables and, for non-friendly
/// lengths, the Bluestein chirp and convolution spectra; execution is
/// allocation-free given a caller-supplied workspace and is safe to run
/// from many threads at once on distinct lines.
class FftPlan {
 public:
  explicit FftPlan(std::size_t n);
  ~FftPlan();
  FftPlan(const FftPlan&) = delete;
  FftPlan& operator=(const FftPlan&) = delete;

  std::size_t length() const noexcept { return n_; }

  /// Number of Complex elements of scratch `execute` needs (may be zero).
  std::size_t workspace_size() const noexcept { return workspace_size_; }

  /// In-place transform of one length-n line; `work` must point to at
  /// least workspace_size() elements (ignored when that is zero). Forward
  /// is unnormalised; inverse includes the 1/n scale.
  void execute(Complex* data, Complex* work, FftDirection direction) const;

  /// Convenience wrapper that allocates its own workspace.
  void execute(std::vector<Complex>& data, FftDirection direction) const;

 private:
  enum class Kind { kTrivial, kPow2, kMixed, kBluestein };

  template <bool Inverse>
  void pow2_core(Complex* data) const;
  template <bool Inverse>
  void mixed_recurse(const Complex* in, Complex* out, std::size_t n,
                     std::size_t stride, Complex* work) const;
  template <bool Inverse>
  void bluestein_core(Complex* data, Complex* work) const;

  std::size_t n_ = 0;
  Kind kind_ = Kind::kTrivial;
  std::size_t workspace_size_ = 0;
  std::vector<Complex> roots_;        ///< forward roots exp(-2*pi*i*k/n)
  std::vector<std::uint32_t> bitrev_; ///< pow2 only
  std::vector<Complex> chirp_;        ///< Bluestein forward chirp w^{k^2/2}
  std::vector<Complex> b_spec_fwd_;   ///< FFT of the forward chirp kernel
  std::vector<Complex> b_spec_inv_;   ///< FFT of the inverse chirp kernel
  std::unique_ptr<FftPlan> conv_plan_;///< pow2 plan for the convolution
};

/// The process-wide plan for length `n`, built on first request and cached
/// for the life of the process. Thread-safe.
const FftPlan& fft_plan(std::size_t n);

/// In-place 1D FFT of arbitrary length (Bluestein handles prime sizes).
void fft(std::vector<Complex>& data, FftDirection direction);

/// True if n factors completely into 2, 3 and 5 (fast path, no Bluestein).
bool is_friendly_size(std::size_t n);

/// Smallest size >= n that factors into 2, 3 and 5; used when choosing
/// plane-wave FFT grid dimensions.
std::size_t friendly_size(std::size_t n);

/// A dense complex scalar field on an nx x ny x nz grid.
/// Storage order: x fastest, then y, then z.
class Grid3 {
 public:
  Grid3() = default;
  Grid3(std::size_t nx, std::size_t ny, std::size_t nz)
      : nx_(nx), ny_(ny), nz_(nz), data_(nx * ny * nz) {}

  std::size_t nx() const noexcept { return nx_; }
  std::size_t ny() const noexcept { return ny_; }
  std::size_t nz() const noexcept { return nz_; }
  std::size_t size() const noexcept { return data_.size(); }

  Complex& at(std::size_t ix, std::size_t iy, std::size_t iz) {
    NDFT_ASSERT(ix < nx_ && iy < ny_ && iz < nz_);
    return data_[(iz * ny_ + iy) * nx_ + ix];
  }
  const Complex& at(std::size_t ix, std::size_t iy, std::size_t iz) const {
    NDFT_ASSERT(ix < nx_ && iy < ny_ && iz < nz_);
    return data_[(iz * ny_ + iy) * nx_ + ix];
  }

  Complex& operator[](std::size_t i) { return data_[i]; }
  const Complex& operator[](std::size_t i) const { return data_[i]; }

  std::vector<Complex>& raw() noexcept { return data_; }
  const std::vector<Complex>& raw() const noexcept { return data_; }

 private:
  std::size_t nx_ = 0;
  std::size_t ny_ = 0;
  std::size_t nz_ = 0;
  std::vector<Complex> data_;
};

/// In-place 3D FFT. The X and Y passes are fused per z slab: each pool
/// task transforms a slab's contiguous X lines in place and immediately
/// gathers its strided Y lines while the slab is still cache-resident,
/// so the transform sweeps the grid 4 times instead of 6; the Z pass
/// (stride nx*ny) follows in cache-friendly line batches. Results are
/// bitwise identical for any thread count. The trace event carries the
/// analytic cost: fft_flops(N) and 4 grid sweeps (read + write) of bytes.
void fft3d(Grid3& grid, FftDirection direction);

/// Analytic flop cost of a complex FFT of length n (~5 n log2 n).
Flops fft_flops(std::size_t n);

}  // namespace ndft::dft
