#pragma once
// From-scratch complex FFT: power-of-two, mixed-radix 2^a*3^b*5^c and
// Bluestein (arbitrary) lengths, plus the 3D transforms used on
// plane-wave grids. Forward transforms are unnormalised; the inverse
// divides by N so ifft(fft(x)) == x.
//
// All transforms run through FftPlan: a per-length object that builds
// its schedules once (the load permutation, the radix-2/3/5 stages and
// their twiddles and, for Bluestein lengths, the chirp and its
// convolution spectra) and then transforms up to eight lines per call
// in split re/im form, one line per vector lane. Plans are immutable
// after construction, so one plan can execute many batches concurrently;
// a process-wide cache (fft_plan) hands out one plan per length. fft3d
// feeds every pass to the plans in 8-line batches and spreads the
// batches across the thread pool.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "dft/matrix.hpp"

namespace ndft::dft {

/// Transform direction.
enum class FftDirection { kForward, kInverse };

/// A reusable transform plan for one length. Construction factors the
/// length and builds every table the transform reads: the order in which
/// a line is loaded (bit or digit reversal), one radix-2, 3 or 5 stage
/// per factor with its twiddles, and for lengths with another prime
/// factor the Bluestein chirp, its convolution spectra and the
/// power-of-two plan of the convolution. Execution runs the stages in
/// place on a split re/im copy of the lines: no recursion, no integer
/// division and no allocation given a caller-supplied workspace. It is
/// safe to run from many threads at once on distinct lines.
///
/// Per element the transform performs the Cooley-Tukey operations in a
/// fixed order, unit twiddles multiplied like any other, with each
/// complex product fused the way the previous scalar kernels were
/// compiled (docs/PERF.md, "The bitwise contract"). A line's result
/// does not depend on the batch it rode in, the lane it occupied or the
/// build's instruction set.
class FftPlan {
 public:
  explicit FftPlan(std::size_t n);
  ~FftPlan();
  FftPlan(const FftPlan&) = delete;
  FftPlan& operator=(const FftPlan&) = delete;

  std::size_t length() const noexcept { return n_; }

  /// Lines one execute_lines call transforms at most, one per vector
  /// lane.
  static constexpr std::size_t kMaxLines = 8;

  /// Complex elements of scratch one line needs (zero for n <= 1):
  /// execute takes this many, execute_lines kMaxLines times as many.
  std::size_t workspace_size() const noexcept { return workspace_size_; }

  /// In-place transform of one length-n line; `work` must point to at
  /// least workspace_size() elements (ignored when that is zero). Forward
  /// is unnormalised; inverse includes the 1/n scale.
  void execute(Complex* data, Complex* work, FftDirection direction) const;

  /// Convenience wrapper that allocates its own workspace.
  void execute(std::vector<Complex>& data, FftDirection direction) const;

  /// In-place transform of `count` (1..kMaxLines) lines at once: element
  /// i of line b sits at base[b * line_stride + i * stride]. `work` must
  /// point to at least kMaxLines * workspace_size() elements. Each line's
  /// result is bitwise the one execute gives it alone.
  void execute_lines(Complex* base, std::size_t count,
                     std::size_t line_stride, std::size_t stride,
                     Complex* work, FftDirection direction) const;

 private:
  enum class Kind { kTrivial, kStages, kBluestein };

  /// One radix-p pass over blocks of p*span elements (the combine step of
  /// one decimation-in-time level).
  struct Stage {
    std::uint32_t radix = 0;
    std::uint32_t span = 0;       ///< sub-transform length m
    std::uint32_t twiddles = 0;   ///< offset of its (radix-1) x span table
    std::uint32_t rotations = 0;  ///< offset of its radix x radix table
  };

  // The engine, on a lane layout L (one line, or kMaxLines side by side)
  // of split re/im buffers; defined and instantiated in fft.cpp.
  template <typename L, bool Inverse>
  void transform(Complex* base, std::size_t count, std::size_t line_stride,
                 std::size_t stride, typename L::V* re,
                 typename L::V* im) const;
  template <typename L, bool Inverse>
  void run_stages(typename L::V* re, typename L::V* im) const;
  template <typename L, bool Inverse>
  void run_bluestein(typename L::V* re, typename L::V* im) const;
  template <typename L>
  void permute(typename L::V* re, typename L::V* im) const;

  std::size_t n_ = 0;
  Kind kind_ = Kind::kTrivial;
  std::size_t workspace_size_ = 0;
  /// The stages' input order: line element i loads into buffer position
  /// position_of_[i] (bit or digit reversal; the identity for Bluestein,
  /// which reorders inside its convolution).
  std::vector<std::uint32_t> position_of_;
  std::vector<Stage> stages_;
  /// Stage twiddles w_n^(r*q) and radix rotations w_p^(r*s mod p); the
  /// imaginary parts per direction ([0] forward, [1] inverse = conjugate).
  std::vector<double> twiddle_re_;
  std::vector<double> twiddle_im_[2];
  std::vector<double> rotation_re_;
  std::vector<double> rotation_im_[2];
  /// Bluestein: chirp w^(k^2/2) per direction and the spectra of the
  /// convolution kernels.
  std::vector<double> chirp_re_;
  std::vector<double> chirp_im_[2];
  std::vector<double> spectrum_re_[2];
  std::vector<double> spectrum_im_[2];
  std::unique_ptr<FftPlan> conv_plan_;  ///< pow2 plan for the convolution
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
/// task transforms a slab's X lines and then its strided Y lines while
/// the slab is still cache-resident, so the transform sweeps the grid 4
/// times instead of 6; the Z pass (stride nx*ny) follows. Every pass
/// hands the plans 8-line batches. Results are bitwise identical for any
/// thread count. The trace event carries the analytic cost: fft_flops(N)
/// and 4 grid sweeps (read + write) of bytes.
void fft3d(Grid3& grid, FftDirection direction);

/// Analytic flop cost of a complex FFT of length n (~5 n log2 n).
Flops fft_flops(std::size_t n);

}  // namespace ndft::dft
