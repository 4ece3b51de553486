#include "dft/fft.hpp"

#include <cmath>
#include <mutex>
#include <numbers>
#include <unordered_map>

#include "common/kernel_trace.hpp"
#include "common/math_util.hpp"
#include "common/thread_pool.hpp"

namespace ndft::dft {
namespace {

constexpr double kTwoPi = 2.0 * std::numbers::pi;

Complex unit_root(double turns) {
  // exp(2*pi*i*turns), computed from the angle for accuracy.
  return Complex{std::cos(kTwoPi * turns), std::sin(kTwoPi * turns)};
}

/// Smallest factor of n among {2,3,5}; 0 if none divides n.
std::size_t small_factor(std::size_t n) {
  if (n % 2 == 0) return 2;
  if (n % 3 == 0) return 3;
  if (n % 5 == 0) return 5;
  return 0;
}

/// Conjugates on demand so one forward twiddle table serves both
/// directions.
template <bool Inverse>
Complex directed(const Complex& root) {
  if constexpr (Inverse) {
    return std::conj(root);
  } else {
    return root;
  }
}

/// Lines gathered per batch in the strided (Y/Z) fft3d passes: enough that
/// every cache line fetched from the grid is used fully while hot.
constexpr std::size_t kLineBatch = 8;

}  // namespace

// ---------------------------------------------------------------- FftPlan

FftPlan::FftPlan(std::size_t n) : n_(n) {
  if (n_ <= 1) {
    kind_ = Kind::kTrivial;
    return;
  }
  if (is_pow2(n_)) {
    kind_ = Kind::kPow2;
    // Half-table of forward roots: stage `len` uses index k * (n/len),
    // which stays below n/2 for every butterfly.
    roots_.resize(n_ / 2);
    for (std::size_t k = 0; k < n_ / 2; ++k) {
      roots_[k] = unit_root(-static_cast<double>(k) / static_cast<double>(n_));
    }
    bitrev_.resize(n_);
    for (std::size_t i = 0, j = 0; i < n_; ++i) {
      bitrev_[i] = static_cast<std::uint32_t>(j);
      std::size_t bit = n_ >> 1;
      for (; j & bit; bit >>= 1) {
        j ^= bit;
      }
      j |= bit;
    }
    workspace_size_ = 0;
    return;
  }
  if (is_friendly_size(n_)) {
    kind_ = Kind::kMixed;
    // Full forward root table: every recursion level works on a length
    // n' dividing n, so w_{n'}^t = roots_[t * (n/n')].
    roots_.resize(n_);
    for (std::size_t k = 0; k < n_; ++k) {
      roots_[k] = unit_root(-static_cast<double>(k) / static_cast<double>(n_));
    }
    // Workspace: an output line plus the recursion arena (one live `sub`
    // buffer per level: n + n/p1 + n/(p1*p2) + ... < 2n).
    std::size_t arena = 0;
    for (std::size_t level = n_; level > 1; level /= small_factor(level)) {
      arena += level;
    }
    workspace_size_ = n_ + arena;
    return;
  }

  kind_ = Kind::kBluestein;
  // Forward chirp is w^{k^2/2} with w = exp(-2*pi*i/n); k^2 mod 2n avoids
  // catastrophic angle loss for large k (lengths stay far below 2^32).
  chirp_.resize(n_);
  for (std::size_t k = 0; k < n_; ++k) {
    const std::size_t k2 = (k * k) % (2 * n_);
    chirp_[k] = unit_root(-0.5 * static_cast<double>(k2) /
                          static_cast<double>(n_));
  }
  const std::size_t conv_n = next_pow2(2 * n_ - 1);
  conv_plan_ = std::make_unique<FftPlan>(conv_n);
  // Convolution kernels b_k = w^{-k^2/2} for each direction, transformed
  // once here so execute() only does the two data FFTs.
  b_spec_fwd_.assign(conv_n, Complex{});
  b_spec_inv_.assign(conv_n, Complex{});
  for (std::size_t k = 0; k < n_; ++k) {
    b_spec_fwd_[k] = std::conj(chirp_[k]);
    b_spec_inv_[k] = chirp_[k];
    if (k > 0) {
      b_spec_fwd_[conv_n - k] = std::conj(chirp_[k]);
      b_spec_inv_[conv_n - k] = chirp_[k];
    }
  }
  conv_plan_->pow2_core<false>(b_spec_fwd_.data());
  conv_plan_->pow2_core<false>(b_spec_inv_.data());
  workspace_size_ = conv_n;
}

FftPlan::~FftPlan() = default;

template <bool Inverse>
void FftPlan::pow2_core(Complex* data) const {
  const std::size_t n = n_;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t j = bitrev_[i];
    if (i < j) {
      std::swap(data[i], data[j]);
    }
  }
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    const std::size_t root_stride = n / len;
    for (std::size_t block = 0; block < n; block += len) {
      Complex* lo = data + block;
      Complex* hi = lo + half;
      for (std::size_t k = 0; k < half; ++k) {
        const Complex w = directed<Inverse>(roots_[k * root_stride]);
        const Complex even = lo[k];
        const Complex odd = hi[k] * w;
        lo[k] = even + odd;
        hi[k] = even - odd;
      }
    }
  }
}

template <bool Inverse>
void FftPlan::mixed_recurse(const Complex* in, Complex* out, std::size_t n,
                            std::size_t stride, Complex* work) const {
  if (n == 1) {
    out[0] = in[0];
    return;
  }
  if (n == 2) {
    const Complex a = in[0];
    const Complex b = in[stride];
    out[0] = a + b;
    out[1] = a - b;
    return;
  }
  const std::size_t p = small_factor(n);
  NDFT_ASSERT(p != 0);
  const std::size_t m = n / p;
  const std::size_t root_stride = n_ / n;  // table is built for length n_

  // Sub-transforms of the p decimated sequences, laid out back to back in
  // this level's slice of the arena.
  Complex* sub = work;
  for (std::size_t r = 0; r < p; ++r) {
    mixed_recurse<Inverse>(in + r * stride, sub + r * m, m, stride * p,
                           work + n);
  }

  // Combine: X[q + s*m] = sum_r w_n^{r q} * w_p^{r s} * Sub_r[q].
  if (p == 2) {
    for (std::size_t q = 0; q < m; ++q) {
      const Complex w = directed<Inverse>(roots_[q * root_stride]);
      const Complex t = sub[m + q] * w;
      out[q] = sub[q] + t;
      out[q + m] = sub[q] - t;
    }
    return;
  }
  const std::size_t p_root_stride = n_ / p;
  for (std::size_t q = 0; q < m; ++q) {
    Complex twiddled[5];
    twiddled[0] = sub[q];
    for (std::size_t r = 1; r < p; ++r) {
      const Complex w = directed<Inverse>(roots_[r * q * root_stride]);
      twiddled[r] = sub[r * m + q] * w;
    }
    for (std::size_t s = 0; s < p; ++s) {
      Complex acc = twiddled[0];
      for (std::size_t r = 1; r < p; ++r) {
        const Complex w =
            directed<Inverse>(roots_[((r * s) % p) * p_root_stride]);
        acc += twiddled[r] * w;
      }
      out[q + s * m] = acc;
    }
  }
}

template <bool Inverse>
void FftPlan::bluestein_core(Complex* data, Complex* work) const {
  const std::size_t n = n_;
  const std::size_t conv_n = conv_plan_->length();
  Complex* a = work;
  for (std::size_t k = 0; k < n; ++k) {
    a[k] = data[k] * directed<Inverse>(chirp_[k]);
  }
  for (std::size_t k = n; k < conv_n; ++k) {
    a[k] = Complex{};
  }
  conv_plan_->pow2_core<false>(a);
  const std::vector<Complex>& b_spec = Inverse ? b_spec_inv_ : b_spec_fwd_;
  for (std::size_t k = 0; k < conv_n; ++k) {
    a[k] *= b_spec[k];
  }
  conv_plan_->pow2_core<true>(a);
  const double scale = 1.0 / static_cast<double>(conv_n);
  for (std::size_t k = 0; k < n; ++k) {
    data[k] = a[k] * scale * directed<Inverse>(chirp_[k]);
  }
}

void FftPlan::execute(Complex* data, Complex* work,
                      FftDirection direction) const {
  const bool inverse = (direction == FftDirection::kInverse);
  switch (kind_) {
    case Kind::kTrivial:
      return;
    case Kind::kPow2:
      if (inverse) {
        pow2_core<true>(data);
      } else {
        pow2_core<false>(data);
      }
      break;
    case Kind::kMixed: {
      // work = [output line | recursion arena].
      Complex* out = work;
      if (inverse) {
        mixed_recurse<true>(data, out, n_, 1, work + n_);
      } else {
        mixed_recurse<false>(data, out, n_, 1, work + n_);
      }
      std::copy(out, out + n_, data);
      break;
    }
    case Kind::kBluestein:
      if (inverse) {
        bluestein_core<true>(data, work);
      } else {
        bluestein_core<false>(data, work);
      }
      break;
  }
  if (inverse) {
    const double scale = 1.0 / static_cast<double>(n_);
    for (std::size_t k = 0; k < n_; ++k) {
      data[k] *= scale;
    }
  }
}

void FftPlan::execute(std::vector<Complex>& data,
                      FftDirection direction) const {
  NDFT_REQUIRE(data.size() == n_, "fft plan length mismatch");
  std::vector<Complex> work(workspace_size());
  execute(data.data(), work.data(), direction);
}

const FftPlan& fft_plan(std::size_t n) {
  static std::mutex mutex;
  static std::unordered_map<std::size_t, std::unique_ptr<FftPlan>> cache;
  std::lock_guard<std::mutex> lock(mutex);
  std::unique_ptr<FftPlan>& slot = cache[n];
  if (!slot) {
    slot = std::make_unique<FftPlan>(n);
  }
  return *slot;
}

// ------------------------------------------------------------- free funcs

bool is_friendly_size(std::size_t n) {
  if (n == 0) return false;
  for (std::size_t p : {2, 3, 5}) {
    while (n % p == 0) n /= p;
  }
  return n == 1;
}

std::size_t friendly_size(std::size_t n) {
  NDFT_REQUIRE(n >= 1, "friendly_size needs n >= 1");
  while (!is_friendly_size(n)) {
    ++n;
  }
  return n;
}

void fft(std::vector<Complex>& data, FftDirection direction) {
  if (data.size() <= 1) return;
  fft_plan(data.size()).execute(data, direction);
}

Flops fft_flops(std::size_t n) {
  if (n <= 1) return 0;
  const double logn = std::log2(static_cast<double>(n));
  return static_cast<Flops>(5.0 * static_cast<double>(n) * logn);
}

namespace {

/// Transforms `batch` lines that are adjacent in x: line b has elements
/// base[b + i * stride]. The gather walks the grid with unit stride in b,
/// so every fetched cache line is consumed whole while hot.
/// Out of line, like transform_x_lines below: the Y and Z passes run one
/// compiled copy of the line kernels, so no inlining site can compile
/// the arithmetic differently and move a bit of the pinned results.
[[gnu::noinline]] void transform_line_batch(
    Complex* base, std::size_t batch, std::size_t len, std::size_t stride,
    const FftPlan& plan, FftDirection direction, Complex* gather,
    Complex* work) {
  for (std::size_t i = 0; i < len; ++i) {
    const Complex* src = base + i * stride;
    for (std::size_t b = 0; b < batch; ++b) {
      gather[b * len + i] = src[b];
    }
  }
  for (std::size_t b = 0; b < batch; ++b) {
    plan.execute(gather + b * len, work, direction);
  }
  for (std::size_t i = 0; i < len; ++i) {
    Complex* dst = base + i * stride;
    for (std::size_t b = 0; b < batch; ++b) {
      dst[b] = gather[b * len + i];
    }
  }
}

/// Transforms `count` contiguous X lines starting at `base` in place.
/// Out of line for the reason given at transform_line_batch.
[[gnu::noinline]] void transform_x_lines(Complex* base, std::size_t count,
                                         std::size_t nx, const FftPlan& plan,
                                         FftDirection direction,
                                         Complex* work) {
  for (std::size_t line = 0; line < count; ++line) {
    plan.execute(base + line * nx, work, direction);
  }
}

}  // namespace

void fft3d(Grid3& grid, FftDirection direction) {
  const std::size_t nx = grid.nx();
  const std::size_t ny = grid.ny();
  const std::size_t nz = grid.nz();
  NDFT_REQUIRE(nx > 0 && ny > 0 && nz > 0, "fft3d on an empty grid");
  KernelTimer trace(KernelClass::kFft, "fft3d");
  trace.set_dims(nx, ny, nz);
  // Fused X+Y sweep (read + write) plus the Z sweep.
  trace.set_work(fft_flops(grid.size()),
                 static_cast<Bytes>(4) * grid.size() * sizeof(Complex));
  trace.set_io(grid.size() * sizeof(Complex), grid.size() * sizeof(Complex));
  Complex* data = grid.raw().data();

  // Fused X+Y pass: one task per z slab transforms that slab's X lines
  // in place and immediately re-reads it for the strided Y lines while
  // the slab (nx*ny points) is still cache-resident — the X-pass scatter
  // and the Y-pass gather share one trip through memory, so the full
  // transform sweeps the grid 4 times instead of 6. Each slab is written
  // by exactly one task, so results are bitwise identical for any
  // thread count.
  {
    const FftPlan& plan_x = fft_plan(nx);
    const FftPlan& plan_y = fft_plan(ny);
    parallel_for(
        0, nz, parallel_grain(nx * ny), [&](std::size_t lo, std::size_t hi) {
          std::vector<Complex> work_x(plan_x.workspace_size());
          std::vector<Complex> gather(kLineBatch * ny);
          std::vector<Complex> work_y(plan_y.workspace_size());
          for (std::size_t iz = lo; iz < hi; ++iz) {
            Complex* slab = data + iz * nx * ny;
            transform_x_lines(slab, ny, nx, plan_x, direction,
                              work_x.data());
            for (std::size_t ix = 0; ix < nx; ix += kLineBatch) {
              const std::size_t batch = std::min(kLineBatch, nx - ix);
              transform_line_batch(slab + ix, batch, ny, nx, plan_y,
                                   direction, gather.data(), work_y.data());
            }
          }
        });
  }
  // Z pass: lines of stride nx*ny, batched over adjacent x; one task per
  // y row.
  {
    const FftPlan& plan = fft_plan(nz);
    parallel_for(
        0, ny, parallel_grain(nx * nz), [&](std::size_t lo, std::size_t hi) {
          std::vector<Complex> gather(kLineBatch * nz);
          std::vector<Complex> work(plan.workspace_size());
          for (std::size_t iy = lo; iy < hi; ++iy) {
            for (std::size_t ix = 0; ix < nx; ix += kLineBatch) {
              const std::size_t batch = std::min(kLineBatch, nx - ix);
              transform_line_batch(data + iy * nx + ix, batch, nz, nx * ny,
                                   plan, direction, gather.data(),
                                   work.data());
            }
          }
        });
  }
}

}  // namespace ndft::dft
