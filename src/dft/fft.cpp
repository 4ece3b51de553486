#include "dft/fft.hpp"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <numbers>
#include <type_traits>
#include <unordered_map>
#include <utility>

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

/// The engine's two lane layouts: the element type V of the split re/im
/// buffers, a broadcast and an fma on it.
///
/// One line on plain doubles (execute, and batches of one).
struct ScalarLanes {
  using V = double;
  static V splat(double x) { return x; }
  static V fma(V a, V b, V c) { return __builtin_fma(a, b, c); }
};

/// kMaxLines lines side by side: lane b of element i is line b's element
/// i, held as two four-lane GNU vectors. Four lanes is the width GCC
/// vectorises a per-lane fma loop to (one vfmadd on FMA machines, a libm
/// fma per lane elsewhere); eight-lane vectors turn it into scalar fmas.
/// Reduced alignment (any Complex buffer will do) and may_alias (lanes
/// load straight from Complex storage), like the SSE/AVX `_u` types; GCC
/// drops both attributes from a typedef passed as a template argument,
/// so templates name these types only through the layout.
struct VectorLanes {
  typedef double Half
      __attribute__((vector_size(32), aligned(8), __may_alias__));
  struct __attribute__((__may_alias__)) V {
    Half lo;  ///< lanes 0-3
    Half hi;  ///< lanes 4-7
    friend V operator+(V a, V b) { return {a.lo + b.lo, a.hi + b.hi}; }
    friend V operator-(V a, V b) { return {a.lo - b.lo, a.hi - b.hi}; }
    friend V operator*(V a, V b) { return {a.lo * b.lo, a.hi * b.hi}; }
    friend V operator-(V a) { return {-a.lo, -a.hi}; }
  };
  /// Every lane set to `x`, sign of zero included (adding x to a zero
  /// vector would turn -0.0 into +0.0).
  static V splat(double x) {
    const Half half{x, x, x, x};
    return {half, half};
  }
  [[gnu::always_inline]] static Half fma(Half a, Half b, Half c) {
    Half r;
    for (int l = 0; l < 4; ++l) r[l] = __builtin_fma(a[l], b[l], c[l]);
    return r;
  }
  [[gnu::always_inline]] static V fma(V a, V b, V c) {
    return {fma(a.lo, b.lo, c.lo), fma(a.hi, b.hi, c.hi)};
  }
};
using Lanes = VectorLanes::V;
using Half = VectorLanes::Half;
static_assert(sizeof(Lanes) == FftPlan::kMaxLines * sizeof(double));

/// Loads element i of `count` lines (line b at src[b * line_stride]) into
/// the lanes, +0.0 past the last line.
inline void load_lanes(const Complex* src, std::size_t count,
                       std::size_t line_stride, Lanes& re, Lanes& im) {
  if (count == FftPlan::kMaxLines && line_stride == 1) {
    const Half* pairs = reinterpret_cast<const Half*>(src);  // 2 per Half
    const Half a = pairs[0];
    const Half b = pairs[1];
    const Half c = pairs[2];
    const Half d = pairs[3];
    re = {Half{a[0], a[2], b[0], b[2]}, Half{c[0], c[2], d[0], d[2]}};
    im = {Half{a[1], a[3], b[1], b[3]}, Half{c[1], c[3], d[1], d[3]}};
    return;
  }
  re = Lanes{};
  im = Lanes{};
  for (std::size_t b = 0; b < count; ++b) {
    Half& r = b < 4 ? re.lo : re.hi;
    Half& m = b < 4 ? im.lo : im.hi;
    r[b % 4] = src[b * line_stride].real();
    m[b % 4] = src[b * line_stride].imag();
  }
}

inline void store_lanes(Complex* dst, std::size_t count,
                        std::size_t line_stride, Lanes re, Lanes im) {
  if (count == FftPlan::kMaxLines && line_stride == 1) {
    Half* pairs = reinterpret_cast<Half*>(dst);
    pairs[0] = Half{re.lo[0], im.lo[0], re.lo[1], im.lo[1]};
    pairs[1] = Half{re.lo[2], im.lo[2], re.lo[3], im.lo[3]};
    pairs[2] = Half{re.hi[0], im.hi[0], re.hi[1], im.hi[1]};
    pairs[3] = Half{re.hi[2], im.hi[2], re.hi[3], im.hi[3]};
    return;
  }
  for (std::size_t b = 0; b < count; ++b) {
    const Half& r = b < 4 ? re.lo : re.hi;
    const Half& m = b < 4 ? im.lo : im.hi;
    dst[b * line_stride] = Complex{r[b % 4], m[b % 4]};
  }
}

inline void load_lanes(const Complex* src, std::size_t, std::size_t,
                       double& re, double& im) {
  re = src->real();
  im = src->imag();
}

inline void store_lanes(Complex* dst, std::size_t, std::size_t, double re,
                        double im) {
  *dst = Complex{re, im};
}

/// Contiguous lines (the X pass): elements i and i+1 of the kMaxLines
/// lines at src + b * line_stride, transposed 4 x 4 per half into the
/// lanes of (re0, im0) and (re1, im1).
inline void load_pair(const Complex* src, std::size_t line_stride,
                      Lanes& re0, Lanes& im0, Lanes& re1, Lanes& im1) {
  Half* halves[4][2] = {{&re0.lo, &re0.hi},
                        {&im0.lo, &im0.hi},
                        {&re1.lo, &re1.hi},
                        {&im1.lo, &im1.hi}};
  for (int h = 0; h < 2; ++h) {
    const Complex* line = src + 4 * h * line_stride;
    const Half r0 = *reinterpret_cast<const Half*>(line);
    const Half r1 = *reinterpret_cast<const Half*>(line + line_stride);
    const Half r2 = *reinterpret_cast<const Half*>(line + 2 * line_stride);
    const Half r3 = *reinterpret_cast<const Half*>(line + 3 * line_stride);
    for (int c = 0; c < 4; ++c) {
      *halves[c][h] = Half{r0[c], r1[c], r2[c], r3[c]};
    }
  }
}

inline void store_pair(Complex* dst, std::size_t line_stride, Lanes re0,
                       Lanes im0, Lanes re1, Lanes im1) {
  const Half* halves[4][2] = {{&re0.lo, &re0.hi},
                              {&im0.lo, &im0.hi},
                              {&re1.lo, &re1.hi},
                              {&im1.lo, &im1.hi}};
  for (int h = 0; h < 2; ++h) {
    const Half& a = *halves[0][h];
    const Half& b = *halves[1][h];
    const Half& c = *halves[2][h];
    const Half& d = *halves[3][h];
    Complex* line = dst + 4 * h * line_stride;
    for (int j = 0; j < 4; ++j) {
      *reinterpret_cast<Half*>(line + j * line_stride) =
          Half{a[j], b[j], c[j], d[j]};
    }
  }
}

/// The complex product (a + ib)(c + id) of a line value and a table
/// factor (twiddle, rotation, chirp or spectrum; roots conjugated for
/// the inverse), with the roundings GCC 12 gave the std::complex
/// products of the scalar kernels this engine replaced: on FMA machines
/// it fused them into vfmaddsub even under -ffp-contract=off, one
/// product of each part rounded and the other fused into the add, and
/// it paired them differently for forward and inverse factors. Keeping
/// both forms keeps every power-of-two transform bit for bit what it was.
template <typename L, bool Inverse>
[[gnu::always_inline]] inline void product(
    typename L::V a, typename L::V b, typename L::V c, typename L::V d,
    typename L::V& re, typename L::V& im) {
  re = L::fma(a, c, -(b * d));
  if constexpr (Inverse) {
    im = L::fma(b, c, a * d);
  } else {
    im = L::fma(a, d, b * c);
  }
}

/// One radix-P decimation-in-time combine over blocks of P*m elements,
/// in place: X[q + s*m] = sum_r w_p^(r*s) * (w^(r*q) * Sub_r[q]), the
/// twiddled terms summed in r order. `tw_*` hold the (P-1) x m twiddles,
/// `rot_*` the P x P rotations (r*s mod P), both already directed. Unit
/// twiddles are multiplied like any other (skipping them would change
/// the sign of some zeros).
template <std::size_t P, typename L, bool Inverse>
void radix_stage(typename L::V* re, typename L::V* im, std::size_t n,
                 std::size_t m, const double* tw_re, const double* tw_im,
                 const double* rot_re, const double* rot_im) {
  using V = typename L::V;
  for (std::size_t block = 0; block < n; block += P * m) {
    V* xr = re + block;
    V* xi = im + block;
    for (std::size_t q = 0; q < m; ++q) {
      V tr[P];
      V ti[P];
      tr[0] = xr[q];
      ti[0] = xi[q];
      for (std::size_t r = 1; r < P; ++r) {
        product<L, Inverse>(xr[q + r * m], xi[q + r * m],
                            L::splat(tw_re[(r - 1) * m + q]),
                            L::splat(tw_im[(r - 1) * m + q]), tr[r], ti[r]);
      }
      if constexpr (P == 2) {
        xr[q] = tr[0] + tr[1];
        xi[q] = ti[0] + ti[1];
        xr[q + m] = tr[0] - tr[1];
        xi[q + m] = ti[0] - ti[1];
      } else {
        for (std::size_t s = 0; s < P; ++s) {
          V acc_re = tr[0];
          V acc_im = ti[0];
          for (std::size_t r = 1; r < P; ++r) {
            V p_re;
            V p_im;
            product<L, Inverse>(tr[r], ti[r], L::splat(rot_re[r * P + s]),
                                L::splat(rot_im[r * P + s]), p_re, p_im);
            acc_re = acc_re + p_re;
            acc_im = acc_im + p_im;
          }
          xr[q + s * m] = acc_re;
          xi[q + s * m] = acc_im;
        }
      }
    }
  }
}

/// x[k] = x[k] * (c[k] + i d[k]) for k < n.
template <typename L, bool Inverse>
void multiply(typename L::V* re, typename L::V* im, const double* c,
              const double* d, std::size_t n) {
  for (std::size_t k = 0; k < n; ++k) {
    product<L, Inverse>(re[k], im[k], L::splat(c[k]), L::splat(d[k]), re[k],
                        im[k]);
  }
}

/// Digit-reversal order of a decimation-in-time transform of length n
/// over the factors small_factor picks: the leaf at buffer position pos
/// reads line element `start + j * stride`, and position_of[that] = pos.
/// Built once per plan; the recursion depth is the number of factors.
void build_positions(std::uint32_t* position_of, std::size_t n,
                     std::size_t pos, std::size_t start,
                     std::size_t stride) {
  if (n == 1) {
    position_of[start] = static_cast<std::uint32_t>(pos);
    return;
  }
  const std::size_t p = small_factor(n);
  const std::size_t m = n / p;
  for (std::size_t r = 0; r < p; ++r) {
    build_positions(position_of, m, pos + r * m, start + r * stride,
                    stride * p);
  }
}

}  // namespace

// ---------------------------------------------------------------- FftPlan

FftPlan::FftPlan(std::size_t n) : n_(n) {
  if (n_ <= 1) {
    kind_ = Kind::kTrivial;
    return;
  }
  if (is_friendly_size(n_)) {
    kind_ = Kind::kStages;
    workspace_size_ = n_;
    position_of_.resize(n_);
    build_positions(position_of_.data(), n_, 0, 0, 1);
    // Forward roots exp(-2*pi*i*k/n); level n' (dividing n) reads
    // w_{n'}^t = roots[t * (n/n')].
    std::vector<Complex> roots(n_);
    for (std::size_t k = 0; k < n_; ++k) {
      roots[k] = unit_root(-static_cast<double>(k) / static_cast<double>(n_));
    }

    // Levels top-down (length n, n/p1, n/(p1 p2), ...); the stages run
    // them bottom-up.
    for (std::size_t level = n_; level > 1; level /= small_factor(level)) {
      const std::size_t p = small_factor(level);
      const std::size_t m = level / p;
      Stage stage;
      stage.radix = static_cast<std::uint32_t>(p);
      stage.span = static_cast<std::uint32_t>(m);
      stage.twiddles = static_cast<std::uint32_t>(twiddle_re_.size());
      stage.rotations = static_cast<std::uint32_t>(rotation_re_.size());
      const std::size_t root_stride = n_ / level;
      for (std::size_t r = 1; r < p; ++r) {
        for (std::size_t q = 0; q < m; ++q) {
          const Complex w = roots[r * q * root_stride];
          twiddle_re_.push_back(w.real());
          twiddle_im_[0].push_back(w.imag());
          twiddle_im_[1].push_back(-w.imag());
        }
      }
      if (p > 2) {
        for (std::size_t r = 0; r < p; ++r) {
          for (std::size_t s = 0; s < p; ++s) {
            const Complex w = roots[((r * s) % p) * (n_ / p)];
            rotation_re_.push_back(w.real());
            rotation_im_[0].push_back(w.imag());
            rotation_im_[1].push_back(-w.imag());
          }
        }
      }
      stages_.push_back(stage);
    }
    std::reverse(stages_.begin(), stages_.end());
    return;
  }

  kind_ = Kind::kBluestein;
  const std::size_t conv_n = next_pow2(2 * n_ - 1);
  workspace_size_ = conv_n;
  position_of_.resize(n_);
  for (std::size_t k = 0; k < n_; ++k) {
    position_of_[k] = static_cast<std::uint32_t>(k);
  }
  // Forward chirp is w^{k^2/2} with w = exp(-2*pi*i/n); k^2 mod 2n avoids
  // catastrophic angle loss for large k (lengths stay far below 2^32).
  std::vector<Complex> chirp(n_);
  for (std::size_t k = 0; k < n_; ++k) {
    const std::size_t k2 = (k * k) % (2 * n_);
    chirp[k] = unit_root(-0.5 * static_cast<double>(k2) /
                         static_cast<double>(n_));
    chirp_re_.push_back(chirp[k].real());
    chirp_im_[0].push_back(chirp[k].imag());
    chirp_im_[1].push_back(-chirp[k].imag());
  }
  conv_plan_ = std::make_unique<FftPlan>(conv_n);
  // Convolution kernels b_k = w^{-k^2/2} for each direction, transformed
  // once here so a transform only does the two data FFTs.
  std::vector<Complex> work(conv_plan_->workspace_size());
  for (const int inverse : {0, 1}) {
    std::vector<Complex> kernel(conv_n);
    for (std::size_t k = 0; k < n_; ++k) {
      const Complex b = inverse ? chirp[k] : std::conj(chirp[k]);
      kernel[k] = b;
      if (k > 0) kernel[conv_n - k] = b;
    }
    conv_plan_->execute(kernel.data(), work.data(), FftDirection::kForward);
    for (const Complex& value : kernel) {
      spectrum_re_[inverse].push_back(value.real());
      spectrum_im_[inverse].push_back(value.imag());
    }
  }
}

FftPlan::~FftPlan() = default;

template <typename L, bool Inverse>
void FftPlan::run_stages(typename L::V* re, typename L::V* im) const {
  const double* tw_im = twiddle_im_[Inverse].data();
  const double* rot_im = rotation_im_[Inverse].data();
  for (const Stage& stage : stages_) {
    const double* wr = twiddle_re_.data() + stage.twiddles;
    const double* wi = tw_im + stage.twiddles;
    const double* cr = rotation_re_.data() + stage.rotations;
    const double* ci = rot_im + stage.rotations;
    switch (stage.radix) {
      case 2:
        radix_stage<2, L, Inverse>(re, im, n_, stage.span, wr, wi, cr, ci);
        break;
      case 3:
        radix_stage<3, L, Inverse>(re, im, n_, stage.span, wr, wi, cr, ci);
        break;
      default:
        radix_stage<5, L, Inverse>(re, im, n_, stage.span, wr, wi, cr, ci);
        break;
    }
  }
}

template <typename L>
void FftPlan::permute(typename L::V* re, typename L::V* im) const {
  // Power-of-two plans only: bit reversal is its own inverse, so swapping
  // each pair once reorders in place.
  for (std::size_t i = 0; i < n_; ++i) {
    const std::size_t j = position_of_[i];
    if (i < j) {
      std::swap(re[i], re[j]);
      std::swap(im[i], im[j]);
    }
  }
}

template <typename L, bool Inverse>
void FftPlan::run_bluestein(typename L::V* re, typename L::V* im) const {
  using V = typename L::V;
  // The line sits in natural order in [0, n); the convolution runs on
  // conv_n points through the power-of-two plan.
  const FftPlan& conv = *conv_plan_;
  const std::size_t conv_n = conv.length();
  multiply<L, Inverse>(re, im, chirp_re_.data(), chirp_im_[Inverse].data(),
                       n_);
  for (std::size_t k = n_; k < conv_n; ++k) {
    re[k] = V{};
    im[k] = V{};
  }
  conv.permute<L>(re, im);
  conv.run_stages<L, false>(re, im);
  multiply<L, Inverse>(re, im, spectrum_re_[Inverse].data(),
                       spectrum_im_[Inverse].data(), conv_n);
  conv.permute<L>(re, im);
  conv.run_stages<L, true>(re, im);
  const V scale = L::splat(1.0 / static_cast<double>(conv_n));
  for (std::size_t k = 0; k < n_; ++k) {
    re[k] = re[k] * scale;
    im[k] = im[k] * scale;
  }
  multiply<L, Inverse>(re, im, chirp_re_.data(), chirp_im_[Inverse].data(),
                       n_);
}

template <typename L, bool Inverse>
void FftPlan::transform(Complex* base, std::size_t count,
                        std::size_t line_stride, std::size_t stride,
                        typename L::V* re, typename L::V* im) const {
  using V = typename L::V;
  // Eight contiguous lines (the X pass) load and store two elements at a
  // time through 4 x 4 transposes; other layouts go element by element.
  constexpr bool kVector = std::is_same_v<L, VectorLanes>;
  const std::size_t paired =
      kVector && count == kMaxLines && stride == 1 ? n_ & ~std::size_t{1}
                                                   : 0;
  if constexpr (kVector) {
    for (std::size_t i = 0; i < paired; i += 2) {
      load_pair(base + i, line_stride, re[position_of_[i]],
                im[position_of_[i]], re[position_of_[i + 1]],
                im[position_of_[i + 1]]);
    }
  }
  for (std::size_t i = paired; i < n_; ++i) {
    load_lanes(base + i * stride, count, line_stride, re[position_of_[i]],
               im[position_of_[i]]);
  }
  if (kind_ == Kind::kBluestein) {
    run_bluestein<L, Inverse>(re, im);
  } else {
    run_stages<L, Inverse>(re, im);
  }
  // The inverse's 1/n, one multiply per part on the way out.
  const V scale = L::splat(1.0 / static_cast<double>(n_));
  const auto out = [&](std::size_t i, V& r, V& m) {
    r = Inverse ? re[i] * scale : re[i];
    m = Inverse ? im[i] * scale : im[i];
  };
  if constexpr (kVector) {
    for (std::size_t i = 0; i < paired; i += 2) {
      V r0, m0, r1, m1;
      out(i, r0, m0);
      out(i + 1, r1, m1);
      store_pair(base + i, line_stride, r0, m0, r1, m1);
    }
  }
  for (std::size_t i = paired; i < n_; ++i) {
    V r, m;
    out(i, r, m);
    store_lanes(base + i * stride, count, line_stride, r, m);
  }
}

void FftPlan::execute(Complex* data, Complex* work,
                      FftDirection direction) const {
  execute_lines(data, 1, 0, 1, work, direction);
}

void FftPlan::execute_lines(Complex* base, std::size_t count,
                            std::size_t line_stride, std::size_t stride,
                            Complex* work, FftDirection direction) const {
  NDFT_ASSERT(count >= 1 && count <= kMaxLines);
  if (kind_ == Kind::kTrivial) return;
  const bool inverse = (direction == FftDirection::kInverse);
  if (count == 1) {
    // A batch of one runs the same engine on scalar lanes.
    double* re = reinterpret_cast<double*>(work);
    double* im = re + workspace_size_;
    inverse ? transform<ScalarLanes, true>(base, 1, 0, stride, re, im)
            : transform<ScalarLanes, false>(base, 1, 0, stride, re, im);
  } else {
    Lanes* re = reinterpret_cast<Lanes*>(work);
    Lanes* im = re + workspace_size_;
    inverse ? transform<VectorLanes, true>(base, count, line_stride, stride,
                                           re, im)
            : transform<VectorLanes, false>(base, count, line_stride,
                                            stride, re, im);
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
  // and immediately its strided Y lines while the slab (nx*ny points) is
  // still cache-resident - the X-pass scatter and the Y-pass gather share
  // one trip through memory, so the full transform sweeps the grid 4
  // times instead of 6. Each slab is written by exactly one task, so
  // results are bitwise identical for any thread count.
  constexpr std::size_t kLines = FftPlan::kMaxLines;
  {
    const FftPlan& plan_x = fft_plan(nx);
    const FftPlan& plan_y = fft_plan(ny);
    parallel_for(
        0, nz, parallel_grain(nx * ny), [&](std::size_t lo, std::size_t hi) {
          std::vector<Complex> work(
              kLines *
              std::max(plan_x.workspace_size(), plan_y.workspace_size()));
          for (std::size_t iz = lo; iz < hi; ++iz) {
            Complex* slab = data + iz * nx * ny;
            for (std::size_t iy = 0; iy < ny; iy += kLines) {
              plan_x.execute_lines(slab + iy * nx,
                                   std::min(kLines, ny - iy), nx, 1,
                                   work.data(), direction);
            }
            for (std::size_t ix = 0; ix < nx; ix += kLines) {
              plan_y.execute_lines(slab + ix, std::min(kLines, nx - ix), 1,
                                   nx, work.data(), direction);
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
          std::vector<Complex> work(kLines * plan.workspace_size());
          for (std::size_t iy = lo; iy < hi; ++iy) {
            for (std::size_t ix = 0; ix < nx; ix += kLines) {
              plan.execute_lines(data + iy * nx + ix,
                                 std::min(kLines, nx - ix), 1, nx * ny,
                                 work.data(), direction);
            }
          }
        });
  }
}

}  // namespace ndft::dft
