// Unit and property tests for the from-scratch FFT: reference DFT
// comparison, round trips, Parseval, linearity, shift theorem, and the
// 3D transforms, across power-of-two, mixed-radix and prime (Bluestein)
// lengths; and the batched line engine against a scalar oracle, bit for
// bit.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <numbers>
#include <thread>

#include "common/kernel_trace.hpp"
#include "common/prng.hpp"
#include "common/math_util.hpp"
#include "common/thread_pool.hpp"
#include "dft/fft.hpp"

namespace ndft::dft {
namespace {

std::vector<Complex> random_signal(std::size_t n, std::uint64_t seed) {
  Prng prng(seed);
  std::vector<Complex> x(n);
  for (auto& value : x) {
    value = Complex{prng.next_double(-1, 1), prng.next_double(-1, 1)};
  }
  return x;
}

/// O(n^2) reference DFT.
std::vector<Complex> reference_dft(const std::vector<Complex>& x) {
  const std::size_t n = x.size();
  std::vector<Complex> result(n);
  for (std::size_t k = 0; k < n; ++k) {
    Complex acc{};
    for (std::size_t j = 0; j < n; ++j) {
      const double angle = -2.0 * std::numbers::pi *
                           static_cast<double>(k * j) /
                           static_cast<double>(n);
      acc += x[j] * Complex{std::cos(angle), std::sin(angle)};
    }
    result[k] = acc;
  }
  return result;
}

double max_error(const std::vector<Complex>& a,
                 const std::vector<Complex>& b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::abs(a[i] - b[i]));
  }
  return worst;
}

TEST(FftSizeTest, FriendlySizes) {
  EXPECT_TRUE(is_friendly_size(1));
  EXPECT_TRUE(is_friendly_size(2));
  EXPECT_TRUE(is_friendly_size(360));  // 2^3 * 3^2 * 5
  EXPECT_FALSE(is_friendly_size(7));
  EXPECT_FALSE(is_friendly_size(0));
  EXPECT_EQ(friendly_size(7), 8u);
  EXPECT_EQ(friendly_size(11), 12u);
  EXPECT_EQ(friendly_size(25), 25u);
  EXPECT_EQ(friendly_size(121), 125u);
}

TEST(FftTest, ImpulseTransformsToConstant) {
  std::vector<Complex> x(16);
  x[0] = Complex{1.0, 0.0};
  fft(x, FftDirection::kForward);
  for (const Complex& value : x) {
    EXPECT_NEAR(value.real(), 1.0, 1e-12);
    EXPECT_NEAR(value.imag(), 0.0, 1e-12);
  }
}

TEST(FftTest, ConstantTransformsToImpulse) {
  std::vector<Complex> x(32, Complex{1.0, 0.0});
  fft(x, FftDirection::kForward);
  EXPECT_NEAR(x[0].real(), 32.0, 1e-10);
  for (std::size_t i = 1; i < 32; ++i) {
    EXPECT_NEAR(std::abs(x[i]), 0.0, 1e-10);
  }
}

// Property sweep over lengths covering pow2, radix-3/5 mixes and primes.
class FftLengthTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftLengthTest, MatchesReferenceDft) {
  const std::size_t n = GetParam();
  std::vector<Complex> x = random_signal(n, n);
  const std::vector<Complex> expected = reference_dft(x);
  fft(x, FftDirection::kForward);
  EXPECT_LT(max_error(x, expected), 1e-8 * static_cast<double>(n))
      << "length " << n;
}

TEST_P(FftLengthTest, RoundTripIsIdentity) {
  const std::size_t n = GetParam();
  const std::vector<Complex> original = random_signal(n, 7 * n + 1);
  std::vector<Complex> x = original;
  fft(x, FftDirection::kForward);
  fft(x, FftDirection::kInverse);
  EXPECT_LT(max_error(x, original), 1e-10) << "length " << n;
}

TEST_P(FftLengthTest, ParsevalHolds) {
  const std::size_t n = GetParam();
  std::vector<Complex> x = random_signal(n, 13 * n + 5);
  double time_energy = 0.0;
  for (const Complex& value : x) time_energy += std::norm(value);
  fft(x, FftDirection::kForward);
  double freq_energy = 0.0;
  for (const Complex& value : x) freq_energy += std::norm(value);
  EXPECT_NEAR(freq_energy, time_energy * static_cast<double>(n),
              1e-8 * time_energy * static_cast<double>(n));
}

INSTANTIATE_TEST_SUITE_P(Lengths, FftLengthTest,
                         ::testing::Values(1, 2, 4, 8, 64, 3, 9, 5, 25, 6,
                                           12, 60, 120, 7, 11, 13, 17, 31,
                                           97, 100, 128));

TEST(FftTest, Linearity) {
  const std::size_t n = 48;
  const std::vector<Complex> a = random_signal(n, 1);
  const std::vector<Complex> b = random_signal(n, 2);
  std::vector<Complex> sum(n);
  for (std::size_t i = 0; i < n; ++i) {
    sum[i] = 2.0 * a[i] + Complex{0.0, 1.0} * b[i];
  }
  std::vector<Complex> fa = a;
  std::vector<Complex> fb = b;
  fft(fa, FftDirection::kForward);
  fft(fb, FftDirection::kForward);
  fft(sum, FftDirection::kForward);
  for (std::size_t i = 0; i < n; ++i) {
    const Complex expected = 2.0 * fa[i] + Complex{0.0, 1.0} * fb[i];
    EXPECT_LT(std::abs(sum[i] - expected), 1e-9);
  }
}

TEST(FftTest, CircularShiftTheorem) {
  // Shifting the input by s multiplies bin k by exp(-2*pi*i*k*s/n).
  const std::size_t n = 36;
  const std::size_t s = 5;
  const std::vector<Complex> x = random_signal(n, 3);
  std::vector<Complex> shifted(n);
  for (std::size_t i = 0; i < n; ++i) {
    shifted[i] = x[(i + s) % n];
  }
  std::vector<Complex> fx = x;
  std::vector<Complex> fshifted = shifted;
  fft(fx, FftDirection::kForward);
  fft(fshifted, FftDirection::kForward);
  for (std::size_t k = 0; k < n; ++k) {
    const double angle = 2.0 * std::numbers::pi * static_cast<double>(k * s) /
                         static_cast<double>(n);
    const Complex phase{std::cos(angle), std::sin(angle)};
    EXPECT_LT(std::abs(fshifted[k] - fx[k] * phase), 1e-9);
  }
}

TEST(FftTest, RealSignalHasHermitianSpectrum) {
  const std::size_t n = 40;
  Prng prng(4);
  std::vector<Complex> x(n);
  for (auto& value : x) {
    value = Complex{prng.next_double(-1, 1), 0.0};
  }
  fft(x, FftDirection::kForward);
  for (std::size_t k = 1; k < n; ++k) {
    EXPECT_LT(std::abs(x[k] - std::conj(x[n - k])), 1e-10);
  }
}

TEST(FftFlopsTest, AnalyticCostGrowsNLogN) {
  EXPECT_EQ(fft_flops(1), 0u);
  const Flops f1k = fft_flops(1024);
  EXPECT_EQ(f1k, static_cast<Flops>(5 * 1024 * 10));
  EXPECT_GT(fft_flops(2048), 2 * f1k);
  EXPECT_LT(fft_flops(2048), 3 * f1k);
}

TEST(Grid3Test, IndexingIsXFastest) {
  Grid3 grid(4, 3, 2);
  grid.at(1, 2, 1) = Complex{7.0, 0.0};
  EXPECT_DOUBLE_EQ(grid[(1 * 3 + 2) * 4 + 1].real(), 7.0);
  EXPECT_EQ(grid.size(), 24u);
}

// One length per plan kind: power of two, mixed-radix 2/3/5, Bluestein
// prime. The parameterised sweep above covers many more lengths through
// fft(); these exercise the plan object and its workspace API directly.
class FftPlanTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftPlanTest, ExecuteMatchesReferenceDft) {
  const std::size_t n = GetParam();
  const FftPlan& plan = fft_plan(n);
  EXPECT_EQ(plan.length(), n);
  std::vector<Complex> x = random_signal(n, 1000 + n);
  const std::vector<Complex> expected = reference_dft(x);
  std::vector<Complex> work(plan.workspace_size());
  plan.execute(x.data(), work.data(), FftDirection::kForward);
  EXPECT_LT(max_error(x, expected), 1e-8 * static_cast<double>(n));
}

TEST_P(FftPlanTest, ExecuteRoundTripIsIdentity) {
  const std::size_t n = GetParam();
  const FftPlan& plan = fft_plan(n);
  const std::vector<Complex> original = random_signal(n, 2000 + n);
  std::vector<Complex> x = original;
  plan.execute(x, FftDirection::kForward);
  plan.execute(x, FftDirection::kInverse);
  EXPECT_LT(max_error(x, original), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(SizeClasses, FftPlanTest,
                         ::testing::Values(128, 60, 97));

TEST(FftPlanTest, CacheReturnsOnePlanPerLength) {
  EXPECT_EQ(&fft_plan(96), &fft_plan(96));
  EXPECT_NE(&fft_plan(96), &fft_plan(97));
}

TEST(Fft3dTest, DeterministicAcrossThreadCounts) {
  // 48^3 is large enough that the line loops split across the pool; the
  // transform must be bitwise identical to the single-threaded result.
  Grid3 grid(48, 48, 48);
  Prng prng(11);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    grid[i] = Complex{prng.next_double(-1, 1), prng.next_double(-1, 1)};
  }
  Grid3 parallel_grid = grid;

  ThreadPool& pool = ThreadPool::instance();
  const std::size_t original_threads = pool.threads();
  pool.resize(1);
  fft3d(grid, FftDirection::kForward);
  pool.resize(4);
  fft3d(parallel_grid, FftDirection::kForward);
  pool.resize(original_threads);

  for (std::size_t i = 0; i < grid.size(); ++i) {
    ASSERT_EQ(grid[i], parallel_grid[i]) << "index " << i;
  }
}

TEST(Fft3dTest, RoundTripIsIdentity) {
  Grid3 grid(8, 6, 5);
  Prng prng(5);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    grid[i] = Complex{prng.next_double(-1, 1), prng.next_double(-1, 1)};
  }
  const std::vector<Complex> original = grid.raw();
  fft3d(grid, FftDirection::kForward);
  fft3d(grid, FftDirection::kInverse);
  EXPECT_LT(max_error(grid.raw(), original), 1e-10);
}

TEST(Fft3dTest, PlaneWaveMapsToSingleBin) {
  // exp(i*2*pi*(hx/nx*x + ...)) transforms to a single nonzero bin.
  const std::size_t nx = 6, ny = 4, nz = 5;
  Grid3 grid(nx, ny, nz);
  const int h = 2, k = 1, l = 3;
  for (std::size_t z = 0; z < nz; ++z) {
    for (std::size_t y = 0; y < ny; ++y) {
      for (std::size_t x = 0; x < nx; ++x) {
        const double phase =
            2.0 * std::numbers::pi *
            (static_cast<double>(h * x) / nx + static_cast<double>(k * y) / ny +
             static_cast<double>(l * z) / nz);
        grid.at(x, y, z) = Complex{std::cos(phase), std::sin(phase)};
      }
    }
  }
  fft3d(grid, FftDirection::kForward);
  const double total = static_cast<double>(grid.size());
  for (std::size_t z = 0; z < nz; ++z) {
    for (std::size_t y = 0; y < ny; ++y) {
      for (std::size_t x = 0; x < nx; ++x) {
        const double expected =
            (x == h && y == static_cast<std::size_t>(k) && z == l) ? total
                                                                   : 0.0;
        EXPECT_NEAR(std::abs(grid.at(x, y, z)), expected, 1e-8);
      }
    }
  }
}

/// O(N^2) reference 3D DFT of an x-fastest grid: the forward sum, or
/// the inverse sum scaled by 1/N.
std::vector<Complex> reference_dft3(const Grid3& grid, FftDirection direction) {
  const std::size_t dims[3] = {grid.nx(), grid.ny(), grid.nz()};
  const double sign = direction == FftDirection::kForward ? -1.0 : 1.0;
  // twiddle[d][j] = exp(sign * 2 pi i j / n_d): the phase is separable.
  std::vector<Complex> twiddle[3];
  for (std::size_t d = 0; d < 3; ++d) {
    for (std::size_t j = 0; j < dims[d]; ++j) {
      const double angle = sign * 2.0 * std::numbers::pi *
                           static_cast<double>(j) /
                           static_cast<double>(dims[d]);
      twiddle[d].push_back(Complex{std::cos(angle), std::sin(angle)});
    }
  }
  const double scale = direction == FftDirection::kForward
                           ? 1.0
                           : 1.0 / static_cast<double>(grid.size());
  std::vector<Complex> result(grid.size());
  for (std::size_t kz = 0; kz < dims[2]; ++kz) {
    for (std::size_t ky = 0; ky < dims[1]; ++ky) {
      for (std::size_t kx = 0; kx < dims[0]; ++kx) {
        Complex acc{};
        for (std::size_t z = 0; z < dims[2]; ++z) {
          for (std::size_t y = 0; y < dims[1]; ++y) {
            const Complex yz = twiddle[1][ky * y % dims[1]] *
                               twiddle[2][kz * z % dims[2]];
            for (std::size_t x = 0; x < dims[0]; ++x) {
              acc += grid.at(x, y, z) * yz * twiddle[0][kx * x % dims[0]];
            }
          }
        }
        result[(kz * dims[1] + ky) * dims[0] + kx] = acc * scale;
      }
    }
  }
  return result;
}

TEST(Fft3dTest, MatchesDirectDftAndTracesItsWork) {
  // The production grids (8^3: Si_8; 15^3: Si_64), a mixed-radix grid and
  // one with Bluestein lengths, both directions, against the direct sum.
  // The trace event carries the transform's analytic work: fft_flops(N)
  // and 4 grid sweeps of 16-byte points.
  for (const auto& dims : {std::array<std::size_t, 3>{8, 8, 8},
                           std::array<std::size_t, 3>{15, 15, 15},
                           std::array<std::size_t, 3>{6, 10, 9},
                           std::array<std::size_t, 3>{7, 4, 5}}) {
    Grid3 input(dims[0], dims[1], dims[2]);
    Prng prng(dims[0] * 100 + dims[1] * 10 + dims[2]);
    for (std::size_t i = 0; i < input.size(); ++i) {
      input[i] = Complex{prng.next_double(-1, 1), prng.next_double(-1, 1)};
    }
    const std::size_t n = input.size();
    for (const FftDirection direction :
         {FftDirection::kForward, FftDirection::kInverse}) {
      Grid3 grid = input;
      TraceRecorder recorder;
      {
        TraceScope scope(recorder);
        fft3d(grid, direction);
      }
      EXPECT_LT(max_error(grid.raw(), reference_dft3(input, direction)),
                1e-10 * static_cast<double>(n))
          << dims[0] << "x" << dims[1] << "x" << dims[2];
      const KernelTrace trace = recorder.take();
      ASSERT_EQ(trace.events.size(), 1u);
      const TraceEvent& event = trace.events[0];
      EXPECT_EQ(event.cls, KernelClass::kFft);
      EXPECT_EQ(event.name, "fft3d");
      EXPECT_EQ(event.flops, fft_flops(n));
      EXPECT_EQ(event.bytes, 4u * n * 16);
      EXPECT_EQ(event.dims[0], dims[0]);
      EXPECT_EQ(event.dims[1], dims[1]);
      EXPECT_EQ(event.dims[2], dims[2]);
    }
  }
}

TEST(Fft3dTest, FusedDeterministicAcrossThreadCounts) {
  // The fused transform parallelises over z slabs; each slab is written
  // by exactly one task, so any pool width must give bitwise-identical
  // grids.
  Grid3 reference(48, 48, 48);
  Prng prng(13);
  for (std::size_t i = 0; i < reference.size(); ++i) {
    reference[i] = Complex{prng.next_double(-1, 1), prng.next_double(-1, 1)};
  }

  ThreadPool& pool = ThreadPool::instance();
  const std::size_t original_threads = pool.threads();
  std::vector<Grid3> results;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    pool.resize(threads);
    Grid3 grid = reference;
    fft3d(grid, FftDirection::kForward);
    results.push_back(std::move(grid));
  }
  pool.resize(original_threads);

  for (std::size_t t = 1; t < results.size(); ++t) {
    for (std::size_t i = 0; i < reference.size(); ++i) {
      ASSERT_EQ(results[0][i], results[t][i])
          << "index " << i << " at thread variant " << t;
    }
  }
}

// ------------------------------------------------------------ the oracle
//
// The scalar line kernels the batched engine replaced, kept as the
// bitwise oracle: an in-place radix-2 transform after a bit-reversal swap
// pass, a recursive mixed-radix decimation in time, and Bluestein's chirp
// convolution around the radix-2 kernel. Only the complex products are
// spelled out (oracle_product): GCC compiled the std::complex operator*
// of these kernels into fused vfmaddsub on FMA machines despite
// -ffp-contract=off, with a different fused form for forward and inverse
// factors, so `x * w` would mean different roundings in different builds
// and even at different inlining sites. The engine must reproduce every
// output bit for finite input.

Complex oracle_root(double turns) {
  const double two_pi = 2.0 * std::numbers::pi;
  return Complex{std::cos(two_pi * turns), std::sin(two_pi * turns)};
}

std::size_t oracle_factor(std::size_t n) {
  if (n % 2 == 0) return 2;
  if (n % 3 == 0) return 3;
  if (n % 5 == 0) return 5;
  return 0;
}

template <bool Inverse>
Complex directed(const Complex& root) {
  if constexpr (Inverse) {
    return std::conj(root);
  } else {
    return root;
  }
}

/// x * w as the production kernels computed it on FMA machines: the real
/// part fuses x.re * w.re with the rounded x.im * w.im; the imaginary
/// part fuses x.re * w.im (forward) or x.im * w.re (inverse) with the
/// other rounded product.
template <bool Inverse>
Complex oracle_product(const Complex& x, const Complex& w) {
  const double a = x.real();
  const double b = x.imag();
  const double c = w.real();
  const double d = w.imag();
  const double re = std::fma(a, c, -(b * d));
  const double im = Inverse ? std::fma(b, c, a * d) : std::fma(a, d, b * c);
  return Complex{re, im};
}

class OraclePlan {
 public:
  explicit OraclePlan(std::size_t n) : n_(n) {
    if (n_ <= 1) return;
    if (is_pow2(n_)) {
      kind_ = Kind::kPow2;
      roots_.resize(n_ / 2);
      for (std::size_t k = 0; k < n_ / 2; ++k) {
        roots_[k] =
            oracle_root(-static_cast<double>(k) / static_cast<double>(n_));
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
      return;
    }
    if (is_friendly_size(n_)) {
      kind_ = Kind::kMixed;
      roots_.resize(n_);
      for (std::size_t k = 0; k < n_; ++k) {
        roots_[k] =
            oracle_root(-static_cast<double>(k) / static_cast<double>(n_));
      }
      std::size_t arena = 0;
      for (std::size_t level = n_; level > 1;
           level /= oracle_factor(level)) {
        arena += level;
      }
      work_.resize(n_ + arena);
      return;
    }
    kind_ = Kind::kBluestein;
    chirp_.resize(n_);
    for (std::size_t k = 0; k < n_; ++k) {
      const std::size_t k2 = (k * k) % (2 * n_);
      chirp_[k] = oracle_root(-0.5 * static_cast<double>(k2) /
                              static_cast<double>(n_));
    }
    const std::size_t conv_n = next_pow2(2 * n_ - 1);
    conv_ = std::make_unique<OraclePlan>(conv_n);
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
    conv_->pow2_core<false>(b_spec_fwd_.data());
    conv_->pow2_core<false>(b_spec_inv_.data());
    work_.resize(conv_n);
  }

  void execute(Complex* data, FftDirection direction) {
    const bool inverse = (direction == FftDirection::kInverse);
    switch (kind_) {
      case Kind::kTrivial:
        return;
      case Kind::kPow2:
        inverse ? pow2_core<true>(data) : pow2_core<false>(data);
        break;
      case Kind::kMixed: {
        Complex* out = work_.data();
        if (inverse) {
          mixed_recurse<true>(data, out, n_, 1, work_.data() + n_);
        } else {
          mixed_recurse<false>(data, out, n_, 1, work_.data() + n_);
        }
        std::copy(out, out + n_, data);
        break;
      }
      case Kind::kBluestein:
        inverse ? bluestein_core<true>(data) : bluestein_core<false>(data);
        break;
    }
    if (inverse) {
      const double scale = 1.0 / static_cast<double>(n_);
      for (std::size_t k = 0; k < n_; ++k) {
        data[k] *= scale;
      }
    }
  }

 private:
  enum class Kind { kTrivial, kPow2, kMixed, kBluestein };

  template <bool Inverse>
  void pow2_core(Complex* data) const {
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
          const Complex odd = oracle_product<Inverse>(hi[k], w);
          lo[k] = even + odd;
          hi[k] = even - odd;
        }
      }
    }
  }

  template <bool Inverse>
  void mixed_recurse(const Complex* in, Complex* out, std::size_t n,
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
    const std::size_t p = oracle_factor(n);
    const std::size_t m = n / p;
    const std::size_t root_stride = n_ / n;
    Complex* sub = work;
    for (std::size_t r = 0; r < p; ++r) {
      mixed_recurse<Inverse>(in + r * stride, sub + r * m, m, stride * p,
                             work + n);
    }
    if (p == 2) {
      for (std::size_t q = 0; q < m; ++q) {
        const Complex w = directed<Inverse>(roots_[q * root_stride]);
        const Complex t = oracle_product<Inverse>(sub[m + q], w);
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
        twiddled[r] = oracle_product<Inverse>(sub[r * m + q], w);
      }
      for (std::size_t s = 0; s < p; ++s) {
        Complex acc = twiddled[0];
        for (std::size_t r = 1; r < p; ++r) {
          const Complex w =
              directed<Inverse>(roots_[((r * s) % p) * p_root_stride]);
          acc += oracle_product<Inverse>(twiddled[r], w);
        }
        out[q + s * m] = acc;
      }
    }
  }

  template <bool Inverse>
  void bluestein_core(Complex* data) {
    const std::size_t n = n_;
    const std::size_t conv_n = conv_->n_;
    Complex* a = work_.data();
    for (std::size_t k = 0; k < n; ++k) {
      a[k] = oracle_product<Inverse>(data[k], directed<Inverse>(chirp_[k]));
    }
    for (std::size_t k = n; k < conv_n; ++k) {
      a[k] = Complex{};
    }
    conv_->pow2_core<false>(a);
    const std::vector<Complex>& b_spec = Inverse ? b_spec_inv_ : b_spec_fwd_;
    for (std::size_t k = 0; k < conv_n; ++k) {
      a[k] = oracle_product<Inverse>(a[k], b_spec[k]);
    }
    conv_->pow2_core<true>(a);
    const double scale = 1.0 / static_cast<double>(conv_n);
    for (std::size_t k = 0; k < n; ++k) {
      data[k] =
          oracle_product<Inverse>(a[k] * scale, directed<Inverse>(chirp_[k]));
    }
  }

  std::size_t n_ = 0;
  Kind kind_ = Kind::kTrivial;
  std::vector<Complex> roots_;
  std::vector<std::uint32_t> bitrev_;
  std::vector<Complex> chirp_;
  std::vector<Complex> b_spec_fwd_;
  std::vector<Complex> b_spec_inv_;
  std::unique_ptr<OraclePlan> conv_;
  std::vector<Complex> work_;
};

/// The oracle's 3D transform: every X line, then every Y line, then every
/// Z line, each gathered into a contiguous copy.
void oracle_fft3d(Grid3& grid, FftDirection direction) {
  const std::size_t dims[3] = {grid.nx(), grid.ny(), grid.nz()};
  const std::size_t strides[3] = {1, dims[0], dims[0] * dims[1]};
  for (std::size_t axis = 0; axis < 3; ++axis) {
    OraclePlan plan(dims[axis]);
    std::vector<Complex> line(dims[axis]);
    for (std::size_t start = 0; start < grid.size(); ++start) {
      // A line starts wherever this axis' coordinate is zero.
      if ((start / strides[axis]) % dims[axis] != 0) continue;
      for (std::size_t i = 0; i < dims[axis]; ++i) {
        line[i] = grid[start + i * strides[axis]];
      }
      plan.execute(line.data(), direction);
      for (std::size_t i = 0; i < dims[axis]; ++i) {
        grid[start + i * strides[axis]] = line[i];
      }
    }
  }
}

/// Raw bit patterns of re and im, for ASSERT_EQ on every output bit.
std::array<std::uint64_t, 2> bits(const Complex& value) {
  std::array<std::uint64_t, 2> out;
  const double parts[2] = {value.real(), value.imag()};
  std::memcpy(out.data(), parts, sizeof(parts));
  return out;
}

/// A test signal with the values production grids are full of: exact
/// zeros of both signs (the Hartree and orbital grids are zero off the
/// G sphere, the density grid's imaginary parts are +0.0) among random
/// values.
std::vector<Complex> signed_zero_signal(std::size_t n, std::uint64_t seed) {
  Prng prng(seed);
  std::vector<Complex> x(n);
  for (auto& value : x) {
    const double draw = prng.next_double(0, 1);
    if (draw < 0.2) {
      value = Complex{0.0, 0.0};
    } else if (draw < 0.3) {
      value = Complex{-0.0, prng.next_double(-1, 1)};
    } else if (draw < 0.4) {
      value = Complex{prng.next_double(-1, 1), -0.0};
    } else {
      value = Complex{prng.next_double(-1, 1), prng.next_double(-1, 1)};
    }
  }
  return x;
}

TEST(FftEngineTest, BatchesMatchTheScalarOracleBitwise) {
  // Every plan kind - power of two, each radix-2/3/5 mix, Bluestein -
  // both directions, every batch size including the ragged ones, and
  // both layouts fft3d uses: lines side by side (the Y and Z passes;
  // 8 lines take the vector load) and contiguous lines one after another
  // (the X pass).
  const std::size_t lengths[] = {2,  4,  8,  16, 32, 64, 3,  5,  6,  9, 10,
                                 12, 15, 18, 20, 25, 30, 45, 7,  11, 13};
  for (const std::size_t n : lengths) {
    const FftPlan& plan = fft_plan(n);
    OraclePlan oracle(n);
    std::vector<Complex> work(FftPlan::kMaxLines * plan.workspace_size());
    for (const FftDirection direction :
         {FftDirection::kForward, FftDirection::kInverse}) {
      for (std::size_t count = 1; count <= FftPlan::kMaxLines; ++count) {
        const std::vector<Complex> input =
            signed_zero_signal(n * count, 31 * n + count);
        // Expected: line b is input[b*n, b*n+n) through the oracle.
        std::vector<Complex> expected = input;
        for (std::size_t b = 0; b < count; ++b) {
          oracle.execute(expected.data() + b * n, direction);
        }
        // Contiguous lines: element i of line b at b*n + i.
        std::vector<Complex> contiguous = input;
        plan.execute_lines(contiguous.data(), count, n, 1, work.data(),
                           direction);
        // Side by side: element i of line b at i*count + b.
        std::vector<Complex> side(n * count);
        for (std::size_t b = 0; b < count; ++b) {
          for (std::size_t i = 0; i < n; ++i) {
            side[i * count + b] = input[b * n + i];
          }
        }
        plan.execute_lines(side.data(), count, 1, count, work.data(),
                           direction);
        for (std::size_t b = 0; b < count; ++b) {
          for (std::size_t i = 0; i < n; ++i) {
            const auto want = bits(expected[b * n + i]);
            ASSERT_EQ(bits(contiguous[b * n + i]), want)
                << "n=" << n << " count=" << count << " line " << b
                << " element " << i << " (contiguous)";
            ASSERT_EQ(bits(side[i * count + b]), want)
                << "n=" << n << " count=" << count << " line " << b
                << " element " << i << " (side by side)";
          }
        }
        if (count == 1) {
          std::vector<Complex> single = input;
          plan.execute(single, direction);
          for (std::size_t i = 0; i < n; ++i) {
            ASSERT_EQ(bits(single[i]), bits(expected[i]))
                << "n=" << n << " element " << i << " (execute)";
          }
        }
      }
    }
  }
}

TEST(Fft3dTest, MatchesTheOracleCompositionBitwise) {
  for (const auto& dims : {std::array<std::size_t, 3>{8, 8, 8},
                           std::array<std::size_t, 3>{15, 15, 15},
                           std::array<std::size_t, 3>{6, 10, 9},
                           std::array<std::size_t, 3>{7, 4, 5}}) {
    Grid3 input(dims[0], dims[1], dims[2]);
    const std::vector<Complex> values = signed_zero_signal(
        input.size(), dims[0] * 100 + dims[1] * 10 + dims[2]);
    std::copy(values.begin(), values.end(), input.raw().begin());
    for (const FftDirection direction :
         {FftDirection::kForward, FftDirection::kInverse}) {
      Grid3 grid = input;
      Grid3 expected = input;
      fft3d(grid, direction);
      oracle_fft3d(expected, direction);
      for (std::size_t i = 0; i < grid.size(); ++i) {
        ASSERT_EQ(bits(grid[i]), bits(expected[i]))
            << dims[0] << "x" << dims[1] << "x" << dims[2] << " index " << i
            << (direction == FftDirection::kForward ? " forward"
                                                    : " inverse");
      }
    }
  }
}

TEST(FftPlanTest, ConcurrentFirstUseMatchesSerialBitwise) {
  // Four threads transform distinct grids whose lengths no other test
  // plans (mixed radix and Bluestein), so the plans are built while the
  // threads race for them; each result must equal a serial run's.
  constexpr std::size_t kThreads = 4;
  std::vector<Grid3> grids;
  for (std::size_t t = 0; t < kThreads; ++t) {
    Grid3 grid(27, 19, 14);
    const std::vector<Complex> values = signed_zero_signal(grid.size(), 90 + t);
    std::copy(values.begin(), values.end(), grid.raw().begin());
    grids.push_back(std::move(grid));
  }
  std::vector<Grid3> serial = grids;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&grids, t] {
      fft3d(grids[t], t % 2 == 0 ? FftDirection::kForward
                                 : FftDirection::kInverse);
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    fft3d(serial[t],
          t % 2 == 0 ? FftDirection::kForward : FftDirection::kInverse);
    for (std::size_t i = 0; i < serial[t].size(); ++i) {
      ASSERT_EQ(bits(grids[t][i]), bits(serial[t][i]))
          << "thread " << t << " index " << i;
    }
  }
}

}  // namespace
}  // namespace ndft::dft
