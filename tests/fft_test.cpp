// Unit and property tests for the from-scratch FFT: reference DFT
// comparison, round trips, Parseval, linearity, shift theorem, and the
// 3D transforms, across power-of-two, mixed-radix and prime (Bluestein)
// lengths.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <numbers>

#include "common/kernel_trace.hpp"
#include "common/prng.hpp"
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

}  // namespace
}  // namespace ndft::dft
