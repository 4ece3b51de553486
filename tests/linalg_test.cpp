// Unit and property tests for the dense linear algebra kernels: GEMM
// against naive reference, the symmetric eigensolver (SYEVD) and the
// Hermitian eigensolver.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <new>
#include <tuple>
#include <vector>

#include "common/kernel_trace.hpp"
#include "common/prng.hpp"
#include "common/thread_pool.hpp"
#include "dft/linalg.hpp"

// Counts heap allocations of 64 KiB or more, the sizes that fault in
// fresh pages, so a test can assert that a warm window solve makes none.
// Every form of operator new and delete is replaced, so each block is
// allocated and freed by the same pair (malloc and free) whatever the
// runtime underneath (ASan supplies forms of its own). Out of line, so no
// caller sees the malloc or free under them.
namespace {
constexpr std::size_t kLargeAllocation = 64 * 1024;
std::atomic<std::size_t> large_allocations{0};

void* counted_malloc(std::size_t size) noexcept {
  if (size >= kLargeAllocation) {
    large_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size == 0 ? 1 : size);
}
}  // namespace

[[gnu::noinline]] void* operator new(std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new(std::size_t size,
                                     const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
[[gnu::noinline]] void* operator new[](std::size_t size,
                                       const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p,
                                       const std::nothrow_t&) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p,
                                         const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace ndft::dft {
namespace {

/// The one trace event `kernel` records on this thread.
template <typename Kernel>
TraceEvent traced(Kernel&& kernel) {
  TraceRecorder recorder;
  {
    TraceScope scope(recorder);
    kernel();
  }
  const KernelTrace trace = recorder.take();
  NDFT_REQUIRE(trace.events.size() == 1, "expected one trace event");
  return trace.events[0];
}

RealMatrix random_matrix(std::size_t rows, std::size_t cols,
                         std::uint64_t seed) {
  Prng prng(seed);
  RealMatrix m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      m(i, j) = prng.next_double(-1.0, 1.0);
    }
  }
  return m;
}

RealMatrix random_symmetric(std::size_t n, std::uint64_t seed) {
  Prng prng(seed);
  RealMatrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      const double v = prng.next_double(-1.0, 1.0);
      m(i, j) = v;
      m(j, i) = v;
    }
  }
  return m;
}

ComplexMatrix random_hermitian(std::size_t n, std::uint64_t seed) {
  Prng prng(seed);
  ComplexMatrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    m(i, i) = Complex{prng.next_double(-1.0, 1.0), 0.0};
    for (std::size_t j = 0; j < i; ++j) {
      const Complex v{prng.next_double(-1.0, 1.0),
                      prng.next_double(-1.0, 1.0)};
      m(i, j) = v;
      m(j, i) = std::conj(v);
    }
  }
  return m;
}

/// Naive reference product for validation.
RealMatrix naive_product(const RealMatrix& a, const RealMatrix& b) {
  RealMatrix c(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k) {
        acc += a(i, k) * b(k, j);
      }
      c(i, j) = acc;
    }
  }
  return c;
}

double max_abs_diff(const RealMatrix& a, const RealMatrix& b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      worst = std::max(worst, std::fabs(a(i, j) - b(i, j)));
    }
  }
  return worst;
}

TEST(MatrixTest, BasicAccessAndTranspose) {
  RealMatrix m(2, 3);
  m(0, 0) = 1.0;
  m(1, 2) = 5.0;
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  const RealMatrix t = m.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_DOUBLE_EQ(t(2, 1), 5.0);
  EXPECT_EQ(m.bytes(), 6 * sizeof(double));
}

TEST(GemmTest, MatchesNaiveReference) {
  const RealMatrix a = random_matrix(17, 23, 1);
  const RealMatrix b = random_matrix(23, 11, 2);
  RealMatrix c;
  gemm(a, b, c);
  EXPECT_LT(max_abs_diff(c, naive_product(a, b)), 1e-12);
}

TEST(GemmTest, AlphaBetaComposition) {
  const RealMatrix a = random_matrix(8, 8, 3);
  const RealMatrix b = random_matrix(8, 8, 4);
  RealMatrix c = random_matrix(8, 8, 5);
  const RealMatrix c0 = c;
  gemm(a, b, c, 2.0, 3.0);
  const RealMatrix ab = naive_product(a, b);
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t j = 0; j < 8; ++j) {
      EXPECT_NEAR(c(i, j), 2.0 * ab(i, j) + 3.0 * c0(i, j), 1e-12);
    }
  }
}

TEST(GemmTest, TransposeVariants) {
  const RealMatrix a = random_matrix(9, 13, 6);
  const RealMatrix b = random_matrix(9, 7, 7);
  RealMatrix c;
  gemm(a, b, c, 1.0, 0.0, /*transpose_a=*/true);
  EXPECT_LT(max_abs_diff(c, naive_product(a.transposed(), b)), 1e-12);

  const RealMatrix d = random_matrix(5, 13, 8);
  RealMatrix e;
  gemm(a, d, e, 1.0, 0.0, false, /*transpose_b=*/true);
  EXPECT_LT(max_abs_diff(e, naive_product(a, d.transposed())), 1e-12);
}

TEST(GemmTest, RejectsMismatchedShapes) {
  const RealMatrix a = random_matrix(4, 5, 9);
  const RealMatrix b = random_matrix(6, 4, 10);
  RealMatrix c;
  EXPECT_THROW(gemm(a, b, c), NdftError);
}

TEST(GemmTest, CountsFlopsAndBytes) {
  const RealMatrix a = random_matrix(10, 20, 11);
  const RealMatrix b = random_matrix(20, 30, 12);
  RealMatrix c;
  const TraceEvent event = traced([&] { gemm(a, b, c); });
  EXPECT_EQ(event.flops, 2u * 10 * 30 * 20);
  EXPECT_GT(event.bytes, 0u);
}

TEST(GemmTest, BlockedMatchesNaiveAcrossFlagCombinations) {
  // Odd shapes exercise every micro-tile remainder; the larger problem
  // goes through the packed/blocked path, the smaller through the inline
  // fast path. Sweep transpose, alpha and beta combinations against the
  // reference loop.
  struct Shape {
    std::size_t m, n, k;
  };
  const Shape shapes[] = {{67, 45, 33}, {129, 100, 70}};
  std::uint64_t seed = 100;
  for (const Shape& s : shapes) {
    for (const bool ta : {false, true}) {
      for (const bool tb : {false, true}) {
        for (const double alpha : {1.0, -0.75}) {
          for (const double beta : {0.0, 1.0, 0.3}) {
            const RealMatrix a = ta ? random_matrix(s.k, s.m, seed)
                                    : random_matrix(s.m, s.k, seed);
            const RealMatrix b = tb ? random_matrix(s.n, s.k, seed + 1)
                                    : random_matrix(s.k, s.n, seed + 1);
            RealMatrix c_blocked = random_matrix(s.m, s.n, seed + 2);
            RealMatrix c_naive = c_blocked;
            seed += 3;
            gemm(a, b, c_blocked, alpha, beta, ta, tb);
            gemm_naive(a, b, c_naive, alpha, beta, ta, tb);
            EXPECT_LT(max_abs_diff(c_blocked, c_naive), 1e-12)
                << "m=" << s.m << " ta=" << ta << " tb=" << tb
                << " alpha=" << alpha << " beta=" << beta;
          }
        }
      }
    }
  }
}

TEST(GemmComplexTest, BlockedMatchesNaiveAcrossFlagCombinations) {
  const auto random_complex = [](std::size_t rows, std::size_t cols,
                                 std::uint64_t seed) {
    Prng prng(seed);
    ComplexMatrix m(rows, cols);
    for (std::size_t i = 0; i < rows; ++i) {
      for (std::size_t j = 0; j < cols; ++j) {
        m(i, j) = Complex{prng.next_double(-1, 1), prng.next_double(-1, 1)};
      }
    }
    return m;
  };
  const std::size_t m = 41;
  const std::size_t n = 29;
  const std::size_t k = 53;
  std::uint64_t seed = 500;
  for (const bool ca : {false, true}) {
    for (const bool tb : {false, true}) {
      for (const Complex beta : {Complex{}, Complex{0.4, -0.2}}) {
        const ComplexMatrix a =
            ca ? random_complex(k, m, seed) : random_complex(m, k, seed);
        const ComplexMatrix b =
            tb ? random_complex(n, k, seed + 1) : random_complex(k, n, seed + 1);
        ComplexMatrix c_blocked = random_complex(m, n, seed + 2);
        ComplexMatrix c_naive = c_blocked;
        seed += 3;
        const Complex alpha{0.8, 0.3};
        gemm(a, b, c_blocked, alpha, beta, ca, tb);
        gemm_naive(a, b, c_naive, alpha, beta, ca, tb);
        double worst = 0.0;
        for (std::size_t i = 0; i < m; ++i) {
          for (std::size_t j = 0; j < n; ++j) {
            worst = std::max(worst, std::abs(c_blocked(i, j) - c_naive(i, j)));
          }
        }
        EXPECT_LT(worst, 1e-12) << "ca=" << ca << " tb=" << tb;
      }
    }
  }
}

TEST(GemmComplexTest, WarmProductIntoASizedCMakesNoLargeAllocation) {
  // The LR-TDDFT kernel shape (K_H and K_xc): 64 pair densities against
  // 64 conjugated, weighted ones over a 512-point grid, C = A B^T. The 3M
  // split reads Re, Im and Re+Im straight out of the complex operands
  // while packing, so a warm product into a sized C allocates nothing of
  // 64 KiB or more at any pool width; it spans three k-blocks, and its
  // result is bitwise the same at every width and close to the reference
  // loop.
  Prng prng(77);
  ComplexMatrix a(64, 512);
  ComplexMatrix b(64, 512);
  for (ComplexMatrix* matrix : {&a, &b}) {
    for (std::size_t i = 0; i < 64; ++i) {
      for (std::size_t j = 0; j < 512; ++j) {
        (*matrix)(i, j) =
            Complex{prng.next_double(-1, 1), prng.next_double(-1, 1)};
      }
    }
  }
  const Complex alpha{0.125, 0.0};
  ComplexMatrix reference(64, 64);
  gemm_naive(a, b, reference, alpha, Complex{}, false, true);

  ThreadPool& pool = ThreadPool::instance();
  const std::size_t original = pool.threads();
  std::vector<ComplexMatrix> results;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    pool.resize(threads);
    ComplexMatrix c(64, 64);
    gemm(a, b, c, alpha, Complex{}, false, true);  // warm-up
    const std::size_t before = large_allocations.load();
    gemm(a, b, c, alpha, Complex{}, false, true);
    EXPECT_EQ(large_allocations.load() - before, 0u)
        << "at " << threads << " threads";
    results.push_back(c);
  }
  pool.resize(original);

  double worst = 0.0;
  for (std::size_t i = 0; i < 64; ++i) {
    for (std::size_t j = 0; j < 64; ++j) {
      worst = std::max(worst, std::abs(results[0](i, j) - reference(i, j)));
      for (std::size_t t = 1; t < results.size(); ++t) {
        ASSERT_EQ(results[t](i, j), results[0](i, j))
            << "(" << i << ", " << j << ") at width variant " << t;
      }
    }
  }
  EXPECT_LT(worst, 1e-12);
}

TEST(GemmTest, DeterministicAcrossThreadCounts) {
  // Big enough for the blocked path to split row blocks across the pool;
  // the result must be bitwise identical to the single-threaded product.
  const std::size_t n = 300;
  const RealMatrix a = random_matrix(n, n, 31);
  const RealMatrix b = random_matrix(n, n, 32);
  RealMatrix c_serial;
  RealMatrix c_parallel;

  ThreadPool& pool = ThreadPool::instance();
  const std::size_t original_threads = pool.threads();
  pool.resize(1);
  gemm(a, b, c_serial);
  pool.resize(4);
  gemm(a, b, c_parallel);
  pool.resize(original_threads);

  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      ASSERT_EQ(c_serial(i, j), c_parallel(i, j))
          << "element (" << i << ", " << j << ")";
    }
  }
}

TEST(GemmComplexTest, MatchesRealEmbedding) {
  // (A + iB)(C + iD) = (AC - BD) + i(AD + BC).
  Prng prng(13);
  const std::size_t n = 12;
  ComplexMatrix a(n, n);
  ComplexMatrix b(n, n);
  RealMatrix ar(n, n), ai(n, n), br(n, n), bi(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      ar(i, j) = prng.next_double(-1, 1);
      ai(i, j) = prng.next_double(-1, 1);
      br(i, j) = prng.next_double(-1, 1);
      bi(i, j) = prng.next_double(-1, 1);
      a(i, j) = Complex{ar(i, j), ai(i, j)};
      b(i, j) = Complex{br(i, j), bi(i, j)};
    }
  }
  ComplexMatrix c;
  gemm(a, b, c);
  const RealMatrix ac = naive_product(ar, br);
  const RealMatrix bd = naive_product(ai, bi);
  const RealMatrix ad = naive_product(ar, bi);
  const RealMatrix bc = naive_product(ai, br);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_NEAR(c(i, j).real(), ac(i, j) - bd(i, j), 1e-12);
      EXPECT_NEAR(c(i, j).imag(), ad(i, j) + bc(i, j), 1e-12);
    }
  }
}

TEST(GemmComplexTest, ConjugateTransposeContractions) {
  // A^H * A must be Hermitian positive semidefinite.
  Prng prng(17);
  ComplexMatrix a(9, 5);
  for (std::size_t i = 0; i < 9; ++i) {
    for (std::size_t j = 0; j < 5; ++j) {
      a(i, j) = Complex{prng.next_double(-1, 1), prng.next_double(-1, 1)};
    }
  }
  ComplexMatrix gram;
  gemm(a, a, gram, Complex{1.0, 0.0}, Complex{}, /*conj_transpose_a=*/true);
  ASSERT_EQ(gram.rows(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_GE(gram(i, i).real(), 0.0);
    EXPECT_NEAR(gram(i, i).imag(), 0.0, 1e-12);
    for (std::size_t j = 0; j < 5; ++j) {
      EXPECT_NEAR(gram(i, j).real(), gram(j, i).real(), 1e-12);
      EXPECT_NEAR(gram(i, j).imag(), -gram(j, i).imag(), 1e-12);
    }
  }
}

TEST(SyevdTest, DiagonalMatrixIsItsOwnSolution) {
  RealMatrix m(4, 4);
  m(0, 0) = 3.0;
  m(1, 1) = -1.0;
  m(2, 2) = 7.0;
  m(3, 3) = 0.5;
  const EigenResult result = syevd(m);
  EXPECT_DOUBLE_EQ(result.eigenvalues[0], -1.0);
  EXPECT_DOUBLE_EQ(result.eigenvalues[1], 0.5);
  EXPECT_DOUBLE_EQ(result.eigenvalues[2], 3.0);
  EXPECT_DOUBLE_EQ(result.eigenvalues[3], 7.0);
}

TEST(SyevdTest, TwoByTwoAnalytic) {
  // [[2, 1], [1, 2]] has eigenvalues 1 and 3.
  RealMatrix m(2, 2);
  m(0, 0) = 2.0;
  m(0, 1) = 1.0;
  m(1, 0) = 1.0;
  m(1, 1) = 2.0;
  const EigenResult result = syevd(m);
  EXPECT_NEAR(result.eigenvalues[0], 1.0, 1e-12);
  EXPECT_NEAR(result.eigenvalues[1], 3.0, 1e-12);
}

TEST(SyevdTest, TraceIsPreserved) {
  const RealMatrix m = random_symmetric(70, 22);
  const EigenResult result = syevd(m);
  double trace = 0.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < 70; ++i) {
    trace += m(i, i);
    sum += result.eigenvalues[i];
  }
  EXPECT_NEAR(trace, sum, 1e-9);
}

TEST(SyevdTest, CountsCubicWork) {
  const RealMatrix m = random_symmetric(32, 23);
  const TraceEvent event = traced([&] { syevd(m); });
  EXPECT_GT(event.flops, 32ull * 32 * 32);  // at least n^3
  EXPECT_EQ(event.flops, syevd_cost(32).flops);
  EXPECT_EQ(event.bytes, syevd_cost(32).bytes);
}

TEST(SyevdTest, RejectsNonSquare) {
  const RealMatrix m = random_matrix(3, 4, 24);
  EXPECT_THROW(syevd(m), NdftError);
  EXPECT_THROW(syevd_naive(m), NdftError);
}

// Property sweep for the full solver: residual, orthonormality,
// ascending order and agreement with the serial reference across small
// sizes: trivial ones, the D&C base-case edge (kDcBase = 40: a lone tql2
// below, a merge above), the band width below n = 384 (48: at n <= 49
// band_reduce does no panel and the chase reduces the whole matrix), and
// one- and multi-panel sizes above it.
class SyevdPropertyTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SyevdPropertyTest, ResidualOrthogonalityOrderAndNaiveAgreement) {
  const std::size_t n = GetParam();
  const RealMatrix m = random_symmetric(n, 100 + n);
  const EigenResult result = syevd(m);
  ASSERT_EQ(result.eigenvalues.size(), n);

  // Eigenvalues ascending.
  for (std::size_t i = 1; i < n; ++i) {
    EXPECT_LE(result.eigenvalues[i - 1], result.eigenvalues[i]);
  }
  // ||A v - lambda v|| small relative to n.
  EXPECT_LT(eigen_residual(m, result), 1e-8 * static_cast<double>(n));
  // Eigenvector columns orthonormal.
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a; b < n; ++b) {
      double dot = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        dot += result.eigenvectors(i, a) * result.eigenvectors(i, b);
      }
      EXPECT_NEAR(dot, a == b ? 1.0 : 0.0, 1e-9);
    }
  }
  // Spectrum matches the serial reference.
  const EigenResult reference = syevd_naive(m);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(result.eigenvalues[i], reference.eigenvalues[i], 1e-9)
        << "eigenvalue " << i << " of " << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, SyevdPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 16, 31, 32, 33,
                                           40, 41, 48, 49, 50, 64, 70, 97,
                                           128, 130));

TEST(SyevdTest, DeterministicAcrossThreadCounts) {
  // The band reduction's GEMM updates, the D&C root solves and merges,
  // the chase-rotation replay and the WY back-transformation all split
  // work across the pool; eigenvalues AND eigenvectors must stay bitwise
  // identical for any thread count. n = 200 engages every parallel path
  // (multiple band panels, a replay above the serial grain); at n = 48
  // band_reduce does no panel and the chase reduces the whole matrix.
  for (const std::size_t n : {48u, 200u}) {
    const RealMatrix m = random_symmetric(n, 77);

    ThreadPool& pool = ThreadPool::instance();
    const std::size_t original_threads = pool.threads();
    std::vector<EigenResult> results;
    for (const std::size_t threads : {1u, 2u, 8u}) {
      pool.resize(threads);
      results.push_back(syevd(m));
    }
    // Restore before the assertions below: an ASSERT returns out of the
    // test, and the process-wide pool must not stay at the failing width.
    pool.resize(original_threads);

    for (std::size_t t = 1; t < results.size(); ++t) {
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(results[0].eigenvalues[i], results[t].eigenvalues[i])
            << "eigenvalue " << i << " of n=" << n << " at thread variant "
            << t;
        for (std::size_t j = 0; j < n; ++j) {
          ASSERT_EQ(results[0].eigenvectors(i, j),
                    results[t].eigenvectors(i, j))
              << "eigenvector element (" << i << ", " << j << ") of n=" << n
              << " at thread variant " << t;
        }
      }
    }
  }
}

// Two-stage + divide-and-conquer sweep at larger sizes, bracketing the
// band width / panel edges (multiples of 32 and their neighbours), so the
// band reduction's short tail panel, the chase and the D&C merge tree all
// get exercised. Matrices are scaled to O(1/sqrt(n)) spectra so the
// 1e-13 naive-agreement bound is absolute.
class SyevdTwoStagePropertyTest
    : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SyevdTwoStagePropertyTest, ResidualOrthogonalityAndNaiveAgreement) {
  const std::size_t n = GetParam();
  RealMatrix m = random_symmetric(n, 500 + n);
  const double scale = 1.0 / static_cast<double>(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) m(i, j) *= scale;
  }
  const EigenResult result = syevd(m);
  ASSERT_EQ(result.eigenvalues.size(), n);
  for (std::size_t i = 1; i < n; ++i) {
    EXPECT_LE(result.eigenvalues[i - 1], result.eigenvalues[i]);
  }
  EXPECT_LT(eigen_residual(m, result), 1e-11 * static_cast<double>(n));
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a; b < n; ++b) {
      double dot = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        dot += result.eigenvectors(i, a) * result.eigenvectors(i, b);
      }
      EXPECT_NEAR(dot, a == b ? 1.0 : 0.0, 1e-12);
    }
  }
  const EigenResult reference = syevd_naive(m);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(result.eigenvalues[i], reference.eigenvalues[i], 1e-13)
        << "eigenvalue " << i << " of " << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, SyevdTwoStagePropertyTest,
                         ::testing::Values(160, 161, 191, 192, 193, 224,
                                           256));

TEST(SyevdTwoStageTest, FullyDegenerateSpectrumDeflatesCompletely) {
  // All-equal eigenvalues: every z component of every D&C merge is
  // negligible, so the whole tree deflates. The solve must return the
  // exact multiple eigenvalue with an orthonormal basis.
  const std::size_t n = 200;
  RealMatrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 0.75;
  const EigenResult result = syevd(m);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(result.eigenvalues[i], 0.75, 1e-14);
  }
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a; b < n; ++b) {
      double dot = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        dot += result.eigenvectors(i, a) * result.eigenvectors(i, b);
      }
      EXPECT_NEAR(dot, a == b ? 1.0 : 0.0, 1e-12);
    }
  }
  EXPECT_LT(eigen_residual(m, result), 1e-11);
}

TEST(SyevdTwoStageTest, ClusteredSpectrumExercisesDeflation) {
  // A dense matrix with a handful of tightly clustered eigenvalue groups:
  // the close-pair (type 2) deflation path fires in every merge. Built as
  // Q D Q^T from a deterministic orthonormal Q (Gram-Schmidt of a random
  // matrix), so the exact spectrum is known.
  const std::size_t n = 192;
  std::vector<double> spectrum(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double base = static_cast<double>(i / 48);  // 4 clusters
    spectrum[i] = base + 1e-12 * static_cast<double>(i % 48);
  }
  RealMatrix q = random_matrix(n, n, 4242);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t prev = 0; prev < j; ++prev) {
      double dot = 0.0;
      for (std::size_t i = 0; i < n; ++i) dot += q(i, prev) * q(i, j);
      for (std::size_t i = 0; i < n; ++i) q(i, j) -= dot * q(i, prev);
    }
    double norm2 = 0.0;
    for (std::size_t i = 0; i < n; ++i) norm2 += q(i, j) * q(i, j);
    const double inv = 1.0 / std::sqrt(norm2);
    for (std::size_t i = 0; i < n; ++i) q(i, j) *= inv;
  }
  RealMatrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < n; ++k) {
        acc += q(i, k) * spectrum[k] * q(j, k);
      }
      m(i, j) = acc;
      m(j, i) = acc;
    }
  }
  const EigenResult result = syevd(m);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(result.eigenvalues[i], spectrum[i], 1e-10)
        << "clustered eigenvalue " << i;
  }
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a; b < n; ++b) {
      double dot = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        dot += result.eigenvectors(i, a) * result.eigenvectors(i, b);
      }
      EXPECT_NEAR(dot, a == b ? 1.0 : 0.0, 1e-11);
    }
  }
  EXPECT_LT(eigen_residual(m, result), 1e-9);
}

TEST(SyevdTwoStageTest, DeterministicAcrossThreadCounts) {
  // Same contract as SyevdTest.DeterministicAcrossThreadCounts on a
  // second multi-panel size: band-reduction GEMM panels, the serial
  // chase, the pool-parallel secular solves and the reversed rotation
  // replay must all be bitwise identical for any pool width.
  const std::size_t n = 224;
  const RealMatrix m = random_symmetric(n, 1234);

  ThreadPool& pool = ThreadPool::instance();
  const std::size_t original_threads = pool.threads();
  std::vector<EigenResult> results;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    pool.resize(threads);
    results.push_back(syevd(m));
  }
  pool.resize(original_threads);

  for (std::size_t t = 1; t < results.size(); ++t) {
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(results[0].eigenvalues[i], results[t].eigenvalues[i])
          << "eigenvalue " << i << " at thread variant " << t;
      for (std::size_t j = 0; j < n; ++j) {
        ASSERT_EQ(results[0].eigenvectors(i, j),
                  results[t].eigenvectors(i, j))
            << "eigenvector element (" << i << ", " << j
            << ") at thread variant " << t;
      }
    }
  }
}

// Partial-spectrum sweep: the lowest-m path must agree with the full
// solver on eigenvalues (to ~n*eps*||A||) and eigenvectors (to sign),
// stay orthonormal, and keep a small residual. Sizes bracket the
// Householder reduction's panel width (kEigBlock = 32); m spans the
// bisection regime (2m <= n) and the delegating regime (2m > n).
class SyevdPartialTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
};

TEST_P(SyevdPartialTest, AgreesWithFullSolverOnLowestPairs) {
  const auto [n, m] = GetParam();
  const RealMatrix matrix = random_symmetric(n, 300 + n + m);
  const EigenResult full = syevd(matrix);
  const EigenResult partial = syevd_partial(matrix, m);
  ASSERT_EQ(partial.eigenvalues.size(), m);
  ASSERT_EQ(partial.eigenvectors.rows(), n);
  ASSERT_EQ(partial.eigenvectors.cols(), m);

  for (std::size_t k = 0; k < m; ++k) {
    EXPECT_NEAR(partial.eigenvalues[k], full.eigenvalues[k], 1e-10)
        << "eigenvalue " << k << " of n=" << n << " m=" << m;
  }
  // Vectors agree up to sign: |<v_partial, v_full>| ~ 1 (the random
  // matrices have simple spectra, so no multiplet gauge freedom).
  for (std::size_t k = 0; k < m; ++k) {
    double dot = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      dot += partial.eigenvectors(i, k) * full.eigenvectors(i, k);
    }
    EXPECT_NEAR(std::fabs(dot), 1.0, 1e-8)
        << "eigenvector " << k << " of n=" << n << " m=" << m;
  }
  // Orthonormal columns.
  for (std::size_t a = 0; a < m; ++a) {
    for (std::size_t b = a; b < m; ++b) {
      double dot = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        dot += partial.eigenvectors(i, a) * partial.eigenvectors(i, b);
      }
      EXPECT_NEAR(dot, a == b ? 1.0 : 0.0, 1e-9)
          << "pair (" << a << ", " << b << ") of n=" << n << " m=" << m;
    }
  }
  // ||A v - lambda v|| per pair.
  for (std::size_t k = 0; k < m; ++k) {
    double residual2 = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      double acc = 0.0;
      for (std::size_t j = 0; j < n; ++j) {
        acc += matrix(i, j) * partial.eigenvectors(j, k);
      }
      acc -= partial.eigenvalues[k] * partial.eigenvectors(i, k);
      residual2 += acc * acc;
    }
    EXPECT_LT(std::sqrt(residual2), 1e-8 * static_cast<double>(n))
        << "residual of pair " << k << " at n=" << n << " m=" << m;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, SyevdPartialTest,
    ::testing::Values(std::make_tuple(1, 1), std::make_tuple(2, 1),
                      std::make_tuple(8, 3), std::make_tuple(31, 4),
                      std::make_tuple(32, 8), std::make_tuple(33, 16),
                      std::make_tuple(50, 50), std::make_tuple(64, 8),
                      std::make_tuple(70, 40), std::make_tuple(97, 12),
                      std::make_tuple(128, 16), std::make_tuple(130, 64)));

/// Dense 40 x 40 matrix with an exactly threefold-degenerate lowest
/// eigenvalue -5 (the Gamma_25' situation in the EPM matrices), then 3,
/// 4, ..., 39: diag(-5, -5, -5, 3, ..., 39) conjugated by a Householder
/// reflector.
RealMatrix threefold_degenerate_matrix() {
  const std::size_t n = 40;
  RealMatrix diag(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    diag(i, i) = (i < 3) ? -5.0 : static_cast<double>(i);
  }
  // Conjugate by a Householder reflector so the matrix is dense.
  std::vector<double> w(n);
  Prng prng(77);
  double norm2 = 0.0;
  for (double& value : w) {
    value = prng.next_double(-1.0, 1.0);
    norm2 += value * value;
  }
  const double inv = 1.0 / std::sqrt(norm2);
  for (double& value : w) value *= inv;
  RealMatrix q(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      q(i, j) = (i == j ? 1.0 : 0.0) - 2.0 * w[i] * w[j];
    }
  }
  RealMatrix tmp;
  RealMatrix matrix;
  gemm(q, diag, tmp);
  gemm(tmp, q, matrix, 1.0, 0.0, false, /*transpose_b=*/true);
  return matrix;
}

TEST(SyevdPartialTest, DegenerateClusterSpansTheSameSubspace) {
  // The partial solver's cluster vectors must be orthonormal and satisfy
  // the residual even though individual vectors are gauge-free.
  const RealMatrix matrix = threefold_degenerate_matrix();
  const std::size_t n = matrix.rows();
  const EigenResult partial = syevd_partial(matrix, 5);
  for (std::size_t k = 0; k < 3; ++k) {
    EXPECT_NEAR(partial.eigenvalues[k], -5.0, 1e-9);
  }
  EXPECT_NEAR(partial.eigenvalues[3], 3.0, 1e-9);
  for (std::size_t a = 0; a < 5; ++a) {
    for (std::size_t b = a; b < 5; ++b) {
      double dot = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        dot += partial.eigenvectors(i, a) * partial.eigenvectors(i, b);
      }
      EXPECT_NEAR(dot, a == b ? 1.0 : 0.0, 1e-9);
    }
  }
  for (std::size_t k = 0; k < 5; ++k) {
    double residual2 = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      double acc = 0.0;
      for (std::size_t j = 0; j < n; ++j) {
        acc += matrix(i, j) * partial.eigenvectors(j, k);
      }
      acc -= partial.eigenvalues[k] * partial.eigenvectors(i, k);
      residual2 += acc * acc;
    }
    EXPECT_LT(std::sqrt(residual2), 1e-8);
  }
}

TEST(SyevdPartialTest, DeterministicAcrossThreadCounts) {
  // Reduction GEMMs, bisection, per-cluster inverse iteration and the WY
  // back-transform all split across the pool; eigenvalues AND
  // eigenvectors must stay bitwise identical for any thread count. The
  // windows cover whole and partial bisection lane groups (8 lanes, up
  // to 3 groups per batch; 48 is two full batches), and the degenerate
  // matrix a three-member inverse-iteration cluster.
  const RealMatrix random = random_symmetric(200, 88);
  const RealMatrix degenerate = threefold_degenerate_matrix();
  const std::vector<std::tuple<const RealMatrix*, std::size_t>> cases = {
      {&random, 48}, {&random, 1},  {&random, 9},
      {&random, 24}, {&random, 25}, {&degenerate, 5}};
  ThreadPool& pool = ThreadPool::instance();
  const std::size_t original_threads = pool.threads();
  for (const auto& [matrix, m] : cases) {
    const std::size_t n = matrix->rows();
    std::vector<EigenResult> results;
    for (const std::size_t threads : {1u, 2u, 8u}) {
      pool.resize(threads);
      results.push_back(syevd_partial(*matrix, m));
    }
    pool.resize(original_threads);

    for (std::size_t t = 1; t < results.size(); ++t) {
      for (std::size_t k = 0; k < m; ++k) {
        ASSERT_EQ(results[0].eigenvalues[k], results[t].eigenvalues[k])
            << "eigenvalue " << k << " of n=" << n << " m=" << m
            << " at thread variant " << t;
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(results[0].eigenvectors(i, k),
                    results[t].eigenvectors(i, k))
              << "eigenvector element (" << i << ", " << k << ") of n=" << n
              << " m=" << m << " at thread variant " << t;
        }
      }
    }
  }
}

/// Scalar Sturm bisection for the lowest m eigenvalues of the tridiagonal
/// matrix (d, e), e[i] coupling rows (i-1, i), one index at a time
/// (dstebz shape) with syevd_partial's Gershgorin bracket, margin and
/// pivmin guard: the oracle for its lock-step lanes, which change only
/// the schedule and so must reproduce it bitwise.
std::vector<double> scalar_sturm_bisection(const std::vector<double>& d,
                                           const std::vector<double>& e,
                                           std::size_t m) {
  const std::size_t n = d.size();
  std::vector<double> e2(n, 0.0);
  double emax2 = 1.0;
  for (std::size_t i = 1; i < n; ++i) {
    e2[i] = e[i] * e[i];
    emax2 = std::max(emax2, e2[i]);
  }
  const double pivmin = std::numeric_limits<double>::min() * emax2;
  double lo = d[0];
  double hi = d[0];
  for (std::size_t i = 0; i < n; ++i) {
    const double radius = (i > 0 ? std::fabs(e[i]) : 0.0) +
                          (i + 1 < n ? std::fabs(e[i + 1]) : 0.0);
    lo = std::min(lo, d[i] - radius);
    hi = std::max(hi, d[i] + radius);
  }
  const double anorm = std::max(std::fabs(lo), std::fabs(hi));
  const double margin =
      16.0 * std::numeric_limits<double>::epsilon() * anorm + 2.0 * pivmin;
  lo -= margin;
  hi += margin;

  const auto count_below = [&](double x) {
    std::size_t count = 0;
    double q = d[0] - x;
    if (q < 0.0) ++count;
    for (std::size_t i = 1; i < n; ++i) {
      if (std::fabs(q) < pivmin) q = -pivmin;
      q = d[i] - x - e2[i] / q;
      if (q < 0.0) ++count;
    }
    return count;
  };
  std::vector<double> values(m);
  for (std::size_t k = 0; k < m; ++k) {
    double a = lo;
    double b = hi;
    for (;;) {
      const double mid = 0.5 * (a + b);
      if (mid <= a || mid >= b) break;
      if (count_below(mid) > k) {
        b = mid;
      } else {
        a = mid;
      }
    }
    values[k] = b;
  }
  return values;
}

TEST(SyevdPartialTest, BisectionMatchesScalarSturmOracle) {
  // On a tridiagonal input every reflector has tau = 0, so the reduction
  // hands bisection the input diagonal and couplings exactly and the
  // eigenvalues must equal the scalar oracle's bit for bit. Windows cover
  // one lane, partial and whole 8-lane groups, and 1-3 groups per batch
  // (2m <= n keeps every window on the bisection path).
  struct Tridiagonal {
    const char* name;
    std::vector<double> d;
    std::vector<double> e;
  };
  std::vector<Tridiagonal> inputs;
  {
    // Random diagonal and couplings.
    Tridiagonal t{"random", std::vector<double>(64), std::vector<double>(64)};
    Prng prng(2024);
    for (std::size_t i = 0; i < 64; ++i) {
      t.d[i] = prng.next_double(-2.0, 2.0);
      t.e[i] = i > 0 ? prng.next_double(-1.0, 1.0) : 0.0;
    }
    inputs.push_back(std::move(t));
  }
  {
    // Negated Wilkinson W_51^+: d_i = -|i - 25|, unit couplings. The
    // lowest eigenvalues come in pairs that agree to many digits.
    Tridiagonal t{"wilkinson", std::vector<double>(51),
                  std::vector<double>(51, 1.0)};
    for (std::size_t i = 0; i < 51; ++i) {
      t.d[i] = -std::fabs(static_cast<double>(i) - 25.0);
    }
    t.e[0] = 0.0;
    inputs.push_back(std::move(t));
  }
  {
    // Zero couplings split the matrix, and row 0 is a lone zero: at x = 0
    // the first pivot is exactly zero and the next quotient 0/0 unless
    // the |q| < pivmin guard fires. Rows 10 and 50 pin the Gershgorin
    // bracket to [-4, 4] (plus the same margin on both sides), so every
    // index's first midpoint is exactly 0, and about half the rest of the
    // spectrum lies below it.
    Tridiagonal t{"split", std::vector<double>(60), std::vector<double>(60)};
    Prng prng(77);
    for (std::size_t i = 0; i < 60; ++i) {
      t.d[i] = prng.next_double(-2.5, 2.5);
      t.e[i] = prng.next_double(-0.5, 0.5);
    }
    t.d[0] = 0.0;
    t.e[0] = 0.0;
    t.e[1] = 0.0;
    t.e[20] = 0.0;
    t.e[41] = 0.0;
    t.d[10] = -3.5;
    t.e[10] = t.e[11] = 0.25;
    t.d[50] = 3.5;
    t.e[50] = t.e[51] = 0.25;
    inputs.push_back(std::move(t));
  }
  for (const Tridiagonal& t : inputs) {
    const std::size_t n = t.d.size();
    RealMatrix matrix(n, n);
    for (std::size_t i = 0; i < n; ++i) {
      matrix(i, i) = t.d[i];
      if (i > 0) {
        matrix(i, i - 1) = t.e[i];
        matrix(i - 1, i) = t.e[i];
      }
    }
    for (const std::size_t m : {1u, 7u, 8u, 9u, 23u, 24u, 25u}) {
      const std::vector<double> oracle = scalar_sturm_bisection(t.d, t.e, m);
      const EigenResult partial = syevd_partial(matrix, m);
      ASSERT_EQ(partial.eigenvalues.size(), m);
      for (std::size_t k = 0; k < m; ++k) {
        ASSERT_EQ(partial.eigenvalues[k], oracle[k])
            << t.name << " eigenvalue " << k << " of m=" << m;
      }
    }
  }
}

TEST(SyevdPartialTest, ValuesOnlyMatchTheVectorPathBitwise) {
  // syevd_partial_values stops after the bisection; its eigenvalues must
  // be the vector solve's bit for bit at panel-edge sizes (kEigBlock =
  // 32), on the bisection path and on the full-solver delegation
  // (2m > n), at every pool width, and on one workspace that changes
  // shape between calls.
  struct Case {
    RealMatrix matrix;
    std::size_t m;
    std::vector<double> reference;  // the vector path at one thread
  };
  ThreadPool& pool = ThreadPool::instance();
  const std::size_t original = pool.threads();
  pool.resize(1);
  std::vector<Case> cases;
  for (const std::size_t n : {32u, 33u, 64u, 65u, 137u}) {
    for (const std::size_t m : {1u, 8u, 24u, 25u}) {
      Case c{random_symmetric(n, 500 + n), m, {}};
      c.reference = syevd_partial(c.matrix, m).eigenvalues;
      cases.push_back(std::move(c));
    }
  }
  EigenWorkspace workspace;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    pool.resize(threads);
    for (const Case& c : cases) {
      const std::size_t n = c.matrix.rows();
      EXPECT_EQ(syevd_partial_values(c.matrix, c.m), c.reference)
          << "n=" << n << " m=" << c.m << " at " << threads << " threads";
      EXPECT_EQ(syevd_partial_values(c.matrix, c.m, &workspace),
                c.reference)
          << "workspace, n=" << n << " m=" << c.m << " at " << threads
          << " threads";
      EXPECT_EQ(syevd_partial(c.matrix, c.m, &workspace).eigenvalues,
                c.reference)
          << "vectors on the workspace, n=" << n << " m=" << c.m << " at "
          << threads << " threads";
    }
  }
  pool.resize(original);
}

TEST(SyevdPartialTest, WarmSolveOnAWorkspaceMakesNoLargeAllocation) {
  // The production shapes: the Si_8 SCF's vector solve (179, 24) and the
  // default band job's eigenvalue-only solve (137, 8). Once a workspace
  // has served a shape, solving it again allocates nothing of 64 KiB or
  // more: no working copy, no per-panel matrices, no GEMM packs and no
  // back-transform temporaries. The solves are bitwise those of a fresh
  // workspace.
  ThreadPool& pool = ThreadPool::instance();
  const std::size_t original = pool.threads();
  const RealMatrix scf_like = random_symmetric(179, 61);
  const RealMatrix band_like = random_symmetric(137, 62);
  for (const std::size_t threads : {1u, 2u, 8u}) {
    pool.resize(threads);
    EigenWorkspace workspace;
    const EigenResult cold = syevd_partial(scf_like, 24, &workspace);
    (void)syevd_partial_values(band_like, 8, &workspace);

    const std::size_t before = large_allocations.load();
    const EigenResult warm = syevd_partial(scf_like, 24, &workspace);
    const std::vector<double> values =
        syevd_partial_values(band_like, 8, &workspace);
    EXPECT_EQ(large_allocations.load() - before, 0u)
        << "at " << threads << " threads";

    EXPECT_EQ(warm.eigenvalues, cold.eigenvalues);
    ASSERT_EQ(warm.eigenvectors.rows(), cold.eigenvectors.rows());
    ASSERT_EQ(warm.eigenvectors.cols(), cold.eigenvectors.cols());
    for (std::size_t i = 0; i < 179; ++i) {
      for (std::size_t k = 0; k < 24; ++k) {
        ASSERT_EQ(warm.eigenvectors(i, k), cold.eigenvectors(i, k));
      }
    }
    EXPECT_EQ(values, syevd_partial(band_like, 8).eigenvalues);
  }
  pool.resize(original);
}

TEST(SyevdPartialTest, StagedWindowMatchesThePartialSolveBitwise) {
  // syevd_window_values(m) then syevd_window_vectors(k) is
  // syevd_partial(k) bit for bit when both take the same path: the
  // bisection path (2m <= n) and the full-solver delegation (2k > n), at
  // every pool width, on one workspace reused across shapes. A warm
  // staged solve of the Si_8 SCF's even-block shape allocates nothing
  // of 64 KiB or more, and neither stage records a trace event.
  struct Case {
    std::size_t n, m, k;
  };
  const Case cases[] = {{32, 8, 1},  {65, 24, 13}, {90, 24, 13},
                        {89, 24, 11}, {137, 8, 8},  {20, 12, 11}};
  ThreadPool& pool = ThreadPool::instance();
  const std::size_t original = pool.threads();
  EigenWorkspace workspace;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    pool.resize(threads);
    for (const Case& c : cases) {
      const RealMatrix matrix = random_symmetric(c.n, 700 + c.n);
      const EigenResult reference = syevd_partial(matrix, c.k);
      const std::vector<double> values =
          syevd_window_values(matrix, c.m, workspace);
      ASSERT_EQ(values.size(), c.m);
      EXPECT_TRUE(std::equal(reference.eigenvalues.begin(),
                             reference.eigenvalues.end(), values.begin()))
          << "n=" << c.n << " m=" << c.m << " at " << threads << " threads";
      const RealMatrix vectors = syevd_window_vectors(c.k, workspace);
      ASSERT_EQ(vectors.rows(), c.n);
      ASSERT_EQ(vectors.cols(), c.k);
      EXPECT_EQ(max_abs_diff(vectors, reference.eigenvectors), 0.0)
          << "n=" << c.n << " k=" << c.k << " at " << threads << " threads";
    }
  }
  pool.resize(original);

  const RealMatrix even_block = random_symmetric(90, 71);
  (void)syevd_window_values(even_block, 24, workspace);
  (void)syevd_window_vectors(13, workspace);
  TraceRecorder recorder;
  const std::size_t before = large_allocations.load();
  {
    TraceScope scope(recorder);
    (void)syevd_window_values(even_block, 24, workspace);
    (void)syevd_window_vectors(13, workspace);
  }
  EXPECT_EQ(large_allocations.load() - before, 0u);
  EXPECT_TRUE(recorder.take().events.empty());

  EXPECT_THROW(syevd_window_values(even_block, 0, workspace), NdftError);
  EXPECT_THROW(syevd_window_vectors(0, workspace), NdftError);
  EXPECT_THROW(syevd_window_vectors(25, workspace), NdftError);
}

TEST(SyevdPartialTest, WindowCostPricesTheStagesItRuns) {
  // Values alone cost syevd_partial_values; m vectors on top cost what
  // syevd_partial's vector path adds; a window past half the matrix is
  // the full solve.
  const SyevdCost values = syevd_window_cost(90, 24, 0);
  EXPECT_EQ(values.flops, syevd_partial_cost(90, 24, false).flops);
  EXPECT_EQ(values.bytes, syevd_partial_cost(90, 24, false).bytes);
  EXPECT_EQ(syevd_window_cost(90, 24, 24).flops,
            syevd_partial_cost(90, 24).flops);
  EXPECT_LT(syevd_window_cost(90, 24, 12).flops,
            syevd_window_cost(90, 24, 13).flops);
  EXPECT_EQ(syevd_window_cost(20, 12, 5).flops, syevd_cost(20).flops);
}

TEST(SyevdPartialTest, RejectsBadWindows) {
  const RealMatrix matrix = random_symmetric(8, 91);
  EXPECT_THROW(syevd_partial(matrix, 0), NdftError);
  EXPECT_THROW(syevd_partial(matrix, 9), NdftError);
  EXPECT_THROW(syevd_partial(random_matrix(3, 4, 92), 2), NdftError);
}

TEST(SyevdPartialTest, CountsLessWorkThanFullSolve) {
  const RealMatrix matrix = random_symmetric(96, 93);
  const TraceEvent values =
      traced([&] { (void)syevd_partial_values(matrix, 8); });
  const TraceEvent partial = traced([&] { (void)syevd_partial(matrix, 8); });
  const TraceEvent full = traced([&] { (void)syevd(matrix); });
  EXPECT_GT(values.flops, 0u);
  EXPECT_LT(values.flops, partial.flops);
  EXPECT_LT(values.bytes, partial.bytes);
  EXPECT_LT(partial.flops, full.flops);
  // Near the full window the call delegates and costs the full solve.
  const TraceEvent wide = traced([&] { (void)syevd_partial(matrix, 96); });
  EXPECT_EQ(wide.flops, full.flops);
}

TEST(HeevTest, RealSymmetricReducesToSyevd) {
  const RealMatrix m = random_symmetric(12, 31);
  ComplexMatrix h(12, 12);
  for (std::size_t i = 0; i < 12; ++i) {
    for (std::size_t j = 0; j < 12; ++j) {
      h(i, j) = Complex{m(i, j), 0.0};
    }
  }
  const EigenResult real_result = syevd(m);
  const HermitianEigenResult hermitian_result = heev(h);
  ASSERT_EQ(hermitian_result.eigenvalues.size(), 12u);
  for (std::size_t i = 0; i < 12; ++i) {
    EXPECT_NEAR(hermitian_result.eigenvalues[i], real_result.eigenvalues[i],
                1e-9);
  }
}

class HeevPropertyTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(HeevPropertyTest, ResidualAndOrthonormality) {
  const std::size_t n = GetParam();
  const ComplexMatrix h = random_hermitian(n, 200 + n);
  const HermitianEigenResult result = heev(h);
  ASSERT_EQ(result.eigenvalues.size(), n);
  // Residual ||H v - lambda v||.
  for (std::size_t j = 0; j < n; ++j) {
    double residual = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      Complex acc{};
      for (std::size_t k = 0; k < n; ++k) {
        acc += h(i, k) * result.eigenvectors(k, j);
      }
      acc -= result.eigenvalues[j] * result.eigenvectors(i, j);
      residual += std::norm(acc);
    }
    EXPECT_LT(std::sqrt(residual), 1e-8);
  }
  // Orthonormality.
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a; b < n; ++b) {
      Complex dot{};
      for (std::size_t i = 0; i < n; ++i) {
        dot += std::conj(result.eigenvectors(i, a)) *
               result.eigenvectors(i, b);
      }
      EXPECT_NEAR(std::abs(dot), a == b ? 1.0 : 0.0, 1e-9);
    }
  }
}

// 40 embeds to an 80x80 real problem: several reduction panels deep.
INSTANTIATE_TEST_SUITE_P(Sizes, HeevPropertyTest,
                         ::testing::Values(1, 2, 4, 7, 12, 24, 40));

TEST(HeevTest, DegenerateEigenvaluesHandled) {
  // 2x identity block plus a distinct eigenvalue.
  ComplexMatrix h(3, 3);
  h(0, 0) = Complex{1.0, 0.0};
  h(1, 1) = Complex{1.0, 0.0};
  h(2, 2) = Complex{5.0, 0.0};
  const HermitianEigenResult result = heev(h);
  EXPECT_NEAR(result.eigenvalues[0], 1.0, 1e-12);
  EXPECT_NEAR(result.eigenvalues[1], 1.0, 1e-12);
  EXPECT_NEAR(result.eigenvalues[2], 5.0, 1e-12);
}

TEST(LinalgTimerTest, AccumulatesAndResets) {
  linalg_timer_reset();
  EXPECT_EQ(linalg_timer_ms(), 0.0);
  const RealMatrix m = random_symmetric(96, 5);
  (void)syevd(m);
  EXPECT_GT(linalg_timer_ms(), 0.0);
  const double after_one = linalg_timer_ms();
  (void)syevd(m);
  EXPECT_GT(linalg_timer_ms(), after_one);  // tallies accumulate
  linalg_timer_reset();
  EXPECT_EQ(linalg_timer_ms(), 0.0);
}

}  // namespace
}  // namespace ndft::dft
