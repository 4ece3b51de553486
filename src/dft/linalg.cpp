#include "dft/linalg.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cmath>
#include <iterator>
#include <numeric>
#include <optional>
#include <span>
#include <type_traits>
#include <vector>

#if defined(__GNUC__) && defined(__AVX512F__)
#include <immintrin.h>  // _mm512_fmadd_pd for the GEMM microkernel
#endif

#include "common/fault.hpp"
#include "common/kernel_trace.hpp"
#include "common/math_util.hpp"
#include "common/prng.hpp"
#include "common/thread_pool.hpp"

namespace ndft::dft {
namespace {

// --------------------------------------------------------- linalg timer
//
// Per-thread wall-clock tally of time spent inside top-level linalg entry
// points. Jobs execute on one engine thread, so reset-before / read-after
// brackets the linalg share of that job; a job that hands whole solves to
// pool workers credits their time back with linalg_timer_add. The depth
// counter keeps nested entries (GEMM called from inside syevd) from
// double counting.

thread_local double tl_linalg_ms = 0.0;
thread_local unsigned tl_linalg_depth = 0;
thread_local LinalgStageTimes tl_stage_times;

/// Accumulates the wall time of one eigensolver stage into the named
/// bucket of the thread's LinalgStageTimes. Stages never nest (each is a
/// disjoint span inside a solver entry point), so a plain scope suffices.
class StageTimerScope {
 public:
  explicit StageTimerScope(double LinalgStageTimes::*slot) noexcept
      : slot_(slot), start_(std::chrono::steady_clock::now()) {}
  ~StageTimerScope() {
    tl_stage_times.*slot_ += std::chrono::duration<double, std::milli>(
                                 std::chrono::steady_clock::now() - start_)
                                 .count();
  }
  StageTimerScope(const StageTimerScope&) = delete;
  StageTimerScope& operator=(const StageTimerScope&) = delete;

 private:
  double LinalgStageTimes::*slot_;
  std::chrono::steady_clock::time_point start_;
};

class LinalgTimerScope {
 public:
  LinalgTimerScope() noexcept : start_(std::chrono::steady_clock::now()) {
    ++tl_linalg_depth;
  }
  ~LinalgTimerScope() {
    if (--tl_linalg_depth == 0) {
      tl_linalg_ms += std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start_)
                          .count();
    }
  }
  LinalgTimerScope(const LinalgTimerScope&) = delete;
  LinalgTimerScope& operator=(const LinalgTimerScope&) = delete;

 private:
  std::chrono::steady_clock::time_point start_;
};

/// sqrt(a^2 + b^2) without destructive overflow.
double pythag(double a, double b) noexcept {
  const double absa = std::fabs(a);
  const double absb = std::fabs(b);
  if (absa > absb) {
    const double ratio = absb / absa;
    return absa * std::sqrt(1.0 + ratio * ratio);
  }
  if (absb == 0.0) {
    return 0.0;
  }
  const double ratio = absa / absb;
  return absb * std::sqrt(1.0 + ratio * ratio);
}

double sign_of(double magnitude, double sign) noexcept {
  return sign >= 0.0 ? std::fabs(magnitude) : -std::fabs(magnitude);
}

/// 8 doubles per vector; the GEMM microkernel's kNr is exactly two. A GNU
/// vector type: one zmm register on AVX-512 builds, lowered to narrower
/// registers elsewhere with the same element-wise IEEE results.
typedef double V8d __attribute__((vector_size(64)));
/// Element-wise compare results (0 or -1) and counters for V8d.
typedef std::int64_t V8l __attribute__((vector_size(64)));

V8d v8_load(const double* p) {
  V8d v;
  __builtin_memcpy(&v, p, sizeof(v));  // unaligned load, folds to vmovupd
  return v;
}

void v8_store(double* p, V8d v) {
  __builtin_memcpy(p, &v, sizeof(v));  // unaligned store, folds to vmovupd
}

/// Every lane set to `x`, sign of zero included.
V8d v8_splat(double x) { return V8d{x, x, x, x, x, x, x, x}; }

#if defined(__GNUC__) && defined(__AVX512F__)
#define NDFT_GEMM_SIMD 1

/// a*b + c as one fused instruction. The build pins -ffp-contract=off so
/// the compiler never fuses on its own (fusion would make results depend
/// on which call sites it picked); an explicit fma is a fixed part of the
/// kernel instead - deterministic everywhere, twice the FLOP throughput,
/// and one rounding tighter than mul+add.
V8d v8_fma(V8d a, V8d b, V8d c) {
  return reinterpret_cast<V8d>(_mm512_fmadd_pd(reinterpret_cast<__m512d>(a),
                                               reinterpret_cast<__m512d>(b),
                                               reinterpret_cast<__m512d>(c)));
}
#endif

/// Dot products of R rows x[i][begin:end) with one y[begin:end) over
/// fixed-width independent partial sums: breaks the FP add latency chain
/// that makes a naive dot run at ~1 element per 4 cycles under
/// -ffp-contract=off, and vectorises on AVX-512 builds. Each row keeps
/// its own partial sums, horizontal sum and scalar tail, in the order
/// dot_range (R = 1) uses; several rows side by side only overlap those
/// latency chains, which dominate short rows. The accumulation order
/// depends only on the index range, so results are identical for any
/// thread count and any R.
template <std::size_t R>
void dot_rows(const double* const (&x)[R], const double* __restrict y,
              std::size_t begin, std::size_t end, double* out) {
  std::size_t c = begin;
  double head[R];
#if NDFT_GEMM_SIMD
  V8d acc0[R] = {};
  V8d acc1[R] = {};
  for (; c + 16 <= end; c += 16) {
    const V8d y0 = v8_load(y + c);
    const V8d y1 = v8_load(y + c + 8);
    for (std::size_t i = 0; i < R; ++i) {
      acc0[i] += v8_load(x[i] + c) * y0;
      acc1[i] += v8_load(x[i] + c + 8) * y1;
    }
  }
  for (std::size_t i = 0; i < R; ++i) {
    const V8d acc = acc0[i] + acc1[i];
    double lanes[8];
    __builtin_memcpy(lanes, &acc, sizeof(lanes));
    head[i] = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) +
              ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
  }
#else
  double s[R][4] = {};
  for (; c + 4 <= end; c += 4) {
    for (std::size_t i = 0; i < R; ++i) {
      s[i][0] += x[i][c] * y[c];
      s[i][1] += x[i][c + 1] * y[c + 1];
      s[i][2] += x[i][c + 2] * y[c + 2];
      s[i][3] += x[i][c + 3] * y[c + 3];
    }
  }
  for (std::size_t i = 0; i < R; ++i) {
    head[i] = (s[i][0] + s[i][1]) + (s[i][2] + s[i][3]);
  }
#endif
  for (; c < end; ++c) {
    for (std::size_t i = 0; i < R; ++i) head[i] += x[i][c] * y[c];
  }
  for (std::size_t i = 0; i < R; ++i) out[i] = head[i];
}

/// Dot product of x[begin:end) with y[begin:end): dot_rows for one row.
double dot_range(const double* x, const double* y, std::size_t begin,
                 std::size_t end) {
  const double* const rows[1] = {x};
  double out;
  dot_rows<1>(rows, y, begin, end, &out);
  return out;
}

/// Householder reduction of a real symmetric matrix to tridiagonal form
/// (EISPACK tred2 lineage). On return `z` holds the accumulated orthogonal
/// transformation, `d` the diagonal and `e` the subdiagonal (e[0] unused).
void tred2(RealMatrix& z, std::vector<double>& d, std::vector<double>& e) {
  const std::size_t n = z.rows();
  d.assign(n, 0.0);
  e.assign(n, 0.0);
  if (n == 0) return;

  for (std::size_t i = n - 1; i >= 1; --i) {
    const std::size_t l = i - 1;
    double h = 0.0;
    double scale = 0.0;
    if (l > 0) {
      for (std::size_t k = 0; k <= l; ++k) scale += std::fabs(z(i, k));
      if (scale == 0.0) {
        e[i] = z(i, l);
      } else {
        for (std::size_t k = 0; k <= l; ++k) {
          z(i, k) /= scale;
          h += z(i, k) * z(i, k);
        }
        double f = z(i, l);
        double g = (f >= 0.0) ? -std::sqrt(h) : std::sqrt(h);
        e[i] = scale * g;
        h -= f * g;
        z(i, l) = f - g;
        f = 0.0;
        for (std::size_t j = 0; j <= l; ++j) {
          z(j, i) = z(i, j) / h;
          g = 0.0;
          for (std::size_t k = 0; k <= j; ++k) g += z(j, k) * z(i, k);
          for (std::size_t k = j + 1; k <= l; ++k) g += z(k, j) * z(i, k);
          e[j] = g / h;
          f += e[j] * z(i, j);
        }
        const double hh = f / (h + h);
        for (std::size_t j = 0; j <= l; ++j) {
          f = z(i, j);
          e[j] = g = e[j] - hh * f;
          for (std::size_t k = 0; k <= j; ++k) {
            z(j, k) -= f * e[k] + g * z(i, k);
          }
        }
      }
    } else {
      e[i] = z(i, l);
    }
    d[i] = h;
  }
  d[0] = 0.0;
  e[0] = 0.0;
  // Accumulate the transformation matrix.
  for (std::size_t i = 0; i < n; ++i) {
    if (d[i] != 0.0) {
      for (std::size_t j = 0; j < i; ++j) {
        double g = 0.0;
        for (std::size_t k = 0; k < i; ++k) g += z(i, k) * z(k, j);
        for (std::size_t k = 0; k < i; ++k) z(k, j) -= g * z(k, i);
      }
    }
    d[i] = z(i, i);
    z(i, i) = 1.0;
    for (std::size_t j = 0; j < i; ++j) {
      z(j, i) = 0.0;
      z(i, j) = 0.0;
    }
  }
}

/// Implicit-shift QL iteration on a tridiagonal matrix with eigenvector
/// accumulation (EISPACK tql2 lineage). `d` holds eigenvalues on return.
void tql2(std::vector<double>& d, std::vector<double>& e, RealMatrix& z) {
  const std::size_t n = d.size();
  if (n <= 1) return;
  for (std::size_t i = 1; i < n; ++i) e[i - 1] = e[i];
  e[n - 1] = 0.0;

  for (std::size_t l = 0; l < n; ++l) {
    unsigned iter = 0;
    std::size_t m;
    do {
      for (m = l; m + 1 < n; ++m) {
        const double dd = std::fabs(d[m]) + std::fabs(d[m + 1]);
        if (std::fabs(e[m]) <= std::numeric_limits<double>::epsilon() * dd) {
          break;
        }
      }
      if (m != l) {
        NDFT_REQUIRE(iter++ < 50, "QL iteration failed to converge");
        double g = (d[l + 1] - d[l]) / (2.0 * e[l]);
        double r = pythag(g, 1.0);
        g = d[m] - d[l] + e[l] / (g + sign_of(r, g));
        double s = 1.0;
        double c = 1.0;
        double p = 0.0;
        bool underflow = false;
        for (std::size_t ii = m; ii-- > l;) {
          const std::size_t i = ii;
          double f = s * e[i];
          const double b = c * e[i];
          e[i + 1] = r = pythag(f, g);
          if (r == 0.0) {
            d[i + 1] -= p;
            e[m] = 0.0;
            underflow = true;
            break;
          }
          s = f / r;
          c = g / r;
          g = d[i + 1] - p;
          r = (d[i] - g) * s + 2.0 * c * b;
          p = s * r;
          d[i + 1] = g + p;
          g = c * r - b;
          for (std::size_t k = 0; k < n; ++k) {
            f = z(k, i + 1);
            z(k, i + 1) = s * z(k, i) + c * f;
            z(k, i) = c * z(k, i) - s * f;
          }
        }
        if (underflow) continue;
        d[l] -= p;
        e[l] = g;
        e[m] = 0.0;
      }
    } while (m != l);
  }
}

// ------------------------------------- blocked Householder reduction
//
// Direct full -> tridiagonal reduction on full symmetric storage (the
// partial solver's reduction). Panels of kEigBlock columns: each column's
// reflector is generated after folding in the panel's previous reflectors
// (dlatrd recurrence, with the dominant trailing matrix-vector product
// running on the thread pool), and the trailing matrix is updated once
// per panel with a single rank-2k GEMM on the blocked kernel. The
// back-transformation accumulates each panel into a compact-WY factor
// (I - V T V^T) and applies it with three GEMMs; the two-stage path reuses
// it for its band reflectors. Every stage either runs serially or
// partitions disjoint outputs with a fixed per-element operation order,
// so results are bitwise identical for any thread count.

constexpr std::size_t kEigBlock = 32;  ///< reduction/back-transform panel

/// Reusable GEMM pack storage (gemm_blocked): `b` holds the packed op(B)
/// block and `a` one packed op(A) region per row block, so the pool's
/// concurrent row-block tasks never share one. Packing writes every
/// element the microkernel then reads, so stale contents are harmless.
template <typename T>
struct GemmPacks {
  std::vector<T> a;
  std::vector<T> b;
};

/// gemm() without the timer and trace entry, packing into `packs` (null:
/// fresh buffers per call, as gemm() does). The eigensolvers' products
/// run through it; they are nested inside a solver entry point, where
/// gemm()'s own timer and trace event would fold away anyway. Defined
/// with the GEMM layer below.
void gemm_packed(const RealMatrix& a, const RealMatrix& b, RealMatrix& c,
                 double alpha, double beta, bool transpose_a,
                 bool transpose_b, GemmPacks<double>* packs);

/// Per-panel temporaries of blocked_tridiagonalize, reused from panel to
/// panel and, inside an EigenWorkspace, from solve to solve.
struct ReductionBuffers {
  std::vector<double> v;  ///< contiguous copy of the active reflector
  std::vector<double> wtv;
  std::vector<double> vtv;
  RealMatrix w;   ///< the panel's W accumulator (dlatrd)
  RealMatrix vp;  ///< the panel's V, copied out of the matrix
  RealMatrix vt;  ///< the panel's V, transposed
  RealMatrix wt;  ///< the panel's W, transposed
  RealMatrix left_t;   ///< [V | W]^T of the trailing rows
  RealMatrix right_t;  ///< [W | V]^T of the trailing rows
  RealMatrix trailing;
};

/// Per-panel temporaries of apply_q_panels, reused likewise.
struct QPanelBuffers {
  std::vector<std::size_t> panel_starts;
  RealMatrix v;
  RealMatrix t;
  RealMatrix gram;
  RealMatrix zs;
  RealMatrix x1;
  RealMatrix x2;
};

/// The eigensolver issues many short-lived stages (per-column gemv, panel
/// copies); waking the pool costs more than such a stage is worth, so
/// these dispatch only above ~1M flops per call. The chunky stages (GEMM,
/// the chase-rotation replay) keep the default grain policy.
constexpr std::size_t kEigDispatchWork = std::size_t{1} << 20;

std::size_t eig_grain(std::size_t work_per_index) {
  return std::max<std::size_t>(
      1, kEigDispatchWork / std::max<std::size_t>(1, work_per_index));
}

/// dst(r, col) -= sum_p (vt(p, r) cv[p] + wt(p, r) cw[p]) over p in
/// [0, len), for rows r in [begin, end): the two dlatrd panel folds, read
/// from transposed copies of the panel's V and W columns. Each row's sum
/// is one p-ordered chain of dependent adds, s = s + (v cv + w cw); a
/// vector runs that chain for eight rows at once, and two vectors per
/// pass keep two chains in flight. Every row still sums in its own p
/// order, so the result does not depend on how rows are grouped.
void fold_panel_rows(RealMatrix& dst, std::size_t col, const RealMatrix& vt,
                     const RealMatrix& wt, const double* cv,
                     const double* cw, std::size_t len, std::size_t begin,
                     std::size_t end) {
  std::size_t r = begin;
  for (; r + 16 <= end; r += 16) {
    V8d s0{};
    V8d s1{};
    for (std::size_t p = 0; p < len; ++p) {
      const V8d c_v = v8_splat(cv[p]);
      const V8d c_w = v8_splat(cw[p]);
      const double* v = vt.row(p) + r;
      const double* w = wt.row(p) + r;
      s0 += v8_load(v) * c_v + v8_load(w) * c_w;
      s1 += v8_load(v + 8) * c_v + v8_load(w + 8) * c_w;
    }
    for (std::size_t l = 0; l < 8; ++l) {
      dst(r + l, col) -= s0[l];
      dst(r + 8 + l, col) -= s1[l];
    }
  }
  for (; r + 8 <= end; r += 8) {
    V8d s0{};
    for (std::size_t p = 0; p < len; ++p) {
      s0 += v8_load(vt.row(p) + r) * v8_splat(cv[p]) +
            v8_load(wt.row(p) + r) * v8_splat(cw[p]);
    }
    for (std::size_t l = 0; l < 8; ++l) dst(r + l, col) -= s0[l];
  }
  for (; r < end; ++r) {
    double s = 0.0;
    for (std::size_t p = 0; p < len; ++p) {
      s += vt(p, r) * cv[p] + wt(p, r) * cw[p];
    }
    dst(r, col) -= s;
  }
}

/// wtv[p] = sum_r w(r, p) v[r] and vtv[p] = sum_r vp(r, p) v[r] for p in
/// [0, len) over rows r in [begin, end), each sum adding its rows in
/// ascending order. `w` and `vp` rows hold kEigBlock columns, zero past
/// the panel's finished ones, so eight sums share a vector, held in a
/// register across the whole row loop (NB = ceil(len / 8) vectors).
template <std::size_t NB>
void panel_sums(const RealMatrix& w, const RealMatrix& vp, const double* v,
                std::size_t len, std::size_t begin, std::size_t end,
                double* wtv, double* vtv) {
  V8d sw[NB] = {};
  V8d sv[NB] = {};
  for (std::size_t r = begin; r < end; ++r) {
    const V8d vr = v8_splat(v[r]);
    const double* w_r = w.row(r);
    const double* v_r = vp.row(r);
    for (std::size_t b = 0; b < NB; ++b) {
      sw[b] += v8_load(w_r + 8 * b) * vr;
      sv[b] += v8_load(v_r + 8 * b) * vr;
    }
  }
  for (std::size_t p = 0; p < len; ++p) {
    wtv[p] = sw[p / 8][p % 8];
    vtv[p] = sv[p / 8][p % 8];
  }
}

/// panel_sums by vector count: entry b serves b + 1 vectors.
constexpr void (*kPanelSums[])(const RealMatrix&, const RealMatrix&,
                               const double*, std::size_t, std::size_t,
                               std::size_t, double*, double*) = {
    panel_sums<1>, panel_sums<2>, panel_sums<3>, panel_sums<4>};
static_assert(std::size(kPanelSums) * 8 == kEigBlock,
              "one entry per eight panel columns");

/// Blocked Householder reduction to tridiagonal form (dsytrd/dlatrd
/// lineage, lower-triangle convention). On return `d` is the diagonal,
/// `e` the subdiagonal (e[0] unused), `tau` the reflector scalars, and
/// reflector j's vector sits in a(j+1:n, j) with its leading 1 stored
/// explicitly at a(j+1, j) for the back-transformation.
void blocked_tridiagonalize(RealMatrix& a, std::vector<double>& d,
                            std::vector<double>& e, std::vector<double>& tau,
                            ReductionBuffers& buffers,
                            GemmPacks<double>& packs) {
  const std::size_t n = a.rows();
  d.assign(n, 0.0);
  e.assign(n, 0.0);
  tau.assign(n, 0.0);
  std::vector<double>& v = buffers.v;
  v.assign(n, 0.0);
  // The panel's W, and its V copied out of `a`, each n x kEigBlock
  // whatever the panel width, for the row-outer panel sums; and both
  // again transposed (row p holds column p over all n rows) for the
  // folds, which run down the rows.
  RealMatrix& w = buffers.w;
  RealMatrix& vp = buffers.vp;
  RealMatrix& vt = buffers.vt;
  RealMatrix& wt = buffers.wt;
  for (std::size_t i0 = 0; i0 + 2 < n;) {
    const std::size_t kb = std::min(kEigBlock, n - 2 - i0);
    w.reset(n, kEigBlock);
    vp.reset(n, kEigBlock);
    vt.reset(kb, n);
    wt.reset(kb, n);
    for (std::size_t jj = 0; jj < kb; ++jj) {
      const std::size_t j = i0 + jj;
      // Fold the panel's previous reflectors into column j:
      // a(j:n, j) -= V(j:n, 0:jj) w(j, 0:jj)^T + W(j:n, 0:jj) v(j, 0:jj)^T.
      if (jj > 0) {
        fold_panel_rows(a, j, vt, wt, w.row(j), a.row(j) + i0, jj, j, n);
      }
      // Householder reflector annihilating a(j+2:n, j).
      double tail2 = 0.0;
      for (std::size_t r = j + 2; r < n; ++r) tail2 += a(r, j) * a(r, j);
      const double alpha = a(j + 1, j);
      double beta = alpha;
      double tau_j = 0.0;
      if (tail2 != 0.0) {
        beta = -sign_of(pythag(alpha, std::sqrt(tail2)), alpha);
        tau_j = (beta - alpha) / beta;
        const double inv = 1.0 / (alpha - beta);
        for (std::size_t r = j + 2; r < n; ++r) a(r, j) *= inv;
      }
      tau[j] = tau_j;
      e[j + 1] = beta;
      a(j + 1, j) = 1.0;  // leading 1 of v_j, kept for the back-transform
      for (std::size_t r = 0; r < n; ++r) v[r] = (r > j) ? a(r, j) : 0.0;
      std::copy(v.begin(), v.end(), vt.row(jj));
      for (std::size_t r = j + 1; r < n; ++r) vp(r, jj) = v[r];
      // w_j = tau (A_t v - V (W^T v) - W (V^T v)) - (tau/2)(w^T v) v, with
      // A_t the trailing square as of panel start. The matrix-vector
      // product dominates the panel work; rows are independent, and four
      // at a time overlap their dot products' latency chains.
      parallel_for(j + 1, n, eig_grain(n - j),
                   [&](std::size_t lo, std::size_t hi) {
                     std::size_t r = lo;
                     for (; r + 4 <= hi; r += 4) {
                       const double* const rows[4] = {
                           a.row(r), a.row(r + 1), a.row(r + 2),
                           a.row(r + 3)};
                       double dots[4];
                       dot_rows<4>(rows, v.data(), j + 1, n, dots);
                       for (std::size_t i = 0; i < 4; ++i) {
                         w(r + i, jj) = dots[i];
                       }
                     }
                     for (; r < hi; ++r) {
                       w(r, jj) = dot_range(a.row(r), v.data(), j + 1, n);
                     }
                   });
      if (jj > 0) {
        // W^T v and V^T v: row-outer, the jj sums are independent chains.
        std::vector<double>& wtv = buffers.wtv;
        std::vector<double>& vtv = buffers.vtv;
        wtv.resize(jj);
        vtv.resize(jj);
        kPanelSums[ceil_div(jj, std::size_t{8}) - 1](
            w, vp, v.data(), jj, j + 1, n, wtv.data(), vtv.data());
        fold_panel_rows(w, jj, vt, wt, wtv.data(), vtv.data(), jj, j + 1,
                        n);
      }
      double dot = 0.0;
      for (std::size_t r = j + 1; r < n; ++r) {
        w(r, jj) *= tau_j;
        dot += w(r, jj) * v[r];
      }
      const double correction = -0.5 * tau_j * dot;
      double* wt_row = wt.row(jj);
      for (std::size_t r = j + 1; r < n; ++r) {
        w(r, jj) += correction * v[r];
        wt_row[r] = w(r, jj);
      }
    }
    // Trailing rank-2k update A_t -= V W^T + W V^T, expressed as the
    // single blocked GEMM A_t += (-[V | W]) [W | V]^T over the full
    // trailing square (the update is symmetric, so full storage stays
    // consistent for the next panel's matrix-vector products). Both
    // operands are stored transposed, [V | W]^T and [W | V]^T, rows
    // copied from the transposed panels; the GEMM packs the same values
    // either way, and contiguous rows pack faster.
    const std::size_t t0 = i0 + kb;
    const std::size_t m = n - t0;
    if (m > 0) {
      RealMatrix& left_t = buffers.left_t;
      RealMatrix& right_t = buffers.right_t;
      RealMatrix& trailing = buffers.trailing;
      left_t.reset(2 * kb, m);
      right_t.reset(2 * kb, m);
      trailing.reset(m, m);
      for (std::size_t p = 0; p < kb; ++p) {
        const double* v_p = vt.row(p) + t0;
        const double* w_p = wt.row(p) + t0;
        std::copy(v_p, v_p + m, left_t.row(p));
        std::copy(w_p, w_p + m, left_t.row(kb + p));
        std::copy(w_p, w_p + m, right_t.row(p));
        std::copy(v_p, v_p + m, right_t.row(kb + p));
      }
      parallel_for(0, m, eig_grain(m),
                   [&](std::size_t lo, std::size_t hi) {
                     for (std::size_t r = lo; r < hi; ++r) {
                       std::copy(a.row(t0 + r) + t0, a.row(t0 + r) + n,
                                 trailing.row(r));
                     }
                   });
      gemm_packed(left_t, right_t, trailing, -1.0, 1.0, /*transpose_a=*/true,
                  /*transpose_b=*/false, &packs);
      parallel_for(0, m, eig_grain(m),
                   [&](std::size_t lo, std::size_t hi) {
                     for (std::size_t r = lo; r < hi; ++r) {
                       std::copy(trailing.row(r), trailing.row(r) + m,
                                 a.row(t0 + r) + t0);
                     }
                   });
    }
    i0 += kb;
  }
  for (std::size_t i = 0; i < n; ++i) d[i] = a(i, i);
  if (n >= 2) e[n - 1] = a(n - 1, n - 2);
}

/// z := Q z with Q = H_0 H_1 ... read from reflectors stored in the
/// columns of `a`. Reflector j spans rows j+offset..n-1 with its unit
/// head stored explicitly at a(j+offset, j): offset 1 matches
/// blocked_tridiagonalize, offset b the full->band reduction.
/// Panels are applied in reverse order as compact-WY updates (dlarft
/// forward factor, then three GEMMs per panel restricted to the rows the
/// panel touches). Temporaries come from `buffers`, GEMM packs from
/// `packs` (null: fresh per product).
void apply_q_panels(const RealMatrix& a, const std::vector<double>& tau,
                    RealMatrix& z, std::size_t offset,
                    QPanelBuffers& buffers, GemmPacks<double>* packs) {
  const std::size_t n = a.rows();
  if (n < offset + 2) return;
  // The WY grouping here is independent of the panel width the reduction
  // used - any run of consecutive reflectors forms a panel. Wider panels
  // than kEigBlock pay off on the apply side: the staging copies and
  // per-panel fixed costs scale with the panel count while the GEMM flop
  // total stays constant.
  constexpr std::size_t kApplyBlock = 4 * kEigBlock;
  std::vector<std::size_t>& panel_starts = buffers.panel_starts;
  panel_starts.clear();
  for (std::size_t i0 = 0; i0 + offset + 1 < n;
       i0 += std::min(kApplyBlock, n - offset - 1 - i0)) {
    panel_starts.push_back(i0);
  }
  const std::size_t cols = z.cols();
  for (std::size_t pi = panel_starts.size(); pi-- > 0;) {
    const std::size_t i0 = panel_starts[pi];
    const std::size_t kb = std::min(kApplyBlock, n - offset - 1 - i0);
    const std::size_t r0 = i0 + offset;  // first row the panel can touch
    const std::size_t m = n - r0;
    // V (m x kb): column p is reflector i0+p, unit at global row
    // i0+p+offset, zero above (zero-initialised storage provides the
    // zeros).
    RealMatrix& v = buffers.v;
    v.reset(m, kb);
    for (std::size_t rr = 0; rr < m; ++rr) {
      const std::size_t r = r0 + rr;
      for (std::size_t p = 0; p < kb && i0 + p + offset <= r; ++p) {
        v(rr, p) = a(r, i0 + p);
      }
    }
    // Compact-WY factor (dlarft, forward columnwise): the panel's product
    // of reflectors is I - V T V^T with T upper triangular.
    RealMatrix& t = buffers.t;
    t.reset(kb, kb);
    // All the reflector inner products the dlarft recurrence needs are
    // entries of the Gram matrix V^T V - one GEMM instead of kb^2/2
    // stride-kb scalar dot products.
    RealMatrix& gram = buffers.gram;
    gemm_packed(v, v, gram, 1.0, 0.0, /*transpose_a=*/true,
                /*transpose_b=*/false, packs);
    for (std::size_t p = 0; p < kb; ++p) {
      const double tau_p = tau[i0 + p];
      if (tau_p == 0.0) continue;  // H = I: the zero row/column is exact
      // t(q, p) = -tau_p sum_{u=q}^{p-1} t(q, u) gram(u, p). The GEMM
      // forms every Gram entry as one k-ordered sum of products and
      // x*y == y*x, so V^T V is bitwise symmetric and row p stands in
      // for column p as a contiguous read. The q sums are independent
      // chains: four run interleaved, row q+i joining at u = q+i.
      const double* g = gram.row(p);
      std::size_t q = 0;
      for (; q + 4 <= p; q += 4) {
        const double* t0 = t.row(q);
        const double* t1 = t.row(q + 1);
        const double* t2 = t.row(q + 2);
        const double* t3 = t.row(q + 3);
        double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
        s0 += t0[q] * g[q];
        s0 += t0[q + 1] * g[q + 1];
        s1 += t1[q + 1] * g[q + 1];
        s0 += t0[q + 2] * g[q + 2];
        s1 += t1[q + 2] * g[q + 2];
        s2 += t2[q + 2] * g[q + 2];
        for (std::size_t u = q + 3; u < p; ++u) {
          s0 += t0[u] * g[u];
          s1 += t1[u] * g[u];
          s2 += t2[u] * g[u];
          s3 += t3[u] * g[u];
        }
        t(q, p) = -tau_p * s0;
        t(q + 1, p) = -tau_p * s1;
        t(q + 2, p) = -tau_p * s2;
        t(q + 3, p) = -tau_p * s3;
      }
      for (; q < p; ++q) {
        const double* tq = t.row(q);
        double acc = 0.0;
        for (std::size_t u = q; u < p; ++u) acc += tq[u] * g[u];
        t(q, p) = -tau_p * acc;
      }
      t(p, p) = tau_p;
    }
    // z(r0:n, :) -= V (T (V^T z(r0:n, :))).
    RealMatrix& zs = buffers.zs;
    zs.reset(m, cols);
    parallel_for(0, m, eig_grain(cols),
                 [&](std::size_t lo, std::size_t hi) {
                   for (std::size_t rr = lo; rr < hi; ++rr) {
                     std::copy(z.row(r0 + rr), z.row(r0 + rr) + cols,
                               zs.row(rr));
                   }
                 });
    RealMatrix& x1 = buffers.x1;
    gemm_packed(v, zs, x1, 1.0, 0.0, /*transpose_a=*/true,
                /*transpose_b=*/false, packs);
    RealMatrix& x2 = buffers.x2;
    gemm_packed(t, x1, x2, 1.0, 0.0, false, false, packs);
    gemm_packed(v, x2, zs, -1.0, 1.0, false, false, packs);
    parallel_for(0, m, eig_grain(cols),
                 [&](std::size_t lo, std::size_t hi) {
                   for (std::size_t rr = lo; rr < hi; ++rr) {
                     std::copy(zs.row(rr), zs.row(rr) + cols,
                               z.row(r0 + rr));
                   }
                 });
  }
}

// ------------------------------------------- two-stage reduction (SBR)
//
// The two-stage path reduces full -> band -> tridiagonal. Stage one runs
// blocked QR panels of width b: each panel's reflectors are generated on a
// transposed copy (contiguous rows), and the trailing square absorbs the
// whole panel at once through the symmetric compact-WY update
// A <- A - Z V^T - V Z^T with Z = Y - (1/2) V S, Y = A V T,
// S = T^T (V^T Y) - pure level-3 GEMM, unlike blocked_tridiagonalize
// whose per-column matrix-vector product is level-2 memory-bound. Stage
// two chases the band to tridiagonal form with Givens rotations (Schwarz /
// dsbtrd lineage) recorded into a log; the eigenvector back-transform
// replays that log reversed and transposed, then pushes through the same
// compact-WY panels as blocked_tridiagonalize (offset b instead of 1).

constexpr std::size_t kBandWidth = 64;  ///< stage-one bandwidth, large n

/// Stage-one target bandwidth. Wider bands shift work from the Givens
/// chase (O(n^2 b) but cache-unfriendly) into the blocked GEMM update,
/// which is the right trade once the matrix dwarfs the band: 64 wins at
/// n >= 384 but loses ~15% at n = 256 where the band would be a quarter
/// of the matrix. A function of n only, so the rotation sequence stays
/// pool-width independent.
std::size_t band_width(std::size_t n) {
  return n < 384 ? 48 : kBandWidth;
}

/// One Givens rotation of the bulge chase, acting on planes
/// (col, col + 1).
struct GivensRotation {
  std::size_t col;
  double c;
  double s;
};

/// Blocked full -> band reduction (bandwidth band_width(n), lower-triangle
/// convention). On return the band of `a` holds the banded matrix;
/// strictly below it, column j holds reflector j's tail (rows j+b+1..n),
/// whose unit head lives at a(j+b, j) *conceptually* - that slot holds the
/// band entry until extract_band() captures it and writes the explicit 1
/// the back-transform reads. tau[j] is the reflector scalar.
void band_reduce(RealMatrix& a, std::vector<double>& tau) {
  const std::size_t n = a.rows();
  const std::size_t b = band_width(n);
  tau.assign(n, 0.0);
  for (std::size_t i0 = 0; i0 + b + 1 < n;) {
    const std::size_t kb = std::min(b, n - b - 1 - i0);
    const std::size_t r0 = i0 + b;  // first row the panel reflectors touch
    const std::size_t mt = n - r0;
    // Panel QR on the transposed block pt(p, r) = a(r0+r, i0+p): each
    // reflector's vector is a contiguous row slice.
    RealMatrix pt(kb, mt);
    for (std::size_t p = 0; p < kb; ++p) {
      double* row = pt.row(p);
      for (std::size_t r = 0; r < mt; ++r) row[r] = a(r0 + r, i0 + p);
    }
    for (std::size_t p = 0; p < kb; ++p) {
      double* vp = pt.row(p);
      // Householder reflector annihilating rows r0+p+1..n of column i0+p.
      double tail2 = 0.0;
      for (std::size_t r = p + 1; r < mt; ++r) tail2 += vp[r] * vp[r];
      const double alpha = vp[p];
      double beta = alpha;
      double tau_p = 0.0;
      if (tail2 != 0.0) {
        beta = -sign_of(pythag(alpha, std::sqrt(tail2)), alpha);
        tau_p = (beta - alpha) / beta;
        const double inv = 1.0 / (alpha - beta);
        for (std::size_t r = p + 1; r < mt; ++r) vp[r] *= inv;
      }
      tau[i0 + p] = tau_p;
      vp[p] = beta;  // R(p, p); the reflector's unit head stays implicit
      if (tau_p != 0.0) {
        // Fold H_p into the remaining panel columns:
        // row_q -= tau_p (v . row_q) v, with v's implicit unit at p.
        for (std::size_t q = p + 1; q < kb; ++q) {
          double* rq = pt.row(q);
          const double scale =
              tau_p * (rq[p] + dot_range(vp, rq, p + 1, mt));
          rq[p] -= scale;
          for (std::size_t r = p + 1; r < mt; ++r) rq[r] -= scale * vp[r];
        }
      }
    }
    // Write the factored panel back: R inside the band, reflector tails
    // below it.
    for (std::size_t p = 0; p < kb; ++p) {
      const double* row = pt.row(p);
      for (std::size_t r = 0; r < mt; ++r) a(r0 + r, i0 + p) = row[r];
    }
    // V (mt x kb, unit lower trapezoidal) and the dlarft forward factor T.
    RealMatrix v(mt, kb);
    for (std::size_t p = 0; p < kb; ++p) {
      v(p, p) = 1.0;
      for (std::size_t r = p + 1; r < mt; ++r) v(r, p) = pt(p, r);
    }
    RealMatrix t(kb, kb);
    std::vector<double> h(kb, 0.0);
    for (std::size_t p = 0; p < kb; ++p) {
      const double tau_p = tau[i0 + p];
      if (tau_p == 0.0) continue;
      for (std::size_t q = 0; q < p; ++q) {
        // v_q . v_p: v_p's unit head plus the contiguous tails in pt.
        h[q] = pt(q, p) + dot_range(pt.row(q), pt.row(p), p + 1, mt);
      }
      for (std::size_t q = 0; q < p; ++q) {
        double acc = 0.0;
        for (std::size_t u = q; u < p; ++u) acc += t(q, u) * h[u];
        t(q, p) = -tau_p * acc;
      }
      t(p, p) = tau_p;
    }
    // Final short panel (kb < b): the columns between the panel and the
    // trailing square see Q^T from the left only. Their updated entries
    // all land within band distance b, so they need no reflectors.
    const std::size_t strip0 = i0 + kb;
    if (strip0 < r0) {
      const std::size_t w = r0 - strip0;
      RealMatrix x(mt, w);
      for (std::size_t r = 0; r < mt; ++r) {
        for (std::size_t c = 0; c < w; ++c) x(r, c) = a(r0 + r, strip0 + c);
      }
      RealMatrix x1;
      gemm(v, x, x1, 1.0, 0.0, /*transpose_a=*/true);
      RealMatrix x2;
      gemm(t, x1, x2, 1.0, 0.0, /*transpose_a=*/true);
      gemm(v, x2, x, -1.0, 1.0);
      for (std::size_t r = 0; r < mt; ++r) {
        for (std::size_t c = 0; c < w; ++c) a(r0 + r, strip0 + c) = x(r, c);
      }
    }
    // Two-sided trailing update A_t <- Q^T A_t Q as level-3 GEMM:
    // W = A_t V, Y = W T, S = T^T (V^T Y) (symmetric), Z = Y - (1/2) V S,
    // then the rank-2k A_t -= Z V^T + V Z^T as one GEMM with
    // left = [Z | V], right = [V | Z].
    RealMatrix at(mt, mt);
    parallel_for(0, mt, eig_grain(mt),
                 [&](std::size_t lo, std::size_t hi) {
                   for (std::size_t r = lo; r < hi; ++r) {
                     std::copy(a.row(r0 + r) + r0, a.row(r0 + r) + n,
                               at.row(r));
                   }
                 });
    RealMatrix wmat;
    gemm(at, v, wmat);
    RealMatrix y;
    gemm(wmat, t, y);
    RealMatrix vty;
    gemm(v, y, vty, 1.0, 0.0, /*transpose_a=*/true);
    RealMatrix s;
    gemm(t, vty, s, 1.0, 0.0, /*transpose_a=*/true);
    RealMatrix zmat = y;
    gemm(v, s, zmat, -0.5, 1.0);
    RealMatrix left(mt, 2 * kb);
    RealMatrix right(mt, 2 * kb);
    parallel_for(0, mt, eig_grain(4 * kb),
                 [&](std::size_t lo, std::size_t hi) {
                   for (std::size_t r = lo; r < hi; ++r) {
                     for (std::size_t p = 0; p < kb; ++p) {
                       const double zz = zmat(r, p);
                       const double vv = v(r, p);
                       left(r, p) = zz;
                       left(r, kb + p) = vv;
                       right(r, p) = vv;
                       right(r, kb + p) = zz;
                     }
                   }
                 });
    gemm(left, right, at, -1.0, 1.0, /*transpose_a=*/false,
         /*transpose_b=*/true);
    parallel_for(0, mt, eig_grain(mt),
                 [&](std::size_t lo, std::size_t hi) {
                   for (std::size_t r = lo; r < hi; ++r) {
                     std::copy(at.row(r), at.row(r) + mt,
                               a.row(r0 + r) + r0);
                   }
                 });
    i0 += kb;
  }
}

/// Captures the band into compact storage band(j, d) = A(j+d, j) for
/// d in [0, b] (column b+1 is the chase's bulge slot), then overwrites
/// each reflector's head slot a(j+b, j) with the explicit 1
/// apply_q_panels reads. Columns are the leading index so the chase's
/// varying-distance accesses land in one short row instead of striding
/// n doubles apart (a 4 KiB critical stride at n = 512 that thrashes
/// every access onto the same cache set).
RealMatrix extract_band(RealMatrix& a, std::size_t b) {
  const std::size_t n = a.rows();
  RealMatrix band(n, b + 2);
  for (std::size_t j = 0; j < n; ++j) {
    double* row = band.row(j);
    const std::size_t dmax = std::min(b, n - 1 - j);
    for (std::size_t d = 0; d <= dmax; ++d) row[d] = a(j + d, j);
  }
  for (std::size_t j = 0; j + b + 1 < n; ++j) a(j + b, j) = 1.0;
  return band;
}

/// Band -> tridiagonal Givens bulge chase (Schwarz / dsbtrd lineage) on
/// the compact band storage. For source column j, chase dist (run for
/// dist = dmax down to 2) annihilates the entry at distance dist below
/// the diagonal with a rotation in planes (j + dist - 1, j + dist),
/// then chases the fill-in bulge down the band to the edge; the chase's
/// m-th rotation acts on plane j + dist + m b. Every rotation G acts as
/// the similarity A <- G A G^T, so the accumulated transform is
/// Q2^T = G_N ... G_1; apply_chase_rotations replays the log reversed
/// and transposed. Before appending to `log`, each j's rotations are
/// regrouped depth-major (stable bucket by m): in the replayed
/// direction only same-depth adjacent-dist rotations conflict - planes
/// j + dist + m b of one j coincide or touch only at equal m - and the
/// stable scatter preserves their relative order, so the replayed
/// product is bitwise identical to replaying in emission order. Each
/// depth group then holds a run of consecutive descending planes
/// (dist descending at fixed m) that apply_chase_rotations turns into
/// one register-carried chain. `group_len` records each (j, m) group's
/// rotation count and `j_groups` the number of groups per j (chases
/// die off the bottom edge or on exact zeros, both data-dependent).
/// On return `d`/`e` hold the tridiagonal matrix (e[i] couples rows
/// i-1 and i, e[0] unused). Entirely serial: the rotation sequence is
/// part of the bitwise-determinism contract.
void band_to_tridiagonal(RealMatrix& band, std::size_t b,
                         std::vector<double>& d, std::vector<double>& e,
                         std::vector<GivensRotation>& log,
                         std::vector<std::uint32_t>& group_len,
                         std::vector<std::uint32_t>& j_groups) {
  const std::size_t n = band.rows();
  std::vector<GivensRotation> jbuf;    // this j's rotations, chase order
  std::vector<std::uint32_t> jdepth;   // depth of each jbuf entry
  std::vector<std::uint32_t> dcount;   // rotations per depth
  std::vector<std::uint32_t> doff;     // scatter cursors per depth
  std::vector<GivensRotation> sorted;  // depth-major scratch
  for (std::size_t j = 0; j + 2 < n; ++j) {
    const std::size_t dmax = std::min(b, n - 1 - j);
    jbuf.clear();
    jdepth.clear();
    dcount.clear();
    for (std::size_t dist = dmax; dist >= 2; --dist) {
      std::size_t sc = j;      // column holding the entry to annihilate
      std::size_t sd = dist;   // its distance below the diagonal
      std::uint32_t m = 0;     // chase depth
      for (;;) {
        const std::size_t p = sc + sd;  // rotation plane (p-1, p)
        const std::size_t p1 = p - 1;
        const double f = band(sc, sd - 1);
        const double g = band(sc, sd);
        if (g == 0.0) break;  // nothing to chase further
        const double r = pythag(f, g);
        const double c = f / r;
        const double s = -g / r;
        band(sc, sd - 1) = r;
        band(sc, sd) = 0.0;
        jbuf.push_back({p1, c, s});
        jdepth.push_back(m);
        if (m >= dcount.size()) dcount.resize(m + 1, 0);
        ++dcount[m];
        ++m;
        // Row pair (p-1, p) across earlier columns still inside the
        // band: one adjacent pair per column row, stepping b+1 doubles.
        for (std::size_t col = sc + 1; col < p1; ++col) {
          double* entry = band.row(col) + (p1 - col);
          const double u = entry[0];
          const double l = entry[1];
          entry[0] = c * u - s * l;
          entry[1] = s * u + c * l;
        }
        // The 2x2 diagonal block.
        {
          const double a11 = band(p1, 0);
          const double a21 = band(p1, 1);
          const double a22 = band(p, 0);
          band(p1, 0) = c * c * a11 - 2.0 * c * s * a21 + s * s * a22;
          band(p1, 1) =
              c * s * a11 + (c * c - s * s) * a21 - c * s * a22;
          band(p, 0) = s * s * a11 + 2.0 * c * s * a21 + c * c * a22;
        }
        // Column pair (p-1, p) for rows below p: two contiguous runs,
        // offset by one. Row p+b of column p-1 is the bulge slot the
        // rotation fills in. The runs are contiguous, so this is the one
        // chase loop worth vectorizing - explicit 8-wide FMA, with an
        // std::fma scalar tail keeping the arithmetic identical.
        const std::size_t rmax = std::min(n - 1, p + b);
        double* up = band.row(p1);
        double* lp = band.row(p);
        std::size_t row = p + 1;
#if NDFT_GEMM_SIMD
        {
          const V8d cv = V8d{} + c;
          const V8d sv = V8d{} + s;
          const V8d nsv = V8d{} - sv;
          for (; row + 7 <= rmax; row += 8) {
            double* uq = up + (row - p1);
            double* lq = lp + (row - p);
            const V8d u = v8_load(uq);
            const V8d l = v8_load(lq);
            v8_store(uq, v8_fma(cv, u, nsv * l));
            v8_store(lq, v8_fma(sv, u, cv * l));
          }
        }
#endif
        for (; row <= rmax; ++row) {
          const double u = up[row - p1];
          const double l = lp[row - p];
          up[row - p1] = std::fma(c, u, -s * l);
          lp[row - p] = std::fma(s, u, c * l);
        }
        if (p + b >= n) break;  // bulge chased off the bottom
        sc = p1;
        sd = b + 1;
      }
    }
    // Scatter this j's log segment into depth-major order (stable).
    doff.assign(dcount.size(), 0);
    std::uint32_t run = 0;
    for (std::size_t m = 0; m < dcount.size(); ++m) {
      doff[m] = run;
      run += dcount[m];
    }
    sorted.resize(jbuf.size());
    for (std::size_t i = 0; i < jbuf.size(); ++i) {
      sorted[doff[jdepth[i]]++] = jbuf[i];
    }
    log.insert(log.end(), sorted.begin(), sorted.end());
    std::uint32_t groups = 0;
    for (std::size_t m = 0; m < dcount.size(); ++m) {
      if (dcount[m] > 0) {
        group_len.push_back(dcount[m]);
        ++groups;
      }
    }
    j_groups.push_back(groups);
  }
  d.assign(n, 0.0);
  e.assign(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) d[i] = band(i, 0);
  for (std::size_t i = 1; i < n; ++i) e[i] = band(i - 1, 1);
}

/// s <- Q2 s with Q2 = G_1^T G_2^T ... G_N^T: the chase log replayed in
/// reverse order with transposed rotations, each mixing the contiguous
/// rows (col, col+1) of s. Column bands split across the pool; every band
/// sees the full reversed log in the same order, so the result is bitwise
/// identical for any thread count.
///
/// band_to_tridiagonal emits the log in wavefronts (per source column j,
/// per chase depth m, planes descending); reversing the log therefore
/// yields, within each (j, m) group, a run of rotations on consecutive
/// ascending planes. A run of K such rotations is applied as one
/// register-carried chain over K + 1 rows: rotation i mixes rows
/// (q0+i, q0+i+1) and hands the updated shared row to rotation i+1
/// without a round trip through memory, so each rotation costs ~1 row
/// load + 1 row store instead of 2 + 2 - and the replay is L2-bandwidth
/// bound, so halving the traffic nearly halves the wall time. The
/// per-element operation sequence matches the naive reversed replay
/// exactly (fma(c,u,s*l) / fma(c,l,-s*u) in log order), so the chaining
/// is bitwise neutral. Early-terminated chases leave holes in a
/// wavefront; runs are re-segmented by checking plane adjacency.
void apply_chase_rotations(const std::vector<GivensRotation>& log,
                           const std::vector<std::uint32_t>& group_len,
                           const std::vector<std::uint32_t>& j_groups,
                           RealMatrix& s) {
  if (log.empty()) return;
  const std::size_t rows = s.rows();
  const std::size_t cols = s.cols();
  std::size_t max_group = 0;
  for (std::uint32_t len : group_len) {
    max_group = std::max<std::size_t>(max_group, len);
  }
  // Each column tile is staged through a compact (rows x tile) buffer
  // before the replay: in place, successive rotation rows sit a full
  // matrix row apart (4 KiB at n = 512 - the critical stride, so the
  // reuse window of the chase replay collides onto one cache-set group
  // and every access pays an L2 round trip). The row stride is padded
  // off the power of two: the chain walks ~b rows at one vector's width
  // per visit, and a 1 KiB stride would land every visited line in the
  // same few L1 sets.
  // Cap the tile so the staging buffer stays L2-resident even when few
  // threads leave the grain wide (at one thread the grain is the whole
  // matrix: a 2 MiB tile at n = 512, which demotes the replay from L2
  // to L3 bandwidth).
  const std::size_t cap = std::max<std::size_t>(64, (1024 * 1024) / (8 * rows));
  const std::size_t band = std::min<std::size_t>(
      cap,
      std::min<std::size_t>(
          cols, std::max<std::size_t>(64, parallel_grain(6 * log.size()))));
  parallel_for(0, cols, band, [&](std::size_t lo, std::size_t hi) {
    const std::size_t tw = hi - lo;
    const std::size_t st = tw + 8;
    std::vector<double> tile(rows * st);
    for (std::size_t r = 0; r < rows; ++r) {
      const double* src = s.row(r) + lo;
      double* dst = tile.data() + r * st;
      for (std::size_t k = 0; k < tw; ++k) dst[k] = src[k];
    }
    std::vector<double> cseg(max_group);
    std::vector<double> sseg(max_group);
    // Reversed log: j descending, wavefront depth m descending within
    // each j, planes ascending within each wavefront.
    std::size_t gi = group_len.size();
    std::size_t li = log.size();
    for (std::size_t jr = j_groups.size(); jr-- > 0;) {
      for (std::uint32_t gj = j_groups[jr]; gj-- > 0;) {
        --gi;
        const std::size_t len = group_len[gi];
        li -= len;
        // Group entries log[li .. li+len) hold descending planes; walk
        // them back-to-front and chain maximal adjacent-plane runs.
        std::size_t t = len;
        while (t > 0) {
          std::size_t t_lo = t - 1;  // run start (lowest plane)
          while (t_lo > 0 &&
                 log[li + t_lo - 1].col == log[li + t_lo].col + 1) {
            --t_lo;
          }
          const std::size_t nseg = t - t_lo;
          const std::size_t q0 = log[li + t - 1].col;
          for (std::size_t i = 0; i < nseg; ++i) {
            const GivensRotation& rot = log[li + t - 1 - i];
            cseg[i] = rot.c;
            sseg[i] = rot.s;
          }
          // Pipelined chain over rows q0 .. q0 + nseg: rotation i mixes
          // (q0+i, q0+i+1); the updated shared row stays in registers.
          std::size_t o = 0;
#if NDFT_GEMM_SIMD
          for (; o + 32 <= tw; o += 32) {
            double* base = tile.data() + q0 * st + o;
            V8d cur0 = v8_load(base);
            V8d cur1 = v8_load(base + 8);
            V8d cur2 = v8_load(base + 16);
            V8d cur3 = v8_load(base + 24);
            for (std::size_t i = 0; i < nseg; ++i) {
              const V8d cv = V8d{} + cseg[i];
              const V8d sv = V8d{} + sseg[i];
              const V8d nv = V8d{} - sv;
              double* up = base + i * st;
              const V8d nxt0 = v8_load(up + st);
              const V8d nxt1 = v8_load(up + st + 8);
              const V8d nxt2 = v8_load(up + st + 16);
              const V8d nxt3 = v8_load(up + st + 24);
              v8_store(up, v8_fma(cv, cur0, sv * nxt0));
              v8_store(up + 8, v8_fma(cv, cur1, sv * nxt1));
              v8_store(up + 16, v8_fma(cv, cur2, sv * nxt2));
              v8_store(up + 24, v8_fma(cv, cur3, sv * nxt3));
              cur0 = v8_fma(cv, nxt0, nv * cur0);
              cur1 = v8_fma(cv, nxt1, nv * cur1);
              cur2 = v8_fma(cv, nxt2, nv * cur2);
              cur3 = v8_fma(cv, nxt3, nv * cur3);
            }
            double* last = base + nseg * st;
            v8_store(last, cur0);
            v8_store(last + 8, cur1);
            v8_store(last + 16, cur2);
            v8_store(last + 24, cur3);
          }
          for (; o + 8 <= tw; o += 8) {
            double* base = tile.data() + q0 * st + o;
            V8d cur = v8_load(base);
            for (std::size_t i = 0; i < nseg; ++i) {
              const V8d cv = V8d{} + cseg[i];
              const V8d sv = V8d{} + sseg[i];
              double* up = base + i * st;
              const V8d nxt = v8_load(up + st);
              v8_store(up, v8_fma(cv, cur, sv * nxt));
              cur = v8_fma(cv, nxt, (V8d{} - sv) * cur);
            }
            v8_store(base + nseg * st, cur);
          }
#endif
          for (; o < tw; ++o) {
            double* base = tile.data() + q0 * st + o;
            double cur = base[0];
            for (std::size_t i = 0; i < nseg; ++i) {
              const double c = cseg[i];
              const double sn = sseg[i];
              double* up = base + i * st;
              const double nxt = up[st];
              up[0] = std::fma(c, cur, sn * nxt);
              cur = std::fma(c, nxt, -sn * cur);
            }
            base[nseg * st] = cur;
          }
          t = t_lo;
        }
      }
    }
    for (std::size_t r = 0; r < rows; ++r) {
      const double* src = tile.data() + r * st;
      double* dst = s.row(r) + lo;
      for (std::size_t k = 0; k < tw; ++k) dst[k] = src[k];
    }
  });
}

// ------------------------------------- divide & conquer tridiagonal stage
//
// Cuppen's method (dstedc/dlaed lineage): split the tridiagonal matrix in
// the middle as T = diag(T1'', T2'') + rho z z^T, solve the halves
// recursively, deflate (negligible z components and near-equal eigenvalue
// pairs, dlaed2 shape), find the surviving secular-equation roots by
// bisection to floating-point fixpoint, rebuild z from the computed roots
// (Gu/Eisenstat) so the secular eigenvectors come out orthogonal to
// working precision, and back-multiply through the merge as one GEMM. The
// recursion tree and every scan are serial and depend only on the data;
// the root solves and the GEMM partition disjoint outputs - bitwise
// identical for any thread count.

constexpr std::size_t kDcBase = 40;  ///< below this, tql2 solves directly


/// One secular root: lambda_j = dhat[origin] + tau, stored split so the
/// eigenvector denominators (dhat[i] - dhat[origin]) - tau stay accurate
/// next to the poles.
struct SecularRoot {
  std::size_t origin = 0;
  double tau = 0.0;
};

/// Secular function f(tau) = 1 + rho * sum_i zhat[i]^2 / (delta[i] - tau)
/// with delta[i] = dhat[i] - dhat[origin]; strictly increasing between
/// consecutive poles.
double secular_f(const std::vector<double>& delta,
                 const std::vector<double>& z2, double rho, double tau) {
  double sum = 0.0;
  const std::size_t k = delta.size();
  for (std::size_t i = 0; i < k; ++i) sum += z2[i] / (delta[i] - tau);
  return 1.0 + rho * sum;
}

/// psi/phi split sums and derivatives in one pass: psi ranges over poles
/// i < split, phi over i >= split, with psi = sum z2[i] / (delta[i] -
/// tau) and psip its derivative sum z2[i] / (delta[i] - tau)^2 (phi,
/// phip likewise). Fixed-width independent partial sums (same
/// determinism argument as dot_range: the accumulation order is a
/// function of the index range alone, never of the thread count).
void secular_sums(const double* __restrict delta,
                  const double* __restrict z2, std::size_t begin,
                  std::size_t end, double tau, double& sum, double& dsum) {
  std::size_t i = begin;
  double s_head = 0.0;
  double d_head = 0.0;
#if NDFT_GEMM_SIMD
  V8d sv{};
  V8d dv{};
  const V8d tv = V8d{} + tau;
  for (; i + 8 <= end; i += 8) {
    const V8d inv = (V8d{} + 1.0) / (v8_load(delta + i) - tv);
    const V8d term = v8_load(z2 + i) * inv;
    sv += term;
    dv += term * inv;
  }
  double sl[8];
  double dl[8];
  __builtin_memcpy(sl, &sv, sizeof(sl));
  __builtin_memcpy(dl, &dv, sizeof(dl));
  s_head = ((sl[0] + sl[1]) + (sl[2] + sl[3])) +
           ((sl[4] + sl[5]) + (sl[6] + sl[7]));
  d_head = ((dl[0] + dl[1]) + (dl[2] + dl[3])) +
           ((dl[4] + dl[5]) + (dl[6] + dl[7]));
#endif
  for (; i < end; ++i) {
    const double inv = 1.0 / (delta[i] - tau);
    const double term = z2[i] * inv;
    s_head += term;
    d_head += term * inv;
  }
  sum = s_head;
  dsum = d_head;
}

/// Finds the secular root on (tau_lo, tau_hi), where f < 0 at the left
/// end and f > 0 at the right (limits at the poles). dlaed4's "middle
/// way": each step splits f into psi (poles at or left of the bracket)
/// and phi (poles right of it), fits one rational term per side to the
/// sub-sum's value AND derivative at the iterate, and jumps to the root
/// of the fitted model c + A/(dj - t) + B/(dj1 - t) - a quadratic in t.
/// Matching the derivative makes the iteration quadratically convergent
/// even when the root hugs a pole, where plain Newton crawls; iteration
/// stops when |f| falls under a few eps of the sum's own magnitude (the
/// terms then cancel to roundoff, so no iterate can do better). The
/// sign-change bracket is kept at every step as a safeguard, a model
/// step outside it falls back to the midpoint, and a bounded iteration
/// cap finishes with pure bisection. `split` is the first phi pole
/// (split == k for the half-open last interval, which degrades the model
/// to its one-pole form). Fully serial and data-dependent only -
/// deterministic for any thread count.
double secular_solve(const std::vector<double>& delta,
                     const std::vector<double>& z2, double rho,
                     std::size_t split, double tau_lo, double tau_hi) {
  const std::size_t k = delta.size();
  double tau = 0.5 * (tau_lo + tau_hi);
  if (tau <= std::min(tau_lo, tau_hi) || tau >= std::max(tau_lo, tau_hi)) {
    return tau;  // bracket already spans at most one ulp
  }
  const double eps = std::numeric_limits<double>::epsilon();
  const double dj = delta[split - 1];
  const double dj1 = split < k ? delta[split] : 0.0;
  for (int iter = 0; iter < 64; ++iter) {
    double psi;
    double psip;
    double phi;
    double phip;
    secular_sums(delta.data(), z2.data(), 0, split, tau, psi, psip);
    secular_sums(delta.data(), z2.data(), split, k, tau, phi, phip);
    const double f = 1.0 + rho * (psi + phi);
    const double ftol =
        8.0 * eps * (1.0 + std::fabs(rho) * (std::fabs(psi) + std::fabs(phi)));
    if (std::fabs(f) <= ftol) return tau;
    if (f > 0.0) {
      tau_hi = tau;
    } else {
      tau_lo = tau;
    }
    const double blo = std::min(tau_lo, tau_hi);
    const double bhi = std::max(tau_lo, tau_hi);
    double next = tau - f / (rho * (psip + phip));  // Newton fallback
    const double wj = dj - tau;
    const double a_fit = rho * psip * wj * wj;    // pole weight at dj
    const double c1 = psi - psip * wj;            // psi's smooth part
    if (split < k) {
      const double wj1 = dj1 - tau;
      const double b_fit = rho * phip * wj1 * wj1;
      const double c2 = phi - phip * wj1;
      const double c = 1.0 + rho * (c1 + c2);
      // c + A/(dj - t) + B/(dj1 - t) = 0, denominators cleared:
      // c*t^2 - (c*(dj + dj1) + A + B)*t + (c*dj*dj1 + A*dj1 + B*dj) = 0
      const double qa = c;
      const double qb = -(c * (dj + dj1) + a_fit + b_fit);
      const double qc = c * dj * dj1 + a_fit * dj1 + b_fit * dj;
      if (qa != 0.0) {
        const double disc = qb * qb - 4.0 * qa * qc;
        if (disc >= 0.0) {
          const double sq = std::sqrt(disc);
          const double q = -0.5 * (qb + sign_of(sq, qb));
          const double r1 = q / qa;
          const double r2 = q != 0.0 ? qc / q : r1;
          const bool in1 = r1 > dj && r1 < dj1;
          const bool in2 = r2 > dj && r2 < dj1;
          if (in1 && !in2) {
            next = r1;
          } else if (in2 && !in1) {
            next = r2;
          } else if (in1 && in2) {
            next = std::fabs(r1 - tau) < std::fabs(r2 - tau) ? r1 : r2;
          }
        }
      } else if (qb != 0.0) {
        next = qc / qb;  // smooth part vanished: the model is linear
      }
    } else {
      // Half-open last interval: one fitted pole plus the constant.
      const double c = 1.0 + rho * (c1 + phi);
      if (c != 0.0) next = dj + a_fit / c;
    }
    if (!(next > blo && next < bhi)) next = 0.5 * (tau_lo + tau_hi);
    if (next == tau || next <= blo || next >= bhi) {
      return next == tau ? tau : 0.5 * (tau_lo + tau_hi);
    }
    tau = next;
  }
  // The model cycled without collapsing the bracket: finish by bisection.
  for (;;) {
    const double mid = 0.5 * (tau_lo + tau_hi);
    if (mid <= std::min(tau_lo, tau_hi) || mid >= std::max(tau_lo, tau_hi)) {
      break;
    }
    if (secular_f(delta, z2, rho, mid) > 0.0) {
      tau_hi = mid;
    } else {
      tau_lo = mid;
    }
  }
  return 0.5 * (tau_lo + tau_hi);
}

void dc_recurse(std::vector<double>& d, std::vector<double>& e,
                std::size_t lo, std::size_t hi, RealMatrix& q);

/// Merges the two solved halves of [lo, hi): deflation, secular roots,
/// Gu/Eisenstat z rebuild, GEMM back-multiply. `beta` is the original
/// coupling e[mid]; q1/q2 are the halves' eigenvector matrices.
void dc_merge(std::vector<double>& d, std::size_t lo, std::size_t mid,
              std::size_t hi, double beta, const RealMatrix& q1,
              const RealMatrix& q2, RealMatrix& q) {
  const std::size_t m1 = mid - lo;
  const std::size_t m2 = hi - mid;
  const std::size_t m = m1 + m2;
  const double rho = 2.0 * std::fabs(beta);
  const double inv_sqrt2 = 1.0 / std::sqrt(2.0);
  const double sgn = beta >= 0.0 ? 1.0 : -1.0;

  // Stable merge of the two sorted spectra (first block wins ties), with
  // the rank-one vector z = [S1^T w1; +/- S2^T w2] / sqrt(2) permuted
  // alongside.
  std::vector<std::size_t> perm(m);
  {
    std::size_t i = 0, j = 0, t = 0;
    while (i < m1 || j < m2) {
      if (j >= m2 || (i < m1 && d[lo + i] <= d[mid + j])) {
        perm[t++] = i++;
      } else {
        perm[t++] = m1 + j++;
      }
    }
  }
  std::vector<double> ds(m);
  std::vector<double> zs(m);
  // Row-block support of each qm column (bit 0: rows [0, m1), bit 1:
  // rows [m1, m)) - block-diagonal until a type-2 deflation rotation
  // mixes a pair across the split. The back-multiply GEMM below is
  // restricted per row block to the columns with support there.
  std::vector<std::uint8_t> support(m);
  for (std::size_t t = 0; t < m; ++t) {
    const std::size_t src = perm[t];
    ds[t] = d[lo + src];
    zs[t] = src < m1 ? inv_sqrt2 * q1(m1 - 1, src)
                     : sgn * inv_sqrt2 * q2(0, src - m1);
    support[t] = src < m1 ? 1 : 2;
  }
  // Block-diagonal eigenvector matrix with the same column permutation,
  // filled row-wise: writes stay contiguous and the reads gather within
  // one source row (column-wise filling would store with stride m - the
  // 4 KiB critical stride at the top merge).
  RealMatrix qm(m, m);
  parallel_for(0, m, eig_grain(m), [&](std::size_t rlo, std::size_t rhi) {
    for (std::size_t r = rlo; r < rhi; ++r) {
      double* dst = qm.row(r);
      if (r < m1) {
        const double* srow = q1.row(r);
        for (std::size_t t = 0; t < m; ++t) {
          const std::size_t src = perm[t];
          if (src < m1) dst[t] = srow[src];
        }
      } else {
        const double* srow = q2.row(r - m1);
        for (std::size_t t = 0; t < m; ++t) {
          const std::size_t src = perm[t];
          if (src >= m1) dst[t] = srow[src - m1];
        }
      }
    }
  });

  // Deflation scan (dlaed2 shape). Type 1: rho*|z| negligible. Type 2:
  // near-equal eigenvalue pair - a Givens rotation on (z_prev, z_cur) and
  // the matching qm columns zeroes z_prev at an off-diagonal cost below
  // tolerance. Serial scan; the order is part of the determinism contract.
  const double eps = std::numeric_limits<double>::epsilon();
  double dmax = 0.0;
  double zmax = 0.0;
  for (std::size_t t = 0; t < m; ++t) {
    dmax = std::max(dmax, std::fabs(ds[t]));
    zmax = std::max(zmax, std::fabs(zs[t]));
  }
  const double tol = 8.0 * eps * std::max(dmax, rho * zmax);
  std::vector<std::size_t> keep;     // surviving (non-deflated) indices
  std::vector<std::size_t> deflated;
  keep.reserve(m);
  for (std::size_t t = 0; t < m; ++t) {
    if (rho * std::fabs(zs[t]) <= tol) {
      deflated.push_back(t);
      continue;
    }
    if (!keep.empty()) {
      const std::size_t prev = keep.back();
      const double zp = zs[prev];
      const double zc = zs[t];
      const double r = pythag(zp, zc);
      const double c = zc / r;
      const double s = -zp / r;
      if (std::fabs((ds[t] - ds[prev]) * c * s) <= tol) {
        // Rotate columns (prev, t) of qm and fold the pair: prev deflates
        // with the mixed eigenvalue, t survives carrying |z| = r.
        zs[prev] = 0.0;
        zs[t] = r;
        const double dp = ds[prev];
        const double dc_ = ds[t];
        ds[prev] = c * c * dp + s * s * dc_;
        ds[t] = s * s * dp + c * c * dc_;
        for (std::size_t row = 0; row < m; ++row) {
          const double qp = qm(row, prev);
          const double qc = qm(row, t);
          qm(row, prev) = c * qp + s * qc;
          qm(row, t) = c * qc - s * qp;
        }
        support[t] |= support[prev];
        support[prev] = support[t];
        keep.back() = t;
        deflated.push_back(prev);
        continue;
      }
    }
    keep.push_back(t);
  }
  const std::size_t k = keep.size();

  std::vector<double> dout(m);
  RealMatrix qout(m, m);
  if (k == 0) {
    // Fully deflated (e.g. beta == 0): the merge is a pure column
    // permutation of the deflated set, sorted by eigenvalue.
    std::stable_sort(deflated.begin(), deflated.end(),
                     [&](std::size_t x, std::size_t y) {
                       return ds[x] < ds[y];
                     });
    for (std::size_t t = 0; t < m; ++t) dout[t] = ds[deflated[t]];
    parallel_for(0, m, eig_grain(m),
                 [&](std::size_t rlo, std::size_t rhi) {
                   for (std::size_t r = rlo; r < rhi; ++r) {
                     const double* srow = qm.row(r);
                     double* dst = qout.row(r);
                     for (std::size_t t = 0; t < m; ++t) {
                       dst[t] = srow[deflated[t]];
                     }
                   }
                 });
    for (std::size_t t = 0; t < m; ++t) d[lo + t] = dout[t];
    q = std::move(qout);
    return;
  }

  // Secular roots: root j lives in (dhat[j], dhat[j+1]) (the last one in
  // (dhat[k-1], dhat[k-1] + rho ||zhat||^2]). The origin pole is picked by
  // the sign of f at the interval midpoint, and the root is stored as
  // (origin, tau) for accurate eigenvector denominators.
  std::vector<double> dhat(k);
  std::vector<double> zhat(k);
  for (std::size_t j = 0; j < k; ++j) {
    dhat[j] = ds[keep[j]];
    zhat[j] = zs[keep[j]];
  }
  double znorm2 = 0.0;
  for (std::size_t j = 0; j < k; ++j) znorm2 += zhat[j] * zhat[j];
  std::vector<SecularRoot> roots(k);
  parallel_for(0, k, eig_grain(64 * k), [&](std::size_t jlo,
                                            std::size_t jhi) {
    std::vector<double> delta(k);
    std::vector<double> z2(k);
    for (std::size_t i = 0; i < k; ++i) z2[i] = zhat[i] * zhat[i];
    for (std::size_t j = jlo; j < jhi; ++j) {
      SecularRoot root;
      if (j + 1 < k) {
        const double width = dhat[j + 1] - dhat[j];
        // f at the interval midpoint decides which pole anchors tau.
        for (std::size_t i = 0; i < k; ++i) delta[i] = dhat[i] - dhat[j];
        double fmid = 0.0;
        double unused = 0.0;
        secular_sums(delta.data(), z2.data(), 0, k, 0.5 * width, fmid,
                     unused);
        fmid = 1.0 + rho * fmid;
        if (fmid >= 0.0) {
          root.origin = j;
          root.tau =
              secular_solve(delta, z2, rho, j + 1, 0.0, 0.5 * width);
        } else {
          root.origin = j + 1;
          for (std::size_t i = 0; i < k; ++i) {
            delta[i] = dhat[i] - dhat[j + 1];
          }
          root.tau =
              secular_solve(delta, z2, rho, j + 1, -0.5 * width, 0.0);
        }
      } else {
        root.origin = k - 1;
        for (std::size_t i = 0; i < k; ++i) {
          delta[i] = dhat[i] - dhat[k - 1];
        }
        root.tau = secular_solve(delta, z2, rho, k, 0.0, rho * znorm2);
      }
      roots[j] = root;
    }
  });


  // Gu/Eisenstat: rebuild zhat from the computed roots so the analytic
  // eigenvector formula is orthogonal to working precision. Every factor
  // is positive by interlacing; the sign comes from the original zhat.
  std::vector<double> zre(k);
  parallel_for(0, k, eig_grain(8 * k), [&](std::size_t ilo,
                                           std::size_t ihi) {
    for (std::size_t i = ilo; i < ihi; ++i) {
      const double di = dhat[i];
      double prod =
          (dhat[roots[k - 1].origin] - di) + roots[k - 1].tau;
      for (std::size_t j = 0; j < i; ++j) {
        const double num = (dhat[roots[j].origin] - di) + roots[j].tau;
        prod *= num / (dhat[j] - di);
      }
      for (std::size_t j = i; j + 1 < k; ++j) {
        const double num = (dhat[roots[j].origin] - di) + roots[j].tau;
        prod *= num / (dhat[j + 1] - di);
      }
      zre[i] = sign_of(std::sqrt(std::fabs(prod)), zhat[i]);
    }
  });

  // Secular eigenvectors, rows of ut (ut(j, i) = component i of vector j),
  // then the back-multiply Q_keep * U as one GEMM (transpose_b folds the
  // row layout).
  RealMatrix ut(k, k);
  parallel_for(0, k, eig_grain(6 * k), [&](std::size_t jlo,
                                           std::size_t jhi) {
    for (std::size_t j = jlo; j < jhi; ++j) {
      double* row = ut.row(j);
      const double dorg = dhat[roots[j].origin];
      double norm2 = 0.0;
      for (std::size_t i = 0; i < k; ++i) {
        const double denom = (dhat[i] - dorg) - roots[j].tau;
        const double value = zre[i] / denom;
        row[i] = value;
        norm2 += value * value;
      }
      const double inv = 1.0 / std::sqrt(norm2);
      for (std::size_t i = 0; i < k; ++i) row[i] *= inv;
    }
  });
  // Back-multiply Q_keep * U^T, split per row block (dlaed3 shape): a
  // surviving column drawn from the first half is zero below row m1 and
  // vice versa, so each row block multiplies only the columns with
  // support there. With light deflation that halves the flops of the
  // dense m x k x k product; type-2-mixed columns simply join both
  // blocks. The packing is a row-wise gather, and each output block is
  // one GEMM writing disjoint rows - deterministic for any thread count.
  RealMatrix qsec(m, k);
  const std::size_t row_lo[2] = {0, m1};
  const std::size_t row_hi[2] = {m1, m};
  for (int blk = 0; blk < 2; ++blk) {
    const std::uint8_t bit = blk == 0 ? 1 : 2;
    std::vector<std::size_t> jb;
    jb.reserve(k);
    for (std::size_t j = 0; j < k; ++j) {
      if (support[keep[j]] & bit) jb.push_back(j);
    }
    const std::size_t rows = row_hi[blk] - row_lo[blk];
    if (rows == 0) continue;
    const std::size_t kb = jb.size();
    if (kb == 0) {
      for (std::size_t r = row_lo[blk]; r < row_hi[blk]; ++r) {
        double* dst = qsec.row(r);
        for (std::size_t j = 0; j < k; ++j) dst[j] = 0.0;
      }
      continue;
    }
    RealMatrix qpack(rows, kb);
    parallel_for(0, rows, eig_grain(kb),
                 [&](std::size_t rlo, std::size_t rhi) {
                   for (std::size_t r = rlo; r < rhi; ++r) {
                     const double* src = qm.row(row_lo[blk] + r);
                     double* dst = qpack.row(r);
                     for (std::size_t c = 0; c < kb; ++c) {
                       dst[c] = src[keep[jb[c]]];
                     }
                   }
                 });
    RealMatrix upack(k, kb);
    parallel_for(0, k, eig_grain(kb),
                 [&](std::size_t jlo, std::size_t jhi) {
                   for (std::size_t j = jlo; j < jhi; ++j) {
                     const double* src = ut.row(j);
                     double* dst = upack.row(j);
                     for (std::size_t c = 0; c < kb; ++c) {
                       dst[c] = src[jb[c]];
                     }
                   }
                 });
    RealMatrix qblk;
    gemm(qpack, upack, qblk, 1.0, 0.0, /*transpose_a=*/false,
         /*transpose_b=*/true);
    parallel_for(0, rows, eig_grain(k),
                 [&](std::size_t rlo, std::size_t rhi) {
                   for (std::size_t r = rlo; r < rhi; ++r) {
                     const double* src = qblk.row(r);
                     double* dst = qsec.row(row_lo[blk] + r);
                     for (std::size_t j = 0; j < k; ++j) dst[j] = src[j];
                   }
                 });
  }


  // Assemble: merge the sorted secular roots with the sorted deflated set
  // (secular wins ties - a fixed, data-independent rule).
  std::stable_sort(deflated.begin(), deflated.end(),
                   [&](std::size_t x, std::size_t y) {
                     return ds[x] < ds[y];
                   });
  std::vector<double> lambda(k);
  for (std::size_t j = 0; j < k; ++j) {
    lambda[j] = dhat[roots[j].origin] + roots[j].tau;
  }
  // Column sources first, then one row-wise gather pass: per output
  // column either secular vector si or deflated qm column (column-wise
  // copying would write with the stride-m critical stride).
  std::vector<std::uint8_t> from_secular(m);
  std::vector<std::size_t> col_src(m);
  std::size_t si = 0;
  std::size_t di = 0;
  for (std::size_t t = 0; t < m; ++t) {
    const bool take_secular =
        si < k && (di >= deflated.size() || lambda[si] <= ds[deflated[di]]);
    from_secular[t] = take_secular ? 1 : 0;
    if (take_secular) {
      dout[t] = lambda[si];
      col_src[t] = si++;
    } else {
      const std::size_t src = deflated[di++];
      dout[t] = ds[src];
      col_src[t] = src;
    }
  }
  parallel_for(0, m, eig_grain(m),
               [&](std::size_t rlo, std::size_t rhi) {
                 for (std::size_t r = rlo; r < rhi; ++r) {
                   const double* srow_sec = qsec.row(r);
                   const double* srow_defl = qm.row(r);
                   double* dst = qout.row(r);
                   for (std::size_t t = 0; t < m; ++t) {
                     dst[t] = from_secular[t] ? srow_sec[col_src[t]]
                                              : srow_defl[col_src[t]];
                   }
                 }
               });
  for (std::size_t t = 0; t < m; ++t) d[lo + t] = dout[t];
  q = std::move(qout);
}

/// Solves [lo, hi) of the tridiagonal (d, e) recursively; on return
/// d[lo..hi) holds the eigenvalues ascending and q the eigenvectors
/// (column j pairs with d[lo + j]). The split point is a pure function of
/// the size, so the recursion tree is identical for any thread count.
void dc_recurse(std::vector<double>& d, std::vector<double>& e,
                std::size_t lo, std::size_t hi, RealMatrix& q) {
  const std::size_t m = hi - lo;
  if (m <= kDcBase) {
    std::vector<double> dd(d.begin() + static_cast<std::ptrdiff_t>(lo),
                           d.begin() + static_cast<std::ptrdiff_t>(hi));
    std::vector<double> ee(m, 0.0);
    for (std::size_t i = 1; i < m; ++i) ee[i] = e[lo + i];
    RealMatrix z(m, m);
    for (std::size_t i = 0; i < m; ++i) z(i, i) = 1.0;
    tql2(dd, ee, z);
    std::vector<std::size_t> order(m);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&](std::size_t x, std::size_t y) { return dd[x] < dd[y]; });
    q = RealMatrix(m, m);
    for (std::size_t j = 0; j < m; ++j) {
      d[lo + j] = dd[order[j]];
      for (std::size_t i = 0; i < m; ++i) q(i, j) = z(i, order[j]);
    }
    return;
  }
  const std::size_t mid = lo + m / 2;
  const double beta = e[mid];  // couples rows (mid-1, mid)
  const double abeta = std::fabs(beta);
  d[mid - 1] -= abeta;
  d[mid] -= abeta;
  RealMatrix q1;
  RealMatrix q2;
  dc_recurse(d, e, lo, mid, q1);
  dc_recurse(d, e, mid, hi, q2);
  dc_merge(d, lo, mid, hi, beta, q1, q2, q);
}

/// Divide-and-conquer eigendecomposition of the tridiagonal (d, e)
/// (e[i] couples rows i-1 and i, e[0] unused). On return d holds the
/// eigenvalues ascending and q the eigenvectors as columns. The matrix is
/// pre-scaled to unit max-magnitude so the deflation tolerances are
/// scale-free.
void tridiag_dc(std::vector<double>& d, std::vector<double>& e,
                RealMatrix& q) {
  const std::size_t n = d.size();
  q = RealMatrix(n, n);
  if (n == 0) return;
  if (n == 1) {
    q(0, 0) = 1.0;
    return;
  }
  double amax = 0.0;
  for (std::size_t i = 0; i < n; ++i) amax = std::max(amax, std::fabs(d[i]));
  for (std::size_t i = 1; i < n; ++i) amax = std::max(amax, std::fabs(e[i]));
  if (amax == 0.0) {
    for (std::size_t i = 0; i < n; ++i) q(i, i) = 1.0;
    return;
  }
  const double inv = 1.0 / amax;
  for (std::size_t i = 0; i < n; ++i) d[i] *= inv;
  for (std::size_t i = 1; i < n; ++i) e[i] *= inv;
  dc_recurse(d, e, 0, n, q);
  for (std::size_t i = 0; i < n; ++i) d[i] *= amax;
}

// ---------------------------------------------- partial tridiagonal stage
//
// The partial-spectrum path replaces the full tridiagonal eigensolve:
// bisection (Sturm counts) finds the lowest m eigenvalues of the
// tridiagonal matrix, and inverse iteration builds just those m
// eigenvectors. Both stages process independent eigenvalue indices
// (clusters of close eigenvalues are one index group), so they split
// across the pool with disjoint writes and a fixed per-index operation
// order — bitwise identical for any thread count, like every other stage
// of the solver.

/// Bisection runs eigenvalue indices in lock-step lanes: kSturmLanes per
/// vector, up to kSturmGroups vectors swept together.
constexpr std::size_t kSturmLanes = 8;
constexpr std::size_t kSturmGroups = 3;
constexpr std::size_t kSturmBatch = kSturmLanes * kSturmGroups;

/// Bisects for eigenvalues k0 .. k0+count-1 (0-based, ascending, count <=
/// G * kSturmLanes) of the tridiagonal matrix into out[0, count). `d` is
/// the diagonal, `e2[i]` the squared coupling of rows (i-1, i) (e2[0]
/// unused), and every index starts from the bracket [lo, hi], which must
/// satisfy count(lo) <= k < count(hi). count(x), the number of
/// eigenvalues below x, is the number of negative pivots of the LDL^T
/// Sturm recurrence q_i = (d_i - x) - e2_i / q_{i-1}; `pivmin` guards
/// zero pivots (dstebz convention). Each lane halves its own bracket at
/// mid = 0.5 (lo + hi) until no double lies strictly inside it (~60
/// halvings, floating-point fixpoint) and returns hi: count(hi) > k, so
/// the result is determined by the matrix alone.
///
/// One Sturm sweep is a chain of n dependent divisions, so a lone sweep
/// waits out the division latency on every row. Here each row issues G
/// independent vector divisions, which pipeline. Lanes are independent:
/// a converged lane keeps its bracket (its further sweeps are discarded)
/// until the whole batch has converged, so each lane's sequence is
/// exactly that of bisecting its index alone.
template <std::size_t G>
void sturm_bisect_lanes(const std::vector<double>& d,
                        const std::vector<double>& e2, double pivmin,
                        double lo, double hi, std::size_t k0,
                        std::size_t count, double* out) {
  const std::size_t n = d.size();
  const V8d zero{};
  const V8d pivmin_v = zero + pivmin;
  const V8d neg_pivmin_v = zero - pivmin;
  V8d lo_v[G];
  V8d hi_v[G];
  V8l k_v[G];
  for (std::size_t g = 0; g < G; ++g) {
    lo_v[g] = zero + lo;
    hi_v[g] = zero + hi;
    for (std::size_t l = 0; l < kSturmLanes; ++l) {
      // Tail lanes repeat the last index; their results are dropped.
      k_v[g][l] = static_cast<std::int64_t>(
          k0 + std::min(g * kSturmLanes + l, count - 1));
    }
  }
  for (;;) {
    V8d x[G];
    V8l live[G];
    V8l any_live{};
    for (std::size_t g = 0; g < G; ++g) {
      x[g] = 0.5 * (lo_v[g] + hi_v[g]);
      live[g] = (x[g] > lo_v[g]) & (x[g] < hi_v[g]);
      any_live |= live[g];
    }
    bool running = false;
    for (std::size_t l = 0; l < kSturmLanes; ++l) {
      running |= any_live[l] != 0;
    }
    if (!running) break;
    V8d q[G];
    V8l below[G];  // count(x) per lane: a true compare is -1
    for (std::size_t g = 0; g < G; ++g) {
      q[g] = d[0] - x[g];
      below[g] = -(q[g] < zero);
    }
    for (std::size_t i = 1; i < n; ++i) {
      const double di = d[i];
      const double e2i = e2[i];
      for (std::size_t g = 0; g < G; ++g) {
        // |q| < pivmin, written as a range test on the vector.
        q[g] = ((q[g] < pivmin_v) & (q[g] > neg_pivmin_v)) ? neg_pivmin_v
                                                           : q[g];
        q[g] = (di - x[g]) - e2i / q[g];
        below[g] -= q[g] < zero;
      }
    }
    for (std::size_t g = 0; g < G; ++g) {
      const V8l above = below[g] > k_v[g];
      hi_v[g] = (live[g] & above) ? x[g] : hi_v[g];
      lo_v[g] = (live[g] & ~above) ? x[g] : lo_v[g];
    }
  }
  for (std::size_t c = 0; c < count; ++c) {
    out[c] = hi_v[c / kSturmLanes][c % kSturmLanes];
  }
}

/// Solves (T - lambda I) x = b in place by Gaussian elimination with
/// partial pivoting (dgttrf/dgttrs shape, refactored per call — the solve
/// is O(n) either way). `e[i]` couples rows (i-1, i); zero pivots are
/// nudged to pivmin so exactly-converged shifts cannot divide by zero.
void tridiag_shifted_solve(const std::vector<double>& d,
                           const std::vector<double>& e, double lambda,
                           double pivmin, std::vector<double>& x,
                           std::vector<double>& diag,
                           std::vector<double>& upper,
                           std::vector<double>& upper2) {
  const std::size_t n = d.size();
  diag.resize(n);
  upper.resize(n);
  upper2.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    diag[i] = d[i] - lambda;
    upper[i] = (i + 1 < n) ? e[i + 1] : 0.0;  // T(i, i+1)
    upper2[i] = 0.0;                          // fill-in from row swaps
  }
  // Forward elimination, pivoting between rows i and i+1. Row swaps fold
  // into the stored upper diagonals; the multiplier applies to x directly.
  for (std::size_t i = 0; i + 1 < n; ++i) {
    const double sub = e[i + 1];  // T(i+1, i), untouched by earlier steps
    if (std::fabs(diag[i]) >= std::fabs(sub)) {
      const double pivot =
          std::fabs(diag[i]) < pivmin ? sign_of(pivmin, diag[i]) : diag[i];
      const double mult = sub / pivot;
      diag[i] = pivot;
      diag[i + 1] -= mult * upper[i];
      x[i + 1] -= mult * x[i];
    } else {
      // Swap rows i and i+1; row i+1's upper element becomes fill-in.
      const double mult = diag[i] / sub;
      diag[i] = sub;
      const double old_upper = upper[i];
      upper[i] = diag[i + 1];
      upper2[i] = upper[i + 1];
      diag[i + 1] = old_upper - mult * upper[i];
      upper[i + 1] = -mult * upper2[i];
      std::swap(x[i], x[i + 1]);
      x[i + 1] -= mult * x[i];
    }
  }
  if (std::fabs(diag[n - 1]) < pivmin) {
    diag[n - 1] = sign_of(pivmin, diag[n - 1]);
  }
  // Back substitution.
  x[n - 1] /= diag[n - 1];
  if (n >= 2) {
    x[n - 2] = (x[n - 2] - upper[n - 2] * x[n - 1]) / diag[n - 2];
    for (std::size_t i = n - 2; i-- > 0;) {
      x[i] = (x[i] - upper[i] * x[i + 1] - upper2[i] * x[i + 2]) / diag[i];
    }
  }
}

/// The scales bisection derives from the tridiagonal matrix, which
/// inverse iteration reuses: the zero-pivot guard and the Gershgorin
/// norm bound.
struct TridiagScales {
  double pivmin = 0.0;
  double anorm = 0.0;
};

/// Lowest m eigenvalues of the tridiagonal matrix (d, e) by bisection,
/// ascending, into `eigenvalues`.
TridiagScales tridiag_lowest_values(const std::vector<double>& d,
                                    const std::vector<double>& e,
                                    std::size_t m,
                                    std::vector<double>& eigenvalues) {
  const std::size_t n = d.size();
  std::vector<double> e2(n, 0.0);
  double emax2 = 1.0;
  for (std::size_t i = 1; i < n; ++i) {
    e2[i] = e[i] * e[i];
    emax2 = std::max(emax2, e2[i]);
  }
  const double pivmin = std::numeric_limits<double>::min() * emax2;

  // Gershgorin bounds, widened by a few ulps so the count invariants
  // (count(lo) == 0, count(hi) == n) hold strictly.
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

  eigenvalues.assign(m, 0.0);
  static_assert(kSturmGroups == 3, "the group dispatch below lists 1..3");
  parallel_for(
      0, ceil_div(m, kSturmBatch), eig_grain(64 * n * kSturmBatch),
      [&](std::size_t blo, std::size_t bhi) {
        for (std::size_t b = blo; b < bhi; ++b) {
          const std::size_t k0 = b * kSturmBatch;
          const std::size_t count = std::min(kSturmBatch, m - k0);
          double* out = eigenvalues.data() + k0;
          switch (ceil_div(count, kSturmLanes)) {
            case 1:
              sturm_bisect_lanes<1>(d, e2, pivmin, lo, hi, k0, count, out);
              break;
            case 2:
              sturm_bisect_lanes<2>(d, e2, pivmin, lo, hi, k0, count, out);
              break;
            default:
              sturm_bisect_lanes<3>(d, e2, pivmin, lo, hi, k0, count, out);
              break;
          }
        }
      });
  return {pivmin, anorm};
}

/// Eigenvectors of the tridiagonal matrix (d, e) for its lowest
/// eigenvalues (tridiag_lowest_values, which also supplied `scales`) by
/// inverse iteration (dstein shape: clusters of close eigenvalues are
/// orthogonalised against their earlier members every iteration, with
/// ulp-scale shift perturbations separating exact degeneracies). Vectors
/// land in the rows of `vt` (m x n).
void tridiag_lowest_vectors(const std::vector<double>& d,
                            const std::vector<double>& e,
                            std::span<const double> eigenvalues,
                            TridiagScales scales, RealMatrix& vt) {
  const std::size_t n = d.size();
  const std::size_t m = eigenvalues.size();
  const double pivmin = scales.pivmin;
  const double anorm = scales.anorm;
  // Cluster boundaries: consecutive eigenvalues closer than the dstein
  // orthogonalisation threshold iterate as one group, so their vectors
  // are re-orthogonalised against each other every inverse-iteration
  // pass. The grouping depends only on the eigenvalues.
  const double cluster_tol =
      1e-3 * std::max(anorm, std::numeric_limits<double>::min());
  std::vector<std::size_t> cluster_starts{0};
  for (std::size_t k = 1; k < m; ++k) {
    if (eigenvalues[k] - eigenvalues[k - 1] > cluster_tol) {
      cluster_starts.push_back(k);
    }
  }
  cluster_starts.push_back(m);

  vt.reset(m, n);
  const double eps = std::numeric_limits<double>::epsilon();
  parallel_for(
      0, cluster_starts.size() - 1, 1, [&](std::size_t clo, std::size_t chi) {
        std::vector<double> diag, upper, upper2;
        for (std::size_t c = clo; c < chi; ++c) {
          const std::size_t begin = cluster_starts[c];
          const std::size_t end = cluster_starts[c + 1];
          for (std::size_t k = begin; k < end; ++k) {
            // Exact degeneracies make (T - lambda I) singular in the same
            // direction for every member; an index-scaled ulp nudge plus
            // the per-pass orthogonalisation separates them (dstein).
            const double shift =
                eigenvalues[k] +
                static_cast<double>(k - begin) * 2.0 * eps * anorm;
            double* v = vt.row(k);
            Prng prng(0x9e1d5eedull + 1000003ull * k);
            std::vector<double> x(n);
            for (std::size_t i = 0; i < n; ++i) {
              x[i] = prng.next_double(-0.5, 0.5);
            }
            const auto orthogonalise_normalise = [&]() {
              for (std::size_t j = begin; j < k; ++j) {
                const double* u = vt.row(j);
                double dot = 0.0;
                for (std::size_t i = 0; i < n; ++i) dot += u[i] * x[i];
                for (std::size_t i = 0; i < n; ++i) x[i] -= dot * u[i];
              }
              double norm2 = 0.0;
              for (const double value : x) norm2 += value * value;
              if (!(norm2 > 0.0) || !std::isfinite(norm2)) {
                return false;
              }
              const double inv = 1.0 / std::sqrt(norm2);
              for (double& value : x) value *= inv;
              return true;
            };
            for (unsigned pass = 0; pass < 4; ++pass) {
              tridiag_shifted_solve(d, e, shift, pivmin, x, diag, upper,
                                    upper2);
              if (!orthogonalise_normalise()) {
                // Degenerate start (orthogonalised away or overflowed):
                // restart from the next deterministic random vector.
                for (std::size_t i = 0; i < n; ++i) {
                  x[i] = prng.next_double(-0.5, 0.5);
                }
              }
            }
            if (!orthogonalise_normalise()) {
              // Pathological fallback: a canonical basis vector made
              // orthogonal to the cluster prefix (still deterministic).
              std::fill(x.begin(), x.end(), 0.0);
              x[k % n] = 1.0;
              (void)orthogonalise_normalise();
            }
            std::copy(x.begin(), x.end(), v);
          }
        }
      });
}

/// Sorts eigenvalues ascending, permuting eigenvector columns to match.
void sort_eigenpairs(const std::vector<double>& d, const RealMatrix& z,
                     EigenResult& result) {
  const std::size_t n = d.size();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](std::size_t x, std::size_t y) { return d[x] < d[y]; });
  result.eigenvalues.resize(n);
  RealMatrix sorted(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    result.eigenvalues[j] = d[order[j]];
    for (std::size_t i = 0; i < n; ++i) {
      sorted(i, j) = z(i, order[j]);
    }
  }
  result.eigenvectors = std::move(sorted);
}

/// Conjugates complex values when `Conj`; the identity for doubles.
template <bool Conj, typename T>
T maybe_conj(const T& value) {
  if constexpr (Conj && !std::is_same_v<T, double>) {
    return std::conj(value);
  } else {
    return value;
  }
}

// ------------------------------------------------------------ GEMM layer
//
// BLIS-style blocking: C is computed in (kMc x kNr)-tall bands. op(A) and
// op(B) blocks are packed into contiguous micro-panels (the transpose /
// conjugation is absorbed by the packing, so whole-operand copies never
// happen), and an (kMr x kNr) register-tile microkernel runs over the
// packed panels. Row blocks are independent, so they are spread across
// the thread pool; every C element sees k-terms in the same order
// regardless of the thread count, keeping results bitwise deterministic.

constexpr std::size_t kMr = 6;    ///< microkernel rows (register tile)
constexpr std::size_t kNr = 16;   ///< microkernel cols (two AVX-512 lanes)
constexpr std::size_t kMc = 96;   ///< row block, multiple of kMr
constexpr std::size_t kKc = 240;  ///< depth block (packed panels stay hot)
constexpr std::size_t kNc = 2016; ///< column block, multiple of kNr

/// Below this op(A)*op(B) volume (m*n*k) the packing overhead dominates
/// and the reference loop wins; also keeps tiny products allocation-free.
constexpr std::size_t kSmallGemmVolume = 32768;

/// Packs an (mc x kc) block of op(A) into kMr-row micro-panels,
/// zero-padding the row remainder. Panel p holds rows [p*kMr, p*kMr+kMr)
/// in k-major order: element (i, l) of the block at p*kMr*kc + l*kMr + i.
template <bool Transpose, bool Conj, typename T>
void pack_a_block(const Matrix<T>& a, std::size_t row0, std::size_t col0,
                  std::size_t mc, std::size_t kc, T* buffer) {
  for (std::size_t ip = 0; ip < mc; ip += kMr) {
    const std::size_t rows = std::min(kMr, mc - ip);
    for (std::size_t l = 0; l < kc; ++l) {
      for (std::size_t i = 0; i < kMr; ++i) {
        T value{};
        if (i < rows) {
          value = Transpose
                      ? maybe_conj<Conj>(a(col0 + l, row0 + ip + i))
                      : a(row0 + ip + i, col0 + l);
        }
        *buffer++ = value;
      }
    }
  }
}

/// Packs a (kc x nc) block of op(B) into kNr-column micro-panels,
/// zero-padding the column remainder: element (l, j) of panel p sits at
/// p*kNr*kc + l*kNr + j.
template <bool Transpose, typename T>
void pack_b_block(const Matrix<T>& b, std::size_t row0, std::size_t col0,
                  std::size_t kc, std::size_t nc, T* buffer) {
  for (std::size_t jp = 0; jp < nc; jp += kNr) {
    const std::size_t cols = std::min(kNr, nc - jp);
    for (std::size_t l = 0; l < kc; ++l) {
      for (std::size_t j = 0; j < kNr; ++j) {
        T value{};
        if (j < cols) {
          value = Transpose ? b(col0 + jp + j, row0 + l)
                            : b(row0 + l, col0 + jp + j);
        }
        *buffer++ = value;
      }
    }
  }
}

/// Register-tile kernel: acc(kMr x kNr) += Apanel * Bpanel over kc terms.
/// The double path names every accumulator lane explicitly — compilers
/// reliably spill a 2D accumulator array to the stack, which costs an
/// order of magnitude here — and the generic path (complex, non-AVX512
/// builds) uses plain loops with compile-time extents.
template <typename T>
void micro_kernel(std::size_t kc, const T* __restrict a_panel,
                  const T* __restrict b_panel, T* __restrict acc) {
#if NDFT_GEMM_SIMD
  if constexpr (std::is_same_v<T, double>) {
    static_assert(kMr == 6 && kNr == 16, "tile shape is hard-wired below");
    V8d c00{}, c01{}, c10{}, c11{}, c20{}, c21{};
    V8d c30{}, c31{}, c40{}, c41{}, c50{}, c51{};
    for (std::size_t l = 0; l < kc; ++l) {
      const double* a = a_panel + l * kMr;
      const V8d b0 = v8_load(b_panel + l * kNr);
      const V8d b1 = v8_load(b_panel + l * kNr + 8);
      V8d av;
      av = V8d{} + a[0]; c00 = v8_fma(av, b0, c00); c01 = v8_fma(av, b1, c01);
      av = V8d{} + a[1]; c10 = v8_fma(av, b0, c10); c11 = v8_fma(av, b1, c11);
      av = V8d{} + a[2]; c20 = v8_fma(av, b0, c20); c21 = v8_fma(av, b1, c21);
      av = V8d{} + a[3]; c30 = v8_fma(av, b0, c30); c31 = v8_fma(av, b1, c31);
      av = V8d{} + a[4]; c40 = v8_fma(av, b0, c40); c41 = v8_fma(av, b1, c41);
      av = V8d{} + a[5]; c50 = v8_fma(av, b0, c50); c51 = v8_fma(av, b1, c51);
    }
    const V8d rows[12] = {c00, c01, c10, c11, c20, c21,
                          c30, c31, c40, c41, c50, c51};
    __builtin_memcpy(acc, rows, sizeof(rows));
    return;
  }
#endif
  for (std::size_t l = 0; l < kc; ++l) {
    const T* a = a_panel + l * kMr;
    const T* b = b_panel + l * kNr;
    for (std::size_t i = 0; i < kMr; ++i) {
      const T aval = a[i];
      T* row = acc + i * kNr;
      for (std::size_t j = 0; j < kNr; ++j) {
        row[j] += aval * b[j];
      }
    }
  }
}

/// Reference triple loop (also the small-product fast path): transposition
/// read through indexing, no operand copies, no branches in the k loop.
template <bool TransposeA, bool TransposeB, bool ConjA, typename T>
void gemm_reference(const Matrix<T>& a, const Matrix<T>& b, Matrix<T>& c,
                    T alpha, T beta, std::size_t m, std::size_t n,
                    std::size_t k) {
  for (std::size_t i = 0; i < m; ++i) {
    T* crow = c.row(i);
    if (beta == T{}) {
      std::fill(crow, crow + n, T{});
    } else if (beta != T{1.0}) {
      for (std::size_t j = 0; j < n; ++j) crow[j] *= beta;
    }
    for (std::size_t l = 0; l < k; ++l) {
      const T aval =
          alpha * (TransposeA ? maybe_conj<ConjA>(a(l, i)) : a(i, l));
      if constexpr (TransposeB) {
        for (std::size_t j = 0; j < n; ++j) {
          crow[j] += aval * b(j, l);
        }
      } else {
        const T* brow = b.row(l);
        for (std::size_t j = 0; j < n; ++j) {
          crow[j] += aval * brow[j];
        }
      }
    }
  }
}

template <typename T>
void gemm_reference_dispatch(const Matrix<T>& a, const Matrix<T>& b,
                             Matrix<T>& c, T alpha, T beta, bool transpose_a,
                             bool transpose_b, std::size_t m, std::size_t n,
                             std::size_t k) {
  if (transpose_a) {
    if (transpose_b) {
      gemm_reference<true, true, true>(a, b, c, alpha, beta, m, n, k);
    } else {
      gemm_reference<true, false, true>(a, b, c, alpha, beta, m, n, k);
    }
  } else {
    if (transpose_b) {
      gemm_reference<false, true, true>(a, b, c, alpha, beta, m, n, k);
    } else {
      gemm_reference<false, false, true>(a, b, c, alpha, beta, m, n, k);
    }
  }
}

/// Shape checks shared by every entry point; sizes C when allowed.
template <typename T>
void gemm_prepare(const Matrix<T>& a, const Matrix<T>& b, Matrix<T>& c,
                  T beta, bool transpose_a, bool transpose_b, std::size_t& m,
                  std::size_t& n, std::size_t& k) {
  m = transpose_a ? a.cols() : a.rows();
  k = transpose_a ? a.rows() : a.cols();
  const std::size_t b_rows = transpose_b ? b.cols() : b.rows();
  n = transpose_b ? b.rows() : b.cols();
  NDFT_REQUIRE(b_rows == k, "gemm: inner dimensions must agree");
  if (c.rows() != m || c.cols() != n) {
    NDFT_REQUIRE(beta == T{}, "gemm: beta != 0 requires a sized C");
    c.reset(m, n);
  }
}

/// `packs` null: the pack buffers are allocated for this call (op(A)
/// per row-block task). Otherwise they come from `packs`, which grows
/// to the largest product it has served.
template <bool TransposeA, bool TransposeB, bool ConjA, typename T>
void gemm_blocked(const Matrix<T>& a, const Matrix<T>& b, Matrix<T>& c,
                  T alpha, T beta, std::size_t m, std::size_t n,
                  std::size_t k, GemmPacks<T>* packs) {
  const std::size_t row_blocks = ceil_div(m, kMc);
  const std::size_t a_stride = kMc * std::min(kKc, k);
  std::vector<T> own_b_pack;
  std::vector<T>& b_pack = packs != nullptr ? packs->b : own_b_pack;
  b_pack.resize(std::min(kKc, k) * std::min(kNc, round_up(n, kNr)));
  if (packs != nullptr) packs->a.resize(row_blocks * a_stride);
  for (std::size_t jc = 0; jc < n; jc += kNc) {
    const std::size_t nc = std::min(kNc, n - jc);
    for (std::size_t pc = 0; pc < k; pc += kKc) {
      const std::size_t kc = std::min(kKc, k - pc);
      const bool first_k_block = (pc == 0);
      pack_b_block<TransposeB>(b, pc, jc, kc, nc, b_pack.data());

      parallel_for(0, row_blocks, 1, [&](std::size_t lo, std::size_t hi) {
        // A task packs its row blocks one after another into the region
        // of its first block.
        std::vector<T> own_a_pack;
        T* a_pack = nullptr;
        if (packs != nullptr) {
          a_pack = packs->a.data() + lo * a_stride;
        } else {
          own_a_pack.resize(kMc * kc);
          a_pack = own_a_pack.data();
        }
        T acc[kMr * kNr];
        for (std::size_t block = lo; block < hi; ++block) {
          const std::size_t ic = block * kMc;
          const std::size_t mc = std::min(kMc, m - ic);
          pack_a_block<TransposeA, ConjA>(a, ic, pc, mc, kc, a_pack);
          for (std::size_t jp = 0; jp < nc; jp += kNr) {
            const std::size_t cols = std::min(kNr, nc - jp);
            const T* b_panel = b_pack.data() + (jp / kNr) * kNr * kc;
            for (std::size_t ip = 0; ip < mc; ip += kMr) {
              const std::size_t rows = std::min(kMr, mc - ip);
              const T* a_panel = a_pack + (ip / kMr) * kMr * kc;
              std::fill(acc, acc + kMr * kNr, T{});
              micro_kernel(kc, a_panel, b_panel, acc);
              for (std::size_t i = 0; i < rows; ++i) {
                T* crow = c.row(ic + ip + i) + jc + jp;
                const T* arow = acc + i * kNr;
                if (first_k_block) {
                  if (beta == T{}) {
                    for (std::size_t j = 0; j < cols; ++j) {
                      crow[j] = alpha * arow[j];
                    }
                  } else {
                    for (std::size_t j = 0; j < cols; ++j) {
                      crow[j] = beta * crow[j] + alpha * arow[j];
                    }
                  }
                } else {
                  for (std::size_t j = 0; j < cols; ++j) {
                    crow[j] += alpha * arow[j];
                  }
                }
              }
            }
          }
        }
      });
    }
  }
}

/// Packs one real part of a complex block as a k-major micro-panel of
/// `width` lanes, the layout pack_a_block and pack_b_block give a panel:
/// out[l * width + t] = part(z(t, l)) for lane t < lanes and depth l < kc,
/// +0.0 in lanes [lanes, width). z(t, l) is m(r0 + t, c0 + l) when
/// LanePerRow (each lane reads along one row of m) and m(r0 + l, c0 + t)
/// otherwise (each depth step reads along one row), so every case reads
/// the complex matrix with unit stride. Part 0 is Re, 1 is Im and 2 is
/// Re + Im, with Im scaled by `im_sign` (-1 folds the conjugation of a
/// conjugate-transposed operand into it).
template <int Part, bool LanePerRow>
void pack_split_panel(const ComplexMatrix& m, double im_sign, std::size_t r0,
                      std::size_t c0, std::size_t lanes, std::size_t kc,
                      std::size_t width, double* out) {
  const auto part = [im_sign](const Complex& z) {
    if constexpr (Part == 0) {
      return z.real();
    } else if constexpr (Part == 1) {
      return im_sign * z.imag();
    } else {
      return z.real() + im_sign * z.imag();
    }
  };
  if constexpr (LanePerRow) {
    for (std::size_t t = 0; t < lanes; ++t) {
      const Complex* src = m.row(r0 + t) + c0;
      for (std::size_t l = 0; l < kc; ++l) out[l * width + t] = part(src[l]);
    }
    for (std::size_t l = 0; l < kc; ++l) {
      std::fill(out + l * width + lanes, out + (l + 1) * width, 0.0);
    }
  } else {
    for (std::size_t l = 0; l < kc; ++l) {
      const Complex* src = m.row(r0 + l) + c0;
      double* dst = out + l * width;
      for (std::size_t t = 0; t < lanes; ++t) dst[t] = part(src[t]);
      std::fill(dst + lanes, dst + width, 0.0);
    }
  }
}

/// 3M split-complex product: op(A) op(B) through three real products on
/// the blocked real microkernel (Re x Re, Im x Im and (Re+Im) x (Re+Im)),
/// recombined with the complex alpha/beta afterwards. The packing reads
/// each part straight out of the complex operands, so no split copy of
/// A or B exists. Each pool task owns a group of kGroup columns and packs
/// one kKc-deep slab of B and one kMr-row panel of A at a time, so its
/// buffers stay small whatever the shape. Every product element sums its
/// k-blocks in order through the same microkernel as gemm(), so the result
/// is bitwise that of three real gemm() calls on split copies, for any
/// thread count.
template <bool TransposeA, bool TransposeB>
void gemm_3m(const ComplexMatrix& a, const ComplexMatrix& b,
             ComplexMatrix& c, Complex alpha, Complex beta, std::size_t m,
             std::size_t n, std::size_t k) {
  constexpr std::size_t kGroup = 2 * kNr;
  RealMatrix products[3] = {RealMatrix(m, n), RealMatrix(m, n),
                            RealMatrix(m, n)};
  parallel_for(0, ceil_div(n, kGroup), 1, [&](std::size_t lo,
                                              std::size_t hi) {
    std::vector<double> b_pack(kKc * kGroup);
    std::vector<double> a_pack(kMr * kKc);
    double acc[kMr * kNr];
    for (std::size_t group = lo; group < hi; ++group) {
      const std::size_t jc = group * kGroup;
      const std::size_t nc = std::min(kGroup, n - jc);
      const auto product_part = [&](auto part, RealMatrix& product) {
        constexpr int kPart = decltype(part)::value;
        for (std::size_t pc = 0; pc < k; pc += kKc) {
          const std::size_t kc = std::min(kKc, k - pc);
          // op(B)(l, j) is B(jc + j, pc + l) transposed, B(pc + l, jc + j)
          // otherwise; op(A)(i, l) is conj(A(pc + l, ip + i)) or A(ip + i,
          // pc + l).
          for (std::size_t jp = 0; jp < nc; jp += kNr) {
            const std::size_t cols = std::min(kNr, nc - jp);
            double* panel = b_pack.data() + jp * kc;
            if constexpr (TransposeB) {
              pack_split_panel<kPart, true>(b, 1.0, jc + jp, pc, cols, kc,
                                            kNr, panel);
            } else {
              pack_split_panel<kPart, false>(b, 1.0, pc, jc + jp, cols, kc,
                                             kNr, panel);
            }
          }
          for (std::size_t ip = 0; ip < m; ip += kMr) {
            const std::size_t rows = std::min(kMr, m - ip);
            if constexpr (TransposeA) {
              pack_split_panel<kPart, false>(a, -1.0, pc, ip, rows, kc, kMr,
                                             a_pack.data());
            } else {
              pack_split_panel<kPart, true>(a, 1.0, ip, pc, rows, kc, kMr,
                                            a_pack.data());
            }
            for (std::size_t jp = 0; jp < nc; jp += kNr) {
              const std::size_t cols = std::min(kNr, nc - jp);
              std::fill(acc, acc + kMr * kNr, 0.0);
              micro_kernel(kc, a_pack.data(), b_pack.data() + jp * kc, acc);
              for (std::size_t i = 0; i < rows; ++i) {
                double* prow = product.row(ip + i) + jc + jp;
                const double* arow = acc + i * kNr;
                for (std::size_t j = 0; j < cols; ++j) {
                  prow[j] = pc == 0 ? arow[j] : prow[j] + arow[j];
                }
              }
            }
          }
        }
      };
      product_part(std::integral_constant<int, 0>{}, products[0]);
      product_part(std::integral_constant<int, 1>{}, products[1]);
      product_part(std::integral_constant<int, 2>{}, products[2]);
    }
  });
  const RealMatrix& p1 = products[0];  // Re x Re
  const RealMatrix& p2 = products[1];  // Im x Im
  const RealMatrix& p3 = products[2];  // (Re+Im) x (Re+Im)
  parallel_for(0, m, parallel_grain(n),
               [&](std::size_t lo, std::size_t hi) {
                 for (std::size_t i = lo; i < hi; ++i) {
                   Complex* crow = c.row(i);
                   for (std::size_t j = 0; j < n; ++j) {
                     const Complex prod{p1(i, j) - p2(i, j),
                                        p3(i, j) - p1(i, j) - p2(i, j)};
                     crow[j] = (beta == Complex{})
                                   ? alpha * prod
                                   : beta * crow[j] + alpha * prod;
                   }
                 }
               });
}

template <typename T>
void gemm_impl(const Matrix<T>& a, const Matrix<T>& b, Matrix<T>& c, T alpha,
               T beta, bool transpose_a, bool transpose_b,
               GemmPacks<T>* packs = nullptr) {
  std::size_t m, n, k;
  gemm_prepare(a, b, c, beta, transpose_a, transpose_b, m, n, k);
  if (m * n * k <= kSmallGemmVolume) {
    gemm_reference_dispatch(a, b, c, alpha, beta, transpose_a, transpose_b,
                            m, n, k);
    return;
  }
  if constexpr (std::is_same_v<T, Complex>) {
    // Large complex products ride the real microkernel via the 3M split
    // instead of the generic scalar complex micro-tile.
    if (transpose_a) {
      transpose_b ? gemm_3m<true, true>(a, b, c, alpha, beta, m, n, k)
                  : gemm_3m<true, false>(a, b, c, alpha, beta, m, n, k);
    } else {
      transpose_b ? gemm_3m<false, true>(a, b, c, alpha, beta, m, n, k)
                  : gemm_3m<false, false>(a, b, c, alpha, beta, m, n, k);
    }
  } else {
    if (transpose_a) {
      if (transpose_b) {
        gemm_blocked<true, true, true>(a, b, c, alpha, beta, m, n, k, packs);
      } else {
        gemm_blocked<true, false, true>(a, b, c, alpha, beta, m, n, k,
                                        packs);
      }
    } else {
      if (transpose_b) {
        gemm_blocked<false, true, true>(a, b, c, alpha, beta, m, n, k,
                                        packs);
      } else {
        gemm_blocked<false, false, true>(a, b, c, alpha, beta, m, n, k,
                                         packs);
      }
    }
  }
}

void gemm_packed(const RealMatrix& a, const RealMatrix& b, RealMatrix& c,
                 double alpha, double beta, bool transpose_a,
                 bool transpose_b, GemmPacks<double>* packs) {
  gemm_impl(a, b, c, alpha, beta, transpose_a, transpose_b, packs);
}

}  // namespace

void gemm(const RealMatrix& a, const RealMatrix& b, RealMatrix& c,
          double alpha, double beta, bool transpose_a, bool transpose_b) {
  LinalgTimerScope timer;
  KernelTimer trace(KernelClass::kGemm, "gemm");
  {
    const std::size_t m = transpose_a ? a.cols() : a.rows();
    const std::size_t k = transpose_a ? a.rows() : a.cols();
    const std::size_t n = transpose_b ? b.rows() : b.cols();
    trace.set_dims(m, n, k);
    trace.set_work(2ull * m * n * k,
                   (m * k + k * n + 2 * m * n) * sizeof(double));
    trace.set_io((m * k + k * n) * sizeof(double), m * n * sizeof(double));
  }
  gemm_impl(a, b, c, alpha, beta, transpose_a, transpose_b);
}

void gemm(const ComplexMatrix& a, const ComplexMatrix& b, ComplexMatrix& c,
          Complex alpha, Complex beta, bool conj_transpose_a,
          bool transpose_b) {
  LinalgTimerScope timer;
  KernelTimer trace(KernelClass::kGemm, "gemm.c");
  {
    const std::size_t m = conj_transpose_a ? a.cols() : a.rows();
    const std::size_t k = conj_transpose_a ? a.rows() : a.cols();
    const std::size_t n = transpose_b ? b.rows() : b.cols();
    trace.set_dims(m, n, k);
    trace.set_work(8ull * m * n * k,
                   (m * k + k * n + 2 * m * n) * sizeof(Complex));
    trace.set_io((m * k + k * n) * sizeof(Complex), m * n * sizeof(Complex));
  }
  gemm_impl(a, b, c, alpha, beta, conj_transpose_a, transpose_b);
}

void gemm_naive(const RealMatrix& a, const RealMatrix& b, RealMatrix& c,
                double alpha, double beta, bool transpose_a,
                bool transpose_b) {
  LinalgTimerScope timer;
  std::size_t m, n, k;
  gemm_prepare(a, b, c, beta, transpose_a, transpose_b, m, n, k);
  gemm_reference_dispatch(a, b, c, alpha, beta, transpose_a, transpose_b, m,
                          n, k);
}

void gemm_naive(const ComplexMatrix& a, const ComplexMatrix& b,
                ComplexMatrix& c, Complex alpha, Complex beta,
                bool conj_transpose_a, bool transpose_b) {
  LinalgTimerScope timer;
  std::size_t m, n, k;
  gemm_prepare(a, b, c, beta, conj_transpose_a, transpose_b, m, n, k);
  gemm_reference_dispatch(a, b, c, alpha, beta, conj_transpose_a,
                          transpose_b, m, n, k);
}

EigenResult syevd(const RealMatrix& symmetric) {
  LinalgTimerScope timer;
  KernelTimer trace(KernelClass::kSyevd, "syevd");
  NDFT_REQUIRE(symmetric.rows() == symmetric.cols(),
               "syevd: matrix must be square");
  const std::size_t n = symmetric.rows();
  trace.set_dims(n, n, 0);
  {
    const SyevdCost cost = syevd_cost(n);
    trace.set_work(cost.flops, cost.bytes);
  }
  trace.set_io(n * n * sizeof(double), (n * n + n) * sizeof(double));
  EigenResult result;
  if (n == 0) return result;

  // Full -> band -> tridiagonal, divide-and-conquer on the tridiagonal
  // matrix, then the reversed chase rotations and the offset-b compact-WY
  // panels bring the eigenvectors back.
  RealMatrix reduced = symmetric;
  std::vector<double> d;
  std::vector<double> e;
  std::vector<double> tau;
  std::vector<GivensRotation> chase_log;
  std::vector<std::uint32_t> chase_groups;
  std::vector<std::uint32_t> chase_j_groups;
  {
    StageTimerScope stage(&LinalgStageTimes::reduce_ms);
    band_reduce(reduced, tau);
    RealMatrix band = extract_band(reduced, band_width(n));
    band_to_tridiagonal(band, band_width(n), d, e, chase_log, chase_groups,
                        chase_j_groups);
  }

  RealMatrix s;
  {
    StageTimerScope stage(&LinalgStageTimes::tridiag_ms);
    tridiag_dc(d, e, s);  // d ascending, columns of s pair with d
  }

  {
    StageTimerScope stage(&LinalgStageTimes::backtransform_ms);
    apply_chase_rotations(chase_log, chase_groups, chase_j_groups,
                          s);                 // s <- Q2 s
    QPanelBuffers panel_buffers;
    apply_q_panels(reduced, tau, s, band_width(n), panel_buffers,
                   nullptr);  // s <- Q1 s
  }

  result.eigenvalues = std::move(d);
  result.eigenvectors = std::move(s);
  return result;
}

EigenResult syevd_naive(const RealMatrix& symmetric) {
  LinalgTimerScope timer;
  NDFT_REQUIRE(symmetric.rows() == symmetric.cols(),
               "syevd_naive: matrix must be square");
  EigenResult result;
  result.eigenvectors = symmetric;  // tred2 works in place
  std::vector<double> d;
  std::vector<double> e;
  tred2(result.eigenvectors, d, e);
  tql2(d, e, result.eigenvectors);
  sort_eigenpairs(d, result.eigenvectors, result);
  return result;
}

/// The window solver's scratch: the working copy of the matrix, the
/// reduction's outputs and per-panel temporaries, the GEMM pack buffers
/// under both stages, the tridiagonal eigenvectors and the
/// back-transform's temporaries, and what a staged solve carries from
/// its values stage to its vectors stage.
struct EigenWorkspace::Buffers {
  RealMatrix reduced;  ///< working copy, reduced in place
  std::vector<double> d;
  std::vector<double> e;
  std::vector<double> tau;
  ReductionBuffers reduction;
  GemmPacks<double> packs;
  RealMatrix tridiag_vectors;  ///< one per row
  QPanelBuffers q_panels;
  std::vector<double> values;       ///< the bisected eigenvalues, ascending
  TridiagScales scales;             ///< the bisection's, for inverse iteration
  std::optional<EigenResult> full;  ///< a staged solve that ran syevd
};

EigenWorkspace::EigenWorkspace() : buffers_(std::make_unique<Buffers>()) {}

EigenWorkspace::~EigenWorkspace() = default;

namespace {

/// The first k columns of z.
RealMatrix first_columns(const RealMatrix& z, std::size_t k) {
  RealMatrix result(z.rows(), k);
  for (std::size_t i = 0; i < z.rows(); ++i) {
    const double* src = z.row(i);
    std::copy(src, src + k, result.row(i));
  }
  return result;
}

/// n, after the window solvers' argument checks.
std::size_t window_size(const RealMatrix& symmetric, std::size_t m) {
  NDFT_REQUIRE(symmetric.rows() == symmetric.cols(),
               "syevd_partial: matrix must be square");
  const std::size_t n = symmetric.rows();
  NDFT_REQUIRE(m >= 1 && m <= n,
               "syevd_partial: eigenpair count must be in [1, n]");
  return n;
}

/// The window solve's first stage: reduce `symmetric` to tridiagonal form
/// in ws and bisect its lowest m eigenvalues into ws.values.
void reduce_and_bisect(const RealMatrix& symmetric, std::size_t m,
                       EigenWorkspace::Buffers& ws) {
  // The direct Householder reduction, not the full solver's two-stage
  // one: swapping band_reduce + the bulge chase into this path (the
  // chase replayed over the m columns) ran 0.77-0.82x as fast at
  // n=179, m=24, the dense Si_8 SCF window before the parity split
  // (4-vCPU AVX-512 Xeon, 1-2 threads). Its callers now are the band
  // jobs' value-only solves (n=137-179) and the SCF's parity blocks
  // (n=89-90, m=24), smaller still, where the chase's setup weighs more.
  ws.full.reset();
  ws.reduced = symmetric;  // keeps the workspace's storage once warm
  {
    StageTimerScope stage(&LinalgStageTimes::reduce_ms);
    blocked_tridiagonalize(ws.reduced, ws.d, ws.e, ws.tau, ws.reduction,
                           ws.packs);
  }
  StageTimerScope stage(&LinalgStageTimes::tridiag_ms);
  ws.scales = tridiag_lowest_values(ws.d, ws.e, m, ws.values);
}

/// The second stage: inverse iteration for the lowest k of ws.values,
/// then the n x k eigenvector block through the same compact-WY panels
/// as the full solver — O(n^2 k) instead of O(n^3).
RealMatrix lowest_vectors(std::size_t k, EigenWorkspace::Buffers& ws) {
  const std::size_t n = ws.d.size();
  {
    StageTimerScope stage(&LinalgStageTimes::tridiag_ms);
    tridiag_lowest_vectors(ws.d, ws.e,
                           std::span<const double>(ws.values).first(k),
                           ws.scales, ws.tridiag_vectors);
  }
  RealMatrix z(n, k);
  StageTimerScope stage(&LinalgStageTimes::backtransform_ms);
  parallel_for(0, n, eig_grain(k), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t r = lo; r < hi; ++r) {
      double* row = z.row(r);
      for (std::size_t c = 0; c < k; ++c) {
        row[c] = ws.tridiag_vectors(c, r);
      }
    }
  });
  apply_q_panels(ws.reduced, ws.tau, z, 1, ws.q_panels,
                 &ws.packs);  // z <- Q z
  return z;
}

/// The lowest-m window solve behind syevd_partial (`vectors`) and
/// syevd_partial_values (not `vectors`, which stops after the bisection
/// and leaves `eigenvectors` empty; the fallbacks to the full solver
/// still return them). Scratch comes from `workspace`, or from a
/// workspace of this call's own when it is null.
EigenResult window_solve(const RealMatrix& symmetric, std::size_t m,
                         bool vectors, EigenWorkspace* workspace) {
  LinalgTimerScope timer;
  KernelTimer trace(KernelClass::kSyevd,
                    vectors ? "syevd.partial" : "syevd.partial.values");
  const std::size_t n = window_size(symmetric, m);
  const SyevdCost cost = syevd_partial_cost(n, m, vectors);
  trace.set_dims(n, m, 0);
  trace.set_work(cost.flops, cost.bytes);
  trace.set_io(n * n * sizeof(double),
               ((vectors ? n * m : 0) + m) * sizeof(double));
  // A degraded solve records the full solve it ran. Nested timer/trace
  // entries fold into this one.
  const auto full_fallback = [&] {
    note_degradation("syevd_partial:full_fallback");
    const SyevdCost full = syevd_cost(n);
    trace.set_work(full.flops, full.bytes);
    return syevd_lowest(symmetric, m);
  };

  if (fault_fires("solver.syevd_partial")) {
    // Injected solver fault: degrade to the always-available full
    // solver instead of failing the job.
    return full_fallback();
  }

  if (2 * m > n) {
    // The bisection/back-transform savings vanish near the full spectrum;
    // the full solver is both faster and more robust there (and
    // syevd_partial_cost already prices it as the full solve).
    return syevd_lowest(symmetric, m);
  }

  std::optional<EigenWorkspace> own_workspace;
  if (workspace == nullptr) workspace = &own_workspace.emplace();
  EigenWorkspace::Buffers& ws = workspace->buffers();
  try {
    reduce_and_bisect(symmetric, m, ws);
    EigenResult result;
    result.eigenvalues = ws.values;
    if (vectors) result.eigenvectors = lowest_vectors(m, ws);
    return result;
  } catch (const NdftError&) {
    // The partial path rejected the problem (e.g. a degenerate cluster
    // its inverse iteration cannot split): same answer from the full
    // solver, recorded as a degradation.
    return full_fallback();
  }
}

}  // namespace

EigenResult syevd_lowest(const RealMatrix& symmetric, std::size_t m) {
  EigenResult full = syevd(symmetric);
  if (m == symmetric.rows()) return full;
  full.eigenvalues.resize(m);
  full.eigenvectors = first_columns(full.eigenvectors, m);
  return full;
}

EigenResult syevd_partial(const RealMatrix& symmetric, std::size_t m,
                          EigenWorkspace* workspace) {
  return window_solve(symmetric, m, /*vectors=*/true, workspace);
}

std::vector<double> syevd_partial_values(const RealMatrix& symmetric,
                                         std::size_t m,
                                         EigenWorkspace* workspace) {
  return window_solve(symmetric, m, /*vectors=*/false, workspace)
      .eigenvalues;
}

std::vector<double> syevd_window_values(const RealMatrix& symmetric,
                                        std::size_t m,
                                        EigenWorkspace& workspace) {
  LinalgTimerScope timer;
  const std::size_t n = window_size(symmetric, m);
  EigenWorkspace::Buffers& ws = workspace.buffers();
  if (2 * m > n) {
    ws.full = syevd_lowest(symmetric, m);
    return ws.full->eigenvalues;
  }
  reduce_and_bisect(symmetric, m, ws);
  return ws.values;
}

RealMatrix syevd_window_vectors(std::size_t k, EigenWorkspace& workspace) {
  LinalgTimerScope timer;
  EigenWorkspace::Buffers& ws = workspace.buffers();
  const std::size_t m =
      ws.full ? ws.full->eigenvalues.size() : ws.values.size();
  NDFT_REQUIRE(k >= 1 && k <= m,
               "syevd_window_vectors: pair count must be in [1, m]");
  if (ws.full) return first_columns(ws.full->eigenvectors, k);
  return lowest_vectors(k, ws);
}

SyevdCost syevd_window_cost(std::size_t n, std::size_t m,
                            std::size_t k) noexcept {
  if (2 * m > n) return syevd_cost(n);
  const SyevdCost values = syevd_partial_cost(n, m, /*vectors=*/false);
  const auto nk = static_cast<Flops>(n) * k;
  return {values.flops + 100 * nk + 2 * nk * n,
          values.bytes + 2 * nk * sizeof(double)};
}

SyevdCost syevd_partial_cost(std::size_t n, std::size_t m,
                             bool vectors) noexcept {
  if (2 * m > n) return syevd_cost(n);
  const auto nn = static_cast<Flops>(n) * n;
  // Reduction (~4/3 n^3) and bisection (~60 Sturm sweeps of ~5 flops per
  // row and pair); the vectors add inverse iteration (a few O(n) solves
  // per pair) and the WY back-transform (~2 n^2 m).
  const Flops values = nn * n * 4 / 3 + 300ull * n * m;
  if (!vectors) return {values, (2 * nn + m) * sizeof(double)};
  return {values + 100ull * n * m + 2 * nn * m,
          (2 * nn + 2 * static_cast<Bytes>(n) * m) * sizeof(double)};
}

HermitianEigenResult heev(const ComplexMatrix& hermitian) {
  LinalgTimerScope timer;
  KernelTimer trace(KernelClass::kSyevd, "heev");
  NDFT_REQUIRE(hermitian.rows() == hermitian.cols(),
               "heev: matrix must be square");
  const std::size_t n = hermitian.rows();
  // Dims and costs follow the 2n x 2n real embedding the solve actually
  // runs: the trace consumers' SYEVD reuse model keys its arithmetic
  // intensity off dims[0], which must name the executed solve size.
  trace.set_dims(2 * n, 2 * n, 0);
  {
    const SyevdCost cost = syevd_cost(2 * n);
    trace.set_work(cost.flops, cost.bytes);
  }
  trace.set_io(n * n * sizeof(Complex), (n * n + n) * sizeof(Complex));
  // Real embedding M = [[A, -B], [B, A]] for H = A + iB: the Hermitian
  // solve rides the blocked real path.
  RealMatrix embedded(2 * n, 2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const Complex h = hermitian(i, j);
      embedded(i, j) = h.real();
      embedded(i + n, j + n) = h.real();
      embedded(i, j + n) = -h.imag();
      embedded(i + n, j) = h.imag();
    }
  }
  EigenResult real_result = syevd(embedded);

  // Each eigenvalue of H appears twice; fold pairs and rebuild complex
  // eigenvectors v = x + i y, re-orthonormalising inside degenerate groups.
  HermitianEigenResult result;
  result.eigenvalues.reserve(n);
  result.eigenvectors = ComplexMatrix(n, n);
  std::vector<std::vector<Complex>> kept;
  kept.reserve(n);
  for (std::size_t j = 0; j < 2 * n && kept.size() < n; ++j) {
    std::vector<Complex> v(n);
    for (std::size_t i = 0; i < n; ++i) {
      v[i] = Complex{real_result.eigenvectors(i, j),
                     real_result.eigenvectors(i + n, j)};
    }
    // Project out already-kept vectors (modified Gram-Schmidt).
    for (const auto& u : kept) {
      Complex overlap{};
      for (std::size_t i = 0; i < n; ++i) overlap += std::conj(u[i]) * v[i];
      for (std::size_t i = 0; i < n; ++i) v[i] -= overlap * u[i];
    }
    double norm = 0.0;
    for (const Complex& value : v) norm += std::norm(value);
    norm = std::sqrt(norm);
    if (norm < 1e-8) {
      continue;  // duplicate of an already-kept pair partner
    }
    for (Complex& value : v) value /= norm;
    result.eigenvalues.push_back(real_result.eigenvalues[j]);
    kept.push_back(std::move(v));
  }
  NDFT_REQUIRE(kept.size() == n, "heev: failed to fold embedded eigenpairs");
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      result.eigenvectors(i, j) = kept[j][i];
    }
  }
  return result;
}

SyevdCost syevd_cost(std::size_t n) noexcept {
  const auto cubic = static_cast<Flops>(n) * n * n;
  const auto nn = static_cast<Flops>(n) * n;
  // Two-stage model: ~2n^3 band reduction + ~8/3 n^3 D&C merges + ~3n^3
  // reversed chase rotations + ~2n^3 compact WY (29/3 n^3 total), plus
  // the O(n^2 b) chase itself. Bytes: the per-panel trailing-square
  // copies (~24 n^3 / b) over the 3 n^2 matrix doubles.
  const auto b = static_cast<Flops>(band_width(n));
  return {cubic * 29 / 3 + nn * 6 * b,
          24ull * cubic / b + 3ull * nn * sizeof(double)};
}

void linalg_timer_reset() noexcept {
  tl_linalg_ms = 0.0;
  tl_stage_times = LinalgStageTimes{};
}

double linalg_timer_ms() noexcept { return tl_linalg_ms; }

LinalgStageTimes linalg_stage_times() noexcept { return tl_stage_times; }

void linalg_timer_add(double total_ms,
                      const LinalgStageTimes& stages) noexcept {
  tl_linalg_ms += total_ms;
  tl_stage_times.reduce_ms += stages.reduce_ms;
  tl_stage_times.tridiag_ms += stages.tridiag_ms;
  tl_stage_times.backtransform_ms += stages.backtransform_ms;
}

void mirror_upper(RealMatrix& symmetric) {
  const std::size_t n = symmetric.rows();
  NDFT_REQUIRE(symmetric.cols() == n, "mirror_upper: matrix must be square");
  parallel_for(0, n, parallel_grain(n), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      for (std::size_t j = 0; j < i; ++j) {
        symmetric(i, j) = symmetric(j, i);
      }
    }
  });
}

double eigen_residual(const RealMatrix& symmetric,
                      const EigenResult& result) {
  const std::size_t n = symmetric.rows();
  double sum = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      double value = 0.0;
      for (std::size_t k = 0; k < n; ++k) {
        value += symmetric(i, k) * result.eigenvectors(k, j);
      }
      value -= result.eigenvalues[j] * result.eigenvectors(i, j);
      sum += value * value;
    }
  }
  return std::sqrt(sum);
}

}  // namespace ndft::dft
