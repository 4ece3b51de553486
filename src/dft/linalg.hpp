#pragma once
// Dense linear algebra kernels: blocked GEMM and symmetric/Hermitian
// eigensolvers (the paper's SYEVD), implemented from scratch.
//
// One solver per question asked:
//
//  * Full spectrum (`syevd`), at every size: two-stage reduction - full ->
//    band via blocked QR panels whose two-sided trailing updates are pure
//    level-3 GEMM, band -> tridiagonal via Givens bulge chasing (the
//    rotations are logged) - then a Cuppen divide-and-conquer tridiagonal
//    eigensolver (secular-equation roots with dlaed2-style deflation,
//    merges back-multiplied as GEMMs). Eigenvectors come back through the
//    reversed rotation log and compact-WY GEMM panels.
//  * Lowest-m window (`syevd_partial`): blocked Householder panel
//    reduction straight to tridiagonal form (trailing rank-2k updates as
//    GEMM), bisection plus inverse iteration for the m wanted pairs, and
//    the same compact-WY back-transformation restricted to m columns.
//    Callers that read no vectors (`syevd_partial_values`) stop after the
//    bisection, callers that take one window across several matrices
//    run it in two stages (`syevd_window_values`, then
//    `syevd_window_vectors` for the pairs kept); repeated solves can keep
//    their scratch memory in a caller-owned `EigenWorkspace`.
//
// The serial EISPACK-lineage tred2/tql2 pair is kept as `syevd_naive`,
// the reference both production paths are tested and benchmarked against.
// Complex Hermitian problems are solved through the standard real
// embedding [[A, -B], [B, A]], so they ride the real `syevd` path too;
// large complex GEMMs are computed with a 3M split (three real products
// on the real microkernel).

#include <memory>
#include <vector>

#include "dft/matrix.hpp"

namespace ndft::dft {

/// C = alpha * op(A) * op(B) + beta * C for real matrices.
/// op is controlled by `transpose_a` / `transpose_b`. Cache-blocked with
/// panel packing (transposition happens inside the packing, so no operand
/// copies) and parallelised over row blocks on the thread pool; results
/// are bitwise identical for any thread count. The call's analytic
/// flop/byte cost goes to its kernel trace event.
void gemm(const RealMatrix& a, const RealMatrix& b, RealMatrix& c,
          double alpha = 1.0, double beta = 0.0, bool transpose_a = false,
          bool transpose_b = false);

/// Complex version; `transpose_a` applies the conjugate transpose.
void gemm(const ComplexMatrix& a, const ComplexMatrix& b, ComplexMatrix& c,
          Complex alpha = Complex{1.0, 0.0}, Complex beta = Complex{0.0, 0.0},
          bool conj_transpose_a = false, bool transpose_b = false);

/// Textbook triple-loop GEMM, kept as the reference implementation the
/// blocked kernels are tested and benchmarked against. Same semantics as
/// gemm(); records no trace event.
void gemm_naive(const RealMatrix& a, const RealMatrix& b, RealMatrix& c,
                double alpha = 1.0, double beta = 0.0,
                bool transpose_a = false, bool transpose_b = false);

/// Complex reference; `conj_transpose_a` applies the conjugate transpose.
void gemm_naive(const ComplexMatrix& a, const ComplexMatrix& b,
                ComplexMatrix& c, Complex alpha = Complex{1.0, 0.0},
                Complex beta = Complex{0.0, 0.0},
                bool conj_transpose_a = false, bool transpose_b = false);

/// Analytic cost tally of a full-spectrum n x n symmetric eigensolve,
/// modelling the production two-stage path: ~2n^3 level-3 flops for the
/// full->band reduction, ~(8/3)n^3 for the divide-and-conquer merges,
/// ~3n^3 for the reversed bulge-chase rotations and ~2n^3 for the
/// compact-WY back-transform, plus the O(n^2 b) chase itself; bytes are
/// dominated by the per-panel trailing-square copies (O(n^3 / b)). The
/// one formula shared by the solvers' trace events, the analytic workload
/// descriptors and the Engine's queue estimator.
struct SyevdCost {
  Flops flops = 0;
  Bytes bytes = 0;
};
SyevdCost syevd_cost(std::size_t n) noexcept;

/// Result of a symmetric eigensolve.
struct EigenResult {
  std::vector<double> eigenvalues;  ///< ascending
  RealMatrix eigenvectors;          ///< column j pairs with eigenvalue j
};

/// Solves the full eigenproblem of a real symmetric matrix (SYEVD). This
/// is the production entry point every full-spectrum consumer goes
/// through: two-stage band reduction + bulge chase + divide-and-conquer,
/// whose trailing updates and merge back-multiplications are level-3
/// GEMM. Results are bitwise identical for any thread count. Throws
/// NdftError if the matrix is not square or an iteration fails to
/// converge (pathological input).
EigenResult syevd(const RealMatrix& symmetric);

/// Serial reference solver (EISPACK tred2/tql2 lineage), kept as the
/// ground truth `syevd` is validated and benchmarked against. Same
/// semantics as syevd(); records no trace event.
EigenResult syevd_naive(const RealMatrix& symmetric);

/// Analytic cost tally of a partial eigensolve returning the lowest `m`
/// pairs: the full reduction (~(4/3)n^3) survives, but the tridiagonal
/// eigensolve and the back-transformation shrink to O(n^2 m). With
/// `vectors` false it prices syevd_partial_values(): reduction and
/// bisection only. Collapses to syevd_cost(n) in the regime where the
/// window solvers delegate to the full solver.
SyevdCost syevd_partial_cost(std::size_t n, std::size_t m,
                             bool vectors = true) noexcept;

/// Caller-owned scratch memory for repeated window solves: the working
/// copy of the matrix, the reduction's per-panel matrices, the GEMM pack
/// buffers under them and the back-transformation's temporaries. Every
/// buffer grows to the largest solve it has served and is reused after
/// that, so a warm solve of the same shape makes no large allocation and
/// touches no fresh pages. Results never depend on it: a solve on a
/// warm, a cold or no workspace is bitwise identical. One workspace
/// serves one solve at a time (concurrent solves need one each), and it
/// holds its largest solve's memory until destroyed, so keep it no
/// longer than the job whose solves it serves.
class EigenWorkspace {
 public:
  EigenWorkspace();
  ~EigenWorkspace();
  EigenWorkspace(const EigenWorkspace&) = delete;
  EigenWorkspace& operator=(const EigenWorkspace&) = delete;

  struct Buffers;  ///< the solver's scratch, defined in linalg.cpp
  Buffers& buffers() noexcept { return *buffers_; }

 private:
  std::unique_ptr<Buffers> buffers_;
};

/// Solves for the lowest `m` eigenpairs of a real symmetric matrix
/// (1 <= m <= n). Runs the blocked Householder reduction, then replaces
/// the full-spectrum tridiagonal stage with bisection (Sturm counts on the
/// tridiagonal matrix) plus inverse iteration for just those `m` vectors,
/// which are back-transformed through the compact-WY GEMMs restricted to
/// m columns — O(n^2 m) after the reduction instead of O(n^3). When
/// 2m > n the savings vanish and the call delegates to syevd(),
/// truncated to m pairs, so callers can request any window. Eigenvalues
/// match the full solver to ~n*eps*||A||; eigenvectors match to sign
/// within nondegenerate multiplets (clustered eigenvalues are
/// re-orthogonalised, spanning the same invariant subspace). Results are
/// bitwise identical for any thread count. Scratch memory comes from
/// `workspace` when given. The trace event is priced at
/// syevd_partial_cost(n, m), or at syevd_cost(n) when the call falls back
/// to the full solver.
EigenResult syevd_partial(const RealMatrix& symmetric, std::size_t m,
                          EigenWorkspace* workspace = nullptr);

/// The eigenvalues syevd_partial() returns, bitwise, without the
/// eigenvectors: the same reduction and bisection, then no inverse
/// iteration and no back-transformation. For callers that read no
/// vectors (band energies). Same fallbacks and fault site; the trace
/// event is priced at syevd_partial_cost(n, m, false).
std::vector<double> syevd_partial_values(const RealMatrix& symmetric,
                                         std::size_t m,
                                         EigenWorkspace* workspace = nullptr);

/// The full solver's answer cut to the lowest `m` pairs: what the window
/// solvers run near the full spectrum and degrade to.
EigenResult syevd_lowest(const RealMatrix& symmetric, std::size_t m);

/// syevd_partial() in two stages, for a caller that takes one window
/// across several matrices (the parity blocks of the SCF Hamiltonian):
/// it reduces and bisects every matrix first, then pays inverse
/// iteration and the back-transform only for the pairs it keeps.
/// syevd_window_values() reduces `symmetric` in `workspace` and returns
/// its lowest `m` eigenvalues (1 <= m <= n); when 2m > n it runs
/// syevd_lowest() instead and keeps the vectors. syevd_window_vectors()
/// then returns the n x k eigenvectors of the lowest `k` of those values
/// (1 <= k <= m) from what the workspace kept. Together they answer
/// syevd_partial(symmetric, k) bitwise whenever both take the same path
/// (2m <= n, or 2k > n). Neither draws the `solver.syevd_partial` fault
/// or records a trace event: the caller owns the fallback and prices its
/// selection with syevd_window_cost(). Both add to the calling thread's
/// linalg timer and stage split. One workspace holds one staged solve.
std::vector<double> syevd_window_values(const RealMatrix& symmetric,
                                        std::size_t m,
                                        EigenWorkspace& workspace);
RealMatrix syevd_window_vectors(std::size_t k, EigenWorkspace& workspace);

/// Analytic cost of syevd_window_values(n, m) followed by
/// syevd_window_vectors(k): the reduction, m bisected eigenvalues and k
/// vectors (k = 0: the values stage alone). syevd_cost(n) when 2m > n.
SyevdCost syevd_window_cost(std::size_t n, std::size_t m,
                            std::size_t k) noexcept;

/// Result of a Hermitian eigensolve.
struct HermitianEigenResult {
  std::vector<double> eigenvalues;  ///< ascending
  ComplexMatrix eigenvectors;       ///< column j pairs with eigenvalue j
};

/// Solves the full eigenproblem of a complex Hermitian matrix via the real
/// 2n x 2n embedding (each eigenvalue appears twice; duplicates are
/// folded), so the solve runs on the real syevd() path.
HermitianEigenResult heev(const ComplexMatrix& hermitian);

/// Zeroes the calling thread's accumulated linalg wall time, including
/// the per-stage tallies below. The engine resets before executing a job
/// and reads the tallies after, giving every JobResult its `linalg_ms` /
/// stage timing buckets.
void linalg_timer_reset() noexcept;

/// Wall-clock milliseconds the calling thread has spent inside top-level
/// linalg entry points (gemm/syevd/heev) since the last reset. Nested
/// calls (GEMM inside syevd) are counted once, under the outermost entry.
double linalg_timer_ms() noexcept;

/// Per-stage wall-clock split of the eigensolver time: the reduction to
/// tridiagonal form (band reduction + bulge chase in syevd, Householder
/// panels in syevd_partial), the tridiagonal eigensolve
/// (divide-and-conquer, or bisection + inverse iteration), and the
/// eigenvector back-transformations (reversed rotation log and/or
/// compact-WY GEMMs). The three buckets are disjoint sub-spans of
/// `linalg_timer_ms`, so they add up to at most the total.
struct LinalgStageTimes {
  double reduce_ms = 0.0;
  double tridiag_ms = 0.0;
  double backtransform_ms = 0.0;
};

/// The calling thread's accumulated stage split since the last
/// linalg_timer_reset().
LinalgStageTimes linalg_stage_times() noexcept;

/// Adds linalg time that another thread measured (a pool worker solving
/// part of this thread's job) to the calling thread's tallies, so they
/// sum the job's linalg time over every thread that did it.
void linalg_timer_add(double total_ms,
                      const LinalgStageTimes& stages) noexcept;

/// Frobenius norm of (A*x - lambda*x) for result verification in tests.
double eigen_residual(const RealMatrix& symmetric, const EigenResult& result);

/// Copies the upper triangle into the lower one. Used by the symmetric
/// Hamiltonian assemblies, whose upper triangles are filled row-wise on
/// the thread pool; the mirror runs on the pool too (each task writes
/// only its own rows, so the result is deterministic).
void mirror_upper(RealMatrix& symmetric);

}  // namespace ndft::dft
