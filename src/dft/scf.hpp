#pragma once
// Self-consistent-field DFT ground state on the plane-wave basis.
//
// LR-TDDFT (the paper's workload) sits on a converged Kohn-Sham ground
// state; this module provides one. Unlike the empirical pseudopotential
// path (epm.hpp), whose fitted potential already contains the screening,
// the SCF uses a *bare* Ashcroft empty-core ionic pseudopotential
// (v(q) = -4 pi Z_v cos(q r_c) / q^2) and computes the screening --
// Hartree and LDA exchange-correlation -- self-consistently:
//
//   n(r)   = 2 sum_v |psi_v(r)|^2
//   V_H(G) = 4 pi n(G) / |G|^2          (FFT Poisson solve)
//   V_xc   = LDA: Slater exchange + Perdew-Zunger '81 correlation
//   H      = -1/2 nabla^2 + V_ion + V_H + V_xc   (dense, G-space)
//
// iterated with linear density mixing until the density residual drops
// below tolerance. Each SCF iteration exercises the same kernel families
// as the LR-TDDFT pipeline (FFT, pointwise products, SYEVD).
//
// The cell is inversion-symmetric (real structure factors, real V(G)), so
// H commutes with the parity G -> -G. Each iteration's window solve
// therefore runs on H's two half-size parity blocks (ParitySolver), one
// per pool thread, instead of on the dense n_g x n_g matrix.

#include <span>
#include <vector>

#include "dft/basis.hpp"
#include "dft/epm.hpp"
#include "dft/fft.hpp"

namespace ndft::dft {

/// Density-mixing scheme for the SCF fixed point.
enum class MixingScheme {
  kLinear,    ///< n <- n + beta (f(n) - n)
  kAnderson,  ///< two-point Anderson acceleration on the residual
};
/// Names indexed by enumerator ("linear", "anderson"), as job requests
/// spell them.
std::span<const char* const> enum_names(MixingScheme) noexcept;

/// SCF controls.
struct ScfConfig {
  unsigned max_iterations = 60;
  double mixing = 0.35;         ///< linear mixing factor (beta)
  MixingScheme scheme = MixingScheme::kLinear;
  double tolerance = 1e-6;      ///< RMS density residual (electrons/Bohr^3)
  std::size_t bands = 0;        ///< eigenpairs kept (0 = valence + 8)
  double valence_charge = 4.0;  ///< Z_v of the Ashcroft ionic potential
  double core_radius_bohr = 1.12;  ///< empty-core radius (silicon)
};

/// One SCF iteration's bookkeeping.
struct ScfStep {
  unsigned iteration = 0;
  double density_residual = 0.0;  ///< RMS change of n(r)
  double total_energy_ha = 0.0;   ///< Kohn-Sham total energy estimate
  double gap_ev = 0.0;
};

/// Converged ground state plus the SCF history.
struct ScfResult {
  GroundState state;                ///< orbitals/energies at convergence
  std::vector<double> density;      ///< n(r) on the FFT grid
  std::vector<ScfStep> history;     ///< one entry per iteration
  bool converged = false;

  /// Electrons obtained by integrating the density over the cell.
  double electron_count(const PlaneWaveBasis& basis) const;
};

/// Ashcroft empty-core ionic potential matrix element between two basis
/// vectors (summed over the crystal's atoms; G = 0 dropped -- it cancels
/// against the Hartree background).
double ashcroft_potential(const Crystal& crystal, const GVector& g,
                          const GVector& gp, double valence_charge,
                          double core_radius_bohr);

/// Same matrix element from the Cartesian difference vector dG = G - G'.
/// The element depends only on this difference, which is what lets the
/// SCF tabulate the whole V_ion matrix over the distinct differences
/// once per geometry instead of evaluating form factor and structure
/// factor (cos() per atom) for all O(n_g^2) pairs.
double ashcroft_potential(const Crystal& crystal, const Vec3& dg,
                          double valence_charge, double core_radius_bohr);

/// LDA exchange-correlation potential (Slater exchange + PZ81
/// correlation) at density `n` (clamped away from zero internally).
double lda_vxc(double n);

/// LDA exchange-correlation energy density epsilon_xc(n) (per electron).
double lda_exc(double n);

/// Window solves of symmetric matrices that commute with a parity P: an
/// involution of the basis indices (the -G partner map,
/// PlaneWaveBasis::partners()) with H(Pi, Pj) = H(i, j). In the basis
/// e_f (fixed points f = Pf) and (e_i +- e_Pi)/sqrt(2) (one per pair,
/// i < Pi) such an H is block-diagonal: an even block of
/// fixed + pairs rows and an odd block of pairs rows (90 and 89 for the
/// default Si_8 SCF basis of 179). The SCF Hamiltonian is one. Each
/// block's reduction sweeps about a quarter of the dense matrix and does
/// an eighth of its flops.
class ParitySolver {
 public:
  /// Throws NdftError unless `partner` is an involution of [0, n).
  explicit ParitySolver(std::span<const std::size_t> partner);

  /// The lowest `m` eigenpairs of `symmetric` (n x n, 1 <= m <= n), which
  /// must commute with P: ascending values and n x m orthonormal vectors,
  /// each of definite parity (c(Pi) = c(i) or -c(i)). Both blocks are
  /// reduced and bisected (syevd_window_values), the lowest m values of
  /// the union are kept (even first on a tie), and only their vectors
  /// are computed (syevd_window_vectors). The blocks run one per pool
  /// thread, each block's kernels inline, or in series while a trace is
  /// active or faults are armed; the answer is bitwise the same either
  /// way and at any pool width. A pool worker's linalg time is credited
  /// to the calling thread. Records one `syevd.partial` event, dims
  /// (n, m), priced at the blocks' summed syevd_window_cost(). A
  /// `solver.syevd_partial` fault, drawn once per call, degrades the
  /// call to syevd_lowest() on the dense matrix
  /// (`syevd_partial:full_fallback`, priced at syevd_cost(n)).
  EigenResult solve(const RealMatrix& symmetric, std::size_t m);

 private:
  /// Writes the even and odd blocks of `symmetric` into blocks_.
  void fold(const RealMatrix& symmetric);

  std::vector<std::size_t> partner_;
  std::vector<std::size_t> fixed_;  ///< fixed points, ascending
  std::vector<std::size_t> pairs_;  ///< i < partner_[i], ascending
  RealMatrix blocks_[2];            ///< even, odd
  EigenWorkspace workspaces_[2];    ///< one per block: they run at once
};

/// Runs the SCF loop. Throws NdftError on invalid configuration; returns
/// with `converged == false` if max_iterations is exhausted (callers
/// decide whether that is fatal).
ScfResult solve_scf(const PlaneWaveBasis& basis,
                    const ScfConfig& config = {});

}  // namespace ndft::dft
