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

/// Runs the SCF loop. Throws NdftError on invalid configuration; returns
/// with `converged == false` if max_iterations is exhausted (callers
/// decide whether that is fatal).
ScfResult solve_scf(const PlaneWaveBasis& basis,
                    const ScfConfig& config = {});

}  // namespace ndft::dft
