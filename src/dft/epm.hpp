#pragma once
// Empirical-pseudopotential (Cohen-Bergstresser) ground state for silicon.
//
// Diagonalising H(G,G') = |G|^2/2 * delta_GG' + V_ps(G-G') on the
// plane-wave basis yields realistic valence/conduction orbitals for the
// silicon systems the paper evaluates, at a cost small enough to run the
// functional LR-TDDFT pipeline end-to-end. With the bond-centred diamond
// geometry the structure factor is real, so H is real symmetric and the
// paper's SYEVD kernel is exercised directly.

#include <vector>

#include "dft/basis.hpp"
#include "dft/fft.hpp"
#include "dft/linalg.hpp"

namespace ndft::dft {

/// Ground-state result: Kohn-Sham-like orbitals on the plane-wave basis.
struct GroundState {
  std::vector<double> energies_ha;  ///< band energies, ascending (Hartree)
  RealMatrix orbitals;              ///< column j = orbital j over G vectors
  std::size_t valence_bands = 0;    ///< #occupied bands (2 per Si atom)

  /// Energy gap between highest valence and lowest conduction band (eV).
  double band_gap_ev() const;
};

/// Orbital `band` of `ground` on the FFT grid in real space, scaled by
/// sqrt(Nr/Omega) so that sum_G |c|^2 = 1 implies integral |psi(r)|^2 dr
/// = 1.
Grid3 orbital_realspace(const PlaneWaveBasis& basis, const GroundState& ground,
                        std::size_t band);

/// Cohen-Bergstresser silicon form factors, in Hartree, keyed by
/// |G|^2 in units of (2*pi/a0)^2 (shells 3, 8 and 11).
double silicon_form_factor(double g2_units);

/// Local EPM potential matrix element V(G - G') for the given crystal.
/// Returns the real (bond-centred symmetric) value.
double epm_potential(const Crystal& crystal, const GVector& g,
                     const GVector& gp);

/// The k-independent part of the EPM Hamiltonian: V(G_i - G_j) off the
/// diagonal and zero on it (V(0) has no form factor), assembled on the
/// thread pool (rows are independent, so the result is identical for any
/// thread count) inside one kOther trace region named `region`.
RealMatrix epm_potential_matrix(const PlaneWaveBasis& basis,
                                const char* region);

/// Sets the diagonal of `hamiltonian`, an epm_potential_matrix() or a
/// copy of one, to the kinetic energies 1/2 |k+G_i|^2, making it the EPM
/// Hamiltonian at `k`.
void set_epm_kinetic(const PlaneWaveBasis& basis, const Vec3& k,
                     RealMatrix& hamiltonian);

/// The EPM Hamiltonian H(G,G') = 1/2 |k+G|^2 delta_GG' + V(G-G') at `k`:
/// epm_potential_matrix() with set_epm_kinetic(). Solves at many k share
/// one potential matrix instead.
RealMatrix epm_hamiltonian(const PlaneWaveBasis& basis, const Vec3& k,
                           const char* region);

/// Solves the EPM eigenproblem on the basis. `bands` limits how many
/// eigenpairs are retained (0 keeps all).
GroundState solve_epm(const PlaneWaveBasis& basis, std::size_t bands = 0);

}  // namespace ndft::dft
