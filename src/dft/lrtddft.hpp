#pragma once
// The LR-TDDFT pipeline of the paper's Fig. 1, functional implementation:
//
//   valence/conduction orbitals
//     -> face-splitting products  P_vc(r) = psi_v(r) * psi_c(r)
//     -> FFT                      P_vc(G)
//     -> Coulomb + ALDA kernels   f_H(G) P, f_xc(r) P
//     -> GEMM                     K = P f conj(P)^T  (response Hamiltonian)
//     -> SYEVD (heev)             excitation energies
//
// within the Tamm-Dancoff approximation at the Gamma point. Each stage's
// analytic flop/byte cost goes to its kernel trace event (common/
// kernel_trace.hpp), labelled with the stage "lrtddft".

#include <algorithm>
#include <vector>

#include "dft/basis.hpp"
#include "dft/epm.hpp"
#include "dft/fft.hpp"
#include "dft/linalg.hpp"

namespace ndft::dft {

/// Configuration of the excitation-space window.
struct LrTddftConfig {
  /// Highest valence bands included (0 = all valence bands).
  std::size_t valence_window = 0;
  /// Lowest conduction bands included.
  std::size_t conduction_window = 4;
  /// Include the adiabatic-LDA exchange-correlation kernel.
  bool include_xc = true;
  /// Spin factor for singlet excitations (2 K in the A matrix).
  double spin_factor = 2.0;

  /// Valence bands in the window out of `valence_bands` filled ones: the
  /// highest `valence_window` of them, or all when it is 0.
  std::size_t window_valence(std::size_t valence_bands) const noexcept {
    return valence_window == 0 ? valence_bands
                               : std::min(valence_window, valence_bands);
  }
};

/// Result of an LR-TDDFT calculation.
struct LrTddftResult {
  std::vector<double> excitations_ha;  ///< excitation energies, ascending
  std::size_t pair_count = 0;          ///< dimension of the response matrix
  /// Casida eigenvectors (pair x excitation), column j pairing with
  /// excitations_ha[j]. Complex: the Casida matrix is Hermitian for a
  /// general orbital gauge (degenerate multiplets come out of the
  /// eigensolver in an arbitrary orientation).
  ComplexMatrix eigenvectors;

  /// Lowest excitation in eV.
  double lowest_ev() const;
};

/// Runs the full pipeline on a ground state. The ground state must carry
/// at least valence + conduction_window bands.
LrTddftResult solve_lrtddft(const PlaneWaveBasis& basis,
                            const GroundState& ground,
                            const LrTddftConfig& config);

/// Builds the independent-particle transition energies (eps_c - eps_v) for
/// the window; exposed for tests (the A matrix diagonal without kernels).
std::vector<double> transition_energies(const GroundState& ground,
                                        const LrTddftConfig& config);

}  // namespace ndft::dft
