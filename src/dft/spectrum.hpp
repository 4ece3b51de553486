#pragma once
// Optical observables on top of the LR-TDDFT solution: oscillator
// strengths from velocity-gauge transition moments, and the
// Lorentzian-broadened absorption spectrum — what a user of the paper's
// system would actually plot.

#include <vector>

#include "dft/basis.hpp"
#include "dft/epm.hpp"
#include "dft/lrtddft.hpp"

namespace ndft::dft {

/// One excitation with its oscillator strength.
struct OscillatorLine {
  double energy_ev = 0.0;
  double strength = 0.0;  ///< dimensionless f_I >= 0
};

/// Oscillator strengths for every excitation of an LR-TDDFT result
/// computed on `ground` with `config`:
/// f_I = (2 / (3 omega_I)) * sum_dir |sum_vc X^I_vc <v|p_dir|c>|^2, from
/// the result's Casida eigenvectors X^I and the velocity-gauge moments of
/// the window's (v, c) pairs.
std::vector<OscillatorLine> oscillator_strengths(
    const PlaneWaveBasis& basis, const GroundState& ground,
    const LrTddftConfig& config, const LrTddftResult& result);

/// Lorentzian-broadened absorption cross-section on an energy grid:
/// sigma(E) = sum_I f_I * (gamma/pi) / ((E - E_I)^2 + gamma^2).
std::vector<double> absorption_spectrum(
    const std::vector<OscillatorLine>& lines,
    const std::vector<double>& energies_ev, double gamma_ev = 0.1);

}  // namespace ndft::dft
