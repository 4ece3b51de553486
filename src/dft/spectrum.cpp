#include "dft/spectrum.hpp"

#include <cmath>
#include <numbers>

namespace ndft::dft {

std::vector<OscillatorLine> oscillator_strengths(
    const PlaneWaveBasis& basis, const GroundState& ground,
    const LrTddftConfig& config, const LrTddftResult& result) {
  // Per-pair momentum vectors <v| p |c> = sum_G c_v(G) G c_c(G) (real
  // coefficients), kept directional so excitation amplitudes can
  // interfere, in solve_lrtddft's pair order.
  const std::size_t nv_total = ground.valence_bands;
  const std::size_t nv = config.window_valence(nv_total);
  const std::size_t nc = config.conduction_window;
  NDFT_REQUIRE(nv * nc == result.pair_count &&
                   result.eigenvectors.rows() == result.pair_count &&
                   result.eigenvectors.cols() ==
                       result.excitations_ha.size(),
               "LR-TDDFT result does not match the excitation window");
  const auto& g = basis.gvectors();
  std::vector<Vec3> moments;
  moments.reserve(nv * nc);
  for (std::size_t v = nv_total - nv; v < nv_total; ++v) {
    for (std::size_t c = nv_total; c < nv_total + nc; ++c) {
      Vec3 moment{};
      for (std::size_t i = 0; i < basis.size(); ++i) {
        const double w = ground.orbitals(i, v) * ground.orbitals(i, c);
        moment = moment + g[i].g * w;
      }
      moments.push_back(moment);
    }
  }

  std::vector<OscillatorLine> lines;
  lines.reserve(result.excitations_ha.size());
  for (std::size_t x = 0; x < result.excitations_ha.size(); ++x) {
    const double omega = result.excitations_ha[x];
    // Casida eigenvectors are complex (Hermitian response matrix), so the
    // Cartesian amplitudes interfere as complex sums; the strength takes
    // their squared moduli.
    Complex ax{};
    Complex ay{};
    Complex az{};
    for (std::size_t p = 0; p < result.pair_count; ++p) {
      const Complex weight = result.eigenvectors(p, x);
      ax += moments[p].x * weight;
      ay += moments[p].y * weight;
      az += moments[p].z * weight;
    }
    const double amplitude2 =
        std::norm(ax) + std::norm(ay) + std::norm(az);
    OscillatorLine line;
    line.energy_ev = omega * kEvPerHa;
    line.strength =
        omega > 1e-12 ? 2.0 / (3.0 * omega) * amplitude2 : 0.0;
    lines.push_back(line);
  }
  return lines;
}

std::vector<double> absorption_spectrum(
    const std::vector<OscillatorLine>& lines,
    const std::vector<double>& energies_ev, double gamma_ev) {
  NDFT_REQUIRE(gamma_ev > 0.0, "broadening must be positive");
  std::vector<double> sigma(energies_ev.size(), 0.0);
  for (std::size_t e = 0; e < energies_ev.size(); ++e) {
    for (const OscillatorLine& line : lines) {
      const double delta = energies_ev[e] - line.energy_ev;
      sigma[e] += line.strength * (gamma_ev / std::numbers::pi) /
                  (delta * delta + gamma_ev * gamma_ev);
    }
  }
  return sigma;
}

}  // namespace ndft::dft
