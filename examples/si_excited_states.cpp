// Runs the *functional* LR-TDDFT pipeline end to end on a real silicon
// supercell through the Engine API: empirical-pseudopotential ground
// state, face-splitting products, FFTs, Coulomb/ALDA kernels, GEMM
// contraction and SYEVD diagonalization — printing the excitation
// energies, the optical spectrum, and the fully self-consistent LDA
// ground state for comparison. The LR-TDDFT and SCF jobs are submitted
// together and run concurrently through the engine queue.
//
//   ./si_excited_states [atoms] [ecut_ry]    (defaults: Si_8, 4.5 Ry)

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "api/engine.hpp"
#include "dft/spectrum.hpp"

using namespace ndft;

int main(int argc, char** argv) {
  std::size_t atoms = 8;
  double ecut_ry = 4.5;
  if (argc > 1) atoms = std::strtoul(argv[1], nullptr, 10);
  if (argc > 2) ecut_ry = std::strtod(argv[2], nullptr);

  api::Engine engine;

  // LR-TDDFT excitation spectrum (TDA) over a window around the gap,
  // with oscillator strengths for the optical spectrum.
  api::LrtddftJob excitation_job;
  excitation_job.atoms = atoms;
  excitation_job.ecut_ry = ecut_ry;
  excitation_job.config.valence_window =
      std::min<std::size_t>(2 * atoms, 8);
  excitation_job.config.conduction_window = 4;
  excitation_job.oscillator_strengths = true;
  excitation_job.record_trace = true;  // for the per-kernel cost table

  // Fully self-consistent ground state (Ashcroft empty-core + LDA) for
  // comparison with the empirical one.
  api::ScfJob scf_job;
  scf_job.atoms = atoms;
  scf_job.ecut_ry = ecut_ry;
  scf_job.scf.tolerance = 1e-5;

  std::vector<api::JobHandle> handles =
      engine.submit_batch({excitation_job, scf_job});

  const api::JobResult& excitation_result = handles[0].wait();
  if (!excitation_result.ok()) {
    std::fprintf(stderr, "si_excited_states: lrtddft job failed: %s\n",
                 excitation_result.error_message.c_str());
    return 1;
  }
  const api::LrtddftPayload& lr = *excitation_result.lrtddft;

  std::printf("Si_%zu: %zu plane waves at %.1f Ry, FFT grid %zux%zux%zu\n",
              lr.atoms, lr.basis_size, ecut_ry, lr.grid_dims[0],
              lr.grid_dims[1], lr.grid_dims[2]);
  std::printf("ground state: %zu valence bands, gap %.3f eV\n",
              lr.valence_bands, lr.ground_gap_ev);
  std::printf("nonlocal pseudopotential: %zu projectors, <psi0|V_nl|psi0> "
              "= %.4f Ha\n",
              lr.projector_count, lr.nonlocal_expectation_ha);

  std::printf("\nLR-TDDFT (TDA): %zu pair states\n", lr.pair_count);
  std::printf("  lowest excitations (eV):");
  for (std::size_t i = 0;
       i < std::min<std::size_t>(6, lr.excitations_ha.size()); ++i) {
    std::printf(" %.3f", lr.excitations_ha[i] * dft::kEvPerHa);
  }
  // Each kernel's analytic work, summed per class over the trace's
  // LR-TDDFT stage (no trace: a "trace:recorder_failed" degradation).
  std::printf("\n  per-kernel cost of this run:\n");
  const std::vector<TraceEvent> no_events;
  const std::vector<TraceEvent>& events =
      excitation_result.trace ? excitation_result.trace->events : no_events;
  for (std::size_t c = 0; c < enum_names(KernelClass{}).size(); ++c) {
    const auto cls = static_cast<KernelClass>(c);
    Flops flops = 0;
    Bytes bytes = 0;
    for (const TraceEvent& event : events) {
      if (event.cls != cls || event.stage != "lrtddft") continue;
      flops += event.flops;
      bytes += event.bytes;
    }
    if (flops == 0 && bytes == 0) continue;
    std::printf("    %-16s %8.2f MFLOP  %8.2f MB\n", to_string(cls),
                static_cast<double>(flops) / 1e6,
                static_cast<double>(bytes) / 1e6);
  }

  // Oscillator strengths and a broadened absorption spectrum, plotted
  // from the payload's optical lines.
  double strongest = 0.0;
  double strongest_ev = 0.0;
  std::vector<dft::OscillatorLine> lines;
  for (const api::OscillatorLinePayload& line : lr.lines) {
    lines.push_back({line.energy_ev, line.strength});
    if (line.strength > strongest) {
      strongest = line.strength;
      strongest_ev = line.energy_ev;
    }
  }
  std::printf("\nstrongest optical line: %.2f eV (f = %.3f)\n",
              strongest_ev, strongest);
  std::printf("absorption spectrum (0.5 eV bins, Lorentzian 0.2 eV):\n  ");
  std::vector<double> grid;
  for (double e = 0.5; e <= 12.0; e += 0.5) grid.push_back(e);
  const auto sigma = dft::absorption_spectrum(lines, grid, 0.2);
  double peak = 1e-12;
  for (const double v : sigma) peak = std::max(peak, v);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const int bars = static_cast<int>(sigma[i] / peak * 40.0);
    std::printf("%5.1f eV |%.*s\n  ", grid[i], bars,
                "########################################");
  }
  std::printf("\n");

  const api::JobResult& scf_result = handles[1].wait();
  if (!scf_result.ok()) {
    std::fprintf(stderr, "si_excited_states: scf job failed: %s\n",
                 scf_result.error_message.c_str());
    return 1;
  }
  const api::ScfPayload& scf = *scf_result.scf;
  std::printf("SCF-LDA ground state: %s after %zu iterations, gap %.3f eV, "
              "%.1f electrons\n",
              scf.converged ? "converged" : "NOT converged",
              scf.iterations, scf.gap_ev, scf.electron_count);
  return 0;
}
