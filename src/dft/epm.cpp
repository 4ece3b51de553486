#include "dft/epm.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/kernel_trace.hpp"
#include "common/thread_pool.hpp"

namespace ndft::dft {

double GroundState::band_gap_ev() const {
  NDFT_REQUIRE(valence_bands > 0 && valence_bands < energies_ha.size(),
               "band gap needs both valence and conduction bands");
  return (energies_ha[valence_bands] - energies_ha[valence_bands - 1]) *
         kEvPerHa;
}

Grid3 orbital_realspace(const PlaneWaveBasis& basis, const GroundState& ground,
                        std::size_t band) {
  const auto dims = basis.fft_dims();
  Grid3 grid(dims[0], dims[1], dims[2]);
  for (std::size_t i = 0; i < basis.size(); ++i) {
    grid[basis.grid_index(i)] = Complex{ground.orbitals(i, band), 0.0};
  }
  fft3d(grid, FftDirection::kInverse);
  // The inverse FFT gives (1/Nr) sum_G c_G e^{iGr}; multiply by
  // Nr/sqrt(Omega).
  const double scale = static_cast<double>(grid.size()) /
                       std::sqrt(basis.crystal().volume());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    grid[i] *= scale;
  }
  return grid;
}

double silicon_form_factor(double g2_units) {
  // Cohen & Bergstresser, PRB 141, 789 (1966), symmetric form factors for
  // Si: V(sqrt3) = -0.21 Ry, V(sqrt8) = +0.04 Ry, V(sqrt11) = +0.08 Ry.
  const double tolerance = 1e-6;
  if (std::fabs(g2_units - 3.0) < tolerance) return -0.21 * kHaPerRy;
  if (std::fabs(g2_units - 8.0) < tolerance) return 0.04 * kHaPerRy;
  if (std::fabs(g2_units - 11.0) < tolerance) return 0.08 * kHaPerRy;
  return 0.0;
}

double epm_potential(const Crystal& crystal, const GVector& g,
                     const GVector& gp) {
  const Vec3 dg = g.g - gp.g;
  const double unit = 2.0 * std::numbers::pi / kSiliconLatticeBohr;
  const double g2_units = dg.norm2() / (unit * unit);
  const double form = silicon_form_factor(g2_units);
  if (form == 0.0) {
    return 0.0;
  }
  // Structure factor averaged over atoms; real because atoms sit at +/-tau
  // around the bond-centred origin. Nonzero only on G vectors commensurate
  // with the primitive cell, which the average captures automatically.
  double structure = 0.0;
  for (const Vec3& position : crystal.positions()) {
    structure += std::cos(dg.dot(position));
  }
  structure /= static_cast<double>(crystal.atom_count());
  return form * structure;
}

RealMatrix epm_potential_matrix(const PlaneWaveBasis& basis,
                                const char* region) {
  const std::size_t n = basis.size();
  const auto& g = basis.gvectors();
  // Rows of the upper triangle are independent: assemble on the thread
  // pool, then mirror (each pass writes disjoint rows; the region
  // aggregates, so the trace shape ignores the chunking).
  RealMatrix potential(n, n);
  TraceRegion trace(KernelClass::kOther, region);
  trace.set_dims(n, n, 0);
  trace.add_work(static_cast<Flops>(n) * n * 8,
                 static_cast<Bytes>(n) * n * sizeof(double));
  trace.set_io(0, static_cast<Bytes>(n) * n * sizeof(double));
  parallel_for(0, n, parallel_grain(n), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        potential(i, j) = epm_potential(basis.crystal(), g[i], g[j]);
      }
    }
  });
  mirror_upper(potential);
  return potential;
}

void set_epm_kinetic(const PlaneWaveBasis& basis, const Vec3& k,
                     RealMatrix& hamiltonian) {
  const auto& g = basis.gvectors();
  for (std::size_t i = 0; i < basis.size(); ++i) {
    hamiltonian(i, i) = 0.5 * (k + g[i].g).norm2();
  }
}

RealMatrix epm_hamiltonian(const PlaneWaveBasis& basis, const Vec3& k,
                           const char* region) {
  RealMatrix hamiltonian = epm_potential_matrix(basis, region);
  set_epm_kinetic(basis, k, hamiltonian);
  return hamiltonian;
}

GroundState solve_epm(const PlaneWaveBasis& basis, std::size_t bands) {
  const std::size_t n = basis.size();
  NDFT_REQUIRE(n > 0, "empty plane-wave basis");
  const TraceStage trace_stage("epm");
  trace_set_system(basis.crystal().atom_count(), n, basis.fft_size());

  const RealMatrix hamiltonian =
      epm_hamiltonian(basis, Vec3{}, "epm.assembly");
  EigenResult eigen = syevd(hamiltonian);

  GroundState state;
  state.valence_bands = basis.crystal().atom_count() * 2;  // 4 e- per Si
  const std::size_t keep = (bands == 0) ? n : std::min(bands, n);
  NDFT_REQUIRE(keep > state.valence_bands,
               "band window must extend past the valence bands");
  state.energies_ha.assign(eigen.eigenvalues.begin(),
                           eigen.eigenvalues.begin() +
                               static_cast<std::ptrdiff_t>(keep));
  state.orbitals = RealMatrix(n, keep);
  for (std::size_t j = 0; j < keep; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      state.orbitals(i, j) = eigen.eigenvectors(i, j);
    }
  }
  return state;
}

}  // namespace ndft::dft
