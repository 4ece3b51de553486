#include "dft/lrtddft.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/cancel.hpp"
#include "common/kernel_trace.hpp"
#include "common/thread_pool.hpp"

namespace ndft::dft {
double LrTddftResult::lowest_ev() const {
  NDFT_REQUIRE(!excitations_ha.empty(), "no excitations computed");
  return excitations_ha.front() * kEvPerHa;
}

std::vector<double> transition_energies(const GroundState& ground,
                                        const LrTddftConfig& config) {
  const std::size_t nv_total = ground.valence_bands;
  const std::size_t nv = config.window_valence(nv_total);
  const std::size_t nc = config.conduction_window;
  NDFT_REQUIRE(ground.energies_ha.size() >= nv_total + nc,
               "ground state carries too few conduction bands");
  std::vector<double> result;
  result.reserve(nv * nc);
  for (std::size_t v = nv_total - nv; v < nv_total; ++v) {
    for (std::size_t c = nv_total; c < nv_total + nc; ++c) {
      result.push_back(ground.energies_ha[c] - ground.energies_ha[v]);
    }
  }
  return result;
}

LrTddftResult solve_lrtddft(const PlaneWaveBasis& basis,
                            const GroundState& ground,
                            const LrTddftConfig& config) {
  cancel_point();  // stage boundary: before the orbital transforms
  LrTddftResult result;

  const std::size_t nv_total = ground.valence_bands;
  const std::size_t nv = config.window_valence(nv_total);
  const std::size_t nc = config.conduction_window;
  NDFT_REQUIRE(nc > 0, "need at least one conduction band");
  NDFT_REQUIRE(ground.energies_ha.size() >= nv_total + nc,
               "ground state carries too few conduction bands");
  const std::size_t npair = nv * nc;
  result.pair_count = npair;

  const auto dims = basis.fft_dims();
  const std::size_t nr = basis.fft_size();
  const double omega = basis.crystal().volume();
  const TraceStage trace_stage("lrtddft");
  trace_set_system(basis.crystal().atom_count(), basis.size(), nr);

  // Real-space orbitals for the window (valence then conduction).
  std::vector<Grid3> valence;
  valence.reserve(nv);
  for (std::size_t v = nv_total - nv; v < nv_total; ++v) {
    valence.push_back(orbital_realspace(basis, ground, v));
  }
  std::vector<Grid3> conduction;
  conduction.reserve(nc);
  for (std::size_t c = nv_total; c < nv_total + nc; ++c) {
    conduction.push_back(orbital_realspace(basis, ground, c));
  }

  // Ground-state density for the ALDA kernel: n0(r) = 2 sum_v |psi_v|^2
  // over *all* valence bands (not just the window).
  std::vector<double> density(nr, 0.0);
  for (std::size_t v = 0; v < nv_total; ++v) {
    // Reuse window grids where possible; otherwise transform on demand.
    const std::size_t window_start = nv_total - nv;
    const Grid3* grid = nullptr;
    Grid3 scratch;
    if (v >= window_start) {
      grid = &valence[v - window_start];
    } else {
      scratch = orbital_realspace(basis, ground, v);
      grid = &scratch;
    }
    for (std::size_t i = 0; i < nr; ++i) {
      density[i] += 2.0 * std::norm((*grid)[i]);
    }
  }

  // ALDA kernel f_xc(r) = d V_x / d n at n0 (Slater exchange).
  std::vector<double> fxc(nr, 0.0);
  if (config.include_xc) {
    const double prefactor = -std::cbrt(3.0 / std::numbers::pi) / 3.0;
    for (std::size_t i = 0; i < nr; ++i) {
      const double n = std::max(density[i], 1e-12);
      fxc[i] = prefactor / std::cbrt(n * n);
    }
  }

  // Face-splitting products P_vc(r) = psi_v(r) * psi_c(r), stored as a
  // (pair x grid) matrix. Orbitals are real at Gamma, so P is real, but we
  // keep the complex container because the FFT pass transforms it.
  ComplexMatrix pair_real(npair, nr);
  {
    TraceRegion region(KernelClass::kFaceSplit, "facesplit");
    region.set_dims(npair, nr, 0);
    region.add_work(6ull * npair * nr,
                    static_cast<Bytes>(npair) * nr * 3 * sizeof(Complex));
    region.set_io(static_cast<Bytes>(nv + nc) * nr * sizeof(Complex),
                  static_cast<Bytes>(npair) * nr * sizeof(Complex));
    parallel_for(0, npair, parallel_grain(nr),
                 [&](std::size_t lo, std::size_t hi) {
                   for (std::size_t p = lo; p < hi; ++p) {
                     Complex* row = pair_real.row(p);
                     const Grid3& pv = valence[p / nc];
                     const Grid3& pc = conduction[p % nc];
                     for (std::size_t i = 0; i < nr; ++i) {
                       row[i] = std::conj(pv[i]) * pc[i];
                     }
                   }
                 });
  }

  // FFT each pair product to reciprocal space. Pairs are independent, so
  // they run across the pool (fft3d detects the nesting and keeps its own
  // line loops serial inside each task).
  ComplexMatrix pair_recip(npair, nr);
  {
    // The per-pair transforms run across the pool, so the individual
    // fft3d entries must not emit (the calling thread's inline chunk
    // would make the event stream depend on the pool width); the batch
    // is one aggregated trace event with the same analytic tally.
    TraceRegion region(KernelClass::kFft, "fft.pairs");
    region.set_dims(dims[0], dims[1], dims[2]);
    region.add_work(static_cast<Flops>(npair) * fft_flops(nr),
                    static_cast<Bytes>(npair) * 4 * nr * sizeof(Complex));
    region.set_io(static_cast<Bytes>(npair) * nr * sizeof(Complex),
                  static_cast<Bytes>(npair) * nr * sizeof(Complex));
    parallel_for(0, npair, 1, [&](std::size_t lo, std::size_t hi) {
      Grid3 grid(dims[0], dims[1], dims[2]);
      const double element = omega / static_cast<double>(nr);
      for (std::size_t p = lo; p < hi; ++p) {
        std::copy(pair_real.row(p), pair_real.row(p) + nr,
                  grid.raw().begin());
        fft3d(grid, FftDirection::kForward);
        // Forward FFT sum -> density Fourier coefficients need the grid
        // volume element Omega/Nr.
        for (std::size_t i = 0; i < nr; ++i) {
          pair_recip(p, i) = grid[i] * element;
        }
      }
    });
  }

  // Coulomb-weighted conjugate copy: rows conjugated and scaled by
  // 4 pi / |G|^2, G = 0 dropped (compensated by the neutralising
  // background). The conjugation makes the kernel contraction below
  // Hermitian without assuming anything about orbital phases.
  ComplexMatrix pair_coulomb = pair_recip;
  {
    TraceRegion region(KernelClass::kFaceSplit, "coulomb");
    region.set_dims(npair, nr, 0);
    region.add_work(2ull * npair * nr,
                    static_cast<Bytes>(npair) * nr * 2 * sizeof(Complex));
    region.set_io(static_cast<Bytes>(npair) * nr * sizeof(Complex),
                  static_cast<Bytes>(npair) * nr * sizeof(Complex));
    std::vector<double> weight(nr, 0.0);
    // Build |G|^2 on the full FFT grid from the basis mapping: grid points
    // not covered by any basis vector carry higher |G|^2 than the cutoff;
    // their pair amplitudes are negligible, so weight 0 is a safe cutoff.
    for (std::size_t i = 0; i < basis.size(); ++i) {
      const double g2 = basis.gvectors()[i].g2;
      weight[basis.grid_index(i)] = (g2 > 1e-12) ? kFourPi / g2 : 0.0;
    }
    parallel_for(0, npair, parallel_grain(nr),
                 [&](std::size_t lo, std::size_t hi) {
                   for (std::size_t p = lo; p < hi; ++p) {
                     Complex* row = pair_coulomb.row(p);
                     for (std::size_t i = 0; i < nr; ++i) {
                       row[i] = std::conj(row[i]) * weight[i];
                     }
                   }
                 });
  }

  // Hartree kernel K_H(p, q) = (1/Omega) sum_G rho_p(G) v(G) conj(rho_q(G)):
  // Hermitian positive semidefinite for any orbital gauge. Eigensolver
  // orientations inside degenerate multiplets are arbitrary, so the
  // kernels must not assume real pair densities.
  ComplexMatrix k_hartree;
  gemm(pair_recip, pair_coulomb, k_hartree,
       Complex{1.0 / omega, 0.0}, Complex{}, /*conj_transpose_a=*/false,
       /*transpose_b=*/true);

  // XC kernel K_xc(p, q) = sum_r P_p(r) f_xc(r) conj(P_q(r)) dOmega,
  // Hermitian with a strictly negative diagonal (f_xc < 0).
  ComplexMatrix k_xc(npair, npair);
  if (config.include_xc) {
    ComplexMatrix weighted(npair, nr);
    const double element = omega / static_cast<double>(nr);
    {
      TraceRegion region(KernelClass::kFaceSplit, "xc.weight");
      region.set_dims(npair, nr, 0);
      region.add_work(2ull * npair * nr,
                      static_cast<Bytes>(npair) * nr * 2 * sizeof(Complex));
      region.set_io(static_cast<Bytes>(npair) * nr * sizeof(Complex),
                    static_cast<Bytes>(npair) * nr * sizeof(Complex));
      parallel_for(0, npair, parallel_grain(nr),
                   [&](std::size_t lo, std::size_t hi) {
                     for (std::size_t p = lo; p < hi; ++p) {
                       const Complex* src = pair_real.row(p);
                       Complex* dst = weighted.row(p);
                       for (std::size_t i = 0; i < nr; ++i) {
                         dst[i] = std::conj(src[i]) * (fxc[i] * element);
                       }
                     }
                   });
    }
    gemm(pair_real, weighted, k_xc, Complex{1.0, 0.0}, Complex{},
         /*conj_transpose_a=*/false, /*transpose_b=*/true);
  }

  cancel_point();  // stage boundary: kernels built, Casida solve ahead
  // Assemble the TDA (Casida) matrix A = diag(eps_c - eps_v) + s*(K_H+K_xc)
  // and Hermitise away the numerical skew from finite FFT grids. A is
  // complex Hermitian in general; it degenerates to real symmetric only
  // when every orbital happens to be real in real space.
  const std::vector<double> diagonal = transition_energies(ground, config);
  ComplexMatrix a_matrix(npair, npair);
  {
    TraceRegion region(KernelClass::kOther, "assemble");
    region.set_dims(npair, npair, 0);
    region.add_work(6ull * npair * npair,
                    static_cast<Bytes>(npair) * npair * 3 * sizeof(Complex));
    region.set_io(static_cast<Bytes>(npair) * npair * 2 * sizeof(Complex),
                  static_cast<Bytes>(npair) * npair * sizeof(Complex));
    for (std::size_t p = 0; p < npair; ++p) {
      for (std::size_t q = 0; q < npair; ++q) {
        Complex value = config.spin_factor *
                        (k_hartree(p, q) +
                         (config.include_xc ? k_xc(p, q) : Complex{}));
        if (p == q) {
          value = Complex{value.real() + diagonal[p], 0.0};
        }
        a_matrix(p, q) = value;
      }
    }
    for (std::size_t p = 0; p < npair; ++p) {
      a_matrix(p, p) = Complex{a_matrix(p, p).real(), 0.0};
      for (std::size_t q = p + 1; q < npair; ++q) {
        const Complex mean =
            0.5 * (a_matrix(p, q) + std::conj(a_matrix(q, p)));
        a_matrix(p, q) = mean;
        a_matrix(q, p) = std::conj(mean);
      }
    }
  }

  HermitianEigenResult eigen = heev(a_matrix);
  result.excitations_ha = std::move(eigen.eigenvalues);
  result.eigenvectors = std::move(eigen.eigenvectors);
  return result;
}

}  // namespace ndft::dft
