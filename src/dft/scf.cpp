#include "dft/scf.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <functional>
#include <numbers>
#include <thread>
#include <utility>

#include "common/cancel.hpp"
#include "common/fault.hpp"
#include "common/kernel_trace.hpp"
#include "common/str_util.hpp"
#include "common/thread_pool.hpp"
#include "dft/linalg.hpp"

namespace ndft::dft {

std::span<const char* const> enum_names(MixingScheme) noexcept {
  static constexpr const char* kNames[] = {"linear", "anderson"};
  static_assert(std::size(kNames) ==
                static_cast<std::size_t>(MixingScheme::kAnderson) + 1);
  return kNames;
}
namespace {

constexpr double kDensityFloor = 1e-12;

}  // namespace

double lda_vxc(double n) {
  n = std::max(n, kDensityFloor);
  // Slater exchange: V_x = -(3/pi)^(1/3) n^(1/3).
  const double vx = -std::cbrt(3.0 / std::numbers::pi) * std::cbrt(n);
  // Perdew-Zunger '81 correlation, unpolarised.
  const double rs = std::cbrt(3.0 / (kFourPi * n));
  double vc;
  if (rs >= 1.0) {
    constexpr double gamma = -0.1423;
    constexpr double beta1 = 1.0529;
    constexpr double beta2 = 0.3334;
    const double sqrt_rs = std::sqrt(rs);
    const double denom = 1.0 + beta1 * sqrt_rs + beta2 * rs;
    const double ec = gamma / denom;
    vc = ec * (1.0 + 7.0 / 6.0 * beta1 * sqrt_rs + 4.0 / 3.0 * beta2 * rs) /
         denom;
  } else {
    constexpr double a = 0.0311;
    constexpr double b = -0.048;
    constexpr double c = 0.0020;
    constexpr double d = -0.0116;
    const double ln_rs = std::log(rs);
    vc = a * ln_rs + (b - a / 3.0) + 2.0 / 3.0 * c * rs * ln_rs +
         (2.0 * d - c) / 3.0 * rs;
  }
  return vx + vc;
}

double lda_exc(double n) {
  n = std::max(n, kDensityFloor);
  const double ex = -0.75 * std::cbrt(3.0 / std::numbers::pi) * std::cbrt(n);
  const double rs = std::cbrt(3.0 / (kFourPi * n));
  double ec;
  if (rs >= 1.0) {
    const double sqrt_rs = std::sqrt(rs);
    ec = -0.1423 / (1.0 + 1.0529 * sqrt_rs + 0.3334 * rs);
  } else {
    const double ln_rs = std::log(rs);
    ec = 0.0311 * ln_rs - 0.048 + 0.0020 * rs * ln_rs - 0.0116 * rs;
  }
  return ex + ec;
}

double ashcroft_potential(const Crystal& crystal, const Vec3& dg,
                          double valence_charge, double core_radius_bohr) {
  const double q2 = dg.norm2();
  if (q2 < 1e-12) {
    return 0.0;  // cancelled by the neutralising background
  }
  const double q = std::sqrt(q2);
  const double form = -(kFourPi * valence_charge / q2) *
                      std::cos(q * core_radius_bohr);
  double structure = 0.0;
  for (const Vec3& position : crystal.positions()) {
    structure += std::cos(dg.dot(position));
  }
  return form * structure / crystal.volume();
}

double ashcroft_potential(const Crystal& crystal, const GVector& g,
                          const GVector& gp, double valence_charge,
                          double core_radius_bohr) {
  return ashcroft_potential(crystal, g.g - gp.g, valence_charge,
                            core_radius_bohr);
}

double ScfResult::electron_count(const PlaneWaveBasis& basis) const {
  const double element = basis.crystal().volume() /
                         static_cast<double>(basis.fft_size());
  double total = 0.0;
  for (const double n : density) {
    total += n;
  }
  return total * element;
}

namespace {

/// 1/sqrt(2), the weight of each partner in a parity basis vector.
constexpr double kInvSqrt2 = std::numbers::sqrt2 / 2;

/// Runs body(b) for every block b < count: one block per pool thread, or
/// in series on the calling thread while a trace is active or faults are
/// armed (kernel events and fault draws then stay on the job thread, as
/// in the band k-loop). A block solved on a pool worker tallies its
/// linalg time there; it is credited to the calling thread afterwards.
void for_each_block(std::size_t count, bool serial,
                    const std::function<void(std::size_t)>& body) {
  if (serial) {
    for (std::size_t b = 0; b < count; ++b) body(b);
    return;
  }
  const std::thread::id caller = std::this_thread::get_id();
  double worker_ms[2] = {0.0, 0.0};
  LinalgStageTimes worker_stages[2];
  parallel_for(0, count, 1, [&](std::size_t lo, std::size_t hi) {
    const bool worker = std::this_thread::get_id() != caller;
    for (std::size_t b = lo; b < hi; ++b) {
      if (worker) linalg_timer_reset();
      body(b);
      if (worker) {
        worker_ms[b] = linalg_timer_ms();
        worker_stages[b] = linalg_stage_times();
      }
    }
  });
  for (std::size_t b = 0; b < count; ++b) {
    linalg_timer_add(worker_ms[b], worker_stages[b]);
  }
}

}  // namespace

ParitySolver::ParitySolver(std::span<const std::size_t> partner)
    : partner_(partner.begin(), partner.end()) {
  const std::size_t n = partner_.size();
  for (std::size_t i = 0; i < n; ++i) {
    NDFT_REQUIRE(partner_[i] < n && partner_[partner_[i]] == i,
                 "parity: the partner map must be an involution");
    if (partner_[i] == i) {
      fixed_.push_back(i);
    } else if (i < partner_[i]) {
      pairs_.push_back(i);
    }
  }
}

void ParitySolver::fold(const RealMatrix& symmetric) {
  // Upper triangles from the rows of the fixed points and of each pair's
  // lower index: with H(Pi, Pj) = H(i, j), the even block's pair-pair
  // element is H(i, j) + H(i, Pj) and the odd block's H(i, j) - H(i, Pj).
  const std::size_t nf = fixed_.size();
  const std::size_t np = pairs_.size();
  RealMatrix& even = blocks_[0];
  RealMatrix& odd = blocks_[1];
  even.reset(nf + np, nf + np);
  odd.reset(np, np);
  for (std::size_t a = 0; a < nf; ++a) {
    const double* row = symmetric.row(fixed_[a]);
    for (std::size_t b = a; b < nf; ++b) even(a, b) = row[fixed_[b]];
    for (std::size_t q = 0; q < np; ++q) {
      even(a, nf + q) =
          (row[pairs_[q]] + row[partner_[pairs_[q]]]) * kInvSqrt2;
    }
  }
  for (std::size_t p = 0; p < np; ++p) {
    const double* row = symmetric.row(pairs_[p]);
    for (std::size_t q = p; q < np; ++q) {
      const double direct = row[pairs_[q]];
      const double crossed = row[partner_[pairs_[q]]];
      even(nf + p, nf + q) = direct + crossed;
      odd(p, q) = direct - crossed;
    }
  }
  mirror_upper(even);
  mirror_upper(odd);
}

EigenResult ParitySolver::solve(const RealMatrix& symmetric, std::size_t m) {
  const std::size_t n = partner_.size();
  NDFT_REQUIRE(symmetric.rows() == n && symmetric.cols() == n,
               "parity solve: matrix must be n x n over the partner map");
  NDFT_REQUIRE(m >= 1 && m <= n,
               "parity solve: eigenpair count must be in [1, n]");
  // Read before the event opens: an open kernel event hides the recorder.
  const bool serial = trace_active() || fault_enabled();
  KernelTimer trace(KernelClass::kSyevd, "syevd.partial");
  trace.set_dims(n, m, 0);
  trace.set_io(n * n * sizeof(double), (n * m + m) * sizeof(double));
  if (fault_fires("solver.syevd_partial")) {
    // Injected solver fault: the dense full solve, as syevd_partial runs.
    note_degradation("syevd_partial:full_fallback");
    const SyevdCost full = syevd_cost(n);
    trace.set_work(full.flops, full.bytes);
    return syevd_lowest(symmetric, m);
  }

  fold(symmetric);
  const std::size_t count = pairs_.empty() ? 1 : 2;  // odd block empty
  std::vector<double> values[2];
  for_each_block(count, serial, [&](std::size_t b) {
    values[b] = syevd_window_values(
        blocks_[b], std::min(m, blocks_[b].rows()), workspaces_[b]);
  });

  // The lowest m values of the union, even first on a tie. The blocks
  // bisected min(m, size) values each, so together they hold m.
  std::vector<std::uint8_t> from_odd(m);
  std::size_t kept[2] = {0, 0};
  for (std::size_t j = 0; j < m; ++j) {
    const bool odd = kept[0] == values[0].size() ||
                     (kept[1] < values[1].size() &&
                      values[1][kept[1]] < values[0][kept[0]]);
    from_odd[j] = odd;
    ++kept[odd];
  }

  RealMatrix vectors[2];
  for_each_block(count, serial, [&](std::size_t b) {
    if (kept[b] > 0) {
      vectors[b] = syevd_window_vectors(kept[b], workspaces_[b]);
    }
  });
  SyevdCost cost;
  for (std::size_t b = 0; b < count; ++b) {
    const SyevdCost block =
        syevd_window_cost(blocks_[b].rows(), values[b].size(), kept[b]);
    cost.flops += block.flops;
    cost.bytes += block.bytes;
  }
  trace.set_work(cost.flops, cost.bytes);

  // Back to G-space: c(f) = x_f at a fixed point, c(i) = x/sqrt(2) and
  // c(Pi) = +-x/sqrt(2) for a pair, the sign its block's parity.
  const std::size_t nf = fixed_.size();
  EigenResult result;
  result.eigenvalues.resize(m);
  result.eigenvectors.reset(n, m);
  RealMatrix& z = result.eigenvectors;
  std::size_t next[2] = {0, 0};
  for (std::size_t j = 0; j < m; ++j) {
    const std::size_t b = from_odd[j];
    const std::size_t c = next[b]++;
    const RealMatrix& x = vectors[b];
    result.eigenvalues[j] = values[b][c];
    const std::size_t offset = b == 0 ? nf : 0;
    const double sign = b == 0 ? 1.0 : -1.0;
    if (b == 0) {
      for (std::size_t a = 0; a < nf; ++a) z(fixed_[a], j) = x(a, c);
    }
    for (std::size_t q = 0; q < pairs_.size(); ++q) {
      const double v = x(offset + q, c) * kInvSqrt2;
      z(pairs_[q], j) = v;
      z(partner_[pairs_[q]], j) = sign * v;
    }
  }
  return result;
}

ScfResult solve_scf(const PlaneWaveBasis& basis, const ScfConfig& config) {
  NDFT_REQUIRE(config.mixing > 0.0 && config.mixing <= 1.0,
               "mixing must be in (0, 1]");
  NDFT_REQUIRE(config.tolerance > 0.0, "tolerance must be positive");

  const std::size_t n_g = basis.size();
  const std::size_t nr = basis.fft_size();
  const auto dims = basis.fft_dims();
  const double omega = basis.crystal().volume();
  const double element = omega / static_cast<double>(nr);
  const std::size_t valence = basis.crystal().atom_count() * 2;
  const std::size_t bands =
      config.bands == 0 ? std::min(n_g, valence + 8)
                        : std::min(n_g, config.bands);
  NDFT_REQUIRE(bands > valence, "band count must exceed the valence count");

  // Bare ionic potential matrix, fixed across the loop. The matrix
  // element depends only on the integer G-difference (dh, dk, dl), so the
  // form factor and the per-atom structure-factor cos() sum are tabulated
  // once per geometry over the (4H+1)(4K+1)(4L+1) distinct differences
  // (components span [-2H, 2H] etc.); the O(n_g^2) assembly then reduces
  // to table lookups. Table rows and matrix rows are independent, so both
  // go to the thread pool.
  const auto& g = basis.gvectors();
  const Crystal& crystal = basis.crystal();
  int span_h = 0;
  int span_k = 0;
  int span_l = 0;
  for (const GVector& gv : g) {
    span_h = std::max(span_h, std::abs(gv.h));
    span_k = std::max(span_k, std::abs(gv.k));
    span_l = std::max(span_l, std::abs(gv.l));
  }
  // Differences reach twice the single-vector extent in each direction.
  const std::size_t dim_h = static_cast<std::size_t>(4 * span_h + 1);
  const std::size_t dim_k = static_cast<std::size_t>(4 * span_k + 1);
  const std::size_t dim_l = static_cast<std::size_t>(4 * span_l + 1);
  std::vector<double> v_ion_table(dim_h * dim_k * dim_l);
  RealMatrix v_ion(n_g, n_g);
  trace_set_system(crystal.atom_count(), n_g, nr);
  {
    // One trace event for the per-geometry ionic-potential tabulation:
    // ~20 flops per cos() plus the dot product, per table entry per atom,
    // and the O(n_g^2) lookup assembly.
    TraceRegion region(KernelClass::kOther, "scf.v_ion");
    region.set_dims(n_g, n_g, 0);
    region.add_work(static_cast<Flops>(v_ion_table.size()) *
                            (24 * crystal.atom_count() + 8) +
                        static_cast<Flops>(n_g) * n_g,
                    v_ion_table.size() * sizeof(double) +
                        static_cast<Bytes>(n_g) * n_g * sizeof(double));
    region.set_io(0, static_cast<Bytes>(n_g) * n_g * sizeof(double));
    parallel_for(
        0, dim_h, parallel_grain(dim_k * dim_l * crystal.atom_count()),
        [&](std::size_t lo, std::size_t hi) {
          for (std::size_t th = lo; th < hi; ++th) {
            const int dh = static_cast<int>(th) - 2 * span_h;
            for (std::size_t tk = 0; tk < dim_k; ++tk) {
              const int dk = static_cast<int>(tk) - 2 * span_k;
              for (std::size_t tl = 0; tl < dim_l; ++tl) {
                const int dl = static_cast<int>(tl) - 2 * span_l;
                const Vec3 dg = crystal.b1() * static_cast<double>(dh) +
                                crystal.b2() * static_cast<double>(dk) +
                                crystal.b3() * static_cast<double>(dl);
                v_ion_table[(th * dim_k + tk) * dim_l + tl] =
                    ashcroft_potential(crystal, dg, config.valence_charge,
                                       config.core_radius_bohr);
              }
            }
          }
        });
    const auto v_ion_at = [&](const GVector& a, const GVector& b) {
      const std::size_t th = static_cast<std::size_t>(a.h - b.h + 2 * span_h);
      const std::size_t tk = static_cast<std::size_t>(a.k - b.k + 2 * span_k);
      const std::size_t tl = static_cast<std::size_t>(a.l - b.l + 2 * span_l);
      return v_ion_table[(th * dim_k + tk) * dim_l + tl];
    };
    parallel_for(0, n_g, parallel_grain(n_g),
                 [&](std::size_t lo, std::size_t hi) {
                   for (std::size_t i = lo; i < hi; ++i) {
                     for (std::size_t j = i; j < n_g; ++j) {
                       v_ion(i, j) = v_ion_at(g[i], g[j]);
                     }
                   }
                 });
    mirror_upper(v_ion);
  }

  // V_eff(G_i - G_j) comes off the FFT grid at the wrapped integer
  // difference. The difference index (th * dim_k + tk) * dim_l + tl of the
  // ionic table is key(i) - key(j) + key_origin, so the grid index of
  // every difference is tabulated here once; each iteration then reads
  // V_eff once per difference and assembles the Hamiltonian from the
  // tables, with no integer division per matrix entry.
  const auto wrap = [](int idx, std::size_t n) {
    const int ni = static_cast<int>(n);
    return static_cast<std::size_t>(((idx % ni) + ni) % ni);
  };
  std::vector<std::uint32_t> grid_of_difference(v_ion_table.size());
  for (std::size_t th = 0; th < dim_h; ++th) {
    const std::size_t ix = wrap(static_cast<int>(th) - 2 * span_h, dims[0]);
    for (std::size_t tk = 0; tk < dim_k; ++tk) {
      const std::size_t iy =
          wrap(static_cast<int>(tk) - 2 * span_k, dims[1]);
      for (std::size_t tl = 0; tl < dim_l; ++tl) {
        const std::size_t iz =
            wrap(static_cast<int>(tl) - 2 * span_l, dims[2]);
        grid_of_difference[(th * dim_k + tk) * dim_l + tl] =
            static_cast<std::uint32_t>((iz * dims[1] + iy) * dims[0] + ix);
      }
    }
  }
  const std::ptrdiff_t stride_h = static_cast<std::ptrdiff_t>(dim_k * dim_l);
  const std::ptrdiff_t stride_k = static_cast<std::ptrdiff_t>(dim_l);
  std::vector<std::ptrdiff_t> key(n_g);
  for (std::size_t i = 0; i < n_g; ++i) {
    key[i] = g[i].h * stride_h + g[i].k * stride_k + g[i].l;
  }
  const std::ptrdiff_t key_origin =
      2 * span_h * stride_h + 2 * span_k * stride_k + 2 * span_l;
  std::vector<double> veff_of_difference(v_ion_table.size());

  ScfResult result;
  // Initial guess: uniform density with the right electron count
  // (2 electrons per valence band).
  result.density.assign(nr, static_cast<double>(2 * valence) / omega);

  // Previous iterate and residual for Anderson acceleration.
  std::vector<double> prev_density;
  std::vector<double> prev_residual;

  // Every iteration rewrites the whole Hamiltonian and solves the same
  // window shape, so both keep their memory across the loop.
  RealMatrix hamiltonian(n_g, n_g);
  ParitySolver parity(basis.partners());
  GroundState state;
  for (unsigned iteration = 0; iteration < config.max_iterations;
       ++iteration) {
    // Stage boundary: cooperative cancellation/deadline checkpoint and
    // the per-iteration allocation-pressure injection site. Both are a
    // single branch when no token/spec is installed.
    cancel_point();
    fault_point("scf.alloc");
    const TraceStage trace_stage(
        trace_active() ? strformat("scf[%u]", iteration) : std::string());
    // --- effective potential on the grid.
    // Hartree: V_H(G) = 4 pi n(G) / G^2, via FFT of the density.
    Grid3 density_grid(dims[0], dims[1], dims[2]);
    for (std::size_t i = 0; i < nr; ++i) {
      density_grid[i] = Complex{result.density[i], 0.0};
    }
    fft3d(density_grid, FftDirection::kForward);
    // Forward FFT yields sum_r n(r) e^{-iGr}; n(G) = that * element/Omega
    // in the convention where V_H(r) = sum_G V_H(G) e^{iGr}.
    Grid3 hartree_grid(dims[0], dims[1], dims[2]);
    for (std::size_t i = 0; i < n_g; ++i) {
      const std::size_t idx = basis.grid_index(i);
      if (g[i].g2 < 1e-12) {
        hartree_grid[idx] = Complex{};  // neutralising background
        continue;
      }
      const Complex n_of_g = density_grid[idx] * (element / omega);
      hartree_grid[idx] = kFourPi / g[i].g2 * n_of_g;
    }
    fft3d(hartree_grid, FftDirection::kInverse);
    // The inverse FFT divides by Nr; compensate to get V_H(r) = sum_G ...
    for (std::size_t i = 0; i < nr; ++i) {
      hartree_grid[i] *= static_cast<double>(nr);
    }

    std::vector<double> v_eff(nr);
    for (std::size_t i = 0; i < nr; ++i) {
      v_eff[i] = hartree_grid[i].real() + lda_vxc(result.density[i]);
    }

    // --- dense Hamiltonian: kinetic + ionic + FFT of V_eff.
    Grid3 veff_grid(dims[0], dims[1], dims[2]);
    for (std::size_t i = 0; i < nr; ++i) {
      veff_grid[i] = Complex{v_eff[i], 0.0};
    }
    fft3d(veff_grid, FftDirection::kForward);
    const double veff_norm = 1.0 / static_cast<double>(nr);

    {
      TraceRegion region(KernelClass::kOther, "scf.hamiltonian");
      region.set_dims(n_g, n_g, 0);
      region.add_work(3ull * n_g * n_g,
                      3ull * n_g * n_g * sizeof(double));
      region.set_io(static_cast<Bytes>(nr) * sizeof(Complex),
                    static_cast<Bytes>(n_g) * n_g * sizeof(double));
      // Inversion-symmetric cell: V_eff(G) is real; symmetrise away the
      // residual imaginary part from the finite grid.
      for (std::size_t d = 0; d < veff_of_difference.size(); ++d) {
        veff_of_difference[d] =
            veff_grid[grid_of_difference[d]].real() * veff_norm;
      }
      parallel_for(
          0, n_g, parallel_grain(n_g), [&](std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i) {
              hamiltonian(i, i) = 0.5 * g[i].g2 + v_ion(i, i) +
                                  veff_grid[0].real() * veff_norm;
              const double* veff_row =
                  veff_of_difference.data() + (key[i] + key_origin);
              const double* v_ion_row = v_ion.row(i);
              double* h_row = hamiltonian.row(i);
              for (std::size_t j = i + 1; j < n_g; ++j) {
                h_row[j] = veff_row[-key[j]] + v_ion_row[j];
              }
            }
          });
      mirror_upper(hamiltonian);
    }

    // Only the lowest `bands` pairs feed the density and the band window.
    // H commutes with G -> -G, so they come from its two parity blocks:
    // exactly `bands` pairs, n_g x bands vectors.
    EigenResult eigen = parity.solve(hamiltonian, bands);

    state.valence_bands = valence;
    state.energies_ha = std::move(eigen.eigenvalues);
    state.orbitals = std::move(eigen.eigenvectors);

    // --- new density from the occupied orbitals.
    std::vector<double> fresh(nr, 0.0);
    for (std::size_t v = 0; v < valence; ++v) {
      const Grid3 orbital = orbital_realspace(basis, state, v);
      for (std::size_t i = 0; i < nr; ++i) {
        fresh[i] += 2.0 * std::norm(orbital[i]);
      }
    }

    // --- residual, energy bookkeeping, mixing.
    double residual2 = 0.0;
    for (std::size_t i = 0; i < nr; ++i) {
      const double d = fresh[i] - result.density[i];
      residual2 += d * d;
    }
    const double residual = std::sqrt(residual2 / static_cast<double>(nr));

    double band_energy = 0.0;
    for (std::size_t v = 0; v < valence; ++v) {
      band_energy += 2.0 * state.energies_ha[v];
    }
    // Double-counting corrections: E = sum eps - E_H - int(Vxc n) + E_xc.
    double e_h = 0.0;
    double e_xc_correction = 0.0;
    for (std::size_t i = 0; i < nr; ++i) {
      e_h += 0.5 * hartree_grid[i].real() * fresh[i];
      e_xc_correction +=
          (lda_exc(fresh[i]) - lda_vxc(fresh[i])) * fresh[i];
    }
    ScfStep step;
    step.iteration = iteration;
    step.density_residual = residual;
    step.total_energy_ha =
        band_energy - e_h * element + e_xc_correction * element;
    step.gap_ev =
        (state.energies_ha[valence] - state.energies_ha[valence - 1]) *
        kEvPerHa;
    result.history.push_back(step);

    // --- mixing update.
    std::vector<double> residual_vec(nr);
    for (std::size_t i = 0; i < nr; ++i) {
      residual_vec[i] = fresh[i] - result.density[i];
    }
    if (config.scheme == MixingScheme::kAnderson && !prev_density.empty()) {
      // Two-point Anderson: choose theta minimising
      // ||(1-theta) r_k + theta r_{k-1}||^2, then mix the blended iterate.
      double num = 0.0;
      double den = 0.0;
      for (std::size_t i = 0; i < nr; ++i) {
        const double dr = residual_vec[i] - prev_residual[i];
        num += residual_vec[i] * dr;
        den += dr * dr;
      }
      double theta = den > 1e-30 ? num / den : 0.0;
      theta = std::clamp(theta, -1.0, 1.0);  // keep the update tame
      for (std::size_t i = 0; i < nr; ++i) {
        const double blended_n = (1.0 - theta) * result.density[i] +
                                 theta * prev_density[i];
        const double blended_r = (1.0 - theta) * residual_vec[i] +
                                 theta * prev_residual[i];
        prev_density[i] = result.density[i];
        prev_residual[i] = residual_vec[i];
        result.density[i] =
            std::max(blended_n + config.mixing * blended_r, 0.0);
      }
    } else {
      prev_density = result.density;
      prev_residual = residual_vec;
      for (std::size_t i = 0; i < nr; ++i) {
        result.density[i] = std::max(
            result.density[i] + config.mixing * residual_vec[i], 0.0);
      }
    }

    if (residual < config.tolerance) {
      result.converged = true;
      break;
    }
  }

  result.state = std::move(state);
  return result;
}

}  // namespace ndft::dft
