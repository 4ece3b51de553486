// Tests for the extension modules: SCF ground state, optical spectra, the
// adaptive scheduler and the DRAM page policies.

#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "common/prng.hpp"
#include "core/cli.hpp"
#include "core/ndft_system.hpp"
#include "dft/scf.hpp"
#include "dft/spectrum.hpp"
#include "mem/dram_system.hpp"
#include "runtime/adaptive.hpp"

namespace ndft {
namespace {

// ------------------------------------------------------------------- SCF

class ScfFixture : public ::testing::Test {
 protected:
  ScfFixture()
      : crystal(dft::Crystal::silicon_supercell(8)),
        basis(crystal, 2.0) {}

  dft::Crystal crystal;
  dft::PlaneWaveBasis basis;
};

TEST_F(ScfFixture, ConvergesForSilicon) {
  dft::ScfConfig config;
  config.max_iterations = 40;
  config.tolerance = 1e-5;
  const dft::ScfResult result = dft::solve_scf(basis, config);
  EXPECT_TRUE(result.converged);
  EXPECT_LT(result.history.back().density_residual, 1e-5);
  EXPECT_GT(result.history.size(), 2u);  // not trivially converged
}

TEST_F(ScfFixture, DensityIntegratesToElectronCount) {
  dft::ScfConfig config;
  config.tolerance = 1e-4;
  const dft::ScfResult result = dft::solve_scf(basis, config);
  // 8 Si atoms x 4 valence electrons = 32 electrons.
  EXPECT_NEAR(result.electron_count(basis), 32.0, 0.5);
  for (const double n : result.density) {
    EXPECT_GE(n, 0.0);
  }
}

TEST_F(ScfFixture, ResidualDecreasesOverall) {
  dft::ScfConfig config;
  config.max_iterations = 25;
  config.tolerance = 1e-7;  // force a long history
  const dft::ScfResult result = dft::solve_scf(basis, config);
  ASSERT_GE(result.history.size(), 5u);
  const double early = result.history[1].density_residual;
  const double late = result.history.back().density_residual;
  EXPECT_LT(late, early);
}

TEST_F(ScfFixture, KeepsAGap) {
  dft::ScfConfig config;
  config.tolerance = 1e-4;
  const dft::ScfResult result = dft::solve_scf(basis, config);
  // Self-consistency shifts the EPM bands but silicon stays gapped.
  EXPECT_GT(result.history.back().gap_ev, 0.1);
  EXPECT_LT(result.history.back().gap_ev, 5.0);
}

TEST_F(ScfFixture, AndersonConvergesAtLeastAsFastAsLinear) {
  dft::ScfConfig linear;
  linear.tolerance = 1e-6;
  linear.max_iterations = 60;
  const dft::ScfResult base = dft::solve_scf(basis, linear);
  dft::ScfConfig anderson = linear;
  anderson.scheme = dft::MixingScheme::kAnderson;
  const dft::ScfResult accelerated = dft::solve_scf(basis, anderson);
  EXPECT_TRUE(base.converged);
  EXPECT_TRUE(accelerated.converged);
  EXPECT_LE(accelerated.history.size(), base.history.size());
  // Both fixed points agree.
  EXPECT_NEAR(accelerated.history.back().gap_ev,
              base.history.back().gap_ev, 0.05);
}

TEST_F(ScfFixture, RejectsBadConfig) {
  dft::ScfConfig config;
  config.mixing = 0.0;
  EXPECT_THROW(dft::solve_scf(basis, config), NdftError);
  config.mixing = 0.4;
  config.tolerance = -1.0;
  EXPECT_THROW(dft::solve_scf(basis, config), NdftError);
}

// ------------------------------------------------------ the parity split

/// The SCF Hamiltonian of `density` (n(r) on the basis's FFT grid), built
/// directly rather than from solve_scf's tables: kinetic + Ashcroft ionic
/// + Hartree + LDA exchange-correlation, V_eff(G_i - G_j) read off the
/// FFT grid at the wrapped integer difference. V_eff(G) is even only to
/// the FFT's rounding, as in the SCF loop.
dft::RealMatrix scf_hamiltonian(const dft::PlaneWaveBasis& basis,
                                const std::vector<double>& density,
                                const dft::ScfConfig& config) {
  const auto dims = basis.fft_dims();
  const std::size_t nr = basis.fft_size();
  const auto& g = basis.gvectors();
  dft::Grid3 n_of_g(dims[0], dims[1], dims[2]);
  for (std::size_t i = 0; i < nr; ++i) {
    n_of_g[i] = dft::Complex{density[i], 0.0};
  }
  dft::fft3d(n_of_g, dft::FftDirection::kForward);
  dft::Grid3 v(dims[0], dims[1], dims[2]);
  for (std::size_t i = 1; i < g.size(); ++i) {  // G = 0: the background
    const std::size_t idx = basis.grid_index(i);
    v[idx] = dft::kFourPi / g[i].g2 * n_of_g[idx] / static_cast<double>(nr);
  }
  dft::fft3d(v, dft::FftDirection::kInverse);
  for (std::size_t i = 0; i < nr; ++i) {
    v[i] = dft::Complex{v[i].real() * static_cast<double>(nr) +
                       dft::lda_vxc(density[i]),
                   0.0};
  }
  dft::fft3d(v, dft::FftDirection::kForward);
  const auto wrap = [](int x, std::size_t n) {
    const int ni = static_cast<int>(n);
    return static_cast<std::size_t>(((x % ni) + ni) % ni);
  };
  dft::RealMatrix h(g.size(), g.size());
  for (std::size_t i = 0; i < g.size(); ++i) {
    for (std::size_t j = i; j < g.size(); ++j) {
      const std::size_t idx =
          (wrap(g[i].l - g[j].l, dims[2]) * dims[1] +
           wrap(g[i].k - g[j].k, dims[1])) *
              dims[0] +
          wrap(g[i].h - g[j].h, dims[0]);
      h(i, j) = v[idx].real() / static_cast<double>(nr) +
                dft::ashcroft_potential(basis.crystal(), g[i], g[j],
                                        config.valence_charge,
                                        config.core_radius_bohr) +
                (i == j ? 0.5 * g[i].g2 : 0.0);
      h(j, i) = h(i, j);
    }
  }
  return h;
}

/// A random symmetric matrix that commutes with `partner`:
/// H(i, j) = (A(i, j) + A(Pi, Pj)) / 2.
dft::RealMatrix random_parity_symmetric(
    const std::vector<std::size_t>& partner, std::uint64_t seed) {
  const std::size_t n = partner.size();
  Prng prng(seed);
  dft::RealMatrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      a(i, j) = a(j, i) = prng.next_double(-1.0, 1.0);
    }
  }
  dft::RealMatrix h(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      h(i, j) = (a(i, j) + a(partner[i], partner[j])) * 0.5;
    }
  }
  return h;
}

/// i <-> n-1-i: one fixed point in the middle when n is odd.
std::vector<std::size_t> reversal(std::size_t n) {
  std::vector<std::size_t> partner(n);
  for (std::size_t i = 0; i < n; ++i) partner[i] = n - 1 - i;
  return partner;
}

/// Holds ParitySolver::solve(h, m) to the dense syevd_partial(h, m):
/// eigenvalues within 1e-12 ||H||_F, orthonormal vectors whose projector
/// on the lowest `occupied` agrees within 1e-12, and every vector of
/// definite parity.
void expect_parity_solve_matches_dense(
    const dft::RealMatrix& h, const std::vector<std::size_t>& partner,
    std::size_t m, std::size_t occupied) {
  const std::size_t n = h.rows();
  dft::ParitySolver parity(partner);
  const dft::EigenResult blocks = parity.solve(h, m);
  const dft::EigenResult dense = dft::syevd_partial(h, m);
  ASSERT_EQ(blocks.eigenvalues.size(), m);
  ASSERT_EQ(blocks.eigenvectors.rows(), n);
  ASSERT_EQ(blocks.eigenvectors.cols(), m);
  double norm2 = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) norm2 += h(i, j) * h(i, j);
  }
  for (std::size_t k = 0; k < m; ++k) {
    EXPECT_NEAR(blocks.eigenvalues[k], dense.eigenvalues[k],
                1e-12 * std::sqrt(norm2))
        << "pair " << k;
  }
  const dft::RealMatrix& z = blocks.eigenvectors;
  const dft::RealMatrix& d = dense.eigenvectors;
  double projector = 0.0;
  double overlap = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double p_blocks = 0.0;
      double p_dense = 0.0;
      for (std::size_t v = 0; v < occupied; ++v) {
        p_blocks += z(i, v) * z(j, v);
        p_dense += d(i, v) * d(j, v);
      }
      projector = std::max(projector, std::fabs(p_blocks - p_dense));
    }
  }
  for (std::size_t a = 0; a < m; ++a) {
    for (std::size_t b = 0; b < m; ++b) {
      double dot = 0.0;
      for (std::size_t i = 0; i < n; ++i) dot += z(i, a) * z(i, b);
      overlap = std::max(overlap, std::fabs(dot - (a == b ? 1.0 : 0.0)));
    }
  }
  EXPECT_LE(projector, 1e-12);
  EXPECT_LE(overlap, 1e-12);
  for (std::size_t k = 0; k < m; ++k) {
    bool even = true;
    bool odd = true;
    for (std::size_t i = 0; i < n; ++i) {
      even = even && z(partner[i], k) == z(i, k);
      odd = odd && z(partner[i], k) == -z(i, k);
    }
    EXPECT_NE(even, odd) << "pair " << k << " has no definite parity";
  }
}

TEST_F(ScfFixture, PartnerMapIsAnInvolutionFixingOnlyGZero) {
  const dft::Crystal si16 = dft::Crystal::silicon_supercell(16);
  const dft::PlaneWaveBasis si8_45(crystal, 4.5 * dft::kHaPerRy);
  const dft::PlaneWaveBasis si16_45(si16, 4.5 * dft::kHaPerRy);
  for (const dft::PlaneWaveBasis* b :
       {&std::as_const(basis), &si8_45, &si16_45}) {
    const auto& g = b->gvectors();
    const std::vector<std::size_t>& partner = b->partners();
    ASSERT_EQ(partner.size(), b->size());
    for (std::size_t i = 0; i < partner.size(); ++i) {
      ASSERT_LT(partner[i], partner.size());
      EXPECT_EQ(partner[partner[i]], i);
      EXPECT_EQ(partner[i] == i, i == 0) << "index " << i;
      EXPECT_EQ(g[partner[i]].h, -g[i].h);
      EXPECT_EQ(g[partner[i]].k, -g[i].k);
      EXPECT_EQ(g[partner[i]].l, -g[i].l);
    }
  }
  EXPECT_EQ(basis.size(), 147u);
  EXPECT_EQ(si8_45.size(), 179u);
}

TEST_F(ScfFixture, ParitySolveMatchesTheDenseWindowOnAnScfHamiltonian) {
  // The converged Si_8 density's Hamiltonian; 24 pairs, 16 occupied.
  const dft::ScfConfig config;
  const dft::ScfResult scf = dft::solve_scf(basis, config);
  ASSERT_TRUE(scf.converged);
  const dft::RealMatrix h = scf_hamiltonian(basis, scf.density, config);
  expect_parity_solve_matches_dense(h, basis.partners(), 24, 16);
}

TEST_F(ScfFixture, ParitySolveMatchesTheDenseWindowOnRandomMatrices) {
  // A general parity (fixed point mid-matrix) and the edge cases: an
  // identity parity (every index fixed: the odd block is empty), a window
  // wider than the odd block (35 + 5 rows, 8 pairs), and windows past
  // half of both blocks (21 + 20 rows, 12 pairs: the full solver runs).
  expect_parity_solve_matches_dense(
      random_parity_symmetric(reversal(61), 11), reversal(61), 10, 10);
  std::vector<std::size_t> identity(30);
  for (std::size_t i = 0; i < identity.size(); ++i) identity[i] = i;
  expect_parity_solve_matches_dense(
      random_parity_symmetric(identity, 12), identity, 6, 6);
  std::vector<std::size_t> five_pairs = identity;
  for (std::size_t i = 30; i < 40; ++i) five_pairs.push_back(69 - i);
  expect_parity_solve_matches_dense(
      random_parity_symmetric(five_pairs, 13), five_pairs, 8, 8);
  expect_parity_solve_matches_dense(
      random_parity_symmetric(reversal(41), 14), reversal(41), 12, 12);
}

TEST_F(ScfFixture, ParitySolverRejectsAMapThatIsNoInvolution) {
  EXPECT_THROW(dft::ParitySolver(std::vector<std::size_t>{1, 2, 0}),
               NdftError);
  EXPECT_THROW(dft::ParitySolver(std::vector<std::size_t>{3}), NdftError);
  dft::ParitySolver parity(reversal(5));
  EXPECT_THROW(parity.solve(random_parity_symmetric(reversal(4), 1), 2),
               NdftError);
  EXPECT_THROW(parity.solve(random_parity_symmetric(reversal(5), 1), 0),
               NdftError);
}

TEST(LdaTest, ExchangeCorrelationLimits) {
  // V_xc < 0 and monotone in density; known value at rs = 1 ballpark.
  EXPECT_LT(dft::lda_vxc(0.1), 0.0);
  EXPECT_LT(dft::lda_vxc(1.0), dft::lda_vxc(0.01));
  EXPECT_LT(dft::lda_exc(0.1), 0.0);
  // Exchange-only part at n = 1: -(3/pi)^(1/3) ~ -0.9847; with
  // correlation the potential is a bit deeper.
  EXPECT_LT(dft::lda_vxc(1.0), -0.98);
  EXPECT_GT(dft::lda_vxc(1.0), -1.25);
}

// ---------------------------------------------------------------- spectra

class SpectrumFixture : public ::testing::Test {
 protected:
  SpectrumFixture()
      : crystal(dft::Crystal::silicon_supercell(8)),
        basis(crystal, 2.25),
        ground(dft::solve_epm(basis, 24)),
        config(window(4, 4)),
        lines(dft::oscillator_strengths(
            basis, ground, config,
            dft::solve_lrtddft(basis, ground, config))) {}

  static dft::LrTddftConfig window(std::size_t valence,
                                   std::size_t conduction) {
    dft::LrTddftConfig config;
    config.valence_window = valence;
    config.conduction_window = conduction;
    return config;
  }

  dft::Crystal crystal;
  dft::PlaneWaveBasis basis;
  dft::GroundState ground;
  dft::LrTddftConfig config;
  std::vector<dft::OscillatorLine> lines;
};

TEST_F(SpectrumFixture, OscillatorStrengthsNonNegativeAndFinite) {
  EXPECT_EQ(lines.size(), 16u);
  double total = 0.0;
  for (const auto& line : lines) {
    EXPECT_GT(line.energy_ev, 0.0);
    EXPECT_GE(line.strength, 0.0);
    EXPECT_TRUE(std::isfinite(line.strength));
    total += line.strength;
  }
  EXPECT_GT(total, 0.0);  // silicon absorbs light
}

TEST_F(SpectrumFixture, OscillatorStrengthsRejectAMismatchedResult) {
  // A result solved on a different window has other pairs: reading its
  // eigenvectors against this window's moments would index past them.
  const dft::LrTddftResult other =
      dft::solve_lrtddft(basis, ground, window(2, 4));
  EXPECT_THROW(dft::oscillator_strengths(basis, ground, config, other),
               NdftError);
}

TEST_F(SpectrumFixture, SpectrumPeaksNearStrongLines) {
  // Find the strongest line and evaluate the broadened spectrum on/off it.
  const auto strongest =
      std::max_element(lines.begin(), lines.end(),
                       [](const auto& a, const auto& b) {
                         return a.strength < b.strength;
                       });
  ASSERT_NE(strongest, lines.end());
  const std::vector<double> on{strongest->energy_ev};
  const std::vector<double> off{strongest->energy_ev + 30.0};
  EXPECT_GT(dft::absorption_spectrum(lines, on, 0.1)[0],
            dft::absorption_spectrum(lines, off, 0.1)[0]);
}

TEST_F(SpectrumFixture, BroadeningConservesArea) {
  // The integral of each Lorentzian is its oscillator strength; on a wide
  // dense grid the summed spectrum area approximates sum(f_I).
  double total_strength = 0.0;
  for (const auto& line : lines) total_strength += line.strength;
  std::vector<double> grid;
  const double lo = 0.0, hi = 80.0, step = 0.02;
  for (double e = lo; e < hi; e += step) grid.push_back(e);
  const std::vector<double> sigma =
      dft::absorption_spectrum(lines, grid, 0.2);
  double area = 0.0;
  for (const double s : sigma) area += s * step;
  EXPECT_NEAR(area, total_strength, 0.15 * total_strength + 1e-12);
}

// ------------------------------------------------------------- adaptive

TEST(AdaptiveSchedulerTest, MeasurementsOverrideEstimates) {
  const runtime::Sca sca(runtime::DeviceProfile::table3_cpu(),
                         runtime::DeviceProfile::table3_ndp());
  const runtime::CostModel cost(runtime::DeviceProfile::table3_cpu(),
                                runtime::DeviceProfile::table3_ndp());
  runtime::AdaptiveScheduler adaptive(sca, cost);
  const dft::Workload w =
      dft::Workload::lrtddft_iteration(dft::SystemDims::silicon(64));
  const dft::KernelWork& fft = w.kernels[2];
  ASSERT_EQ(fft.cls, KernelClass::kFft);

  const TimePs estimate = adaptive.believed_time(fft, DeviceKind::kNdp);
  adaptive.record(fft.name, DeviceKind::kNdp, estimate * 10);
  EXPECT_TRUE(adaptive.has_measurement(fft.name, DeviceKind::kNdp));
  EXPECT_EQ(adaptive.believed_time(fft, DeviceKind::kNdp), estimate * 10);
}

TEST(AdaptiveSchedulerTest, RepeatedMeasurementsBlend) {
  const runtime::Sca sca(runtime::DeviceProfile::table3_cpu(),
                         runtime::DeviceProfile::table3_ndp());
  const runtime::CostModel cost(runtime::DeviceProfile::table3_cpu(),
                                runtime::DeviceProfile::table3_ndp());
  runtime::AdaptiveScheduler adaptive(sca, cost);
  dft::KernelWork k;
  k.name = "probe";
  adaptive.record("probe", DeviceKind::kCpu, 1000);
  adaptive.record("probe", DeviceKind::kCpu, 3000);
  const TimePs blended = adaptive.believed_time(k, DeviceKind::kCpu);
  EXPECT_GT(blended, 1000u);
  EXPECT_LT(blended, 3000u);
}

TEST(AdaptiveSchedulerTest, CorrectsMisprofiledPlan) {
  // SCA believes the CPU has HBM bandwidth -> static plan keeps FFT on
  // CPU; a measurement showing NDP 10x faster flips the placement.
  runtime::DeviceProfile wrong_cpu = runtime::DeviceProfile::table3_cpu();
  wrong_cpu.dram_gbps = 5000.0;
  const runtime::Sca sca(wrong_cpu, runtime::DeviceProfile::table3_ndp());
  const runtime::CostModel cost(wrong_cpu,
                                runtime::DeviceProfile::table3_ndp());
  const dft::Workload w =
      dft::Workload::lrtddft_iteration(dft::SystemDims::silicon(256));

  const runtime::Scheduler static_scheduler(sca, cost);
  const runtime::ExecutionPlan static_plan = static_scheduler.plan(w);
  // Sanity: the wrong profile keeps at least one memory kernel on CPU.
  bool any_mem_on_cpu = false;
  for (std::size_t i = 0; i < w.kernels.size(); ++i) {
    if (w.kernels[i].cls == KernelClass::kFft &&
        static_plan.placements[i].device == DeviceKind::kCpu) {
      any_mem_on_cpu = true;
    }
  }
  ASSERT_TRUE(any_mem_on_cpu);

  runtime::AdaptiveScheduler adaptive(sca, cost);
  for (const dft::KernelWork& k : w.kernels) {
    if (k.cls == KernelClass::kFft) {
      adaptive.record(k.name, DeviceKind::kCpu, 1000 * kPsPerMs);
      adaptive.record(k.name, DeviceKind::kNdp, 100 * kPsPerMs);
    }
  }
  const runtime::ExecutionPlan adapted = adaptive.plan(w);
  for (std::size_t i = 0; i < w.kernels.size(); ++i) {
    if (w.kernels[i].cls == KernelClass::kFft) {
      EXPECT_EQ(adapted.placements[i].device, DeviceKind::kNdp);
    }
  }
}

TEST(AdaptiveSchedulerTest, WithoutMeasurementsPlansExactlyLikeTheScheduler) {
  // Both planners run Scheduler's one dynamic program; with nothing
  // measured, believed_time() is the SCA estimate, so every field of the
  // plan must match the static function-level plan.
  const runtime::Sca sca(runtime::DeviceProfile::table3_cpu(),
                         runtime::DeviceProfile::table3_ndp());
  const runtime::CostModel cost(runtime::DeviceProfile::table3_cpu(),
                                runtime::DeviceProfile::table3_ndp());
  const runtime::Scheduler scheduler(sca, cost);
  const runtime::AdaptiveScheduler adaptive(sca, cost);
  for (const std::size_t atoms : {64, 256, 1024}) {
    SCOPED_TRACE(atoms);
    const dft::Workload w =
        dft::Workload::lrtddft_iteration(dft::SystemDims::silicon(atoms));
    const runtime::ExecutionPlan expected =
        scheduler.plan(w, runtime::Granularity::kFunction);
    const runtime::ExecutionPlan actual = adaptive.plan(w);
    EXPECT_GT(expected.crossings, 0u);  // the plan mixes both sides
    ASSERT_EQ(actual.placements.size(), expected.placements.size());
    for (std::size_t i = 0; i < expected.placements.size(); ++i) {
      const runtime::Placement& a = actual.placements[i];
      const runtime::Placement& e = expected.placements[i];
      EXPECT_EQ(a.device, e.device) << w.kernels[i].name;
      EXPECT_EQ(a.est_time_ps, e.est_time_ps) << w.kernels[i].name;
      EXPECT_EQ(a.transfer_in_ps, e.transfer_in_ps) << w.kernels[i].name;
      EXPECT_EQ(a.switch_in_ps, e.switch_in_ps) << w.kernels[i].name;
      EXPECT_EQ(a.crossing, e.crossing) << w.kernels[i].name;
    }
    EXPECT_EQ(actual.est_total_ps, expected.est_total_ps);
    EXPECT_EQ(actual.est_overhead_ps, expected.est_overhead_ps);
    EXPECT_EQ(actual.crossings, expected.crossings);
  }
}

// ------------------------------------------------------------ page policy

TEST(PagePolicyTest, OpenPageWinsOnStreams) {
  const auto stream_time = [](mem::PagePolicy policy) {
    sim::EventQueue queue;
    mem::DramConfig config = mem::DramConfig::xeon_ddr4();
    config.access_latency_ps = 0;
    config.page_policy = policy;
    mem::DramSystem dram("d", queue, config);
    TimePs last = 0;
    for (unsigned i = 0; i < 2000; ++i) {
      mem::MemRequest req;
      req.addr = Addr(i) * 64;
      req.size = 64;
      req.on_complete = [&last](TimePs at) { last = std::max(last, at); };
      dram.access(std::move(req));
    }
    queue.run();
    return last;
  };
  EXPECT_GT(stream_time(mem::PagePolicy::kClosed),
            stream_time(mem::PagePolicy::kOpen) * 3);
}

TEST(PagePolicyTest, ClosedPageHasNoRowHits) {
  sim::EventQueue queue;
  mem::DramConfig config = mem::DramConfig::xeon_ddr4();
  config.access_latency_ps = 0;
  config.page_policy = mem::PagePolicy::kClosed;
  mem::DramSystem dram("d", queue, config);
  for (unsigned i = 0; i < 500; ++i) {
    mem::MemRequest req;
    req.addr = Addr(i) * 64;
    req.size = 64;
    dram.access(std::move(req));
  }
  queue.run();
  sim::StatSet stats;
  dram.collect_stats("dram", stats);
  double hits = 0;
  for (const auto& [name, value] : stats.snapshot()) {
    if (name.find("row_hits") != std::string::npos) hits += value;
  }
  EXPECT_DOUBLE_EQ(hits, 0.0);
}

// ---------------------------------------------------------------- energy

TEST(DramEnergyTest, ChannelEnergyArithmetic) {
  const mem::DramEnergy e = mem::DramEnergy::ddr4();
  // 10 ACTs, 100 reads, 50 writes, no refresh, no time.
  const double nj = mem::channel_energy_nj(e, 10, 100, 50, 0, 0);
  EXPECT_NEAR(nj, 10 * e.act_pre_nj + 100 * e.read_nj + 50 * e.write_nj,
              1e-9);
  // Background: 150 mW for 1 us = 150 nJ.
  EXPECT_NEAR(mem::channel_energy_nj(e, 0, 0, 0, 0, kPsPerUs),
              e.background_mw, 1e-9);
}

TEST(DramEnergyTest, Hbm2CheaperPerAccessThanDdr4) {
  const mem::DramEnergy ddr = mem::DramEnergy::ddr4();
  const mem::DramEnergy hbm = mem::DramEnergy::hbm2();
  EXPECT_LT(hbm.read_nj, ddr.read_nj / 2);
  EXPECT_LT(hbm.act_pre_nj, ddr.act_pre_nj);
}

TEST(DramEnergyTest, RefreshFoldsIntoBackground) {
  const mem::DramEnergy hbm = mem::DramEnergy::hbm2();
  const TimePs trefi = 3900 * 1000;  // 3.9 us
  const double with_refresh = hbm.background_with_refresh_mw(trefi);
  EXPECT_GT(with_refresh, hbm.background_mw);
  // 60 nJ / 3.9 us ~ 15.4 mW.
  EXPECT_NEAR(with_refresh - hbm.background_mw, 15.38, 0.1);
}

TEST(DramEnergyTest, DramSystemAccumulatesEnergy) {
  sim::EventQueue queue;
  mem::DramConfig config = mem::DramConfig::xeon_ddr4();
  config.access_latency_ps = 0;
  mem::DramSystem dram("d", queue, config);
  EXPECT_DOUBLE_EQ(dram.dynamic_energy_nj(mem::DramEnergy::ddr4()), 0.0);
  for (unsigned i = 0; i < 100; ++i) {
    mem::MemRequest req;
    req.addr = Addr(i) * 64;
    req.size = 64;
    dram.access(std::move(req));
  }
  queue.run();
  const double nj = dram.dynamic_energy_nj(mem::DramEnergy::ddr4());
  EXPECT_GT(nj, 100 * 4.0);        // at least the read bursts
  EXPECT_LT(nj, 100 * 20.0);       // bounded by a few nJ per access
}

TEST(EnergyReportTest, AllModesReportPositiveEnergy) {
  core::SystemConfig config = core::SystemConfig::paper_default();
  config.sampled_ops_per_kernel = 20000;
  config.min_ops_per_core = 200;
  const core::NdftSystem system(config);
  const dft::Workload w = system.workload_for(16);
  for (const core::ExecMode mode :
       {core::ExecMode::kCpuBaseline, core::ExecMode::kGpuBaseline,
        core::ExecMode::kNdft}) {
    const core::RunReport report = system.run(w, mode);
    EXPECT_GT(report.memory_energy_mj, 0.0) << to_string(mode);
    EXPECT_LT(report.memory_energy_mj, 1e6) << to_string(mode);
  }
}

// -------------------------------------------------------------------- CLI

TEST(CliArgsTest, ParsesFlagsAndPositionals) {
  // Note the convention: a flag consumes the next non-flag token as its
  // value, so positionals must precede value-less flags.
  const char* argv[] = {"prog", "input.dat", "--atoms", "256",
                        "--mode", "ndft", "--csv"};
  const core::CliArgs args(7, argv);
  EXPECT_EQ(args.get_int("atoms", 0), 256);
  EXPECT_TRUE(args.has("csv"));
  EXPECT_FALSE(args.has("missing"));
  EXPECT_EQ(args.get("mode", "x"), "ndft");
  EXPECT_EQ(args.get("absent", "fallback"), "fallback");
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "input.dat");
}

TEST(CliArgsTest, RejectsMalformedIntegers) {
  const char* argv[] = {"prog", "--atoms", "many"};
  const core::CliArgs args(3, argv);
  EXPECT_THROW(args.get_int("atoms", 0), NdftError);
  EXPECT_EQ(args.get_int("absent", 7), 7);
}

TEST(CliArgsTest, ParseIntEnforcesItsRange) {
  // The daemons' numeric flags: a port must fit 16 bits and a count must
  // not wrap to SIZE_MAX, so each is read whole and range-checked.
  EXPECT_EQ(core::parse_int("8424", 0, 65535, "--port"), 8424);
  EXPECT_EQ(core::parse_int("0", 0, 65535, "--port"), 0);
  EXPECT_EQ(core::parse_int("65535", 0, 65535, "--port"), 65535);
  EXPECT_EQ(core::parse_int("-3", -5, 5, "--offset"), -3);
  for (const char* bad : {"-1", "70000", "8x", "", " 8", "+8", "0x10",
                          "99999999999999999999999"}) {
    EXPECT_THROW(core::parse_int(bad, 0, 65535, "--port"), NdftError)
        << "'" << bad << "'";
  }
  try {
    core::parse_int("70000", 0, 65535, "--port");
    FAIL() << "70000 accepted as a port";
  } catch (const NdftError& error) {
    EXPECT_NE(std::string(error.what()).find("--port"), std::string::npos)
        << error.what();
  }
}

// ---------------------------------------------------------- planned runs

TEST(RunPlannedTest, HonoursCallerPlacements) {
  core::SystemConfig config = core::SystemConfig::paper_default();
  config.sampled_ops_per_kernel = 20000;
  config.min_ops_per_core = 200;
  const core::NdftSystem system(config);
  const dft::Workload w = system.workload_for(16);
  runtime::ExecutionPlan plan;
  plan.placements.assign(w.kernels.size(), runtime::Placement{});
  for (std::size_t i = 0; i < plan.placements.size(); ++i) {
    plan.placements[i].device =
        (i % 2 == 0) ? DeviceKind::kCpu : DeviceKind::kNdp;
  }
  const core::RunReport report = system.run_planned(w, plan);
  for (std::size_t i = 0; i < report.kernels.size(); ++i) {
    EXPECT_EQ(report.kernels[i].device, plan.placements[i].device);
  }
}

TEST(RunPlannedTest, RejectsMismatchedPlan) {
  const core::NdftSystem system;
  const dft::Workload w = system.workload_for(16);
  runtime::ExecutionPlan plan;  // empty
  EXPECT_THROW(system.run_planned(w, plan), NdftError);
}

}  // namespace
}  // namespace ndft
