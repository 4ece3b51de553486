#include "dft/kpoints.hpp"

#include <array>
#include <cmath>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "common/cancel.hpp"
#include "common/fault.hpp"
#include "common/kernel_trace.hpp"
#include "common/str_util.hpp"
#include "common/thread_pool.hpp"
#include "dft/linalg.hpp"

namespace ndft::dft {

Crystal silicon_primitive() {
  const double a0 = kSiliconLatticeBohr;
  const Vec3 a1{0.0, a0 / 2.0, a0 / 2.0};
  const Vec3 a2{a0 / 2.0, 0.0, a0 / 2.0};
  const Vec3 a3{a0 / 2.0, a0 / 2.0, 0.0};
  const Vec3 tau{a0 / 8.0, a0 / 8.0, a0 / 8.0};
  return Crystal(a1, a2, a3, {tau, tau * -1.0});
}

std::vector<KPoint> fcc_kpath(double a0, unsigned segments) {
  NDFT_REQUIRE(segments >= 1, "need at least one point per leg");
  const double unit = 2.0 * std::numbers::pi / a0;
  const Vec3 gamma{0.0, 0.0, 0.0};
  const Vec3 x{0.0, unit, 0.0};                       // zone boundary
  const Vec3 l{unit / 2.0, unit / 2.0, unit / 2.0};
  const Vec3 k_point{0.75 * unit, 0.75 * unit, 0.0};  // K

  const struct Leg {
    Vec3 from;
    Vec3 to;
    const char* from_label;
    const char* to_label;
  } legs[] = {{l, gamma, "L", "Gamma"},
              {gamma, x, "Gamma", "X"},
              {x, k_point, "X", "K"},
              {k_point, gamma, "K", "Gamma"}};
  constexpr std::size_t kLegCount = std::size(legs);

  // Every leg emits its labelled start and interior points; the terminal
  // is emitted (and labelled) by the next leg it chains into, except for
  // the last leg, which emits its own endpoint. Labelling both endpoints
  // here (rather than relying on the chaining) keeps the high-symmetry
  // junctions named in traces and gap summaries even if the leg table
  // ever stops being contiguous.
  std::vector<KPoint> path;
  path.reserve(kLegCount * segments + 1);
  for (std::size_t li = 0; li < kLegCount; ++li) {
    const Leg& leg = legs[li];
    const unsigned points = (li + 1 == kLegCount) ? segments + 1 : segments;
    for (unsigned s = 0; s < points; ++s) {
      const double t = static_cast<double>(s) / segments;
      KPoint kp;
      kp.k = leg.from + (leg.to - leg.from) * t;
      if (s == 0) {
        kp.label = leg.from_label;
      } else if (s == segments) {
        kp.label = leg.to_label;
      }
      path.push_back(kp);
    }
  }
  return path;
}

std::vector<KPoint> monkhorst_pack(const Crystal& crystal, unsigned n1,
                                   unsigned n2, unsigned n3) {
  NDFT_REQUIRE(n1 > 0 && n2 > 0 && n3 > 0, "grid dimensions must be >= 1");
  std::vector<KPoint> grid;
  grid.reserve(static_cast<std::size_t>(n1) * n2 * n3);
  const double weight = 1.0 / (static_cast<double>(n1) * n2 * n3);
  for (unsigned i = 0; i < n1; ++i) {
    for (unsigned j = 0; j < n2; ++j) {
      for (unsigned k = 0; k < n3; ++k) {
        // Monkhorst-Pack fractional coordinates (2r - n - 1) / 2n.
        const double f1 = (2.0 * i + 1.0 - n1) / (2.0 * n1);
        const double f2 = (2.0 * j + 1.0 - n2) / (2.0 * n2);
        const double f3 = (2.0 * k + 1.0 - n3) / (2.0 * n3);
        KPoint kp;
        kp.k = crystal.b1() * f1 + crystal.b2() * f2 + crystal.b3() * f3;
        kp.weight = weight;
        grid.push_back(kp);
      }
    }
  }
  return grid;
}

std::vector<KPoint> fold_time_reversal(const std::vector<KPoint>& grid) {
  // Exact-coordinate index of every point. operator< on doubles treats
  // 0.0 and -0.0 as equal, so the Gamma point self-pairs even when a
  // negation produced a signed zero.
  std::map<std::array<double, 3>, std::size_t> index;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    // Duplicate coordinates keep the first occurrence: folding must never
    // merge two distinct entries of a (pathological) repeated-point set.
    index.emplace(std::array<double, 3>{grid[i].k.x, grid[i].k.y,
                                        grid[i].k.z},
                  i);
  }
  std::vector<KPoint> folded;
  folded.reserve((grid.size() + 1) / 2);
  std::vector<bool> consumed(grid.size(), false);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    if (consumed[i]) continue;
    KPoint kp = grid[i];
    const auto partner = index.find(
        std::array<double, 3>{-grid[i].k.x, -grid[i].k.y, -grid[i].k.z});
    if (partner != index.end() && partner->second > i &&
        !consumed[partner->second]) {
      kp.weight += grid[partner->second].weight;
      consumed[partner->second] = true;
    }
    folded.push_back(std::move(kp));
  }
  return folded;
}

namespace {

/// What one thread needs to solve k-points: a copy of the potential
/// matrix, whose diagonal each k-point overwrites with its kinetic
/// energies (the solvers only read it), and the eigensolver's workspace.
struct KPointSolver {
  explicit KPointSolver(RealMatrix potential)
      : hamiltonian(std::move(potential)) {}

  RealMatrix hamiltonian;
  EigenWorkspace workspace;
};

/// The lowest `keep` EPM energies at `k`: the potential plus the kinetic
/// diagonal at k, bitwise the matrix epm_hamiltonian() builds, solved
/// for eigenvalues only. A window below the basis size runs the partial
/// solver.
std::vector<double> energies_at_k(const PlaneWaveBasis& basis, const Vec3& k,
                                  std::size_t keep, KPointSolver& solver) {
  set_epm_kinetic(basis, k, solver.hamiltonian);
  if (keep < basis.size()) {
    return syevd_partial_values(solver.hamiltonian, keep, &solver.workspace);
  }
  return syevd(solver.hamiltonian).eigenvalues;
}

std::size_t kept_bands(const PlaneWaveBasis& basis, std::size_t bands) {
  NDFT_REQUIRE(basis.size() > 0, "empty plane-wave basis");
  return bands == 0 ? basis.size() : std::min(bands, basis.size());
}

}  // namespace

BandsAtK solve_epm_at_k(const PlaneWaveBasis& basis, const KPoint& kpoint,
                        std::size_t bands) {
  const std::size_t keep = kept_bands(basis, bands);
  KPointSolver solver(epm_potential_matrix(basis, "bands.assembly"));
  BandsAtK result;
  result.kpoint = kpoint;
  result.energies_ha = energies_at_k(basis, kpoint.k, keep, solver);
  return result;
}

std::vector<BandsAtK> band_structure(const PlaneWaveBasis& basis,
                                     const std::vector<KPoint>& path,
                                     std::size_t bands) {
  trace_set_system(basis.crystal().atom_count(), basis.size(),
                   basis.fft_size());
  std::vector<BandsAtK> result(path.size());
  if (path.empty()) return result;
  const std::size_t keep = kept_bands(basis, bands);
  // V(G_i - G_j) does not depend on k: one assembly serves every
  // k-point, which only writes its kinetic diagonal.
  RealMatrix potential = epm_potential_matrix(basis, "bands.assembly");
  for (std::size_t i = 0; i < path.size(); ++i) result[i].kpoint = path[i];
  if (trace_active() || fault_enabled()) {
    // Traced runs keep the serial k-loop: per-k stage events stay in
    // program order with a pool-width-independent shape (kernels inside a
    // parallel k-loop would record or not depending on which thread ran
    // them). Fault-armed runs serialize too, so injection decisions and
    // degradation notes stay on the job thread and replay bitwise.
    KPointSolver solver(std::move(potential));
    for (std::size_t i = 0; i < path.size(); ++i) {
      cancel_point();               // per-k stage boundary
      fault_point("bands.alloc");
      const KPoint& kp = path[i];
      const TraceStage trace_stage(
          trace_active()
              ? strformat("bands[%zu]%s%s", i, kp.label.empty() ? "" : ":",
                          kp.label.c_str())
              : std::string());
      result[i].energies_ha = energies_at_k(basis, kp.k, keep, solver);
    }
    return result;
  }
  // Independent k-points across the pool (each is a kinetic diagonal
  // plus an eigensolve; nested kernels degrade to serial inline), in
  // batches so the calling thread hits a cancellation/deadline checkpoint
  // between batches instead of only after the whole grid. Each k-point's
  // arithmetic is identical to the serial loop's, so the result is
  // bitwise identical for any thread count and batch size.
  // A k-point solved on a pool worker tallies its linalg time there; it is
  // credited to the calling (job) thread afterwards, so the job's linalg
  // time does not depend on the pool width.
  const std::size_t batch =
      std::max<std::size_t>(std::size_t{1},
                            ThreadPool::instance().threads()) *
      2;
  const std::thread::id job_thread = std::this_thread::get_id();
  std::vector<double> worker_ms(path.size(), 0.0);
  std::vector<LinalgStageTimes> worker_stages(path.size());
  // One solver per thread that works on this job's k-points, made on its
  // first k-point and dropped with the job. Which thread solves which
  // k-point does not matter: a solver carries no state between solves.
  std::mutex solvers_mutex;
  std::vector<std::pair<std::thread::id, std::unique_ptr<KPointSolver>>>
      solvers;
  const auto this_threads_solver = [&]() -> KPointSolver& {
    const std::thread::id self = std::this_thread::get_id();
    const std::lock_guard<std::mutex> lock(solvers_mutex);
    for (auto& [id, solver] : solvers) {
      if (id == self) return *solver;
    }
    solvers.emplace_back(self, std::make_unique<KPointSolver>(potential));
    return *solvers.back().second;
  };
  for (std::size_t start = 0; start < path.size(); start += batch) {
    cancel_point();  // batch stage boundary (calling thread)
    const std::size_t stop = std::min(path.size(), start + batch);
    parallel_for(start, stop, 1, [&](std::size_t lo, std::size_t hi) {
      const bool worker = std::this_thread::get_id() != job_thread;
      KPointSolver& solver = this_threads_solver();
      for (std::size_t i = lo; i < hi; ++i) {
        if (worker) linalg_timer_reset();
        result[i].energies_ha =
            energies_at_k(basis, path[i].k, keep, solver);
        if (worker) {
          worker_ms[i] = linalg_timer_ms();
          worker_stages[i] = linalg_stage_times();
        }
      }
    });
  }
  for (std::size_t i = 0; i < path.size(); ++i) {
    linalg_timer_add(worker_ms[i], worker_stages[i]);
  }
  return result;
}

GapSummary find_gap(const std::vector<BandsAtK>& bands,
                    std::size_t valence) {
  NDFT_REQUIRE(!bands.empty(), "no k-points solved");
  NDFT_REQUIRE(valence >= 1,
               "need at least one valence band (valence == 0 would read "
               "energies_ha[-1])");
  GapSummary summary;
  summary.vbm_ha = -1e18;
  summary.cbm_ha = 1e18;
  bool seen_gamma = false;
  double weighted_band_energy = 0.0;
  for (const BandsAtK& at_k : bands) {
    NDFT_REQUIRE(at_k.energies_ha.size() > valence,
                 "need at least one conduction band per k-point");
    const double vbm = at_k.energies_ha[valence - 1];
    const double cbm = at_k.energies_ha[valence];
    if (vbm > summary.vbm_ha) {
      summary.vbm_ha = vbm;
      summary.vbm_label = at_k.kpoint.label;
    }
    if (cbm < summary.cbm_ha) {
      summary.cbm_ha = cbm;
      summary.cbm_label = at_k.kpoint.label;
    }
    if (!seen_gamma && (at_k.kpoint.label == "Gamma" ||
                        at_k.kpoint.k.norm2() < 1e-20)) {
      summary.direct_gap_gamma_ev = (cbm - vbm) * kEvPerHa;
      seen_gamma = true;
    }
    double occupied = 0.0;
    for (std::size_t v = 0; v < valence; ++v) {
      occupied += at_k.energies_ha[v];
    }
    weighted_band_energy += at_k.kpoint.weight * 2.0 * occupied;
    summary.weight_sum += at_k.kpoint.weight;
  }
  summary.band_energy_ha = summary.weight_sum > 0.0
                               ? weighted_band_energy / summary.weight_sum
                               : 0.0;
  return summary;
}

}  // namespace ndft::dft
