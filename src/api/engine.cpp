#include "api/engine.hpp"

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdlib>
#include <new>
#include <numbers>
#include <thread>

#include "common/enum_names.hpp"
#include "common/fault.hpp"
#include "common/kernel_trace.hpp"
#include "common/thread_pool.hpp"
#include "dft/fft.hpp"
#include "dft/kpoints.hpp"
#include "dft/lattice.hpp"
#include "dft/linalg.hpp"
#include "dft/pseudopotential.hpp"
#include "dft/spectrum.hpp"
#include "runtime/calibrate.hpp"
#include "runtime/sca.hpp"

namespace ndft::api {
namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// Not-yet-started jobs submit() accepts before it throws.
constexpr std::size_t kMaxPendingJobs = 4096;
/// Ceiling of the doubling retry backoff.
constexpr double kRetryBackoffCapMs = 50.0;

// ------------------------------------------------------------- executors
// Each executor wraps the existing free-function internals and distills
// the outcome into the serializable payload.

ScfPayload execute_scf(const ScfJob& job) {
  const dft::Crystal crystal = dft::Crystal::silicon_supercell(job.atoms);
  const dft::PlaneWaveBasis basis(crystal, job.ecut_ry * dft::kHaPerRy);
  const dft::ScfResult scf = dft::solve_scf(basis, job.scf);
  // A loop stopped at max_iterations still answers, but not the
  // converged ground state: say so where a client cannot miss it.
  if (!scf.converged) note_degradation("scf:not_converged");

  ScfPayload payload;
  payload.atoms = job.atoms;
  payload.basis_size = basis.size();
  payload.grid_points = basis.fft_size();
  payload.converged = scf.converged;
  payload.iterations = scf.history.size();
  if (!scf.history.empty()) {
    payload.total_energy_ha = scf.history.back().total_energy_ha;
    payload.gap_ev = scf.history.back().gap_ev;
    payload.final_residual = scf.history.back().density_residual;
  }
  payload.electron_count = scf.electron_count(basis);
  payload.residual_history.reserve(scf.history.size());
  payload.energy_history.reserve(scf.history.size());
  for (const dft::ScfStep& step : scf.history) {
    payload.residual_history.push_back(step.density_residual);
    payload.energy_history.push_back(step.total_energy_ha);
  }
  return payload;
}

BandStructurePayload execute_band_structure(const BandStructureJob& job) {
  const dft::Crystal crystal =
      job.atoms == 0 ? dft::silicon_primitive()
                     : dft::Crystal::silicon_supercell(job.atoms);
  const dft::PlaneWaveBasis basis(crystal, job.ecut_ry * dft::kHaPerRy);
  const std::vector<dft::KPoint> path = band_job_kpoints(job, crystal);
  std::vector<dft::BandsAtK> structure =
      dft::band_structure(basis, path, job.bands);

  BandStructurePayload payload;
  payload.atoms = crystal.atom_count();
  payload.sampling = enum_name(job.sampling);
  payload.basis_size = basis.size();
  payload.path.reserve(structure.size());
  for (dft::BandsAtK& at_k : structure) {
    BandsAtKPayload point;
    point.label = at_k.kpoint.label;
    point.weight = at_k.kpoint.weight;
    point.k[0] = at_k.kpoint.k.x;
    point.k[1] = at_k.kpoint.k.y;
    point.k[2] = at_k.kpoint.k.z;
    point.energies_ha = std::move(at_k.energies_ha);
    payload.path.push_back(std::move(point));
  }
  summarize_bands(payload, job.valence_bands);
  return payload;
}

LrtddftPayload execute_lrtddft(const LrtddftJob& job) {
  const dft::Crystal crystal = dft::Crystal::silicon_supercell(job.atoms);
  const dft::PlaneWaveBasis basis(crystal, job.ecut_ry * dft::kHaPerRy);
  const std::size_t bands =
      2 * job.atoms + std::max<std::size_t>(8, job.config.conduction_window);
  const dft::GroundState ground = dft::solve_epm(basis, bands);

  LrtddftPayload payload;
  payload.atoms = job.atoms;
  payload.basis_size = basis.size();
  const auto dims = basis.fft_dims();
  for (std::size_t i = 0; i < 3; ++i) payload.grid_dims[i] = dims[i];
  payload.ground_gap_ev = ground.band_gap_ev();
  payload.valence_bands = ground.valence_bands;

  // Nonlocal pseudopotential expectation on the lowest orbital
  // (Algorithm 1's update loop, one application).
  const dft::KbProjectors projectors(basis);
  payload.projector_count = projectors.count();
  std::vector<dft::Complex> psi(basis.size());
  for (std::size_t i = 0; i < basis.size(); ++i) {
    psi[i] = dft::Complex{ground.orbitals(i, 0), 0.0};
  }
  std::vector<dft::Complex> v_psi;
  projectors.apply(psi, v_psi);
  dft::Complex expectation{};
  for (std::size_t i = 0; i < basis.size(); ++i) {
    expectation += std::conj(psi[i]) * v_psi[i];
  }
  payload.nonlocal_expectation_ha = expectation.real();

  const dft::LrTddftResult result =
      dft::solve_lrtddft(basis, ground, job.config);
  payload.pair_count = result.pair_count;
  payload.excitations_ha = result.excitations_ha;
  if (job.oscillator_strengths) {
    for (const dft::OscillatorLine& line :
         dft::oscillator_strengths(basis, ground, job.config, result)) {
      payload.lines.push_back({line.energy_ev, line.strength});
    }
  }
  return payload;
}

/// Distills a RunReport into the serializable simulation payload (shared
/// by SimulateJob and the CoDesignJob replay).
SimulatePayload simulate_payload_from(const core::RunReport& report) {
  SimulatePayload payload;
  payload.mode = report.mode;
  payload.atoms = report.dims.atoms;
  payload.pairs = report.dims.pairs;
  payload.grid_points = report.dims.grid_points;
  payload.basis_size = report.dims.basis_size;
  payload.kernels.reserve(report.kernels.size());
  for (const core::KernelTime& k : report.kernels) {
    payload.kernels.push_back({k.name, k.cls, k.device, k.time_ps});
  }
  payload.total_ps = report.total_ps();
  payload.sched_overhead_ps = report.sched_overhead_ps;
  payload.memory_energy_mj = report.memory_energy_mj;
  payload.mesh_bytes = report.mesh_bytes;
  payload.sharing_bytes = report.sharing_bytes;
  payload.pseudo_total = report.pseudo.total;
  payload.pseudo_per_process = report.pseudo.per_process;
  payload.pseudo_capacity = report.pseudo.capacity;
  payload.pseudo_oom = report.pseudo.out_of_memory();
  payload.stats = report.stats;
  return payload;
}

/// The simulator-emitted counterpart of a measured kernel trace: one
/// "ndft.kernel_trace.v1" event per simulated kernel, carrying the
/// analytic flop/byte tallies from the workload model and the *simulated*
/// time as host_ms (1 ms per 1e9 ps). Stage names "sim[cpu]" / "sim[ndp]"
/// / "sim[gpu]" mark the trace as simulator-born while keeping it
/// consumable by everything that eats measured traces (CoDesignJob,
/// runtime::AdaptiveScheduler::record_trace).
KernelTrace trace_from_report(const dft::Workload& workload,
                              const core::RunReport& report) {
  KernelTrace trace;
  trace.atoms = report.dims.atoms;
  trace.basis_size = report.dims.basis_size;
  trace.grid_points = report.dims.grid_points;
  trace.pool_threads = 0;  // no host pool ran these kernels
  trace.events.reserve(report.kernels.size());
  for (std::size_t i = 0; i < report.kernels.size(); ++i) {
    const core::KernelTime& timed = report.kernels[i];
    TraceEvent event;
    event.cls = timed.cls;
    event.name = timed.name;
    switch (timed.device) {
      case DeviceKind::kNdp: event.stage = "sim[ndp]"; break;
      case DeviceKind::kGpu: event.stage = "sim[gpu]"; break;
      default: event.stage = "sim[cpu]"; break;
    }
    // run paths emit one KernelTime per workload kernel, in order.
    if (i < workload.kernels.size()) {
      const dft::KernelWork& work = workload.kernels[i];
      event.flops = work.flops;
      event.bytes = work.l1_bytes;
      event.input_bytes = work.input_bytes;
      event.output_bytes = work.output_bytes;
    }
    event.host_ms = static_cast<double>(timed.time_ps) * 1e-9;
    trace.events.push_back(std::move(event));
  }
  return trace;
}

/// Distills a schedule into the serializable plan payload (shared by
/// PlanJob and the CoDesignJob replay).
PlanPayload plan_payload_from(const dft::Workload& workload,
                              const runtime::Sca& sca,
                              const runtime::ExecutionPlan& plan,
                              std::size_t atoms,
                              runtime::Granularity granularity) {
  PlanPayload payload;
  payload.atoms = atoms;
  payload.granularity = granularity;
  payload.placements.reserve(plan.placements.size());
  for (std::size_t i = 0; i < workload.kernels.size(); ++i) {
    const dft::KernelWork& kernel = workload.kernels[i];
    const runtime::Placement& placement = plan.placements[i];
    const runtime::KernelAnalysis analysis = sca.analyze(kernel);
    PlacementPayload entry;
    entry.kernel = kernel.name;
    entry.cls = kernel.cls;
    entry.device = placement.device;
    entry.crossing = placement.crossing;
    entry.est_time_ps = placement.est_time_ps;
    entry.transfer_in_ps = placement.transfer_in_ps;
    entry.switch_in_ps = placement.switch_in_ps;
    entry.arithmetic_intensity = analysis.arithmetic_intensity;
    entry.est_cpu_ps = analysis.est_cpu_ps;
    entry.est_ndp_ps = analysis.est_ndp_ps;
    payload.placements.push_back(std::move(entry));
  }
  payload.est_total_ps = plan.est_total_ps;
  payload.est_overhead_ps = plan.est_overhead_ps;
  payload.crossings = plan.crossings;
  return payload;
}

SimulatePayload execute_simulate(const SimulateJob& job,
                                 const core::NdftSystem& shared_system,
                                 const core::SystemConfig& base_config,
                                 std::optional<KernelTrace>& trace_out) {
  // The engine's machine template covers the common case; a per-job
  // sampling override or machine document builds a one-shot system from
  // the same base config.
  const core::NdftSystem* system = &shared_system;
  std::unique_ptr<core::NdftSystem> scoped;
  if (job.sampled_ops != 0 || job.machine) {
    core::SystemConfig config = base_config;
    if (job.sampled_ops != 0) {
      config.sampled_ops_per_kernel = job.sampled_ops;
    }
    if (job.machine) {
      // Already validated; from_json cannot throw here.
      config.ndp = ndp::NdpSystemConfig::from_json(*job.machine);
      config.ndp_profile =
          core::ndp_profile_from(config.ndp, base_config.ndp_profile);
    }
    scoped = std::make_unique<core::NdftSystem>(config);
    system = scoped.get();
  }

  const dft::Workload workload = system->workload_for(job.atoms);
  const core::RunReport report = system->run(workload, job.mode);
  if (job.record_trace) {
    trace_out = trace_from_report(workload, report);
  }
  return simulate_payload_from(report);
}

PlanPayload execute_plan(const PlanJob& job,
                         const core::NdftSystem& system,
                         const core::SystemConfig& base_config,
                         const runtime::ProfileStore* profile_store,
                         std::size_t pool_threads) {
  runtime::DeviceProfile cpu_profile = base_config.cpu_profile;
  runtime::DeviceProfile ndp_profile = base_config.ndp_profile;
  if (job.machine) {
    ndp_profile = core::ndp_profile_from(
        ndp::NdpSystemConfig::from_json(*job.machine), ndp_profile);
  }
  bool used_stored_profile = false;
  if (!job.profile_override.empty()) {
    cpu_profile = job.profile_override[0];
    ndp_profile = job.profile_override[1];
  } else if (profile_store != nullptr) {
    // No explicit what-if profiles: default to the calibrated beliefs a
    // previous co-design run persisted for this build/host/pool context.
    if (const std::optional<runtime::DeviceProfile> stored =
            profile_store->get_cpu(
                runtime::ProfileKey::current(pool_threads))) {
      cpu_profile = *stored;
      used_stored_profile = true;
    }
  }
  const dft::Workload workload = system.workload_for(job.atoms);
  const runtime::Sca sca(cpu_profile, ndp_profile);
  const runtime::CostModel cost(cpu_profile, ndp_profile);
  const runtime::Scheduler scheduler(sca, cost);
  const runtime::ExecutionPlan plan =
      scheduler.plan(workload, job.granularity);
  PlanPayload payload =
      plan_payload_from(workload, sca, plan, job.atoms, job.granularity);
  payload.used_stored_profile = used_stored_profile;
  return payload;
}

CoDesignPayload execute_codesign(const CoDesignJob& job,
                                 const core::NdftSystem& shared_system,
                                 const core::SystemConfig& base_config,
                                 runtime::ProfileStore* profile_store,
                                 std::size_t pool_threads) {
  // A machine document re-bases both the simulated leg and the NDP-side
  // scheduler beliefs.
  const core::NdftSystem* system = &shared_system;
  std::unique_ptr<core::NdftSystem> scoped;
  runtime::DeviceProfile ndp_profile = base_config.ndp_profile;
  if (job.machine) {
    core::SystemConfig config = base_config;
    config.ndp = ndp::NdpSystemConfig::from_json(*job.machine);
    config.ndp_profile =
        core::ndp_profile_from(config.ndp, base_config.ndp_profile);
    ndp_profile = config.ndp_profile;
    scoped = std::make_unique<core::NdftSystem>(config);
    system = scoped.get();
  }
  const dft::Workload workload = system->workload_from_trace(job.trace);

  CoDesignPayload payload;
  payload.trace_events = job.trace.events.size();
  payload.trace_atoms = job.trace.atoms;
  payload.trace_flops = job.trace.total_flops();
  payload.trace_bytes = job.trace.total_bytes();
  payload.trace_host_ms = job.trace.total_host_ms();
  payload.trace_truncated = job.trace.truncated;

  // The scheduler prices the CPU side from the machine the trace was
  // measured on (when calibration is requested and possible); the NDP
  // side keeps the engine's configured beliefs.
  runtime::DeviceProfile cpu_profile = base_config.cpu_profile;
  if (job.calibrate) {
    const runtime::CpuCalibration calibration =
        runtime::calibrate_cpu(job.trace, cpu_profile);
    cpu_profile = calibration.profile;
    payload.calibration.calibrated = calibration.calibrated;
    payload.calibration.peak_gflops = cpu_profile.peak_gflops;
    payload.calibration.dram_gbps = cpu_profile.dram_gbps;
    payload.calibration.blocked_efficiency =
        cpu_profile.blocked_compute_efficiency;
    payload.calibration.max_ratio = calibration.max_ratio;
    payload.calibration.fitted_events = calibration.fitted_events;
    payload.calibration.fitted_ms = calibration.fitted_ms;
    if (calibration.calibrated && profile_store != nullptr) {
      // Persist the fitted beliefs so later PlanJobs on this build/host
      // start from measured reality instead of the Table-III defaults.
      profile_store->put_cpu(runtime::ProfileKey::current(pool_threads),
                             cpu_profile);
    }
  }

  const runtime::Sca sca(cpu_profile, ndp_profile);
  const runtime::CostModel cost(cpu_profile, ndp_profile);
  const runtime::Scheduler scheduler(sca, cost);
  const runtime::ExecutionPlan plan =
      scheduler.plan(workload, job.granularity);
  payload.plan = plan_payload_from(workload, sca, plan, job.trace.atoms,
                                   job.granularity);
  if (job.simulate) {
    payload.simulate =
        simulate_payload_from(system->run_planned(workload, plan));
  }
  return payload;
}

/// True when the request asked for its kernel trace to be recorded.
bool wants_trace(const JobRequest& request) noexcept {
  if (const auto* job = std::get_if<ScfJob>(&request)) {
    return job->record_trace;
  }
  if (const auto* job = std::get_if<BandStructureJob>(&request)) {
    return job->record_trace;
  }
  if (const auto* job = std::get_if<LrtddftJob>(&request)) {
    return job->record_trace;
  }
  return false;
}

/// Prices one event-shaped kernel through the same trace-conversion and
/// SCA machinery the co-design replay uses, so the queue's priority key
/// and the planner's estimates share one cost model instead of drifting
/// as two hand-maintained formula sets.
TimePs price_event(const runtime::Sca& sca, KernelClass cls, Flops flops,
                   Bytes bytes, std::uint64_t dim) {
  TraceEvent event;
  event.cls = cls;
  event.flops = flops;
  event.bytes = bytes;
  event.dims[0] = dim;
  event.dims[1] = dim;
  return sca.estimate(dft::kernel_work_from_event(event), sca.cpu());
}

/// The full-spectrum eigensolve on an n x n matrix (the shared
/// dft::syevd_cost tally).
TimePs price_syevd(const runtime::Sca& sca, std::size_t n) {
  const dft::SyevdCost cost = dft::syevd_cost(n);
  return price_event(sca, KernelClass::kSyevd, cost.flops, cost.bytes, n);
}

/// The lowest-m partial eigensolve (dft::syevd_partial_cost), which is
/// what the rewired low-band consumers actually run.
TimePs price_syevd_partial(const runtime::Sca& sca, std::size_t n,
                           std::size_t m) {
  const dft::SyevdCost cost = dft::syevd_partial_cost(n, std::min(m, n));
  return price_event(sca, KernelClass::kSyevd, cost.flops, cost.bytes, n);
}

/// Summed CPU roofline estimate of a workload's kernels.
TimePs price_workload(const runtime::Sca& sca, const dft::Workload& w) {
  TimePs total = 0;
  for (const dft::KernelWork& kernel : w.kernels) {
    total += sca.estimate(kernel, sca.cpu());
  }
  return total;
}

/// Submission-time cost estimate keying the priority queue: the CPU-side
/// SCA estimate of the job's dominant kernels (the analytic workload
/// model where it applies, measured time for trace replays). Only the
/// relative magnitudes matter — a wrong estimate reorders the queue but
/// cannot break it. Plan jobs are effectively free and drain first.
TimePs estimate_cost_ps(const JobRequest& request,
                        const core::SystemConfig& config) noexcept {
  // The estimator runs at submit(), BEFORE validation, so request fields
  // may be arbitrary garbage. Cutoffs outside this sane window would
  // push the closed-form basis sizes past the double->size_t cast range
  // (undefined behaviour, not catchable); such jobs cost 0 and surface
  // immediately, where validation rejects or execution prices them.
  const auto sane_ecut = [](double ecut_ry) {
    return ecut_ry > 0.0 && ecut_ry < 1e4;
  };
  const auto sane_atoms = [](std::size_t atoms) {
    return atoms <= (std::size_t{1} << 24);
  };
  try {
    const runtime::Sca sca(config.cpu_profile, config.ndp_profile);
    if (const auto* job = std::get_if<ScfJob>(&request)) {
      if (!sane_ecut(job->ecut_ry) || !sane_atoms(job->atoms)) return 0;
      // Per iteration: the dense eigensolve plus the valence density
      // FFTs, at the closed-form basis/grid sizes for the cutoff.
      const dft::SystemDims dims =
          dft::SystemDims::silicon(job->atoms, job->ecut_ry * dft::kHaPerRy);
      const TimePs fft = price_event(
          sca, KernelClass::kFft, dft::fft_flops(dims.grid_points),
          4ull * dims.grid_points * sizeof(dft::Complex), dims.grid_points);
      return job->scf.max_iterations *
             (price_syevd(sca, dims.basis_size) +
              (2 * job->atoms + 3) * fft);
    }
    if (const auto* job = std::get_if<BandStructureJob>(&request)) {
      if (!sane_ecut(job->ecut_ry) || !sane_atoms(job->atoms)) return 0;
      // Basis at the cutoff, N_G ~ V (2E)^{3/2}/(6 pi^2), for the
      // requested cell (primitive: a0^3/4; supercell: a0^3/8 per atom);
      // one partial eigensolve per k-point.
      const double a0 = dft::kSiliconLatticeBohr;
      const double volume = a0 * a0 * a0 *
                            (job->atoms == 0
                                 ? 0.25
                                 : static_cast<double>(job->atoms) / 8.0);
      const double kmax = std::sqrt(job->ecut_ry);  // sqrt(2 * ecut_ha)
      const auto ng = static_cast<std::size_t>(
          volume * kmax * kmax * kmax /
          (6.0 * std::numbers::pi * std::numbers::pi));
      std::uint64_t kpoints = 4ull * job->segments + 1;
      if (job->sampling == BandStructureJob::Sampling::kExplicit) {
        kpoints = std::min<std::uint64_t>(job->kpoints.size(), 1u << 20);
      } else if (job->sampling ==
                 BandStructureJob::Sampling::kMonkhorstPack) {
        kpoints = 1;
        for (const unsigned n : job->mp_grid) {
          // Bound each factor: the estimator runs before validation, and
          // a garbage grid must not overflow the product.
          kpoints *= std::min<std::uint64_t>(n, 1u << 20);
        }
        // Time-reversal folding halves the points actually solved.
        kpoints = std::min<std::uint64_t>((kpoints + 1) / 2, 1u << 20);
      }
      return kpoints * price_syevd_partial(sca, ng, job->bands);
    }
    if (const auto* job = std::get_if<LrtddftJob>(&request)) {
      if (!sane_ecut(job->ecut_ry) || !sane_atoms(job->atoms)) return 0;
      // The analytic iteration evaluated at the job's excitation window,
      // plus the EPM ground-state eigensolve it sits on.
      dft::SystemDims dims =
          dft::SystemDims::silicon(job->atoms, job->ecut_ry * dft::kHaPerRy);
      dims.valence_window = job->config.window_valence(dims.valence_bands);
      dims.conduction_window = job->config.conduction_window;
      dims.pairs = dims.valence_window * dims.conduction_window;
      dims.subspace = 2 * dims.pairs;  // heev's real embedding
      return price_syevd(sca, dims.basis_size) +
             price_workload(sca, dft::Workload::lrtddft_iteration(dims));
    }
    if (const auto* job = std::get_if<SimulateJob>(&request)) {
      if (!sane_atoms(job->atoms)) return 0;
      // Proxy: the analytic iteration's CPU roofline estimate (scales
      // with the system size like the simulation's own cost does).
      return price_workload(sca, dft::Workload::lrtddft_iteration(
                                     dft::SystemDims::silicon(job->atoms)));
    }
    if (const auto* job = std::get_if<CoDesignJob>(&request)) {
      // Replays cost roughly what the trace took to record, plus as much
      // again when the timing simulation is requested.
      const double ms = job->trace.total_host_ms();
      return static_cast<TimePs>(ms * (job->simulate ? 2.0 : 1.0) *
                                 static_cast<double>(kPsPerMs));
    }
  } catch (...) {
    // Invalid dimensions and similar: fall through to zero cost so the
    // job surfaces (and fails validation) quickly.
  }
  return 0;  // PlanJob and anything unpriceable: effectively free
}

}  // namespace

// -------------------------------------------------------------- JobHandle

std::uint64_t JobHandle::id() const {
  NDFT_REQUIRE(valid(), "empty job handle");
  return state_->id;
}

JobStatus JobHandle::status() const {
  NDFT_REQUIRE(valid(), "empty job handle");
  std::lock_guard<std::mutex> lock(state_->mutex);
  return state_->status;
}

bool JobHandle::cancel() {
  NDFT_REQUIRE(valid(), "empty job handle");
  std::lock_guard<std::mutex> lock(state_->mutex);
  if (state_->terminal) return false;
  if (state_->status == JobStatus::kQueued) {
    // Still queued: terminal immediately. This is the only kQueued ->
    // kCancelled transition (guarded by the state mutex), so counting
    // here — and only here — makes double-counting impossible no matter
    // how cancel races the pop/start/drain/destructor paths.
    state_->status = JobStatus::kCancelled;
    state_->result.status = JobStatus::kCancelled;
    state_->result.error = ErrorKind::kCancelled;
    state_->result.error_message = "job cancelled while queued";
    state_->result.timings.queue_ms =
        ms_between(state_->submitted_at, Clock::now());
    state_->result.timings.total_ms = state_->result.timings.queue_ms;
    state_->terminal = true;
    if (state_->cancelled_counter != nullptr) {
      state_->cancelled_counter->fetch_add(1);
    }
    state_->cv.notify_all();
    return true;
  }
  // Running: request cooperative cancellation; the job observes it at
  // its next stage boundary and execute_queued() publishes (and counts)
  // the kCancelled result. Idempotent while the job is still running.
  state_->cancel.request_cancel();
  return true;
}

const JobResult& JobHandle::wait() const {
  NDFT_REQUIRE(valid(), "empty job handle");
  std::unique_lock<std::mutex> lock(state_->mutex);
  state_->cv.wait(lock, [&] { return state_->terminal; });
  return state_->result;
}

bool JobHandle::wait_for(double timeout_ms) const {
  NDFT_REQUIRE(valid(), "empty job handle");
  std::unique_lock<std::mutex> lock(state_->mutex);
  if (timeout_ms <= 0.0) return state_->terminal;
  return state_->cv.wait_for(
      lock, std::chrono::duration<double, std::milli>(timeout_ms),
      [&] { return state_->terminal; });
}

// ----------------------------------------------------------------- Engine

Engine::Engine(EngineConfig config)
    : config_(std::move(config)), system_(config_.system) {
  if (!config_.profile_store_path.empty()) {
    profile_store_ =
        std::make_unique<runtime::ProfileStore>(config_.profile_store_path);
  }
  // Arm the fault-injection layer: the explicit config wins, the
  // NDFT_FAULTS environment variable is the fallback, and an empty spec
  // leaves the process-wide state alone (so engines without one do not
  // clobber a spec another engine installed).
  std::string spec_text = config_.fault_spec;
  if (spec_text.empty()) {
    if (const char* env = std::getenv("NDFT_FAULTS")) spec_text = env;
  }
  if (!spec_text.empty()) {
    fault_install(FaultSpec::parse(spec_text));  // throws on bad specs
    installed_faults_ = true;
  }
  // Warm the shared kernel pool so the first job does not pay thread
  // startup; the FFT plan cache warms lazily per grid size.
  (void)ThreadPool::instance();
  for (std::size_t i = 0; i < config_.dispatch_threads; ++i) {
    dispatchers_.emplace_back([this] { dispatcher_loop(); });
  }
}

Engine::~Engine() {
  // Cancel everything still queued, then stop the dispatchers once the
  // in-flight jobs finish. Handles stay valid: their state is shared.
  std::deque<std::shared_ptr<detail::JobState>> orphaned;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    stopping_ = true;
    orphaned.swap(queue_);
    fifo_.clear();
  }
  for (const auto& state : orphaned) {
    // cancel() counts the kQueued -> kCancelled transition itself;
    // orphans the user already cancelled were counted then, so the
    // sweep cannot double-count them.
    JobHandle(state).cancel();
  }
  queue_cv_.notify_all();
  for (std::thread& dispatcher : dispatchers_) {
    dispatcher.join();
  }
  if (installed_faults_) fault_clear();
}

const core::SystemConfig& Engine::system_config() const noexcept {
  return system_.config();
}

std::size_t Engine::pool_threads() const noexcept {
  return ThreadPool::instance().threads();
}

JobResult Engine::run(const JobRequest& request) {
  const Clock::time_point start = Clock::now();
  // Synchronous runs have no handle to cancel through, but the deadline
  // still applies, measured from execution start.
  const CancelToken token = CancelToken::create();
  const double deadline_ms = job_deadline_ms(request);
  if (deadline_ms > 0.0) {
    token.set_deadline(start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double, std::milli>(
                                       deadline_ms)));
  }
  JobResult result = execute(request, token);
  result.engine.job_id = next_job_id_.fetch_add(1);
  result.timings.queue_ms = 0.0;
  result.timings.total_ms = ms_between(start, Clock::now());
  submitted_.fetch_add(1);
  completed_.fetch_add(1);
  return result;
}

JobHandle Engine::submit(JobRequest request) {
  auto state = std::make_shared<detail::JobState>();
  state->id = next_job_id_.fetch_add(1);
  state->request = std::move(request);
  state->submitted_at = Clock::now();
  state->est_cost_ps = estimate_cost_ps(state->request, config_.system);
  state->cancel = CancelToken::create();
  state->cancelled_counter = &cancelled_;
  // The deadline clock starts at submission: time spent queued counts
  // against the budget (that is what a service-level deadline means).
  const double deadline_ms = job_deadline_ms(state->request);
  if (deadline_ms > 0.0) {
    state->cancel.set_deadline(
        state->submitted_at +
        std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double, std::milli>(deadline_ms)));
  }
  // Engine metadata the cancel path also needs, stamped up front.
  state->result.engine.job_id = state->id;
  state->result.engine.kind = job_kind(state->request);
  state->result.engine.pool_threads = pool_threads();
  state->result.engine.dispatch_threads = config_.dispatch_threads;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    NDFT_REQUIRE(!stopping_, "engine is shutting down");
    NDFT_REQUIRE(queue_.size() < kMaxPendingJobs,
                 "engine queue is full");
    // Cost-aware ordering: cheapest job first, FIFO (by id) among equal
    // estimates. Insertion keeps the deque sorted so the pop side stays
    // front-only for the dispatchers and drain().
    const auto before = [](const std::shared_ptr<detail::JobState>& a,
                           const std::shared_ptr<detail::JobState>& b) {
      if (a->est_cost_ps != b->est_cost_ps) {
        return a->est_cost_ps < b->est_cost_ps;
      }
      return a->id < b->id;
    };
    queue_.insert(std::upper_bound(queue_.begin(), queue_.end(), state,
                                   before),
                  state);
    fifo_.push_back(state);
  }
  submitted_.fetch_add(1);
  queue_cv_.notify_one();
  return JobHandle(state);
}

std::vector<JobHandle> Engine::submit_batch(
    std::vector<JobRequest> requests) {
  std::vector<JobHandle> handles;
  handles.reserve(requests.size());
  for (JobRequest& request : requests) {
    handles.push_back(submit(std::move(request)));
  }
  return handles;
}

std::shared_ptr<detail::JobState> Engine::pop_next_locked() {
  // Drop submission-order entries already taken off the queue; what
  // remains at the front is the oldest pending job, found in O(1).
  while (!fifo_.empty() && fifo_.front()->dequeued) {
    fifo_.pop_front();
  }
  // Cheapest-first (the queue is sorted), unless the oldest pending job
  // has aged past the starvation limit — then it runs next regardless of
  // cost, so heavy jobs make progress under sustained cheap traffic (the
  // linear find only runs on that rare aged path).
  auto next = queue_.begin();
  if (!fifo_.empty() && fifo_.front() != *next &&
      ms_between(fifo_.front()->submitted_at, Clock::now()) >=
          config_.starvation_limit_ms) {
    next = std::find(queue_.begin(), queue_.end(), fifo_.front());
  }
  std::shared_ptr<detail::JobState> state = std::move(*next);
  queue_.erase(next);
  state->dequeued = true;
  return state;
}

void Engine::retire_in_flight_locked() {
  --in_flight_;
  if (queue_.empty() && in_flight_ == 0) {
    idle_cv_.notify_all();
  }
}

void Engine::retire_in_flight() {
  std::lock_guard<std::mutex> lock(queue_mutex_);
  retire_in_flight_locked();
}

void Engine::drain() {
  if (config_.dispatch_threads == 0) {
    // Manual mode: the caller's thread is the dispatcher.
    // execute_queued() retires the in-flight count itself.
    for (;;) {
      std::shared_ptr<detail::JobState> state;
      {
        std::lock_guard<std::mutex> lock(queue_mutex_);
        if (queue_.empty()) break;
        state = pop_next_locked();
        ++in_flight_;
      }
      execute_queued(state);
    }
    return;
  }
  std::unique_lock<std::mutex> lock(queue_mutex_);
  idle_cv_.wait(lock, [&] { return queue_.empty() && in_flight_ == 0; });
}

void Engine::dispatcher_loop() {
  for (;;) {
    std::shared_ptr<detail::JobState> state;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stopping_) return;
        continue;
      }
      state = pop_next_locked();
      ++in_flight_;
    }
    // execute_queued() publishes the terminal result and retires the
    // in-flight count atomically (signalling idle_cv_ when drained).
    execute_queued(state);
  }
}

void Engine::execute_queued(const std::shared_ptr<detail::JobState>& state) {
  Clock::time_point started;
  bool cancelled_before_start = false;
  {
    std::lock_guard<std::mutex> lock(state->mutex);
    if (state->status != JobStatus::kQueued) {
      // Cancelled between pop and start: cancel() made it terminal and
      // already counted it — counting here again was the double-count
      // this path used to have.
      cancelled_before_start = true;
    } else {
      state->status = JobStatus::kRunning;
      state->result.engine.exec_seq = exec_seq_.fetch_add(1) + 1;
      started = Clock::now();
    }
  }
  if (cancelled_before_start) {
    retire_in_flight();
    return;
  }
  JobResult result;
  if (state->cancel.deadline_exceeded()) {
    // Expired while queued: surface without paying for the execution.
    result.engine.kind = job_kind(state->request);
    result.engine.pool_threads = pool_threads();
    result.engine.dispatch_threads = config_.dispatch_threads;
    result.status = JobStatus::kDeadlineExceeded;
    result.error = ErrorKind::kDeadlineExceeded;
    result.error_message = "deadline expired while queued";
  } else {
    result = execute(state->request, state->cancel);
  }
  // Merge: id/kind/exec_seq were stamped on the queued state up front
  // (the cancel path publishes them too), attempts by the retry loop.
  const std::uint32_t attempts = result.engine.attempts;
  result.engine = state->result.engine;
  result.engine.attempts = attempts;
  result.timings.queue_ms = ms_between(state->submitted_at, started);
  result.timings.total_ms = result.timings.queue_ms + result.timings.run_ms;
  if (result.status == JobStatus::kDeadlineExceeded) {
    deadline_expired_.fetch_add(1);
  }
  // Count before publishing: a waiter woken by the notify must already
  // observe this job in jobs_completed() / jobs_cancelled(). A job
  // cancelled mid-run counts as cancelled, not completed, keeping
  // submitted == completed + cancelled an exact invariant.
  if (result.status == JobStatus::kCancelled) {
    cancelled_.fetch_add(1);
  } else {
    completed_.fetch_add(1);
  }
  {
    // Publish and retire under both locks (queue before state, the
    // global order) so the two are atomic to observers: a waiter woken
    // by the notify must not find this job still counted by
    // jobs_running(), and drain() must not return before the terminal
    // result is visible through the handle.
    std::lock_guard<std::mutex> queue_lock(queue_mutex_);
    std::lock_guard<std::mutex> lock(state->mutex);
    state->result = std::move(result);
    state->status = state->result.status;
    state->terminal = true;
    state->cv.notify_all();
    retire_in_flight_locked();
  }
}

JobResult Engine::execute(const JobRequest& request,
                          const CancelToken& token) {
  JobResult result;
  result.engine.kind = job_kind(request);
  result.engine.pool_threads = pool_threads();
  result.engine.dispatch_threads = config_.dispatch_threads;

  std::vector<std::string> errors = validate(request);
  if (!errors.empty()) {
    result.status = JobStatus::kInvalid;
    result.error = ErrorKind::kInvalidRequest;
    result.error_message = "request failed validation";
    result.error_details = std::move(errors);
    return result;
  }

  // Retry loop: transient failures (allocation pressure, simulated
  // device faults) re-execute with capped exponential backoff. The
  // schedule is deterministic — min(base * 2^(attempt-1), cap), no
  // jitter — so a replayed fault spec replays the same attempt pattern.
  const unsigned max_attempts = std::max(1u, config_.max_attempts);
  double backoff_ms = std::min(std::max(0.0, config_.retry_backoff_ms),
                               kRetryBackoffCapMs);
  double backoff_total_ms = 0.0;
  unsigned attempt = 0;
  for (;;) {
    ++attempt;
    const JobTimings carried = result.timings;  // accumulate run/backoff
    result = execute_once(request, token);
    result.engine.kind = job_kind(request);
    result.engine.pool_threads = pool_threads();
    result.engine.dispatch_threads = config_.dispatch_threads;
    result.engine.attempts = attempt;
    result.timings.run_ms += carried.run_ms;
    if (!is_transient(result.error) || attempt >= max_attempts) break;
    // Don't burn retries on a job that is already doomed: a cancel or
    // expired deadline surfaces as its own status instead.
    if (token.cancel_requested()) {
      result.status = JobStatus::kCancelled;
      result.error = ErrorKind::kCancelled;
      result.error_message = "job cancelled while running";
      break;
    }
    if (token.deadline_exceeded()) {
      result.status = JobStatus::kDeadlineExceeded;
      result.error = ErrorKind::kDeadlineExceeded;
      result.error_message = "job deadline exceeded";
      break;
    }
    retries_.fetch_add(1);
    if (backoff_ms > 0.0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(backoff_ms));
      backoff_total_ms += backoff_ms;
      backoff_ms = std::min(backoff_ms * 2.0, kRetryBackoffCapMs);
    }
  }
  result.timings.backoff_ms = backoff_total_ms;
  if (!result.degraded.empty()) degraded_.fetch_add(1);
  return result;
}

std::size_t Engine::jobs_pending() {
  std::lock_guard<std::mutex> lock(queue_mutex_);
  // Cancelled-while-queued jobs are already terminal but stay in queue_
  // until a dispatcher pops (lazy pruning): only count live ones.
  std::size_t pending = 0;
  for (const auto& state : queue_) {
    std::lock_guard<std::mutex> state_lock(state->mutex);
    if (!state->terminal) ++pending;
  }
  return pending;
}

std::size_t Engine::jobs_running() {
  std::lock_guard<std::mutex> lock(queue_mutex_);
  return in_flight_;
}

JobResult Engine::execute_once(const JobRequest& request,
                               const CancelToken& token) {
  JobResult result;
  result.engine.kind = job_kind(request);
  result.engine.pool_threads = pool_threads();
  result.engine.dispatch_threads = config_.dispatch_threads;

  const Clock::time_point start = Clock::now();
  // The job runs to completion on this thread, so the thread-local linalg
  // tally brackets exactly this job's dense-algebra share — and the
  // trace, cancel and degradation scopes bracket exactly this job.
  dft::linalg_timer_reset();
  const CancelScope cancel_scope(token);
  DegradationScope degradation_scope;
  std::unique_ptr<TraceRecorder> recorder;
  std::unique_ptr<TraceScope> scope;
  if (wants_trace(request)) {
    if (fault_fires("trace.recorder")) {
      // Graceful degradation: a failed recorder downgrades the job to an
      // untraced run instead of failing it.
      note_degradation("trace:recorder_failed");
    } else {
      recorder = std::make_unique<TraceRecorder>();
      scope = std::make_unique<TraceScope>(*recorder);
    }
  }
  try {
    cancel_point();               // cancelled/expired before any work
    fault_point("engine.alloc");  // simulated setup allocation pressure
    if (const auto* job = std::get_if<ScfJob>(&request)) {
      result.scf = execute_scf(*job);
    } else if (const auto* job = std::get_if<BandStructureJob>(&request)) {
      result.band_structure = execute_band_structure(*job);
    } else if (const auto* job = std::get_if<LrtddftJob>(&request)) {
      result.lrtddft = execute_lrtddft(*job);
    } else if (const auto* job = std::get_if<SimulateJob>(&request)) {
      result.simulate =
          execute_simulate(*job, system_, config_.system, result.trace);
    } else if (const auto* job = std::get_if<PlanJob>(&request)) {
      result.plan = execute_plan(*job, system_, config_.system,
                                 profile_store_.get(), pool_threads());
    } else if (const auto* job = std::get_if<CoDesignJob>(&request)) {
      result.codesign = execute_codesign(*job, system_, config_.system,
                                         profile_store_.get(),
                                         pool_threads());
    } else {
      throw NdftError("unhandled job kind");
    }
    result.status = JobStatus::kOk;
  } catch (const CancelledError& error) {
    result.status = JobStatus::kCancelled;
    result.error = ErrorKind::kCancelled;
    result.error_message = error.what();
  } catch (const DeadlineExceededError& error) {
    result.status = JobStatus::kDeadlineExceeded;
    result.error = ErrorKind::kDeadlineExceeded;
    result.error_message = error.what();
  } catch (const FaultInjected& error) {
    // An escaped injected fault classifies by its site's class; the
    // transient kinds feed the retry loop.
    result.status = JobStatus::kFailed;
    switch (error.fault_class()) {
      case FaultClass::kResource:
        result.error = ErrorKind::kTransientResource;
        break;
      case FaultClass::kDevice:
        result.error = ErrorKind::kTransientDevice;
        break;
      default:
        // Solver/trace faults are degradable at their site; one escaping
        // means no fallback existed there — a permanent failure.
        result.error = ErrorKind::kPhysics;
        break;
    }
    result.error_message = error.what();
  } catch (const std::bad_alloc&) {
    result.status = JobStatus::kFailed;
    result.error = ErrorKind::kTransientResource;
    result.error_message = "allocation failure";
  } catch (const NdftError& error) {
    result.status = JobStatus::kFailed;
    result.error = ErrorKind::kPhysics;
    result.error_message = error.what();
  } catch (const std::exception& error) {
    result.status = JobStatus::kFailed;
    result.error = ErrorKind::kInternal;
    result.error_message = error.what();
  }
  scope.reset();
  if (recorder != nullptr && result.status == JobStatus::kOk) {
    result.trace = recorder->take();
  }
  result.degraded = degradation_scope.take();
  result.timings.run_ms = ms_between(start, Clock::now());
  result.timings.linalg_ms = dft::linalg_timer_ms();
  const dft::LinalgStageTimes stages = dft::linalg_stage_times();
  result.timings.reduce_ms = stages.reduce_ms;
  result.timings.tridiag_ms = stages.tridiag_ms;
  result.timings.backtransform_ms = stages.backtransform_ms;
  return result;
}

}  // namespace ndft::api
