#pragma once
// Structured job results: status, error taxonomy, timings, the physics /
// simulation payload, and engine metadata — everything a bench harness or
// a network front end needs, with lossless JSON serialization both ways.
//
// The JSON schema is versioned ("ndft.job_result.v1"); `to_json()` and
// `from_json()` round-trip exactly (`dump()` of the reconstruction equals
// `dump()` of the original), which tests/api_test.cpp pins down. The
// program alone writes results, so the reader requires every member the
// writer always emits; the full reading rule is in docs/API.md ("JSON
// documents").

#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/kernel_trace.hpp"
#include "common/types.hpp"
#include "core/report.hpp"
#include "runtime/scheduler.hpp"

namespace ndft::api {

/// Lifecycle / outcome of a job.
enum class JobStatus {
  kQueued,            ///< accepted, waiting in the engine queue
  kRunning,           ///< executing
  kOk,                ///< finished successfully
  kInvalid,           ///< rejected by request validation
  kFailed,            ///< physics or internal error during execution
  kCancelled,         ///< cancelled while queued or mid-run
  kDeadlineExceeded,  ///< deadline_ms expired before the job finished
  kCount_,            ///< sentinel for the name table; keep last
};
const char* to_string(JobStatus status) noexcept;
/// Names indexed by enumerator: to_string and every JSON document use them.
std::span<const char* const> enum_names(JobStatus) noexcept;
/// Inverse of to_string (every enumerator round-trips); throws NdftError
/// on unknown names.
JobStatus job_status_from_string(const std::string& name);

/// Error taxonomy for non-Ok results. Transient kinds (is_transient)
/// are retried by the Engine with capped deterministic backoff;
/// everything else is permanent for the request.
enum class ErrorKind {
  kNone,               ///< no error (status Ok, Queued or Running)
  kInvalidRequest,     ///< request failed validation
  kPhysics,            ///< solver-level failure (NdftError)
  kInternal,           ///< unexpected exception
  kCancelled,          ///< job cancelled while queued or mid-run
  kDeadlineExceeded,   ///< deadline_ms expired (queued or mid-run)
  kTransientResource,  ///< allocation pressure; retry may succeed
  kTransientDevice,    ///< simulated NDP/memory fault; retry may succeed
  kCount_,             ///< sentinel for the name table; keep last
};
const char* to_string(ErrorKind kind) noexcept;
/// Names indexed by enumerator: to_string and every JSON document use them.
std::span<const char* const> enum_names(ErrorKind) noexcept;
/// Inverse of to_string (every enumerator round-trips); throws NdftError
/// on unknown names.
ErrorKind error_kind_from_string(const std::string& name);

/// True for the error kinds the Engine's retry loop treats as transient.
bool is_transient(ErrorKind kind) noexcept;

/// Wall-clock accounting of one job (milliseconds).
struct JobTimings {
  double queue_ms = 0.0;    ///< submit -> execution start
  double run_ms = 0.0;      ///< execution start -> finish (all attempts)
  double total_ms = 0.0;    ///< submit -> finish
  double linalg_ms = 0.0;   ///< run time spent in dense linalg (GEMM/SYEVD)
  double backoff_ms = 0.0;  ///< slept between retry attempts (additive)
  /// Eigensolver stage split (additive fields in ndft.job_result.v1;
  /// `linalg_ms` above stays for older readers). Disjoint sub-spans of
  /// the linalg time: the reduction to tridiagonal form, the tridiagonal
  /// eigensolve, and the eigenvector back-transformations; they sum to
  /// at most linalg_ms (GEMM time outside an eigensolve is in no bucket).
  double reduce_ms = 0.0;
  double tridiag_ms = 0.0;
  double backtransform_ms = 0.0;
};

/// Engine metadata stamped onto every result.
struct EngineInfo {
  std::uint64_t job_id = 0;      ///< engine-unique, monotonically assigned
  std::string kind;              ///< job kind name ("scf", "simulate", ...)
  std::size_t pool_threads = 0;  ///< shared kernel thread-pool width
  std::size_t dispatch_threads = 0;  ///< async queue drain width
  /// Order in which the engine started executing this job relative to
  /// the other queued jobs (1-based; 0 for synchronous run()). Makes the
  /// cost-aware queue ordering observable.
  std::uint64_t exec_seq = 0;
  /// Execution attempts this result took (1 = no retries; additive in
  /// ndft.job_result.v1).
  std::uint32_t attempts = 1;
};

// ---------------------------------------------------------------- payloads

/// SCF-LDA ground-state summary (ScfJob).
struct ScfPayload {
  std::size_t atoms = 0;
  std::size_t basis_size = 0;
  std::size_t grid_points = 0;
  bool converged = false;
  std::size_t iterations = 0;
  double total_energy_ha = 0.0;
  double gap_ev = 0.0;
  double final_residual = 0.0;
  double electron_count = 0.0;
  /// Per-iteration (residual, total energy) history for convergence plots.
  std::vector<double> residual_history;
  std::vector<double> energy_history;
};

/// Band energies at one k-point (BandStructureJob).
struct BandsAtKPayload {
  std::string label;            ///< nonempty at high-symmetry points
  double weight = 1.0;          ///< integration weight
  /// Cartesian reciprocal coordinates in Bohr^-1. Lets a gather stage
  /// find the zone centre in merged partial payloads without re-deriving
  /// the grid.
  double k[3] = {0.0, 0.0, 0.0};
  std::vector<double> energies_ha;
};

/// EPM band structure along the FCC path or a Monkhorst-Pack grid
/// (BandStructureJob).
struct BandStructurePayload {
  std::size_t atoms = 0;        ///< atoms in the solved crystal (2 = primitive)
  std::string sampling;         ///< "path" or "monkhorst_pack"
  std::size_t basis_size = 0;
  std::vector<BandsAtKPayload> path;
  double vbm_ha = 0.0;
  double cbm_ha = 0.0;
  std::string vbm_label;
  std::string cbm_label;
  double indirect_gap_ev = 0.0;
  double direct_gap_gamma_ev = 0.0;
  double band_energy_ha = 0.0;  ///< weight-averaged occupied band energy
  double weight_sum = 0.0;      ///< total integration weight of the k-set
};

/// Sets every summary member of `payload` (VBM/CBM and their labels, the
/// indirect and zone-centre direct gaps, band energy, weight sum) from
/// dft::find_gap over `payload.path` in path order. The Engine's band
/// executor and the scatter/gather merge both summarise here, so a
/// gathered payload is the same IEEE operation sequence as an unsharded
/// one. Throws NdftError when find_gap rejects the points: an empty path,
/// `valence_bands` == 0, or a point without a conduction band.
void summarize_bands(BandStructurePayload& payload, std::size_t valence_bands);

/// One optical line (LrtddftJob with oscillator_strengths).
struct OscillatorLinePayload {
  double energy_ev = 0.0;
  double strength = 0.0;
};

/// LR-TDDFT excitation summary (LrtddftJob).
struct LrtddftPayload {
  std::size_t atoms = 0;
  std::size_t basis_size = 0;
  std::size_t grid_dims[3] = {0, 0, 0};
  double ground_gap_ev = 0.0;
  std::size_t valence_bands = 0;
  std::size_t projector_count = 0;
  double nonlocal_expectation_ha = 0.0;  ///< <psi0| V_nl |psi0>
  std::size_t pair_count = 0;
  std::vector<double> excitations_ha;
  std::vector<OscillatorLinePayload> lines;  ///< empty unless requested
};

/// Timing-simulation summary: the RunReport in serializable form
/// (SimulateJob). Kernel entries reuse core::KernelTime so the payload
/// and the RunReport present the same rows.
struct SimulatePayload {
  core::ExecMode mode = core::ExecMode::kNdft;
  std::size_t atoms = 0;
  std::size_t pairs = 0;
  std::size_t grid_points = 0;
  std::size_t basis_size = 0;
  std::vector<core::KernelTime> kernels;
  TimePs total_ps = 0;
  TimePs sched_overhead_ps = 0;
  double memory_energy_mj = 0.0;
  Bytes mesh_bytes = 0;
  Bytes sharing_bytes = 0;
  Bytes pseudo_total = 0;
  Bytes pseudo_per_process = 0;
  Bytes pseudo_capacity = 0;
  bool pseudo_oom = false;
  /// Bounded component-statistics roll-up from RunReport::stats
  /// ("mesh.hops", "dram.channel_utilization",
  /// "serdes.backpressure_stall_ps", ...). Omitted from the document
  /// when empty.
  std::map<std::string, double> stats;
};

/// One kernel's placement decision plus the SCA view behind it (PlanJob).
struct PlacementPayload {
  std::string kernel;
  KernelClass cls = KernelClass::kOther;
  DeviceKind device = DeviceKind::kCpu;
  bool crossing = false;
  TimePs est_time_ps = 0;
  TimePs transfer_in_ps = 0;
  TimePs switch_in_ps = 0;
  double arithmetic_intensity = 0.0;
  TimePs est_cpu_ps = 0;
  TimePs est_ndp_ps = 0;
};

/// Cost-aware schedule summary (PlanJob).
struct PlanPayload {
  std::size_t atoms = 0;
  runtime::Granularity granularity = runtime::Granularity::kFunction;
  std::vector<PlacementPayload> placements;
  TimePs est_total_ps = 0;
  TimePs est_overhead_ps = 0;
  unsigned crossings = 0;
  /// True when the CPU-side beliefs behind this plan came from the
  /// engine's persisted device-profile store (a previous calibrated
  /// co-design run on this host) rather than the static Table-III
  /// defaults. Omitted from the document when false.
  bool used_stored_profile = false;

  /// Fraction of the estimated total spent on scheduling overhead
  /// (mirrors runtime::ExecutionPlan::overhead_fraction()).
  double overhead_fraction() const noexcept {
    return est_total_ps == 0
               ? 0.0
               : static_cast<double>(est_overhead_ps) /
                     static_cast<double>(est_total_ps);
  }
};

/// Fitted CPU-side roofline constants (CoDesignJob with calibrate).
struct CalibrationPayload {
  bool calibrated = false;
  double peak_gflops = 0.0;
  double dram_gbps = 0.0;
  double blocked_efficiency = 0.0;
  /// Worst est/measured multiplicative mismatch across fitted kernels.
  double max_ratio = 0.0;
  std::size_t fitted_events = 0;
  double fitted_ms = 0.0;
};

/// Trace replay through the co-design loop (CoDesignJob): the schedule
/// the NDP machine would use for the measured workload, the calibration
/// behind its CPU-side estimates, and optionally the simulated execution
/// of that schedule.
struct CoDesignPayload {
  std::size_t trace_events = 0;       ///< events replayed
  std::size_t trace_atoms = 0;
  Flops trace_flops = 0;
  Bytes trace_bytes = 0;
  double trace_host_ms = 0.0;         ///< measured wall time of the trace
  /// True when the recorder hit its event cap: the trace (and therefore
  /// this plan) covers only a prefix of the recorded run.
  bool trace_truncated = false;
  CalibrationPayload calibration;
  PlanPayload plan;                   ///< placements / crossings / estimates
  std::optional<SimulatePayload> simulate;  ///< engaged when requested
};

/// Scatter/gather accounting stamped by a ShardedEngine run (api/shard):
/// how the job was split and what the fan-out survived. Additive in
/// ndft.job_result.v1 — absent for plain Engine results.
struct ShardInfo {
  std::size_t backends = 0;        ///< backends the job was scattered over
  std::size_t shards = 0;          ///< sub-jobs created for this job
  std::size_t rerouted = 0;        ///< shard executions retried elsewhere
  std::size_t failed_backends = 0; ///< backends lost during the run
};

// ----------------------------------------------------------------- result

/// The structured result of one job. Exactly one payload member is
/// engaged on success; all are empty on rejection/failure.
struct JobResult {
  JobStatus status = JobStatus::kQueued;
  ErrorKind error = ErrorKind::kNone;
  std::string error_message;
  std::vector<std::string> error_details;  ///< per-field validation errors
  JobTimings timings;
  EngineInfo engine;

  std::optional<ScfPayload> scf;
  std::optional<BandStructurePayload> band_structure;
  std::optional<LrtddftPayload> lrtddft;
  std::optional<SimulatePayload> simulate;
  std::optional<PlanPayload> plan;
  std::optional<CoDesignPayload> codesign;

  /// Kernel trace of the run, engaged when the request set record_trace
  /// (serialized under "trace"; null when not recorded).
  std::optional<KernelTrace> trace;

  /// Non-empty when the job succeeded in degraded form: stable tags like
  /// "syevd_partial:full_fallback" or "trace:recorder_failed", in program
  /// order (serialized under "degraded").
  std::vector<std::string> degraded;

  /// Scatter/gather counters, engaged when a ShardedEngine executed the
  /// job (serialized under "shard"; null for plain Engine results).
  std::optional<ShardInfo> shard;

  bool ok() const noexcept { return status == JobStatus::kOk; }

  /// Serializes under the "ndft.job_result.v1" schema.
  Json to_json() const;
  /// Reconstructs a result from its serialized form; throws NdftError on
  /// schema mismatch or malformed members.
  static JobResult from_json(const Json& json);
};

}  // namespace ndft::api
