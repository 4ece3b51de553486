#pragma once
// Typed job requests: the one vocabulary through which every workload
// enters the system. Each job kind owns a validated, defaultable config;
// `JobRequest` is the closed sum type the Engine accepts, both for the
// synchronous `run()` path and the async `submit()` queue.
//
// A request describes *what* to compute, never *how*: machine
// configuration, thread counts and sampling knobs live in the Engine
// (EngineConfig), so the same request produces the same result on any
// engine with the same configuration.

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "common/json.hpp"
#include "common/kernel_trace.hpp"
#include "core/report.hpp"
#include "dft/kpoints.hpp"
#include "dft/lrtddft.hpp"
#include "dft/scf.hpp"
#include "runtime/device_profile.hpp"
#include "runtime/scheduler.hpp"

namespace ndft::api {

/// Self-consistent-field LDA ground state of an Si_n supercell
/// (dft::solve_scf).
struct ScfJob {
  std::size_t atoms = 8;        ///< supercell size (multiple of 8)
  double ecut_ry = 4.5;         ///< plane-wave cutoff in Rydberg
  dft::ScfConfig scf;           ///< mixing / tolerance / band controls
  /// Record the run's kernel trace into JobResult::trace (feeds a
  /// follow-up CoDesignJob).
  bool record_trace = false;
  /// Wall-clock budget in milliseconds, measured from submission
  /// (submit()) or from execution start (run()). 0 = unlimited. Expiry
  /// surfaces as JobStatus::kDeadlineExceeded, detected at the next
  /// stage boundary once the job is running.
  double deadline_ms = 0.0;
};

/// EPM band structure (dft::band_structure, dft::find_gap): the
/// Cohen-Bergstresser high-symmetry path on the primitive FCC cell, or
/// an arbitrary silicon crystal sampled on a Monkhorst-Pack grid whose
/// weights flow into the gap summary's band-energy integral.
struct BandStructureJob {
  /// How the Brillouin zone is sampled.
  enum class Sampling {
    kPath,           ///< FCC path L -> Gamma -> X -> K -> Gamma
    kMonkhorstPack,  ///< mp_grid[0] x mp_grid[1] x mp_grid[2] grid
    kExplicit,       ///< the `kpoints` list verbatim (shard sub-jobs)
  };

  /// One explicitly requested k-point (Sampling::kExplicit): Cartesian
  /// reciprocal coordinates in Bohr^-1, an integration weight flowing
  /// into the gap summary, and an optional high-symmetry label. This is
  /// how a scatter/gather front end (api/shard) expresses per-shard
  /// subsets of a folded grid over the wire.
  struct KPointSpec {
    double k[3] = {0.0, 0.0, 0.0};
    double weight = 1.0;
    std::string label;
  };

  /// Crystal spec: 0 selects the 2-atom primitive FCC cell; a positive
  /// multiple of 8 builds Crystal::silicon_supercell(atoms).
  std::size_t atoms = 0;
  double ecut_ry = 9.0;         ///< plane-wave cutoff in Rydberg
  Sampling sampling = Sampling::kPath;
  unsigned segments = 10;       ///< k-points per path leg (kPath)
  /// Monkhorst-Pack divisions per reciprocal axis (kMonkhorstPack).
  unsigned mp_grid[3] = {4, 4, 4};
  /// Explicit k-point list (kExplicit); solved verbatim, no folding.
  std::vector<KPointSpec> kpoints;
  std::size_t bands = 8;        ///< bands kept per k-point
  std::size_t valence_bands = 4;  ///< filled bands for the gap summary
  /// Record the run's kernel trace into JobResult::trace.
  bool record_trace = false;
  /// Wall-clock budget in milliseconds, measured from submission
  /// (submit()) or from execution start (run()). 0 = unlimited. Expiry
  /// surfaces as JobStatus::kDeadlineExceeded, detected at the next
  /// stage boundary once the job is running.
  double deadline_ms = 0.0;
};
/// Names indexed by enumerator ("path", "monkhorst_pack", "explicit"), as
/// requests and band-structure payloads spell them.
std::span<const char* const> enum_names(BandStructureJob::Sampling) noexcept;

/// Functional LR-TDDFT excitation spectrum on an EPM ground state
/// (dft::solve_lrtddft), optionally with oscillator strengths.
struct LrtddftJob {
  std::size_t atoms = 8;        ///< supercell size (multiple of 8)
  double ecut_ry = 4.5;         ///< plane-wave cutoff in Rydberg
  dft::LrTddftConfig config;    ///< excitation-window controls
  bool oscillator_strengths = false;  ///< also compute optical lines
  /// Record the run's kernel trace into JobResult::trace.
  bool record_trace = false;
  /// Wall-clock budget in milliseconds, measured from submission
  /// (submit()) or from execution start (run()). 0 = unlimited. Expiry
  /// surfaces as JobStatus::kDeadlineExceeded, detected at the next
  /// stage boundary once the job is running.
  double deadline_ms = 0.0;
};

/// Timing simulation of one LR-TDDFT iteration on one of the paper's
/// machines (core::NdftSystem::run).
struct SimulateJob {
  std::size_t atoms = 64;       ///< Si_n system (multiple of 8)
  core::ExecMode mode = core::ExecMode::kNdft;
  /// Sampled memory ops per kernel (SystemConfig::sampled_ops_per_kernel);
  /// 0 keeps the engine's default. The simulator splits the value across
  /// the kernel's cores, clamps each core's share to [min_ops_per_core,
  /// max_ops_per_core] (1,000-40,000 at paper defaults) and grows a
  /// blocked kernel's sample to one reuse cycle. A value below cores x
  /// min_ops_per_core (256,000 on the 256 NDP cores) therefore does not
  /// shrink those kernels.
  std::size_t sampled_ops = 0;
  /// Optional "ndft.machine.v1" hardware description
  /// (ndp::NdpSystemConfig::from_json): this run simulates the described
  /// machine instead of the engine's default. Validated up front — a
  /// malformed document is kInvalid, never a mid-simulation throw.
  std::optional<Json> machine;
  /// Record the *simulator-emitted* per-kernel trace into
  /// JobResult::trace: one "ndft.kernel_trace.v1" entry per simulated
  /// kernel, stage "sim[cpu]"/"sim[ndp]"/"sim[gpu]", with host_ms
  /// carrying simulated time. Feeds CoDesignJob / AdaptiveScheduler like
  /// a measured trace does.
  bool record_trace = false;
  /// Wall-clock budget in milliseconds, measured from submission
  /// (submit()) or from execution start (run()). 0 = unlimited. Expiry
  /// surfaces as JobStatus::kDeadlineExceeded, detected at the next
  /// stage boundary once the job is running.
  double deadline_ms = 0.0;
};

/// Cost-aware schedule for one LR-TDDFT iteration, with optional what-if
/// device profiles (core::NdftSystem::plan / runtime::Scheduler).
struct PlanJob {
  std::size_t atoms = 64;       ///< Si_n system (multiple of 8)
  runtime::Granularity granularity = runtime::Granularity::kFunction;
  /// Override the engine's scheduler beliefs (what-if experiments). Both
  /// must be set together or left unset. When unset and the engine has a
  /// profile store (EngineConfig::profile_store_path), the plan defaults
  /// to the stored calibrated profile for this host instead.
  std::vector<runtime::DeviceProfile> profile_override;  ///< [cpu, ndp]
  /// Optional "ndft.machine.v1" hardware description to plan against.
  std::optional<Json> machine;
  /// Wall-clock budget in milliseconds, measured from submission
  /// (submit()) or from execution start (run()). 0 = unlimited. Expiry
  /// surfaces as JobStatus::kDeadlineExceeded, detected at the next
  /// stage boundary once the job is running.
  double deadline_ms = 0.0;
};

/// Replays a recorded kernel trace through the cost-aware scheduler (and
/// optionally the timing simulation): one Engine call answers "what would
/// the NDP machine do with *this actual* workload". The trace typically
/// comes from a previous job run with record_trace set (JobResult::trace).
struct CoDesignJob {
  KernelTrace trace;            ///< measured workload to replay
  runtime::Granularity granularity = runtime::Granularity::kFunction;
  /// Fit the SCA's CPU-side roofline constants from the measured kernel
  /// times before planning (runtime::calibrate_cpu).
  bool calibrate = true;
  /// Also simulate the planned schedule on the CPU-NDP machine
  /// (core::NdftSystem::run_planned) and attach the SimulatePayload.
  bool simulate = true;
  /// Optional "ndft.machine.v1" hardware description for the simulated
  /// leg (and the NDP-side scheduler beliefs derived from it).
  std::optional<Json> machine;
  /// Wall-clock budget in milliseconds, measured from submission
  /// (submit()) or from execution start (run()). 0 = unlimited. Expiry
  /// surfaces as JobStatus::kDeadlineExceeded, detected at the next
  /// stage boundary once the job is running.
  double deadline_ms = 0.0;
};

/// The closed sum of everything the Engine can execute.
using JobRequest = std::variant<ScfJob, BandStructureJob, LrtddftJob,
                                SimulateJob, PlanJob, CoDesignJob>;

/// Stable kind names indexed like JobRequest's alternatives ("scf",
/// "band_structure", "lrtddft", "simulate", "plan", "codesign") — used in
/// results, logs and JSON.
std::span<const char* const> job_kind_names() noexcept;

/// The kind name of a request (job_kind_names()[request.index()]).
const char* job_kind(const JobRequest& request) noexcept;

/// The request's deadline_ms (every job kind carries one; 0 = unlimited).
double job_deadline_ms(const JobRequest& request) noexcept;

/// The k-set a BandStructureJob solves against `crystal`: the
/// high-symmetry path verbatim, the Monkhorst-Pack grid folded to its
/// time-reversal half (dft::fold_time_reversal), or the explicit list
/// verbatim. Shared by the Engine executor and the scatter/gather layer
/// (api/shard) so both sides carve bitwise-identical k-sets.
std::vector<dft::KPoint> band_job_kpoints(const BandStructureJob& job,
                                          const dft::Crystal& crystal);

/// Validates a request against the physics/simulation preconditions.
/// Returns every violation found (empty = the request is runnable).
/// The Engine refuses invalid requests with JobStatus::kInvalid instead
/// of letting NDFT_REQUIRE throw mid-pipeline.
std::vector<std::string> validate(const JobRequest& request);

}  // namespace ndft::api
