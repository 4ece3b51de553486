#include "api/result.hpp"

#include <iterator>

#include "api/job.hpp"
#include "common/json_fields.hpp"
#include "dft/kpoints.hpp"

namespace ndft::core {

template <class Io>
void fields(Io& io, KernelTime& k) {
  io("name", k.name);
  io("class", k.cls);
  io("device", k.device);
  io("time_ps", k.time_ps);
}

}  // namespace ndft::core

namespace ndft::api {
namespace {

constexpr const char* kSchema = "ndft.job_result.v1";

}  // namespace

// ---- field lists, in emission order. They sit in the types' namespace,
// where argument-dependent lookup finds them.

template <class Io>
void fields(Io& io, ScfPayload& p) {
  io("atoms", p.atoms);
  io("basis_size", p.basis_size);
  io("grid_points", p.grid_points);
  io("converged", p.converged);
  io("iterations", p.iterations);
  io("total_energy_ha", p.total_energy_ha);
  io("gap_ev", p.gap_ev);
  io("final_residual", p.final_residual);
  io("electron_count", p.electron_count);
  io("residual_history", p.residual_history);
  io("energy_history", p.energy_history);
}

template <class Io>
void fields(Io& io, BandsAtKPayload& p) {
  io("label", p.label);
  io("energies_ha", p.energies_ha);
  io("weight", p.weight);
  io("k", p.k);
}

template <class Io>
void fields(Io& io, BandStructurePayload& p) {
  io("basis_size", p.basis_size);
  io("path", p.path);
  io("vbm_ha", p.vbm_ha);
  io("cbm_ha", p.cbm_ha);
  io("vbm_label", p.vbm_label);
  io("cbm_label", p.cbm_label);
  io("indirect_gap_ev", p.indirect_gap_ev);
  io("direct_gap_gamma_ev", p.direct_gap_gamma_ev);
  io("atoms", p.atoms);
  io("sampling", p.sampling);
  io("band_energy_ha", p.band_energy_ha);
  io("weight_sum", p.weight_sum);
}

template <class Io>
void fields(Io& io, OscillatorLinePayload& p) {
  io("energy_ev", p.energy_ev);
  io("strength", p.strength);
}

template <class Io>
void fields(Io& io, LrtddftPayload& p) {
  io("atoms", p.atoms);
  io("basis_size", p.basis_size);
  io("grid_dims", p.grid_dims);
  io("ground_gap_ev", p.ground_gap_ev);
  io("valence_bands", p.valence_bands);
  io("projector_count", p.projector_count);
  io("nonlocal_expectation_ha", p.nonlocal_expectation_ha);
  io("pair_count", p.pair_count);
  io("excitations_ha", p.excitations_ha);
  io("lines", p.lines);
}

template <class Io>
void fields(Io& io, SimulatePayload& p) {
  io("mode", p.mode);
  io("atoms", p.atoms);
  io("pairs", p.pairs);
  io("grid_points", p.grid_points);
  io("basis_size", p.basis_size);
  io("kernels", p.kernels);
  io("total_ps", p.total_ps);
  io("sched_overhead_ps", p.sched_overhead_ps);
  io("memory_energy_mj", p.memory_energy_mj);
  io("mesh_bytes", p.mesh_bytes);
  io("sharing_bytes", p.sharing_bytes);
  io.object("pseudo", [&](auto& pseudo) {
    pseudo("total", p.pseudo_total);
    pseudo("per_process", p.pseudo_per_process);
    pseudo("capacity", p.pseudo_capacity);
    pseudo("out_of_memory", p.pseudo_oom);
  });
  io.omit_default("stats", p.stats);
}

template <class Io>
void fields(Io& io, PlacementPayload& p) {
  io("kernel", p.kernel);
  io("class", p.cls);
  io("device", p.device);
  io("crossing", p.crossing);
  io("est_time_ps", p.est_time_ps);
  io("transfer_in_ps", p.transfer_in_ps);
  io("switch_in_ps", p.switch_in_ps);
  io("arithmetic_intensity", p.arithmetic_intensity);
  io("est_cpu_ps", p.est_cpu_ps);
  io("est_ndp_ps", p.est_ndp_ps);
}

template <class Io>
void fields(Io& io, PlanPayload& p) {
  io("atoms", p.atoms);
  io("granularity", p.granularity);
  io("placements", p.placements);
  io("est_total_ps", p.est_total_ps);
  io("est_overhead_ps", p.est_overhead_ps);
  io("crossings", p.crossings);
  io.omit_default("used_stored_profile", p.used_stored_profile);
}

template <class Io>
void fields(Io& io, CalibrationPayload& p) {
  io("calibrated", p.calibrated);
  io("peak_gflops", p.peak_gflops);
  io("dram_gbps", p.dram_gbps);
  io("blocked_efficiency", p.blocked_efficiency);
  io("max_ratio", p.max_ratio);
  io("fitted_events", p.fitted_events);
  io("fitted_ms", p.fitted_ms);
}

template <class Io>
void fields(Io& io, CoDesignPayload& p) {
  io("trace_events", p.trace_events);
  io("trace_atoms", p.trace_atoms);
  io("trace_flops", p.trace_flops);
  io("trace_bytes", p.trace_bytes);
  io("trace_host_ms", p.trace_host_ms);
  io("trace_truncated", p.trace_truncated);
  io("calibration", p.calibration);
  io("plan", p.plan);
  io("simulate", p.simulate);
}

template <class Io>
void fields(Io& io, ShardInfo& s) {
  io("backends", s.backends);
  io("shards", s.shards);
  io("rerouted", s.rerouted);
  io("failed_backends", s.failed_backends);
}

template <class Io>
void fields(Io& io, JobTimings& t) {
  io("queue_ms", t.queue_ms);
  io("run_ms", t.run_ms);
  io("total_ms", t.total_ms);
  io("linalg_ms", t.linalg_ms);
  io("backoff_ms", t.backoff_ms);
  io("reduce_ms", t.reduce_ms);
  io("tridiag_ms", t.tridiag_ms);
  io("backtransform_ms", t.backtransform_ms);
}

/// The job kind is written once, at the top of the result.
template <class Io>
void fields(Io& io, EngineInfo& e) {
  io("job_id", e.job_id);
  io("pool_threads", e.pool_threads);
  io("dispatch_threads", e.dispatch_threads);
  io("exec_seq", e.exec_seq);
  io("attempts", e.attempts);
}

template <class Io>
void fields(Io& io, JobResult& r) {
  io.schema(kSchema, JsonAuthor::kProgram);
  io("kind", r.engine.kind);
  io("status", r.status);
  io.object("error", [&](auto& error) {
    error("kind", r.error);
    error("message", r.error_message);
    error("details", r.error_details);
  });
  io("timings", r.timings);
  io("engine", r.engine);
  io("degraded", r.degraded);
  io.one_of("payload", r.engine.kind, job_kind_names(), r.scf,
            r.band_structure, r.lrtddft, r.simulate, r.plan, r.codesign);
  io("trace", r.trace);
  io("shard", r.shard);
}

std::span<const char* const> enum_names(JobStatus) noexcept {
  static constexpr const char* kNames[] = {
      "queued", "running", "ok", "invalid", "failed", "cancelled",
      "deadline_exceeded",
  };
  static_assert(std::size(kNames) ==
                    static_cast<std::size_t>(JobStatus::kCount_),
                "every JobStatus enumerator needs a serialized name");
  return kNames;
}

std::span<const char* const> enum_names(ErrorKind) noexcept {
  static constexpr const char* kNames[] = {
      "none", "invalid_request", "physics", "internal", "cancelled",
      "deadline_exceeded", "transient_resource", "transient_device",
  };
  static_assert(std::size(kNames) ==
                    static_cast<std::size_t>(ErrorKind::kCount_),
                "every ErrorKind enumerator needs a serialized name");
  return kNames;
}

const char* to_string(JobStatus status) noexcept { return enum_name(status); }

const char* to_string(ErrorKind kind) noexcept { return enum_name(kind); }

JobStatus job_status_from_string(const std::string& name) {
  if (const auto status = enum_from_name<JobStatus>(name)) return *status;
  throw NdftError("unknown job status: " + name);
}

ErrorKind error_kind_from_string(const std::string& name) {
  if (const auto kind = enum_from_name<ErrorKind>(name)) return *kind;
  throw NdftError("unknown error kind: " + name);
}

bool is_transient(ErrorKind kind) noexcept {
  return kind == ErrorKind::kTransientResource ||
         kind == ErrorKind::kTransientDevice;
}

void summarize_bands(BandStructurePayload& payload,
                     std::size_t valence_bands) {
  std::vector<dft::BandsAtK> bands;
  bands.reserve(payload.path.size());
  for (const BandsAtKPayload& point : payload.path) {
    dft::BandsAtK at_k;
    at_k.kpoint.k = {point.k[0], point.k[1], point.k[2]};
    at_k.kpoint.weight = point.weight;
    at_k.kpoint.label = point.label;
    at_k.energies_ha = point.energies_ha;
    bands.push_back(std::move(at_k));
  }
  const dft::GapSummary gap = dft::find_gap(bands, valence_bands);
  payload.vbm_ha = gap.vbm_ha;
  payload.cbm_ha = gap.cbm_ha;
  payload.vbm_label = gap.vbm_label;
  payload.cbm_label = gap.cbm_label;
  payload.indirect_gap_ev = gap.indirect_gap_ev();
  payload.direct_gap_gamma_ev = gap.direct_gap_gamma_ev;
  payload.band_energy_ha = gap.band_energy_ha;
  payload.weight_sum = gap.weight_sum;
}

Json JobResult::to_json() const { return fields_to_json(*this); }

JobResult JobResult::from_json(const Json& json) {
  JobResult result;
  fields_from_json(json, result);
  return result;
}

}  // namespace ndft::api
