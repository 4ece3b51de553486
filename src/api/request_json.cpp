#include "api/request_json.hpp"

#include "common/json_fields.hpp"
#include "common/kernel_trace.hpp"

// ---- field lists, in emission order. Each sits in its type's namespace,
// where argument-dependent lookup finds it.

namespace ndft::dft {

template <class Io>
void fields(Io& io, ScfConfig& c) {
  io("max_iterations", c.max_iterations);
  io("mixing", c.mixing);
  io("scheme", c.scheme);
  io("tolerance", c.tolerance);
  io("bands", c.bands);
  io("valence_charge", c.valence_charge);
  io("core_radius_bohr", c.core_radius_bohr);
}

template <class Io>
void fields(Io& io, LrTddftConfig& c) {
  io("valence_window", c.valence_window);
  io("conduction_window", c.conduction_window);
  io("include_xc", c.include_xc);
  io("spin_factor", c.spin_factor);
}

}  // namespace ndft::dft

namespace ndft::api {

template <class Io>
void fields(Io& io, ScfJob& job) {
  io("atoms", job.atoms);
  io("ecut_ry", job.ecut_ry);
  io("scf", job.scf);
  io("record_trace", job.record_trace);
  io("deadline_ms", job.deadline_ms);
}

template <class Io>
void fields(Io& io, BandStructureJob::KPointSpec& kp) {
  io("k", kp.k);
  io("weight", kp.weight);
  io("label", kp.label);
}

template <class Io>
void fields(Io& io, BandStructureJob& job) {
  io("atoms", job.atoms);
  io("ecut_ry", job.ecut_ry);
  io("sampling", job.sampling);
  io("segments", job.segments);
  io("mp_grid", job.mp_grid);
  io.omit_default("kpoints", job.kpoints);
  io("bands", job.bands);
  io("valence_bands", job.valence_bands);
  io("record_trace", job.record_trace);
  io("deadline_ms", job.deadline_ms);
}

template <class Io>
void fields(Io& io, LrtddftJob& job) {
  io("atoms", job.atoms);
  io("ecut_ry", job.ecut_ry);
  io("config", job.config);
  io("oscillator_strengths", job.oscillator_strengths);
  io("record_trace", job.record_trace);
  io("deadline_ms", job.deadline_ms);
}

// The machine document travels verbatim (it has its own schema tag and
// is parsed at validation); absent means the engine's default hardware.

template <class Io>
void fields(Io& io, SimulateJob& job) {
  io("atoms", job.atoms);
  io("mode", job.mode);
  io("sampled_ops", job.sampled_ops);
  io.omit_default("machine", job.machine);
  io("record_trace", job.record_trace);
  io("deadline_ms", job.deadline_ms);
}

template <class Io>
void fields(Io& io, PlanJob& job) {
  io("atoms", job.atoms);
  io("granularity", job.granularity);
  io("profile_override", job.profile_override);
  io.omit_default("machine", job.machine);
  io("deadline_ms", job.deadline_ms);
}

template <class Io>
void fields(Io& io, CoDesignJob& job) {
  // The trace is the job's entire subject: unlike the tuning knobs it is
  // required, and it carries its own versioned schema.
  io.required("trace", job.trace);
  io("granularity", job.granularity);
  io("calibrate", job.calibrate);
  io("simulate", job.simulate);
  io.omit_default("machine", job.machine);
  io("deadline_ms", job.deadline_ms);
}

const char* const kJobRequestSchema = "ndft.job_request.v1";

namespace {

struct RequestDocument {
  JobRequest& request;
};

template <class Io>
void fields(Io& io, RequestDocument& doc) {
  io.schema(kJobRequestSchema, JsonAuthor::kPeople);
  io.variant("kind", "job", doc.request, job_kind_names());
}

}  // namespace

Json job_request_to_json(const JobRequest& request) {
  // The writer only reads through the reference.
  return fields_to_json(RequestDocument{const_cast<JobRequest&>(request)});
}

JobRequest job_request_from_json(const Json& json) {
  JobRequest request;
  RequestDocument doc{request};
  fields_from_json(json, doc);
  return request;
}

}  // namespace ndft::api
