#include "api/job.hpp"

#include <cmath>
#include <iterator>

#include "common/error.hpp"
#include "common/str_util.hpp"
#include "ndp/ndp_system.hpp"

namespace ndft::api {
namespace {

/// Ceiling on Monkhorst-Pack k-points per job: one dense eigensolve per
/// point, so an absurd grid is an absurd job.
constexpr std::size_t kMaxMpPoints = 65536;

void check_atoms(std::size_t atoms, std::vector<std::string>& errors) {
  if (atoms < 8 || atoms % 8 != 0) {
    errors.push_back(strformat(
        "atoms must be a positive multiple of 8 (got %zu)", atoms));
  }
}

void check_ecut(double ecut_ry, std::vector<std::string>& errors) {
  if (!(ecut_ry > 0.0)) {
    errors.push_back(strformat("ecut_ry must be positive (got %g)",
                               ecut_ry));
  }
}

void check_deadline(double deadline_ms, std::vector<std::string>& errors) {
  // 0 = unlimited; anything else must be a positive finite budget (NaN
  // fails both comparisons).
  if (!(deadline_ms >= 0.0) || std::isinf(deadline_ms)) {
    errors.push_back(strformat(
        "deadline_ms must be finite and non-negative (got %g)",
        deadline_ms));
  }
}

void check_machine(const std::optional<Json>& machine,
                   std::vector<std::string>& errors) {
  // Parse the machine document up front so a malformed hardware
  // description is a kInvalid refusal with the parser's message, never a
  // throw from inside the executor after the engine committed resources.
  if (!machine) return;
  try {
    (void)ndp::NdpSystemConfig::from_json(*machine);
  } catch (const NdftError& e) {
    errors.push_back(e.what());
  }
}

struct Validator {
  std::vector<std::string> errors;

  void operator()(const ScfJob& job) {
    check_deadline(job.deadline_ms, errors);
    check_atoms(job.atoms, errors);
    check_ecut(job.ecut_ry, errors);
    if (!(job.scf.mixing > 0.0 && job.scf.mixing <= 1.0)) {
      errors.push_back(strformat("scf.mixing must be in (0, 1] (got %g)",
                                 job.scf.mixing));
    }
    if (!(job.scf.tolerance > 0.0)) {
      errors.push_back(strformat("scf.tolerance must be positive (got %g)",
                                 job.scf.tolerance));
    }
    if (job.scf.max_iterations == 0) {
      errors.push_back("scf.max_iterations must be at least 1");
    }
  }

  void operator()(const BandStructureJob& job) {
    check_deadline(job.deadline_ms, errors);
    check_ecut(job.ecut_ry, errors);
    if (job.atoms != 0) {
      check_atoms(job.atoms, errors);
    }
    switch (job.sampling) {
      case BandStructureJob::Sampling::kPath:
        if (job.segments < 1) {
          errors.push_back("segments must be at least 1");
        }
        if (job.atoms != 0) {
          errors.push_back(
              "the FCC high-symmetry path applies to the primitive cell "
              "(atoms == 0); supercells sample a Monkhorst-Pack grid");
        }
        break;
      case BandStructureJob::Sampling::kMonkhorstPack: {
        std::size_t points = 1;
        bool dims_valid = true;
        for (const unsigned n : job.mp_grid) {
          if (n < 1) {
            errors.push_back("mp_grid divisions must be at least 1");
            dims_valid = false;
            break;
          }
          // Divide-side overflow guard: three 32-bit factors can wrap a
          // 64-bit product, so saturate above the cap instead.
          points = points > kMaxMpPoints / n ? kMaxMpPoints + 1
                                             : points * n;
        }
        if (dims_valid && points > kMaxMpPoints) {
          errors.push_back(strformat(
              "mp_grid requests more than the %zu k-point limit",
              kMaxMpPoints));
        }
        break;
      }
      case BandStructureJob::Sampling::kExplicit: {
        if (job.kpoints.empty()) {
          errors.push_back(
              "explicit sampling needs at least one entry in kpoints");
        }
        if (job.kpoints.size() > kMaxMpPoints) {
          errors.push_back(strformat(
              "kpoints requests more than the %zu k-point limit",
              kMaxMpPoints));
        }
        for (const BandStructureJob::KPointSpec& kp : job.kpoints) {
          // One finding is enough: shard sub-jobs carry thousands of
          // points and a flood of identical errors helps nobody.
          if (!(kp.weight > 0.0) || !std::isfinite(kp.weight)) {
            errors.push_back(strformat(
                "kpoints weights must be positive and finite (got %g)",
                kp.weight));
            break;
          }
          if (!std::isfinite(kp.k[0]) || !std::isfinite(kp.k[1]) ||
              !std::isfinite(kp.k[2])) {
            errors.push_back("kpoints coordinates must be finite");
            break;
          }
        }
        break;
      }
      default:
        errors.push_back("unknown sampling");
    }
    if (job.bands == 0) {
      errors.push_back("bands must be at least 1");
    }
    // Mirrors find_gap's valence >= 1 precondition: valence_bands == 0
    // would underflow the VBM index inside the solver.
    if (job.valence_bands == 0 || job.valence_bands >= job.bands) {
      errors.push_back(strformat(
          "valence_bands must be in [1, bands) (got %zu of %zu)",
          job.valence_bands, job.bands));
    }
  }

  void operator()(const LrtddftJob& job) {
    check_deadline(job.deadline_ms, errors);
    check_atoms(job.atoms, errors);
    check_ecut(job.ecut_ry, errors);
    if (job.config.conduction_window == 0) {
      errors.push_back("config.conduction_window must be at least 1");
    }
    if (!(job.config.spin_factor > 0.0)) {
      errors.push_back(strformat(
          "config.spin_factor must be positive (got %g)",
          job.config.spin_factor));
    }
  }

  void operator()(const SimulateJob& job) {
    check_deadline(job.deadline_ms, errors);
    check_atoms(job.atoms, errors);
    check_machine(job.machine, errors);
    switch (job.mode) {
      case core::ExecMode::kCpuBaseline:
      case core::ExecMode::kGpuBaseline:
      case core::ExecMode::kNdpOnly:
      case core::ExecMode::kNdft:
        break;
      default:
        errors.push_back("unknown execution mode");
    }
  }

  void operator()(const PlanJob& job) {
    check_deadline(job.deadline_ms, errors);
    check_atoms(job.atoms, errors);
    check_granularity(job.granularity);
    check_machine(job.machine, errors);
    if (!job.profile_override.empty() && job.profile_override.size() != 2) {
      errors.push_back(strformat(
          "profile_override must hold exactly [cpu, ndp] profiles "
          "(got %zu)", job.profile_override.size()));
    }
    // The cost model divides transfer volumes by the link rate.
    for (const runtime::DeviceProfile& profile : job.profile_override) {
      if (!(profile.link_gbps > 0.0) || std::isinf(profile.link_gbps)) {
        errors.push_back(strformat(
            "profile_override link_gbps must be finite and positive "
            "(got %g)", profile.link_gbps));
      }
    }
  }

  void operator()(const CoDesignJob& job) {
    check_deadline(job.deadline_ms, errors);
    check_granularity(job.granularity);
    check_machine(job.machine, errors);
    if (job.trace.events.empty()) {
      errors.push_back("trace must carry at least one recorded event");
      return;
    }
    bool has_work = false;
    for (const TraceEvent& event : job.trace.events) {
      if (event.flops != 0 || event.bytes != 0) has_work = true;
      if (event.host_ms < 0.0) {
        errors.push_back(strformat(
            "trace event '%s' has a negative host time",
            event.name.c_str()));
        return;
      }
    }
    if (!has_work) {
      errors.push_back("trace carries no schedulable kernel work");
    }
  }

  void check_granularity(runtime::Granularity granularity) {
    switch (granularity) {
      case runtime::Granularity::kInstruction:
      case runtime::Granularity::kBasicBlock:
      case runtime::Granularity::kFunction:
      case runtime::Granularity::kKernel:
        break;
      default:
        errors.push_back("unknown granularity");
    }
  }
};

}  // namespace

std::span<const char* const> enum_names(BandStructureJob::Sampling) noexcept {
  static constexpr const char* kNames[] = {"path", "monkhorst_pack",
                                           "explicit"};
  static_assert(std::size(kNames) ==
                static_cast<std::size_t>(
                    BandStructureJob::Sampling::kExplicit) + 1);
  return kNames;
}

std::span<const char* const> job_kind_names() noexcept {
  static constexpr const char* kNames[] = {
      "scf", "band_structure", "lrtddft", "simulate", "plan", "codesign"};
  static_assert(std::size(kNames) == std::variant_size_v<JobRequest>);
  return kNames;
}

const char* job_kind(const JobRequest& request) noexcept {
  return job_kind_names()[request.index()];
}

std::vector<dft::KPoint> band_job_kpoints(const BandStructureJob& job,
                                          const dft::Crystal& crystal) {
  switch (job.sampling) {
    case BandStructureJob::Sampling::kPath:
      return dft::fcc_kpath(dft::kSiliconLatticeBohr, job.segments);
    case BandStructureJob::Sampling::kMonkhorstPack:
      // H(k) and H(-k) share a spectrum for the real EPM potential, so
      // the folded half-grid (partner weights doubled) yields the same
      // summary with half the eigensolves.
      return dft::fold_time_reversal(dft::monkhorst_pack(
          crystal, job.mp_grid[0], job.mp_grid[1], job.mp_grid[2]));
    case BandStructureJob::Sampling::kExplicit: {
      std::vector<dft::KPoint> path;
      path.reserve(job.kpoints.size());
      for (const BandStructureJob::KPointSpec& spec : job.kpoints) {
        dft::KPoint kp;
        kp.k = {spec.k[0], spec.k[1], spec.k[2]};
        kp.weight = spec.weight;
        kp.label = spec.label;
        path.push_back(std::move(kp));
      }
      return path;
    }
  }
  throw NdftError("unknown sampling");
}

double job_deadline_ms(const JobRequest& request) noexcept {
  return std::visit([](const auto& job) { return job.deadline_ms; },
                    request);
}

std::vector<std::string> validate(const JobRequest& request) {
  Validator validator;
  std::visit(validator, request);
  return std::move(validator.errors);
}

}  // namespace ndft::api
