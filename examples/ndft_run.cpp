// ndft_run: command-line driver for one-off jobs through the Engine API.
//
//   ndft_run --atoms 256 --mode ndft
//   ndft_run --atoms 64 --mode all --csv
//   ndft_run --atoms 16 --mode ndft --json
//   ndft_run --atoms 1024 --plan-only --granularity kernel
//
// Modes: cpu | gpu | ndp | ndft | all. With --csv the per-kernel
// breakdown is emitted as comma-separated values for plotting; with
// --json the full JobResult is emitted under the ndft.job_result.v1
// schema (an array when --mode all produces several results).

#include <cstdio>
#include <string>
#include <vector>

#include "api/engine.hpp"
#include "common/enum_names.hpp"
#include "common/str_util.hpp"
#include "common/table.hpp"
#include "core/cli.hpp"

using namespace ndft;

namespace {

/// Execution modes a --mode name stands for ("all" fans out like the
/// quickstart comparison: CPU, GPU, NDFT).
std::vector<core::ExecMode> modes_from(const std::string& name) {
  if (name == "cpu") return {core::ExecMode::kCpuBaseline};
  if (name == "gpu") return {core::ExecMode::kGpuBaseline};
  if (name == "ndp") return {core::ExecMode::kNdpOnly};
  if (name == "ndft") return {core::ExecMode::kNdft};
  if (name == "all") {
    return {core::ExecMode::kCpuBaseline, core::ExecMode::kGpuBaseline,
            core::ExecMode::kNdft};
  }
  throw NdftError("unknown mode: " + name + " (cpu|gpu|ndp|ndft|all)");
}

runtime::Granularity granularity_from(const std::string& name) {
  if (const auto granularity = enum_from_name<runtime::Granularity>(name)) {
    return *granularity;
  }
  throw NdftError("unknown granularity: " + name);
}

void emit_table(const api::SimulatePayload& sim) {
  std::printf("%s\n",
              core::render_kernel_table(sim.mode, sim.atoms, sim.kernels,
                                        sim.total_ps, sim.sched_overhead_ps,
                                        sim.memory_energy_mj).c_str());
}

void emit_csv(const api::SimulatePayload& sim) {
  TextTable table({"machine", "kernel", "class", "device", "time_ps"});
  for (const core::KernelTime& k : sim.kernels) {
    table.add_row({core::to_string(sim.mode), k.name, to_string(k.cls),
                   to_string(k.device),
                   strformat("%llu",
                             static_cast<unsigned long long>(k.time_ps))});
  }
  std::printf("%s", table.render_csv().c_str());
}

/// Unwraps a result or throws with its error taxonomy; the throw unwinds
/// past the Engine (joining its dispatchers) before main reports it.
const api::JobResult& check(const api::JobResult& result) {
  if (!result.ok()) {
    std::string message =
        strformat("job %s failed (%s): %s", result.engine.kind.c_str(),
                  to_string(result.error), result.error_message.c_str());
    for (const std::string& detail : result.error_details) {
      message += "\n  - " + detail;
    }
    throw NdftError(message);
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const core::CliArgs args(argc, argv);
    if (args.has("help")) {
      std::printf("usage: ndft_run [--atoms N] [--mode cpu|gpu|ndp|ndft|all]"
                  " [--csv] [--json] [--plan-only] [--granularity g]"
                  " [--ops N]\n");
      return 0;
    }
    const auto atoms =
        static_cast<std::size_t>(args.get_int("atoms", 64));
    const std::string mode_name = args.get("mode", "ndft");
    const bool csv = args.has("csv");
    const bool json = args.has("json");
    const auto sampled_ops = static_cast<std::size_t>(
        args.has("ops") ? args.get_int("ops", 150000) : 0);

    api::Engine engine;

    if (args.has("plan-only")) {
      api::PlanJob job;
      job.atoms = atoms;
      job.granularity =
          granularity_from(args.get("granularity", "function"));
      const api::JobResult result = check(engine.run(job));
      if (json) {
        std::printf("%s\n", result.to_json().dump(2).c_str());
        return 0;
      }
      const api::PlanPayload& plan = *result.plan;
      for (const api::PlacementPayload& p : plan.placements) {
        std::printf("%-22s -> %-4s%s\n", p.kernel.c_str(),
                    to_string(p.device), p.crossing ? "  (crossing)" : "");
      }
      std::printf("estimated total %s, overhead %s (%.1f %%)\n",
                  format_time(plan.est_total_ps).c_str(),
                  format_time(plan.est_overhead_ps).c_str(),
                  plan.overhead_fraction() * 100.0);
      return 0;
    }

    // Simulation path: submit every requested machine as one async batch
    // and drain it through the engine queue.
    std::vector<api::JobRequest> batch;
    for (const core::ExecMode mode : modes_from(mode_name)) {
      api::SimulateJob job;
      job.atoms = atoms;
      job.mode = mode;
      job.sampled_ops = sampled_ops;
      batch.emplace_back(job);
    }
    std::vector<api::JobHandle> handles =
        engine.submit_batch(std::move(batch));

    std::vector<api::JobResult> results;
    for (const api::JobHandle& handle : handles) {
      results.push_back(check(handle.wait()));
    }

    if (json) {
      if (results.size() == 1) {
        std::printf("%s\n", results.front().to_json().dump(2).c_str());
      } else {
        Json array = Json::array();
        for (const api::JobResult& result : results) {
          array.push_back(result.to_json());
        }
        std::printf("%s\n", array.dump(2).c_str());
      }
      return 0;
    }
    for (const api::JobResult& result : results) {
      if (csv) {
        emit_csv(*result.simulate);
      } else {
        emit_table(*result.simulate);
      }
    }
    if (!csv && results.size() > 1) {
      const double ndft =
          static_cast<double>(results.back().simulate->total_ps);
      std::printf("NDFT speedup: %s vs CPU, %s vs GPU\n",
                  format_speedup(
                      static_cast<double>(results[0].simulate->total_ps) /
                      ndft).c_str(),
                  format_speedup(
                      static_cast<double>(results[1].simulate->total_ps) /
                      ndft).c_str());
    }
    return 0;
  } catch (const NdftError& error) {
    std::fprintf(stderr, "ndft_run: %s\n", error.what());
    return 1;
  }
}
