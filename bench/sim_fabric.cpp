// bench_sim_fabric: throughput of the port/connection event fabric.
// Simulates one LR-TDDFT iteration on machines of 1 / 4 / 16 stacks
// (mesh 1x1 / 2x2 / 4x4, described through "ndft.machine.v1" documents)
// and reports simulated picoseconds, wall time and fabric events per
// wall second — the cross-commit scaling record for the credit-based
// simulator. Results go to BENCH_sim.json, each run with its
// SimulatePayload JSON, so two records of one sweep can be checked for
// bitwise-identical simulations. "events" counts fabric messages plus
// DRAM commands (the work modelled), not event-queue events.
//
// Modes:
//   bench_sim_fabric           full sweep at atoms=32
//   bench_sim_fabric --smoke   atoms=16, 1x1 and 2x2 only; every machine
//                              is simulated twice and the two payloads
//                              must be bitwise identical (the
//                              verify.sh --bench-smoke gate)

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "api/engine.hpp"
#include "common/run_metadata.hpp"
#include "common/str_util.hpp"
#include "common/table.hpp"
#include "ndp/ndp_system.hpp"

using namespace ndft;

namespace {

using Clock = std::chrono::steady_clock;

struct FabricRun {
  unsigned mesh = 0;          ///< mesh width == height
  std::size_t stacks = 0;
  TimePs simulated_ps = 0;
  double wall_ms = 0.0;
  double events = 0.0;        ///< fabric messages + DRAM commands
  double events_per_sec = 0.0;
  std::string payload;        ///< SimulatePayload JSON (bitwise record)
};

/// A Table-III machine rebased to a `width` x `width` stack mesh.
Json machine_for(unsigned width) {
  Json doc = ndp::NdpSystemConfig::table3().to_json();
  Json mesh = *doc.find("mesh");
  mesh.set("width", Json(width));
  mesh.set("height", Json(width));
  doc.set("mesh", mesh);
  return doc;
}

FabricRun run_machine(unsigned width, std::size_t atoms) {
  api::EngineConfig config;
  config.dispatch_threads = 0;
  api::Engine engine(config);

  api::SimulateJob job;
  job.atoms = atoms;
  job.mode = core::ExecMode::kNdft;
  job.machine = machine_for(width);

  const Clock::time_point start = Clock::now();
  const api::JobResult result = engine.run(job);
  const Clock::time_point stop = Clock::now();
  if (!result.ok() || !result.simulate) {
    throw NdftError(strformat("simulate on %ux%u mesh failed: %s", width,
                              width, result.error_message.c_str()));
  }

  FabricRun run;
  run.mesh = width;
  run.stacks = static_cast<std::size_t>(width) * width;
  run.simulated_ps = result.simulate->total_ps;
  run.wall_ms =
      std::chrono::duration<double, std::milli>(stop - start).count();
  for (const char* key : {"mesh.messages", "dram.reads", "dram.writes"}) {
    const auto it = result.simulate->stats.find(key);
    if (it != result.simulate->stats.end()) run.events += it->second;
  }
  run.events_per_sec =
      run.wall_ms > 0.0 ? run.events / (run.wall_ms * 1e-3) : 0.0;
  const Json result_json = result.to_json();
  run.payload = result_json.at("payload").dump();
  return run;
}

}  // namespace

int main(int argc, char** argv) try {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const std::size_t atoms = smoke ? 16 : 32;
  const std::vector<unsigned> widths =
      smoke ? std::vector<unsigned>{1, 2} : std::vector<unsigned>{1, 2, 4};
  std::printf("event-fabric scaling, atoms=%zu%s\n\n", atoms,
              smoke ? " (smoke)" : "");

  bool deterministic = true;
  std::vector<FabricRun> runs;
  for (const unsigned width : widths) {
    FabricRun run = run_machine(width, atoms);
    if (smoke) {
      // The determinism gate: an identical machine document must produce
      // a bitwise-identical payload on a fresh engine.
      const FabricRun again = run_machine(width, atoms);
      if (again.payload != run.payload) {
        std::fprintf(stderr,
                     "sim_fabric: %ux%u mesh payload not bitwise "
                     "reproducible\n",
                     width, width);
        deterministic = false;
      }
    }
    runs.push_back(std::move(run));
  }

  TextTable table({"mesh", "stacks", "simulated_ps", "wall_ms",
                   "fabric events", "events/s"});
  for (const FabricRun& run : runs) {
    table.add_row({strformat("%ux%u", run.mesh, run.mesh),
                   strformat("%zu", run.stacks),
                   strformat("%llu",
                             static_cast<unsigned long long>(
                                 run.simulated_ps)),
                   strformat("%.1f", run.wall_ms),
                   strformat("%.0f", run.events),
                   strformat("%.3g", run.events_per_sec)});
  }
  std::printf("%s\n", table.render().c_str());

  Json bench = Json::object();
  bench.set("bench", "sim_fabric");
  bench.set("meta", run_metadata_json());
  bench.set("atoms", static_cast<std::uint64_t>(atoms));
  Json entries = Json::array();
  for (const FabricRun& run : runs) {
    Json entry = Json::object();
    entry.set("mesh", run.mesh);
    entry.set("stacks", static_cast<std::uint64_t>(run.stacks));
    entry.set("simulated_ps", static_cast<std::uint64_t>(run.simulated_ps));
    entry.set("wall_ms", run.wall_ms);
    entry.set("events", run.events);
    entry.set("events_per_sec", run.events_per_sec);
    entry.set("payload", run.payload);
    entries.push_back(std::move(entry));
  }
  bench.set("runs", std::move(entries));
  const char* path = "BENCH_sim.json";
  if (write_bench_json(path, bench)) {
    std::printf("wrote %zu runs to %s\n", runs.size(), path);
  } else {
    std::fprintf(stderr, "could not write %s\n", path);
    return 1;
  }
  if (smoke) {
    for (const FabricRun& run : runs) {
      if (run.simulated_ps == 0 || run.events <= 0.0) {
        std::fprintf(stderr, "sim_fabric: %ux%u mesh produced no work\n",
                     run.mesh, run.mesh);
        return 1;
      }
    }
    if (!deterministic) return 1;
  }
  return 0;
} catch (const NdftError& error) {
  std::fprintf(stderr, "sim_fabric: %s\n", error.what());
  return 1;
}
