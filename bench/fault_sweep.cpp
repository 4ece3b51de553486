// bench_fault_sweep: fault-injection sweep over every registered site.
// For each site in the catalog, arms the site at probability 1.0 (capped
// to one fire, then uncapped) and drives a small job through the layer
// that owns the site, asserting the contract of its fault class:
//
//   resource/device (transient)  @1: retries to success, attempts == 2
//                                uncapped: classified transient failure
//                                with attempts == max_attempts
//   solver/trace (degradable)    job stays Ok and reports the fallback in
//                                JobResult::degraded
//
// Exits nonzero on any contract violation — and simply completing proves
// no site hangs or crashes the engine. Results go to
// BENCH_fault_sweep.json for cross-commit tracking.
//
// Modes:
//   bench_fault_sweep           full sweep (capped + uncapped per site)
//   bench_fault_sweep --smoke   same sweep, smaller jobs (the
//                               verify.sh --bench-smoke gate)

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "api/engine.hpp"
#include "common/fault.hpp"
#include "common/run_metadata.hpp"
#include "common/str_util.hpp"
#include "common/table.hpp"
#include "net/client.hpp"
#include "net/server.hpp"

using namespace ndft;

namespace {

struct SweepRow {
  std::string site;
  FaultClass cls = FaultClass::kResource;
  std::string capped_outcome;
  std::string uncapped_outcome;
  bool pass = false;
};

/// A small job that reaches the layer owning `site`.
api::JobRequest job_for_site(const char* site, bool smoke) {
  if (std::strcmp(site, "scf.alloc") == 0 ||
      std::strcmp(site, "trace.recorder") == 0) {
    api::ScfJob job;
    job.scf.max_iterations = smoke ? 2 : 4;
    job.scf.tolerance = 1e-2;
    job.record_trace = std::strcmp(site, "trace.recorder") == 0;
    return job;
  }
  if (std::strcmp(site, "bands.alloc") == 0 ||
      std::strcmp(site, "solver.syevd_partial") == 0) {
    api::BandStructureJob job;
    job.segments = smoke ? 1 : 2;
    return job;
  }
  if (std::strcmp(site, "sim.mem") == 0) {
    api::SimulateJob job;
    job.atoms = 16;
    return job;
  }
  return api::PlanJob{};  // engine.alloc and anything engine-level
}

/// net.accept lives at the service boundary, not inside an Engine job:
/// drive a real loopback server and let the client's reconnect play the
/// role of the Engine's retry loop.
SweepRow sweep_net_accept() {
  SweepRow row;
  row.site = "net.accept";
  row.cls = FaultClass::kDevice;
  bool pass = true;
  for (const bool capped : {true, false}) {
    fault_install(
        FaultSpec::parse(capped ? "net.accept=1.0@1" : "net.accept=1.0"));
    net::HttpServer server(net::ServerConfig{},
                           [](const net::HttpRequest&) {
                             net::HttpResponse response;
                             response.body = "ok";
                             return response;
                           });
    server.start();
    const auto attempt_once = [&server] {
      try {
        net::HttpClient client("127.0.0.1", server.port());
        return client.get("/").status == 200;
      } catch (const NdftError&) {
        return false;  // connection dropped at accept
      }
    };
    bool ok;
    std::string outcome;
    if (capped) {
      // First connection dropped, the retry connects and is served.
      const bool first = attempt_once();
      const bool second = attempt_once();
      ok = !first && second && server.connections_dropped() == 1;
      outcome = strformat("%s@2", ok ? "ok" : "served-through-fault");
    } else {
      // Every connection dropped; nothing gets through.
      bool any_served = false;
      for (int i = 0; i < 3; ++i) any_served = attempt_once() || any_served;
      ok = !any_served && server.connections_dropped() == 3;
      outcome = ok ? "all-dropped@3" : "leaked-through";
    }
    server.shutdown();
    (capped ? row.capped_outcome : row.uncapped_outcome) =
        ok ? outcome : "FAIL:" + outcome;
    pass = pass && ok;
  }
  fault_clear();
  row.pass = pass;
  return row;
}

/// sim.port never throws: the dropped message is recovered *inside* the
/// simulation as a delayed retransmission, so there is no retry and no
/// degradation note. The contract is observability — the job stays Ok on
/// its first attempt, the delay count surfaces in the payload statistics
/// ("<group>.fault_delays"), and the simulated time never shrinks below
/// the fault-free run.
SweepRow sweep_sim_port() {
  SweepRow row;
  row.site = "sim.port";
  row.cls = FaultClass::kDevice;
  const auto run_once = [](const char* spec) {
    api::EngineConfig config;
    config.dispatch_threads = 0;
    config.system.sampled_ops_per_kernel = 20000;
    config.system.min_ops_per_core = 200;
    if (spec != nullptr) config.fault_spec = spec;
    api::Engine engine(config);
    api::SimulateJob job;
    job.atoms = 16;
    return engine.run(job);
  };
  const auto fault_delays = [](const api::JobResult& result) {
    double delays = 0.0;
    if (result.simulate) {
      constexpr const char* kLeaf = "fault_delays";
      const std::size_t n = std::strlen(kLeaf);
      for (const auto& [key, value] : result.simulate->stats) {
        if (key.size() > n && key.compare(key.size() - n, n, kLeaf) == 0) {
          delays += value;
        }
      }
    }
    return delays;
  };

  const api::JobResult clean = run_once(nullptr);
  bool pass = clean.ok() && fault_delays(clean) == 0.0;
  for (const bool capped : {true, false}) {
    const api::JobResult result =
        run_once(capped ? "sim.port=1.0@1" : "sim.port=1.0");
    const double delays = fault_delays(result);
    bool ok = result.ok() && result.engine.attempts == 1 &&
              result.simulate->total_ps >= clean.simulate->total_ps;
    // Capped: exactly the one injected drop; uncapped: every message.
    ok = ok && (capped ? delays == 1.0 : delays > 1.0);
    (capped ? row.capped_outcome : row.uncapped_outcome) =
        (ok ? "ok,delays=" : "FAIL:delays=") + strformat("%g", delays);
    pass = pass && ok;
  }
  row.pass = pass;
  return row;
}

bool transient(FaultClass cls) {
  return cls == FaultClass::kResource || cls == FaultClass::kDevice;
}

}  // namespace

int main(int argc, char** argv) try {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  std::printf("fault sweep over %zu sites%s\n\n", fault_sites().size(),
              smoke ? " (smoke)" : "");

  constexpr unsigned kMaxAttempts = 3;
  std::vector<SweepRow> rows;
  for (const FaultSite& site : fault_sites()) {
    if (std::strcmp(site.name, "net.accept") == 0) {
      rows.push_back(sweep_net_accept());
      continue;
    }
    if (std::strcmp(site.name, "sim.port") == 0) {
      rows.push_back(sweep_sim_port());
      continue;
    }
    SweepRow row;
    row.site = site.name;
    row.cls = site.cls;
    bool pass = true;
    for (const bool capped : {true, false}) {
      api::EngineConfig config;
      config.dispatch_threads = 0;
      config.system.sampled_ops_per_kernel = 20000;
      config.system.min_ops_per_core = 200;
      config.max_attempts = kMaxAttempts;
      config.retry_backoff_ms = 0.1;
      config.fault_spec =
          std::string(site.name) + (capped ? "=1.0@1" : "=1.0");
      api::Engine engine(config);
      const api::JobResult result =
          engine.run(job_for_site(site.name, smoke));
      bool ok;
      std::string outcome;
      if (transient(site.cls)) {
        if (capped) {
          // One injected failure, then the retry succeeds.
          ok = result.ok() && result.engine.attempts == 2;
          outcome = strformat("ok@%u", result.engine.attempts);
        } else {
          // Every attempt fails: a classified transient error, with the
          // whole retry budget spent and recorded.
          ok = result.status == api::JobStatus::kFailed &&
               api::is_transient(result.error) &&
               result.engine.attempts == kMaxAttempts;
          outcome = strformat("%s@%u", api::to_string(result.error),
                              result.engine.attempts);
        }
      } else {
        // Degradable: the job succeeds and says how it degraded.
        ok = result.ok() && !result.degraded.empty();
        outcome = ok ? "ok+" + result.degraded.front()
                     : strformat("%s", api::to_string(result.status));
      }
      (capped ? row.capped_outcome : row.uncapped_outcome) =
          ok ? outcome : "FAIL:" + outcome;
      pass = pass && ok;
    }
    row.pass = pass;
    rows.push_back(row);
  }

  TextTable table({"site", "class", "capped @1", "uncapped", "verdict"});
  bool all_pass = true;
  for (const SweepRow& row : rows) {
    table.add_row({row.site, to_string(row.cls), row.capped_outcome,
                   row.uncapped_outcome, row.pass ? "pass" : "FAIL"});
    all_pass = all_pass && row.pass;
  }
  std::printf("%s\n", table.render().c_str());

  Json bench = Json::object();
  bench.set("bench", "fault_sweep");
  bench.set("meta", run_metadata_json());
  Json entries = Json::array();
  for (const SweepRow& row : rows) {
    Json entry = Json::object();
    entry.set("site", row.site);
    entry.set("class", to_string(row.cls));
    entry.set("capped", row.capped_outcome);
    entry.set("uncapped", row.uncapped_outcome);
    entry.set("pass", row.pass);
    entries.push_back(std::move(entry));
  }
  bench.set("sites", std::move(entries));
  const char* path = "BENCH_fault_sweep.json";
  if (std::FILE* file = std::fopen(path, "w")) {
    const std::string text = bench.dump(2);
    std::fwrite(text.data(), 1, text.size(), file);
    std::fputc('\n', file);
    std::fclose(file);
    std::printf("wrote %zu site records to %s\n", rows.size(), path);
  } else {
    std::fprintf(stderr, "could not write %s\n", path);
    return 1;
  }
  if (!all_pass) {
    std::fprintf(stderr, "fault sweep: contract violation (see table)\n");
    return 1;
  }
  return 0;
} catch (const NdftError& error) {
  std::fprintf(stderr, "fault_sweep: %s\n", error.what());
  return 1;
}
