// bench_micro_engine: overhead guard for the robustness machinery on the
// Engine hot path. Every job now passes through cancel scopes, fault
// checkpoints and the retry loop; with no fault spec installed each
// checkpoint must collapse to a branch-on-disabled-flag, so the
// disabled-faults path must stay within noise of a zero-probability
// armed spec (which pays the full PRNG roll at every site).
//
// Results go to BENCH_engine.json for cross-commit tracking.
//
// Modes:
//   bench_micro_engine           400 jobs per configuration
//   bench_micro_engine --smoke   100 jobs, exits nonzero when the
//                                disabled path is slower than the armed
//                                path beyond noise (ratio > 1.5; the
//                                verify.sh --bench-smoke gate)

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "api/engine.hpp"
#include "common/run_metadata.hpp"
#include "common/str_util.hpp"
#include "common/table.hpp"

using namespace ndft;

namespace {

using Clock = std::chrono::steady_clock;

struct Timing {
  double median_us = 0.0;
  double p90_us = 0.0;
};

/// Median / p90 wall time per run() of a near-free PlanJob: the job's own
/// work is tiny, so the engine wrapper (validation, scopes, checkpoints,
/// retry bookkeeping, result stamping) dominates what is measured.
Timing measure(const std::string& fault_spec, std::size_t iterations) {
  api::EngineConfig config;
  config.dispatch_threads = 0;
  config.fault_spec = fault_spec;
  api::Engine engine(config);
  const api::PlanJob job;
  for (std::size_t i = 0; i < iterations / 10 + 1; ++i) {
    (void)engine.run(job);  // warm caches and the pool
  }
  std::vector<double> samples;
  samples.reserve(iterations);
  for (std::size_t i = 0; i < iterations; ++i) {
    const Clock::time_point start = Clock::now();
    const api::JobResult result = engine.run(job);
    const Clock::time_point stop = Clock::now();
    if (!result.ok()) {
      throw NdftError(strformat("plan job failed: %s",
                                result.error_message.c_str()));
    }
    samples.push_back(
        std::chrono::duration<double, std::micro>(stop - start).count());
  }
  std::sort(samples.begin(), samples.end());
  Timing timing;
  timing.median_us = samples[samples.size() / 2];
  timing.p90_us = samples[samples.size() * 9 / 10];
  return timing;
}

}  // namespace

int main(int argc, char** argv) try {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const std::size_t iterations = smoke ? 100 : 400;
  std::printf("engine wrapper overhead, %zu jobs per configuration%s\n\n",
              iterations, smoke ? " (smoke)" : "");

  // Alternating A/B, best-of-two medians per configuration: a 1-us job
  // wrapper is at the mercy of scheduler noise, and the minimum median is
  // the stable estimator of the true cost floor.
  Timing disabled = measure("", iterations);
  Timing armed = measure("*=0.0", iterations);
  for (const Timing& t : {measure("", iterations), measure("", iterations)}) {
    if (t.median_us < disabled.median_us) disabled = t;
  }
  for (const Timing& t :
       {measure("*=0.0", iterations), measure("*=0.0", iterations)}) {
    if (t.median_us < armed.median_us) armed = t;
  }
  const double ratio =
      armed.median_us > 0.0 ? disabled.median_us / armed.median_us : 1.0;

  TextTable table({"configuration", "median", "p90"});
  table.add_row({"faults disabled", strformat("%.1f us", disabled.median_us),
                 strformat("%.1f us", disabled.p90_us)});
  table.add_row({"armed, p=0", strformat("%.1f us", armed.median_us),
                 strformat("%.1f us", armed.p90_us)});
  std::printf("%s\ndisabled/armed median ratio: %.3f\n",
              table.render().c_str(), ratio);

  Json bench = Json::object();
  bench.set("bench", "micro_engine");
  bench.set("meta", run_metadata_json());
  bench.set("iterations", iterations);
  bench.set("disabled_median_us", disabled.median_us);
  bench.set("disabled_p90_us", disabled.p90_us);
  bench.set("armed_median_us", armed.median_us);
  bench.set("armed_p90_us", armed.p90_us);
  bench.set("disabled_over_armed", ratio);
  const char* path = "BENCH_engine.json";
  if (write_bench_json(path, bench)) {
    std::printf("wrote %s\n", path);
  } else {
    std::fprintf(stderr, "could not write %s\n", path);
    return 1;
  }

  if (smoke && ratio > 1.5) {
    // The disabled path must not cost more than the armed path plus
    // noise: a regression here means a checkpoint stopped being a
    // branch-on-disabled-flag.
    std::fprintf(stderr,
                 "FAIL: disabled-faults path %.2fx the armed path\n", ratio);
    return 1;
  }
  return 0;
} catch (const NdftError& error) {
  std::fprintf(stderr, "micro_engine: %s\n", error.what());
  return 1;
}
