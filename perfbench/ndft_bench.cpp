// ndft_perfbench: one workload of the repository benchmark per run.
//
//   ndft_perfbench --workload <scf_si8|service_mix|sim_si64> --seed N
//                  --seconds S --trace <0|1> --spec BENCHMARK.json
//                  [--spans-out FILE]
//
// Untraced runs (--trace 0) report the end-to-end metrics a user sees;
// traced runs (--trace 1) report per-layer metrics, measured from
// outside: spans the driver records around its calls into each layer's
// public functions, plus the instrumentation the program already has
// (JobTimings, record_trace kernel traces, SimulatePayload stats and
// kernel rows). The metric names and units come from --spec, the
// repository's BENCHMARK.json. Every answer is checked; a wrong one
// counts as a failed operation. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// perfbench/README.md explains the workloads and metrics.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.hpp"
#include "api/request_json.hpp"
#include "common/run_metadata.hpp"
#include "common/thread_pool.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "net/service.hpp"

using namespace ndft;

namespace {

using Clock = std::chrono::steady_clock;

double elapsed_ms(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

double us_since(Clock::time_point from) {
  return elapsed_ms(from, Clock::now()) * 1000.0;
}

// ------------------------------------------------------------ statistics

/// Linearly interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

/// Process CPU seconds (user + system) so far.
double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ------------------------------------------------------------- metrics

struct Metric {
  double value = 0.0;
  std::string unit;
  bool exact = false;  ///< simulated: must repeat bitwise across runs
};
using Metrics = std::map<std::string, Metric>;

/// Every metric of one section ("end_to_end" or "per_layer") of the
/// benchmark spec, valued 0: BENCHMARK.json is the one list of metric
/// names and units, and set_metric() rejects a name it does not hold.
Metrics metrics_from_spec(const Json& spec, const char* section) {
  Metrics m;
  for (const Json& entry : spec.at(section).items()) {
    m[entry.at("name").as_string()] = Metric{0.0, entry.at("unit").as_string()};
  }
  return m;
}

void set_metric(Metrics& m, const std::string& name, double value) {
  const auto it = m.find(name);
  if (it == m.end()) throw std::logic_error("metric not in the spec: " + name);
  it->second.value = value;
}

const char* const kDftClasses[] = {"fft",  "facesplit",       "gemm",
                                   "syevd", "pseudopotential", "other"};
const char* const kSimClasses[] = {"fft",  "facesplit",       "gemm",
                                   "syevd", "pseudopotential", "alltoall",
                                   "other"};

std::string class_key(KernelClass cls) {
  std::string name = to_string(cls);
  std::transform(name.begin(), name.end(), name.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return name;
}

// --------------------------------------------------------------- spans

/// One bench-side span: a call into a layer's public function. Spans of
/// one request share `job` (the driver's request index).
struct Span {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t job = 0;
  double start_ms = 0.0;     ///< since the run's origin
  double end_ms = 0.0;
};

/// In-memory span store, written out once the run ends. Disabled logs
/// record nothing, so untraced runs pay one branch per boundary.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  bool enabled() const noexcept { return enabled_; }
  double now_ms() const { return elapsed_ms(origin_, Clock::now()); }
  std::uint64_t next_id() noexcept { return next_id_.fetch_add(1); }

  void add(Span span) {
    if (!enabled_) return;
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
  }

  std::size_t size() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
  }

  Json to_json() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    Json list = Json::array();
    for (const Span& span : spans_) {
      Json entry = Json::object();
      entry.set("name", span.name);
      entry.set("id", span.id);
      entry.set("parent", span.parent);
      entry.set("job", span.job);
      entry.set("start_ms", span.start_ms);
      entry.set("end_ms", span.end_ms);
      list.push_back(std::move(entry));
    }
    return list;
  }

 private:
  const bool enabled_;
  const Clock::time_point origin_ = Clock::now();
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span around one call; records on scope exit when tracing.
class SpanScope {
 public:
  SpanScope(SpanLog& log, const char* name, std::uint64_t job,
            std::uint64_t parent = 0)
      : log_(log) {
    if (!log_.enabled()) return;
    span_.name = name;
    span_.id = log_.next_id();
    span_.parent = parent;
    span_.job = job;
    span_.start_ms = log_.now_ms();
  }
  ~SpanScope() {
    if (!log_.enabled()) return;
    span_.end_ms = log_.now_ms();
    log_.add(std::move(span_));
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  std::uint64_t id() const noexcept { return span_.id; }

 private:
  SpanLog& log_;
  Span span_;
};

// -------------------------------------------------------- answer checks
//
// Goldens are the outputs of the fixed requests below; tolerances are
// those of tests/physics_test.cpp (energy 1e-5 Ha, SCF gap 1e-4 eV,
// band-structure gap 1e-6 eV, LR-TDDFT excitation 1e-5 eV).

constexpr double kEvPerHa = 27.211386;
constexpr double kScfEnergyHa = -3.0219885343;
constexpr double kScfGapEv = 0.5159037788;
constexpr double kBandGapEv = 0.8345424930;
constexpr double kLrtddftLowestEv = 0.9680322045;
constexpr unsigned kPlanCrossings = 3;

/// Empty when `result` is a correct answer to its request, else why not.
std::string check_answer(const api::JobResult& result) {
  if (!result.ok()) {
    return std::string("status ") + api::to_string(result.status) + ": " +
           result.error_message;
  }
  char buffer[160];
  if (result.scf) {
    const api::ScfPayload& scf = *result.scf;
    if (!scf.converged) return "SCF did not converge";
    if (std::abs(scf.total_energy_ha - kScfEnergyHa) > 1e-5 ||
        std::abs(scf.gap_ev - kScfGapEv) > 1e-4) {
      std::snprintf(buffer, sizeof buffer, "SCF energy %.10f Ha gap %.10f eV",
                    scf.total_energy_ha, scf.gap_ev);
      return buffer;
    }
  } else if (result.band_structure) {
    const double gap = result.band_structure->indirect_gap_ev;
    if (std::abs(gap - kBandGapEv) > 1e-6) {
      std::snprintf(buffer, sizeof buffer, "band gap %.10f eV", gap);
      return buffer;
    }
  } else if (result.lrtddft) {
    const api::LrtddftPayload& lr = *result.lrtddft;
    if (lr.excitations_ha.empty() || lr.lines.empty()) {
      return "LR-TDDFT returned no excitations or lines";
    }
    const double lowest = lr.excitations_ha.front() * kEvPerHa;
    if (std::abs(lowest - kLrtddftLowestEv) > 1e-5) {
      std::snprintf(buffer, sizeof buffer, "LR-TDDFT lowest %.10f eV", lowest);
      return buffer;
    }
  } else if (result.plan) {
    if (result.plan->placements.empty() ||
        result.plan->crossings != kPlanCrossings) {
      std::snprintf(buffer, sizeof buffer, "plan crossings %u",
                    result.plan->crossings);
      return buffer;
    }
  } else if (result.simulate) {
    if (result.simulate->total_ps == 0) return "simulation reported 0 ps";
  } else {
    return "result carries no payload";
  }
  return "";
}

/// Throws when a set-up warm-up request did not succeed. Warm-ups are
/// cut-down requests (fewer SCF iterations, fewer k-points), so only the
/// status is checked, not the goldens.
void check_warm_up(const api::JobResult& result, const char* what) {
  if (!result.ok()) {
    throw std::runtime_error(std::string("warm-up ") + what + ": status " +
                             api::to_string(result.status) + ": " +
                             result.error_message);
  }
}

// ------------------------------------------------------------ workloads

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spec;
  std::string spans_out;
};

/// Samples of one kind of operation: its latencies, and in traced
/// windows its per-layer numbers, one sample per operation or job.
struct KindSamples {
  std::vector<double> latencies_ms;
  std::map<std::string, std::vector<double>> layers;

  void add(const std::string& name, double value) {
    layers[name].push_back(value);
  }
  void merge(const KindSamples& other) {
    latencies_ms.insert(latencies_ms.end(), other.latencies_ms.begin(),
                        other.latencies_ms.end());
    for (const auto& [name, values] : other.layers) {
      std::vector<double>& into = layers[name];
      into.insert(into.end(), values.begin(), values.end());
    }
  }
};

/// What one timed window produced. Operations are grouped by kind, and
/// `shares` holds each kind's fixed share of the operations: one kind of
/// share 1 in a closed loop, the request mix on service_mix.
struct Window {
  std::map<std::string, KindSamples> kinds;
  std::map<std::string, double> shares;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  double last_ms = 0.0;              ///< latency of the last operation
  double wall_s = 0.0;               ///< timed window, first start to last end
  double cpu_s = 0.0;                ///< process CPU time over the window
  bool valid = true;                 ///< open-loop honesty (service_mix)
  std::vector<std::string> errors;   ///< first few answer-check failures
  Metrics extra;                     ///< workload-specific end-to-end metrics

  void fail(std::string why) {
    ++failed;
    if (errors.size() < 5) errors.push_back(std::move(why));
  }

  /// Appends a later window of the same run.
  void merge(const Window& other) {
    for (const auto& [kind, samples] : other.kinds) kinds[kind].merge(samples);
    shares = other.shares;
    attempted += other.attempted;
    failed += other.failed;
    for (const std::string& error : other.errors) {
      if (errors.size() < 5) errors.push_back(error);
    }
    last_ms = other.last_ms;
    wall_s += other.wall_s;
    cpu_s += other.cpu_s;
    valid = valid && other.valid;
    // Workload extras are identical per window (simulated figures) or
    // worst-case figures (generator lateness): keep the largest.
    for (const auto& [name, metric] : other.extra) {
      const auto [it, inserted] = extra.emplace(name, metric);
      if (!inserted) it->second.value = std::max(it->second.value, metric.value);
    }
  }

  void complete(const std::string& kind, double latency_ms) {
    kinds[kind].latencies_ms.push_back(latency_ms);
    last_ms = latency_ms;
  }

  std::vector<double> all_latencies() const {
    std::vector<double> all;
    for (const auto& [kind, samples] : kinds) {
      all.insert(all.end(), samples.latencies_ms.begin(),
                 samples.latencies_ms.end());
    }
    return all;
  }

  /// Per-operation latency quantile: each kind's quantile weighted by its
  /// share. A quantile over the whole mix would see only the kind that
  /// holds that quantile, and sit on the edge between kinds.
  double latency_ms(double q) const {
    double total = 0.0;
    for (const auto& [kind, samples] : kinds) {
      total += shares.at(kind) * quantile(samples.latencies_ms, q);
    }
    return total;
  }

  /// Sets every per-layer metric the window sampled: each kind's median
  /// weighted by its share among the kinds that sampled the metric.
  void set_layers(Metrics& m) const {
    std::map<std::string, std::pair<double, double>> sums;  // weighted, share
    for (const auto& [kind, samples] : kinds) {
      const double share = shares.at(kind);
      for (const auto& [name, values] : samples.layers) {
        sums[name].first += share * median(values);
        sums[name].second += share;
      }
    }
    for (const auto& [name, sum] : sums) {
      set_metric(m, name, sum.second > 0.0 ? sum.first / sum.second : 0.0);
    }
  }

  /// Closed loops: whether another operation, as long as the last one,
  /// still ends inside the window that began at `start`.
  bool room_for_next(Clock::time_point start, double seconds) const {
    return elapsed_ms(start, Clock::now()) + last_ms < seconds * 1000.0;
  }
};

/// Microseconds `job_request_from_json` takes to decode a request's wire
/// body: what a service pays before it can queue the job.
double time_request_decode(const std::string& body, SpanLog& spans,
                           std::uint64_t job, std::uint64_t parent) {
  const Clock::time_point t0 = Clock::now();
  {
    SpanScope span(spans, "api.request_decode", job, parent);
    (void)api::job_request_from_json(Json::parse(body));
  }
  return us_since(t0);
}

/// Samples the api layer of one traced job: its JobTimings, and the time
/// and size of encoding its result document.
void sample_api_layer(const api::JobResult& result, SpanLog& spans,
                      std::uint64_t job, std::uint64_t parent,
                      KindSamples& out) {
  out.add("api.queue_ms_p50", result.timings.queue_ms);
  out.add("api.run_ms_p50", result.timings.run_ms);
  const Clock::time_point t0 = Clock::now();
  std::string text;
  {
    SpanScope span(spans, "api.result_encode", job, parent);
    text = result.to_json().dump();
  }
  out.add("api.result_encode_us", us_since(t0));
  out.add("api.result_bytes", static_cast<double>(text.size()));
}

/// Samples the dft layer of one traced job result.
void sample_dft_layers(const api::JobResult& result, KindSamples& out) {
  out.add("dft.linalg_ms", result.timings.linalg_ms);
  out.add("dft.eig.reduce_ms", result.timings.reduce_ms);
  out.add("dft.eig.tridiag_ms", result.timings.tridiag_ms);
  out.add("dft.eig.backtransform_ms", result.timings.backtransform_ms);
  if (result.scf) {
    out.add("dft.scf.iterations", static_cast<double>(result.scf->iterations));
  }
  if (!result.trace) return;
  std::map<std::string, std::array<double, 3>> per_class;
  for (const char* cls : kDftClasses) per_class[cls] = {0.0, 0.0, 0.0};
  for (const TraceEvent& event : result.trace->events) {
    std::array<double, 3>& slot = per_class[class_key(event.cls)];
    slot[0] += event.host_ms;
    slot[1] += static_cast<double>(event.flops);
    slot[2] += static_cast<double>(event.bytes);
  }
  for (const char* cls : kDftClasses) {
    const std::string prefix = std::string("dft.kernel.") + cls;
    out.add(prefix + ".ms", per_class[cls][0]);
    out.add(prefix + ".flops", per_class[cls][1]);
    out.add(prefix + ".bytes", per_class[cls][2]);
  }
  out.add("dft.unattributed_ms",
          result.timings.run_ms - result.trace->total_host_ms());
}

class Workload {
 public:
  virtual ~Workload() = default;
  /// Constructs the engine (and server) from scratch and warms it with
  /// cut-down requests on the timed path; returns the seconds it took.
  virtual double setup() = 0;
  /// Runs the timed loop for `seconds`; traced when `spans` is enabled,
  /// in which case the window holds per-layer samples.
  virtual Window measure(double seconds, SpanLog& spans) = 0;
  /// Run-stamp members (rate, dispatch threads).
  virtual void stamp(Json& json) const = 0;
};

/// A fresh in-process engine with `dispatch_threads` dispatchers.
std::unique_ptr<api::Engine> make_engine(std::size_t dispatch_threads) {
  api::EngineConfig config;
  config.dispatch_threads = dispatch_threads;
  return std::make_unique<api::Engine>(config);
}

// ---- scf_si8: closed loop, one client, in-process Engine.

class ScfWorkload : public Workload {
 public:
  double setup() override {
    engine_.reset();
    const Clock::time_point start = Clock::now();
    engine_ = make_engine(kDispatchThreads);
    // A full Si_8 SCF takes 23 iterations; two run every kernel and
    // allocation of the timed job without timing a whole one again.
    api::ScfJob warm = job(false);
    warm.scf.max_iterations = kWarmIterations;
    check_warm_up(engine_->submit(warm).wait(), "SCF");
    return elapsed_ms(start, Clock::now()) / 1000.0;
  }

  Window measure(double seconds, SpanLog& spans) override {
    Window window;
    window.shares = {{kKind, 1.0}};
    KindSamples& samples = window.kinds[kKind];
    const bool traced = spans.enabled();
    const std::string body = api::job_request_to_json(job(true)).dump();
    const double cpu0 = process_cpu_s();
    const Clock::time_point start = Clock::now();
    while (window.room_for_next(start, seconds)) {
      const std::uint64_t request = ++window.attempted;
      SpanScope root(spans, "bench.request", request);
      if (traced) {
        samples.add("api.request_decode_us",
                    time_request_decode(body, spans, request, root.id()));
      }
      const Clock::time_point t0 = Clock::now();
      api::JobHandle handle;
      {
        SpanScope span(spans, "engine.submit", request, root.id());
        handle = engine_->submit(job(traced));
      }
      const api::JobResult* result = nullptr;
      {
        SpanScope span(spans, "engine.wait", request, root.id());
        result = &handle.wait();
      }
      const double latency = elapsed_ms(t0, Clock::now());
      const std::string error = check_answer(*result);
      if (!error.empty()) {
        window.fail(error);
        continue;
      }
      window.complete(kKind, latency);
      if (!traced) continue;
      sample_api_layer(*result, spans, request, root.id(), samples);
      sample_dft_layers(*result, samples);
    }
    window.wall_s = elapsed_ms(start, Clock::now()) / 1000.0;
    window.cpu_s = process_cpu_s() - cpu0;
    return window;
  }

  void stamp(Json& json) const override {
    json.set("dispatch_threads", kDispatchThreads);
    json.set("clients", 1);
  }

 private:
  static constexpr const char* kKind = "scf";
  static constexpr std::size_t kDispatchThreads = 1;
  static constexpr unsigned kWarmIterations = 2;

  static api::ScfJob job(bool record_trace) {
    api::ScfJob scf;
    scf.atoms = 8;
    scf.record_trace = record_trace;
    return scf;
  }

  std::unique_ptr<api::Engine> engine_;
};

// ---- sim_si64: closed loop, one client; one operation = the NDFT, CPU
// and GPU simulations of one Si_64 LR-TDDFT iteration.

class SimWorkload : public Workload {
 public:
  double setup() override {
    engine_.reset();
    const Clock::time_point start = Clock::now();
    engine_ = make_engine(kDispatchThreads);
    // Warm the request path with the analytic GPU baseline and a plan of
    // the same workload. A trace-driven simulation samples a floor of
    // memory ops per core whatever its size, so even a cut-down one takes
    // seconds of memory-bound host time, as noisy as a timed operation.
    // One analytic request takes tens of microseconds, less than waking
    // a dispatch thread, so a batch of them is sent: one would time the
    // wake-up alone.
    for (std::size_t i = 0; i < kWarmRequests; ++i) {
      api::SimulateJob simulate;
      simulate.atoms = kAtoms;
      simulate.mode = core::ExecMode::kGpuBaseline;
      check_warm_up(engine_->submit(simulate).wait(), "GPU-baseline simulate");
      api::PlanJob plan;
      plan.atoms = kAtoms;
      check_warm_up(engine_->submit(plan).wait(), "plan");
    }
    return elapsed_ms(start, Clock::now()) / 1000.0;
  }

  Window measure(double seconds, SpanLog& spans) override {
    Window window;
    window.shares = {{kKind, 1.0}};
    KindSamples& samples = window.kinds[kKind];
    const bool traced = spans.enabled();
    std::array<api::SimulatePayload, kModes.size()> last{};
    const double cpu0 = process_cpu_s();
    const Clock::time_point start = Clock::now();
    while (window.room_for_next(start, seconds)) {
      const std::uint64_t request = ++window.attempted;
      SpanScope root(spans, "bench.comparison", request);
      if (traced) sample_plan(request, root.id(), spans, samples);
      // One machine after another on a single dispatch thread: running
      // them concurrently made the peak RSS depend on how the three runs
      // overlapped, and let them contend for the same memory bandwidth.
      const Clock::time_point t0 = Clock::now();
      std::array<api::JobHandle, kModes.size()> handles;
      for (std::size_t m = 0; m < kModes.size(); ++m) {
        api::SimulateJob job;
        job.atoms = kAtoms;
        job.mode = kModes[m];
        if (traced) {
          samples.add("api.request_decode_us",
                      time_request_decode(api::job_request_to_json(job).dump(),
                                          spans, request, root.id()));
        }
        {
          SpanScope span(spans, "engine.submit", request, root.id());
          handles[m] = engine_->submit(job);
        }
        SpanScope span(spans, "engine.wait", request, root.id());
        handles[m].wait();
      }
      const double latency = elapsed_ms(t0, Clock::now());
      std::string error;
      for (std::size_t m = 0; m < kModes.size() && error.empty(); ++m) {
        const api::JobResult& result = handles[m].wait();
        error = check_answer(result);
        if (!error.empty()) break;
        const TimePs total = result.simulate->total_ps;
        if (reference_ps_[m] == 0) reference_ps_[m] = total;
        if (total != reference_ps_[m]) {
          error = std::string(core::to_string(kModes[m])) +
                  " total_ps differs between repetitions";
          break;
        }
        last[m] = *result.simulate;
        if (traced) sample_api_layer(result, spans, request, root.id(), samples);
      }
      if (!error.empty()) {
        window.fail(error);
        continue;
      }
      window.complete(kKind, latency);
      if (traced) {
        sample_sim_layers(last, handles[0].wait().timings.run_ms,
                          handles[1].wait().timings.run_ms, samples);
      }
    }
    window.wall_s = elapsed_ms(start, Clock::now()) / 1000.0;
    window.cpu_s = process_cpu_s() - cpu0;

    if (window.kinds[kKind].latencies_ms.empty()) return window;
    // Simulated figures: deterministic, identical on every repetition.
    const double ndft_ms = ps_to_ms(last[0].total_ps);
    const double cpu_ms = ps_to_ms(last[1].total_ps);
    const double gpu_ms = ps_to_ms(last[2].total_ps);
    window.extra["sim_ndft_iter_ms"] = Metric{ndft_ms, "sim_ms", true};
    window.extra["sim_speedup_vs_cpu"] = Metric{cpu_ms / ndft_ms, "x", true};
    window.extra["sim_speedup_vs_gpu"] = Metric{gpu_ms / ndft_ms, "x", true};
    return window;
  }

  void stamp(Json& json) const override {
    json.set("dispatch_threads", kDispatchThreads);
    json.set("clients", 1);
  }

 private:
  static constexpr const char* kKind = "comparison";
  static constexpr std::size_t kDispatchThreads = 1;
  static constexpr std::size_t kAtoms = 64;
  static constexpr std::size_t kWarmRequests = 16;
  static constexpr std::array<core::ExecMode, 3> kModes = {
      core::ExecMode::kNdft, core::ExecMode::kCpuBaseline,
      core::ExecMode::kGpuBaseline};

  static double ps_to_ms(TimePs ps) { return static_cast<double>(ps) * 1e-9; }
  static double stat(const api::SimulatePayload& payload,
                     const std::string& key) {
    const auto it = payload.stats.find(key);
    return it == payload.stats.end() ? 0.0 : it->second;
  }

  /// Times the cost-aware schedule behind the NDFT run from outside.
  void sample_plan(std::uint64_t request, std::uint64_t parent,
                   SpanLog& spans, KindSamples& out) const {
    const core::NdftSystem& system = engine_->system();
    dft::Workload workload;
    {
      SpanScope span(spans, "ndft_system.workload_for", request, parent);
      workload = system.workload_for(kAtoms);
    }
    const Clock::time_point t0 = Clock::now();
    runtime::ExecutionPlan plan;
    {
      SpanScope span(spans, "ndft_system.plan", request, parent);
      plan = system.plan(workload);
    }
    out.add("runtime.plan_us", us_since(t0));
    out.add("runtime.crossings", plan.crossings);
  }

  /// Samples the simulator layers of one comparison: the host time of the
  /// two trace-driven machines (the GPU baseline is analytic and takes no
  /// measurable host time) and the simulated figures of all three.
  static void sample_sim_layers(
      const std::array<api::SimulatePayload, kModes.size()>& payloads,
      double ndft_host_ms, double cpu_host_ms, KindSamples& out) {
    out.add("sim.host_ms.ndft", ndft_host_ms);
    out.add("sim.host_ms.cpu", cpu_host_ms);
    // Simulated events: fabric messages plus DRAM requests.
    double events = 0.0;
    for (std::size_t m = 0; m < 2; ++m) {
      events += stat(payloads[m], "mesh.messages") +
                stat(payloads[m], "dram.reads") + stat(payloads[m], "dram.writes");
    }
    out.add("sim.events", events);
    if (events > 0.0) {
      out.add("sim.host_ns_per_event", (ndft_host_ms + cpu_host_ms) * 1e6 / events);
    }
    const double ndft_ms = ps_to_ms(payloads[0].total_ps);
    out.add("sim_ndft_iter_ms", ndft_ms);
    out.add("sim_speedup_vs_cpu", ps_to_ms(payloads[1].total_ps) / ndft_ms);
    out.add("sim_speedup_vs_gpu", ps_to_ms(payloads[2].total_ps) / ndft_ms);
    for (std::size_t m = 0; m < 2; ++m) {
      std::map<std::string, double> per_class;
      for (const core::KernelTime& kernel : payloads[m].kernels) {
        per_class[class_key(kernel.cls)] += ps_to_ms(kernel.time_ps);
      }
      const std::string prefix = std::string("sim.") + (m == 0 ? "ndft" : "cpu");
      for (const char* cls : kSimClasses) {
        out.add(prefix + "." + cls + "_ms", per_class[cls]);
      }
    }
    const api::SimulatePayload& ndft = payloads[0];
    out.add("mem.dram.channel_utilization", stat(ndft, "dram.channel_utilization"));
    const double row_accesses = stat(ndft, "dram.row_hits") +
                                stat(ndft, "dram.row_misses") +
                                stat(ndft, "dram.row_conflicts");
    if (row_accesses > 0.0) {
      out.add("mem.dram.row_hit_ratio", stat(ndft, "dram.row_hits") / row_accesses);
    }
    out.add("noc.mesh.contention_ps", stat(ndft, "mesh.contention_ps"));
    out.add("ndp.serdes.contention_ps", stat(ndft, "serdes.contention_ps"));
  }

  std::unique_ptr<api::Engine> engine_;
  /// total_ps per mode from the first comparison of the process.
  std::array<TimePs, 3> reference_ps_{};
};

// ---- service_mix: open loop over loopback HTTP.

class ServiceWorkload : public Workload {
 public:
  explicit ServiceWorkload(std::uint64_t seed) : rng_(seed) {}

  ~ServiceWorkload() override { teardown(); }

  double setup() override {
    teardown();
    const Clock::time_point start = Clock::now();
    engine_ = make_engine(kDispatchThreads);
    net::ServiceConfig service_config;
    service_config.log = nullptr;
    service_ = std::make_unique<net::Service>(*engine_, service_config);
    server_ = std::make_unique<net::HttpServer>(
        net::ServerConfig{}, [this](const net::HttpRequest& request) {
          return handle(request);
        });
    server_->start();
    // Warm the whole path over HTTP with one request of each kind, the
    // band structure on a one-point-per-leg path.
    net::HttpClient client("127.0.0.1", server_->port());
    for (std::size_t kind = 0; kind < kKinds; ++kind) {
      api::JobRequest warm = request(kind, false);
      if (auto* band = std::get_if<api::BandStructureJob>(&warm)) {
        band->segments = 1;
      }
      const net::HttpResponse response = client.post(
          "/v1/jobs?wait_ms=60000", api::job_request_to_json(warm).dump());
      if (response.status != 200) {
        throw std::runtime_error(std::string("warm-up ") + kKindNames[kind] +
                                 ": HTTP " + std::to_string(response.status));
      }
      check_warm_up(api::JobResult::from_json(Json::parse(response.body)),
                    kKindNames[kind]);
    }
    return elapsed_ms(start, Clock::now()) / 1000.0;
  }

  Window measure(double seconds, SpanLog& spans) override;

  void stamp(Json& json) const override {
    json.set("dispatch_threads", kDispatchThreads);
    json.set("rate_per_s", kRatePerS);
    json.set("connections", kConnections);
    Json mix = Json::object();
    for (std::size_t kind = 0; kind < kKinds; ++kind) {
      mix.set(kKindNames[kind], kDeck[kind]);
    }
    json.set("mix_per_deck", std::move(mix));
  }

 private:
  static constexpr std::size_t kKinds = 3;
  static constexpr std::array<const char*, kKinds> kKindNames = {
      "plan", "band_structure", "lrtddft"};
  /// Requests of each kind per shuffled deck of 20: 60/25/15 by count.
  static constexpr std::array<std::size_t, kKinds> kDeck = {12, 5, 3};
  static constexpr std::size_t kDeckSize = 20;
  static constexpr double kRatePerS = 20.0;
  static constexpr std::size_t kConnections = 4;
  static constexpr std::size_t kDispatchThreads = 2;

  struct Arrival {
    double due_ms = 0.0;
    std::size_t kind = 0;
  };

  /// Per-request record; each slot is written by exactly one sender.
  struct Slot {
    double enqueued_ms = 0.0;
    double done_ms = 0.0;
    bool ok = false;
    std::string error;
    KindSamples samples;  ///< this request's per-layer samples (traced)
  };

  /// The next `seconds` of the seeded schedule: kinds in shuffled decks
  /// (exact mix shares), gaps uniform in [0.5, 1.5] x the mean
  /// inter-arrival gap. Later windows continue the sequence.
  std::vector<Arrival> schedule(double seconds) {
    std::vector<Arrival> out;
    const double gap_ms = 1000.0 / kRatePerS;
    double due = 0.0;
    while (true) {
      due += gap_ms * (0.5 + std::uniform_real_distribution<double>(0.0, 1.0)(rng_));
      if (due >= seconds * 1000.0) break;
      if (deck_.empty()) {
        for (std::size_t kind = 0; kind < kKinds; ++kind) {
          deck_.insert(deck_.end(), kDeck[kind], kind);
        }
        for (std::size_t i = deck_.size() - 1; i > 0; --i) {
          std::swap(deck_[i], deck_[rng_() % (i + 1)]);
        }
      }
      out.push_back(Arrival{due, deck_.back()});
      deck_.pop_back();
    }
    return out;
  }

  static api::JobRequest request(std::size_t kind, bool record_trace) {
    if (kind == 0) return api::PlanJob{};
    if (kind == 1) {
      api::BandStructureJob band;
      band.record_trace = record_trace;
      return band;
    }
    api::LrtddftJob lr;
    lr.atoms = 8;
    lr.oscillator_strengths = true;
    lr.record_trace = record_trace;
    return lr;
  }

  /// The bench's HttpServer handler: Service::handle, timed when tracing.
  net::HttpResponse handle(const net::HttpRequest& request) {
    SpanLog* spans = spans_.load();
    if (spans == nullptr) return service_->handle(request);
    const std::uint64_t job =
        std::strtoull(request.query("req").c_str(), nullptr, 10);
    const Clock::time_point t0 = Clock::now();
    net::HttpResponse response;
    {
      SpanScope span(*spans, "service.handle", job);
      response = service_->handle(request);
    }
    response.headers.emplace_back("X-Bench-Handle-Us",
                                  std::to_string(us_since(t0)));
    return response;
  }

  /// Decodes and checks one response; empty when it is a correct answer.
  static std::string response_error(const net::HttpResponse& response,
                                    api::JobResult& out) {
    if (response.status != 200) {
      return "HTTP " + std::to_string(response.status) + ": " +
             response.body.substr(0, 120);
    }
    out = api::JobResult::from_json(Json::parse(response.body));
    return check_answer(out);
  }

  void teardown() {
    if (server_) server_->shutdown();
    server_.reset();
    service_.reset();
    if (engine_) engine_->drain();
    engine_.reset();
  }

  std::mt19937_64 rng_;
  std::vector<std::size_t> deck_;  ///< kinds left in the current deck
  std::unique_ptr<api::Engine> engine_;
  std::unique_ptr<net::Service> service_;
  std::unique_ptr<net::HttpServer> server_;
  std::atomic<SpanLog*> spans_{nullptr};
};

Window ServiceWorkload::measure(double seconds, SpanLog& spans) {
  const bool traced = spans.enabled();
  const std::vector<Arrival> arrivals = schedule(seconds);
  std::array<std::string, kKinds> bodies;
  for (std::size_t kind = 0; kind < kKinds; ++kind) {
    bodies[kind] = api::job_request_to_json(request(kind, traced)).dump();
  }
  std::vector<Slot> slots(arrivals.size());
  if (traced) spans_.store(&spans);

  // Generator -> sender hand-off. The generator sleeps to each due time
  // and enqueues; kConnections senders each hold one keep-alive
  // connection and post with a long poll, so a response is the full
  // result. Latency counts from the due time, so connection or queue
  // waits a stall imposes on later requests are part of it.
  std::mutex mutex;
  std::condition_variable cv;
  std::deque<std::size_t> ready;
  bool closed = false;
  const Clock::time_point start = Clock::now();
  const auto since_start = [start] { return elapsed_ms(start, Clock::now()); };
  const std::uint16_t port = server_->port();
  const double cpu0 = process_cpu_s();

  const auto sender = [&] {
    net::HttpClient client("127.0.0.1", port);
    while (true) {
      std::size_t index = 0;
      {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [&] { return closed || !ready.empty(); });
        if (ready.empty()) return;
        index = ready.front();
        ready.pop_front();
      }
      Slot& slot = slots[index];
      const std::size_t kind = arrivals[index].kind;
      const std::uint64_t job = index + 1;
      try {
        SpanScope root(spans, "bench.request", job);
        if (traced) {
          slot.samples.add("api.request_decode_us",
                           time_request_decode(bodies[kind], spans, job, root.id()));
        }
        const std::string target =
            traced ? "/v1/jobs?wait_ms=60000&req=" + std::to_string(job)
                   : std::string("/v1/jobs?wait_ms=60000");
        const Clock::time_point r0 = Clock::now();
        net::HttpResponse response;
        {
          SpanScope span(spans, "http_client.post", job, root.id());
          response = client.post(target, bodies[kind]);
        }
        const double round_trip_ms = elapsed_ms(r0, Clock::now());
        slot.done_ms = since_start();
        api::JobResult result;
        {
          SpanScope span(spans, "api.result_decode", job, root.id());
          slot.error = response_error(response, result);
        }
        slot.ok = slot.error.empty();
        if (!traced || !slot.ok) continue;
        // The client's parser lowercases header names.
        for (const auto& [name, value] : response.headers) {
          if (name != "x-bench-handle-us") continue;
          const double handle_ms = std::strtod(value.c_str(), nullptr) / 1000.0;
          slot.samples.add("net.handle_ms_p50", handle_ms);
          slot.samples.add("net.transport_ms_p50", round_trip_ms - handle_ms);
        }
        sample_api_layer(result, spans, job, root.id(), slot.samples);
        if (result.plan) {
          slot.samples.add("runtime.plan_us", result.timings.run_ms * 1000.0);
          slot.samples.add("runtime.crossings", result.plan->crossings);
        } else {
          sample_dft_layers(result, slot.samples);
        }
      } catch (const std::exception& error) {
        slot.ok = false;
        slot.error = error.what();
        slot.done_ms = since_start();
      }
    }
  };

  std::vector<std::thread> senders;
  senders.reserve(kConnections);
  for (std::size_t c = 0; c < kConnections; ++c) senders.emplace_back(sender);
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::milli>(arrivals[i].due_ms)));
    slots[i].enqueued_ms = since_start();
    {
      const std::lock_guard<std::mutex> lock(mutex);
      ready.push_back(i);
    }
    cv.notify_one();
  }
  {
    const std::lock_guard<std::mutex> lock(mutex);
    closed = true;
  }
  cv.notify_all();
  for (std::thread& thread : senders) thread.join();
  spans_.store(nullptr);

  Window window;
  for (std::size_t kind = 0; kind < kKinds; ++kind) {
    window.shares[kKindNames[kind]] =
        static_cast<double>(kDeck[kind]) / static_cast<double>(kDeckSize);
  }
  window.cpu_s = process_cpu_s() - cpu0;
  window.attempted = arrivals.size();
  std::vector<double> lateness;
  double last_done = 0.0;
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const Slot& slot = slots[i];
    const char* kind = kKindNames[arrivals[i].kind];
    lateness.push_back(slot.enqueued_ms - arrivals[i].due_ms);
    last_done = std::max(last_done, slot.done_ms);
    if (!slot.ok) {
      window.fail(std::string(kind) + ": " + slot.error);
      continue;
    }
    window.complete(kind, slot.done_ms - arrivals[i].due_ms);
    window.kinds[kind].merge(slot.samples);
  }
  window.wall_s = last_done / 1000.0;
  const double gap_ms = 1000.0 / kRatePerS;
  const double lateness_p99 = quantile(lateness, 0.99);
  window.valid = lateness_p99 <= gap_ms;
  window.extra["generator_lateness_p99_ms"] = Metric{lateness_p99, "ms"};
  return window;
}

// ----------------------------------------------------------------- main

Options parse_options(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      options.trace = value == "1";
    } else if (flag == "--spec") {
      options.spec = value;
    } else if (flag == "--spans-out") {
      options.spans_out = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!(options.seconds > 0.0)) {
    throw std::invalid_argument("--seconds must be positive");
  }
  if (options.spec.empty()) throw std::invalid_argument("--spec is required");
  return options;
}

Json read_json_file(const std::string& path) {
  std::ifstream file(path);
  if (!file) throw std::runtime_error("cannot read " + path);
  std::ostringstream text;
  text << file.rdbuf();
  return Json::parse(text.str());
}

std::unique_ptr<Workload> make_workload(const Options& options) {
  if (options.workload == "scf_si8") return std::make_unique<ScfWorkload>();
  if (options.workload == "service_mix") {
    return std::make_unique<ServiceWorkload>(options.seed);
  }
  if (options.workload == "sim_si64") return std::make_unique<SimWorkload>();
  throw std::invalid_argument("unknown workload '" + options.workload + "'");
}

Json metrics_json(const Metrics& metrics) {
  Json out = Json::object();
  for (const auto& [name, metric] : metrics) {
    Json entry = Json::object();
    entry.set("value", metric.value);
    entry.set("unit", metric.unit);
    if (metric.exact) entry.set("exact", true);
    out.set(name, std::move(entry));
  }
  return out;
}

/// An untraced window runs in kRounds rounds, each after kSetupReps
/// set-ups; setup_s is the median of all of them. The host's speed
/// changes in stretches of seconds, so set-ups done back to back would all
/// see one stretch and the run's median would follow it.
constexpr int kRounds = 5;
constexpr int kSetupReps = 4;

int run(const Options& options) {
  const Json spec = read_json_file(options.spec);
  std::unique_ptr<Workload> workload = make_workload(options);
  std::vector<double> setups;
  const auto set_up = [&] {
    for (int rep = 0; rep < kSetupReps; ++rep) setups.push_back(workload->setup());
  };

  Json stamp = Json::object();
  stamp.set("workload", options.workload);
  stamp.set("seed", options.seed);
  stamp.set("seconds", options.seconds);
  stamp.set("trace", options.trace);
  stamp.set("pool_threads", ThreadPool::instance().threads());
  stamp.set("nproc", static_cast<std::uint64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
  stamp.set("meta", run_metadata_json());
  workload->stamp(stamp);

  SpanLog untraced(false);
  Window window;
  Metrics out;
  if (!options.trace) {
    for (int round = 0; round < kRounds; ++round) {
      set_up();
      window.merge(workload->measure(options.seconds / kRounds, untraced));
    }
    const std::vector<double> latencies = window.all_latencies();
    // The bounded metrics of BENCHMARK.json. The host's speed changes by
    // up to a third in stretches of seconds, so a run's median latency
    // depends on how much of the run fell in slow stretches; the fastest
    // decile tracks the program itself (perfbench/README.md, Steadiness).
    out = metrics_from_spec(spec, "end_to_end");
    set_metric(out, "setup_s", median(setups));
    set_metric(out, "latency_p10_ms", window.latency_ms(0.1));
    set_metric(out, "throughput_jobs_per_s",
               window.wall_s > 0.0
                   ? static_cast<double>(latencies.size()) / window.wall_s
                   : 0.0);
    set_metric(out, "peak_rss_mb", peak_rss_mb());
    Metrics extra = window.extra;
    extra["latency_p50_ms"] = Metric{window.latency_ms(0.5), "ms"};
    // Tail latency only where a run holds enough samples for it.
    if (latencies.size() >= 100) {
      extra["latency_p90_ms"] = Metric{quantile(latencies, 0.9), "ms"};
    }
    if (window.kinds.size() > 1) {
      for (const auto& [kind, samples] : window.kinds) {
        extra["latency_p50_ms." + kind] = Metric{median(samples.latencies_ms), "ms"};
        extra["latency_p10_ms." + kind] =
            Metric{quantile(samples.latencies_ms, 0.1), "ms"};
      }
    }
    extra["samples"] = Metric{static_cast<double>(latencies.size()), "count"};
    stamp.set("workload_metrics", metrics_json(extra));
  } else {
    // Untraced first for the overhead baseline, then the traced window
    // the per-layer numbers come from.
    set_up();
    const Window baseline = workload->measure(options.seconds * 0.4, untraced);
    SpanLog spans(true);
    window = workload->measure(options.seconds * 0.6, spans);
    out = metrics_from_spec(spec, "per_layer");
    window.set_layers(out);
    const double traced_p50 = window.latency_ms(0.5);
    set_metric(out, "trace.latency_p50_ms", traced_p50);
    set_metric(out, "trace.overhead_ms", traced_p50 - baseline.latency_ms(0.5));
    stamp.set("trace_spans", static_cast<std::uint64_t>(spans.size()));
    if (window.wall_s > 0.0) {
      set_metric(out, "pool.cpu_per_wall", window.cpu_s / window.wall_s);
    }
    window.attempted += baseline.attempted;
    window.failed += baseline.failed;
    window.errors.insert(window.errors.end(), baseline.errors.begin(),
                         baseline.errors.end());
    window.valid = window.valid && baseline.valid;
    if (!options.spans_out.empty()) {
      Json doc = Json::object();
      doc.set("schema", "ndft.perfbench_spans.v1");
      doc.set("stamp", stamp);
      doc.set("spans", spans.to_json());
      std::FILE* file = std::fopen(options.spans_out.c_str(), "w");
      if (file == nullptr) {
        throw std::runtime_error("cannot write " + options.spans_out);
      }
      const std::string text = doc.dump();
      std::fwrite(text.data(), 1, text.size(), file);
      std::fclose(file);
    }
  }

  Json setup_list = Json::array();
  for (const double s : setups) setup_list.push_back(s);
  stamp.set("setups_s", std::move(setup_list));
  stamp.set("valid", window.valid);
  Json errors = Json::array();
  for (const std::string& error : window.errors) errors.push_back(error);
  stamp.set("errors", std::move(errors));
  std::printf("stamp %s\n", stamp.dump().c_str());
  for (const auto& [name, metric] : out) {
    std::printf("  %-36s %.6g %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  }

  const bool correct = window.failed == 0 && window.valid &&
                       !window.all_latencies().empty();
  Json result = Json::object();
  result.set("correct", correct);
  result.set("attempted", window.attempted);
  result.set("failed", window.failed);
  result.set("metrics", metrics_json(out));
  std::printf("%s\n", result.dump().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_options(argc, argv));
  } catch (const std::exception& error) {
    std::fprintf(stderr, "ndft_perfbench: %s\n", error.what());
    return 2;
  }
}
