// google-benchmark microbenchmarks of the from-scratch numerical kernels
// (FFT, GEMM, SYEVD, face-splitting product, pseudopotential apply).
// These measure the functional library itself, not the simulated machines.
//
// Besides the console table, the run writes BENCH_micro.json (kernel name,
// size, ns/op, GFLOP/s where defined) so the perf trajectory of the kernel
// layer can be tracked across commits. The blocked/planned kernels are
// benchmarked side by side with their naive references (gemm_naive here;
// the pre-plan FFT exists only in history).

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/run_metadata.hpp"
#include "dft/basis.hpp"
#include "dft/epm.hpp"
#include "dft/fft.hpp"
#include "dft/lattice.hpp"
#include "dft/linalg.hpp"
#include "dft/pseudopotential.hpp"

using namespace ndft;

namespace {

void set_gflops(benchmark::State& state, double flops_per_iteration) {
  state.counters["GFLOP/s"] = benchmark::Counter(
      flops_per_iteration * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate, benchmark::Counter::kIs1000);
}

void BM_Fft1d(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<dft::Complex> data(n);
  for (std::size_t i = 0; i < n; ++i) {
    data[i] = dft::Complex{std::sin(0.1 * static_cast<double>(i)), 0.0};
  }
  for (auto _ : state) {
    dft::fft(data, dft::FftDirection::kForward);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
  set_gflops(state, static_cast<double>(dft::fft_flops(n)));
}
BENCHMARK(BM_Fft1d)->Arg(256)->Arg(1024)->Arg(4096)->Arg(16384)->Arg(12000);

// Plan amortisation: the same transform through a cached plan and a
// caller-owned workspace (the fft3d inner loop), no per-call setup at all.
void BM_FftPlanned(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const dft::FftPlan& plan = dft::fft_plan(n);
  std::vector<dft::Complex> data(n);
  std::vector<dft::Complex> work(plan.workspace_size());
  for (std::size_t i = 0; i < n; ++i) {
    data[i] = dft::Complex{std::sin(0.1 * static_cast<double>(i)), 0.0};
  }
  for (auto _ : state) {
    plan.execute(data.data(), work.data(), dft::FftDirection::kForward);
    benchmark::DoNotOptimize(data.data());
  }
  set_gflops(state, static_cast<double>(dft::fft_flops(n)));
}
BENCHMARK(BM_FftPlanned)->Arg(256)->Arg(1024)->Arg(4096)->Arg(16384)->Arg(12000);

// Alternating directions keep the grid finite: a forward-only loop
// multiplies it by N per pass and reaches inf/NaN within ~100 passes.
void BM_Fft3d(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  dft::Grid3 grid(n, n, n);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    grid[i] = dft::Complex{static_cast<double>(i % 7), 0.0};
  }
  bool inverse = false;
  for (auto _ : state) {
    dft::fft3d(grid, inverse ? dft::FftDirection::kInverse
                             : dft::FftDirection::kForward);
    inverse = !inverse;
    benchmark::DoNotOptimize(grid.raw().data());
  }
  set_gflops(state, static_cast<double>(dft::fft_flops(grid.size())));
}
// 8 and 15: the grids the Si_8 and Si_64 jobs run.
BENCHMARK(BM_Fft3d)->Arg(8)->Arg(15)->Arg(16)->Arg(24)->Arg(32)->Arg(48)->Arg(96);

template <typename GemmFn>
void gemm_benchmark(benchmark::State& state, GemmFn&& fn) {
  const auto n = static_cast<std::size_t>(state.range(0));
  dft::RealMatrix a(n, n);
  dft::RealMatrix b(n, n);
  dft::RealMatrix c(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      a(i, j) = static_cast<double>((i + j) % 13) * 0.1;
      b(i, j) = static_cast<double>((i * 3 + j) % 7) * 0.2;
    }
  }
  for (auto _ : state) {
    fn(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  set_gflops(state, 2.0 * static_cast<double>(n) * static_cast<double>(n) *
                        static_cast<double>(n));
}

void BM_GemmReal(benchmark::State& state) {
  gemm_benchmark(state, [](const dft::RealMatrix& a, const dft::RealMatrix& b,
                           dft::RealMatrix& c) { dft::gemm(a, b, c); });
}
BENCHMARK(BM_GemmReal)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

void BM_GemmNaive(benchmark::State& state) {
  gemm_benchmark(state,
                 [](const dft::RealMatrix& a, const dft::RealMatrix& b,
                    dft::RealMatrix& c) { dft::gemm_naive(a, b, c); });
}
BENCHMARK(BM_GemmNaive)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

void BM_GemmComplex(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  dft::ComplexMatrix a(n, n);
  dft::ComplexMatrix b(n, n);
  dft::ComplexMatrix c(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      a(i, j) = dft::Complex{static_cast<double>((i + j) % 13) * 0.1,
                             static_cast<double>(i % 3) * 0.05};
      b(i, j) = dft::Complex{static_cast<double>((i * 3 + j) % 7) * 0.2,
                             static_cast<double>(j % 5) * 0.04};
    }
  }
  for (auto _ : state) {
    dft::gemm(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  set_gflops(state, 8.0 * static_cast<double>(n) * static_cast<double>(n) *
                        static_cast<double>(n));
}
BENCHMARK(BM_GemmComplex)->Arg(64)->Arg(128)->Arg(256);

void BM_Syevd(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  dft::RealMatrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      const double v = std::cos(static_cast<double>(i * j + 1));
      m(i, j) = v;
      m(j, i) = v;
    }
  }
  for (auto _ : state) {
    const dft::EigenResult r = dft::syevd(m);
    benchmark::DoNotOptimize(r.eigenvalues.data());
  }
}
BENCHMARK(BM_Syevd)->Arg(64)->Arg(128)->Arg(256);

void BM_FaceSplit(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<dft::Complex> v(n);
  std::vector<dft::Complex> c(n);
  std::vector<dft::Complex> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = dft::Complex{0.3, 0.1 * static_cast<double>(i % 5)};
    c[i] = dft::Complex{0.2, -0.1};
  }
  for (auto _ : state) {
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = std::conj(v[i]) * c[i];
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n) * 48);
}
BENCHMARK(BM_FaceSplit)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

void BM_PseudoApply(benchmark::State& state) {
  const dft::Crystal crystal = dft::Crystal::silicon_supercell(8);
  const dft::PlaneWaveBasis basis(crystal, 1.5);
  const dft::KbProjectors projectors(basis);
  std::vector<dft::Complex> psi(basis.size());
  for (std::size_t i = 0; i < psi.size(); ++i) {
    psi[i] = dft::Complex{1.0 / static_cast<double>(i + 1), 0.0};
  }
  std::vector<dft::Complex> out(psi.size());
  for (auto _ : state) {
    std::fill(out.begin(), out.end(), dft::Complex{});
    projectors.apply(psi, out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_PseudoApply);

/// Console output as usual, plus a flat record of every run for the JSON
/// trajectory file.
class JsonCollectingReporter : public benchmark::ConsoleReporter {
 public:
  struct Entry {
    std::string kernel;
    long size = 0;
    double ns_per_op = 0.0;
    double gflops = 0.0;
    bool has_gflops = false;
  };

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      Entry entry;
      const std::string name = run.benchmark_name();
      const std::size_t slash = name.find('/');
      entry.kernel = name.substr(0, slash);
      if (slash != std::string::npos) {
        entry.size = std::strtol(name.c_str() + slash + 1, nullptr, 10);
      }
      // Default time unit is nanoseconds, so this is ns per iteration.
      entry.ns_per_op = run.GetAdjustedRealTime();
      const auto counter = run.counters.find("GFLOP/s");
      if (counter != run.counters.end()) {
        entry.gflops = counter->second / 1e9;
        entry.has_gflops = true;
      }
      entries.push_back(entry);
    }
    ConsoleReporter::ReportRuns(runs);
  }

  std::vector<Entry> entries;
};

bool write_json(const char* path,
                const std::vector<JsonCollectingReporter::Entry>& entries) {
  ndft::Json bench = ndft::Json::object();
  bench.set("bench", "micro_kernels");
  bench.set("meta", ndft::run_metadata_json());
  ndft::Json list = ndft::Json::array();
  for (const auto& e : entries) {
    ndft::Json entry = ndft::Json::object();
    entry.set("kernel", e.kernel);
    entry.set("size", e.size);
    entry.set("ns_per_op", e.ns_per_op);
    if (e.has_gflops) {
      entry.set("gflops", e.gflops);
    }
    list.push_back(std::move(entry));
  }
  bench.set("kernels", std::move(list));
  return ndft::write_bench_json(path, bench);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  JsonCollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  const char* path = "BENCH_micro.json";
  if (write_json(path, reporter.entries)) {
    std::printf("wrote %zu kernel records to %s\n", reporter.entries.size(),
                path);
  } else {
    std::fprintf(stderr, "failed to write %s\n", path);
    return 1;
  }
  return 0;
}
