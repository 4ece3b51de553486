// Eigensolver microbenchmark: the full-spectrum SYEVD (syevd: band
// reduction, bulge chase, divide-and-conquer) against the serial
// reference (syevd_naive), plus the partial-spectrum solver
// (syevd_partial, lowest n/8 pairs) against the full solve, across
// problem sizes and pool widths, plus syevd_partial at the physics
// callers' shapes with its reduce / tridiag / backtransform stage split,
// plus the other kernels the Si_8 jobs spend their time in: fft3d
// forward+inverse pairs on the 8^3 and 15^3 job grids and the LR-TDDFT
// kernels' 64x64x512 complex GEMM, at pool widths 1 and 2. Results go to
// BENCH_eig.json for cross-commit tracking; docs/PERF.md quotes a
// snapshot.
//
// Pool widths are interleaved: each rep visits every width of a size
// once, in an order rotated per rep, so host drift over the sweep lands
// on every width alike. Each visit resizes the pool and makes one
// untimed window solve before its timed ones. Every configuration is
// reported as the median of its five reps (21 for the production
// shapes, whose solves take a few ms).
//
// Modes:
//   bench_micro_eig            full sweep: n in {64..1024}, threads {1,2,4,8}
//   bench_micro_eig --smoke    n in {128, 256}, threads {1,2}; exits
//                              nonzero if the spectra disagree, syevd
//                              is slower than the reference at n=128,
//                              or the partial solver is slower than the
//                              full solve (the ctest kernel tier's
//                              bench_micro_eig_smoke)

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/prng.hpp"
#include "common/run_metadata.hpp"
#include "common/str_util.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "dft/fft.hpp"
#include "dft/linalg.hpp"

using namespace ndft;

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kReps = 5;

dft::RealMatrix random_symmetric(std::size_t n, std::uint64_t seed) {
  Prng prng(seed);
  dft::RealMatrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      const double v = prng.next_double(-1.0, 1.0);
      m(i, j) = v;
      m(j, i) = v;
    }
  }
  return m;
}

template <typename Fn>
double time_ms(Fn&& fn) {
  const Clock::time_point start = Clock::now();
  fn();
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Runs `reps` rounds; round r resizes the pool to every width once,
/// starting at widths[r % widths.size()], and calls visit(width index).
template <typename Visit>
void interleaved(const std::vector<std::size_t>& widths, int reps,
                 Visit&& visit) {
  ThreadPool& pool = ThreadPool::instance();
  for (int r = 0; r < reps; ++r) {
    for (std::size_t j = 0; j < widths.size(); ++j) {
      const std::size_t w = (static_cast<std::size_t>(r) + j) % widths.size();
      pool.resize(widths[w]);
      visit(w);
    }
  }
}

struct ThreadSample {
  std::size_t threads = 0;
  double ms = 0.0;       ///< syevd
  double speedup = 0.0;  ///< naive_ms / ms
};

struct PartialSample {
  std::size_t threads = 0;
  double ms = 0.0;
  double speedup_vs_full = 0.0;  ///< full ms / partial ms
};

/// syevd_partial at one pool width: wall time and the stage split from
/// linalg_stage_times(), each the median over the reps.
struct StageSample {
  std::size_t threads = 0;
  double ms = 0.0;
  double reduce_ms = 0.0;
  double tridiag_ms = 0.0;
  double backtransform_ms = 0.0;
};

/// The partial-solve shapes the physics callers run: the Si_8 SCF window
/// (n=179 plane waves, m=24 bands) and the default band job's k-point
/// solve (n=137, m=8).
struct ProductionSample {
  std::size_t n = 0;
  std::size_t m = 0;
  std::vector<StageSample> runs;
  double max_eigenvalue_diff = 0.0;  ///< vs syevd on the window
};
constexpr std::size_t kProductionShapes[][2] = {{179, 24}, {137, 8}};
constexpr int kProductionReps = 21;

/// A job kernel timed per call: median over the reps of a batch of calls.
/// FFTs run as forward+inverse pairs, which keep the grid finite (a
/// forward-only loop overflows to inf/NaN within ~100 passes, and a
/// non-finite complex product can take a far slower path).
struct KernelSample {
  std::string kernel;
  std::size_t dims[3] = {0, 0, 0};
  std::size_t calls = 0;  ///< calls per timed rep
  std::vector<std::pair<std::size_t, double>> us;  ///< (threads, us/call)
};
constexpr int kKernelReps = 21;
const std::vector<std::size_t> kKernelWidths = {1, 2};

/// Times `call` per invocation at each of kKernelWidths, interleaved:
/// every visit makes one untimed call, then `calls` timed ones.
template <typename Call>
KernelSample time_kernel(const char* kernel,
                         std::array<std::size_t, 3> dims, std::size_t calls,
                         Call&& call) {
  KernelSample sample;
  sample.kernel = kernel;
  std::copy(dims.begin(), dims.end(), sample.dims);
  sample.calls = calls;
  std::vector<std::vector<double>> t(kKernelWidths.size());
  interleaved(kKernelWidths, kKernelReps, [&](std::size_t w) {
    call();
    t[w].push_back(1e3 * time_ms([&] {
                     for (std::size_t c = 0; c < calls; ++c) call();
                   }) /
                   static_cast<double>(calls));
  });
  for (std::size_t w = 0; w < kKernelWidths.size(); ++w) {
    sample.us.emplace_back(kKernelWidths[w], median(t[w]));
  }
  return sample;
}

struct SizeSample {
  std::size_t n = 0;
  std::size_t partial_m = 0;  ///< lowest-pair window of the partial runs
  double naive_ms = 0.0;
  std::vector<ThreadSample> blocked;
  std::vector<PartialSample> partial;
  double max_eigenvalue_diff = 0.0;  ///< syevd vs naive, sanity check
  double max_partial_diff = 0.0;     ///< partial vs naive on the window
};

}  // namespace

int main(int argc, char** argv) try {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  const std::vector<std::size_t> sizes =
      smoke ? std::vector<std::size_t>{128, 256}
            : std::vector<std::size_t>{64, 128, 256, 512, 1024};
  const std::vector<std::size_t> thread_sweep =
      smoke ? std::vector<std::size_t>{1, 2}
            : std::vector<std::size_t>{1, 2, 4, 8};

  ThreadPool& pool = ThreadPool::instance();
  const std::size_t original_threads = pool.threads();

  std::printf(
      "SYEVD microbenchmark: syevd and syevd_partial vs serial reference%s\n\n",
      smoke ? " (smoke)" : "");

  std::vector<SizeSample> samples;
  for (const std::size_t n : sizes) {
    const dft::RealMatrix m = random_symmetric(n, 1000 + n);
    SizeSample sample;
    sample.n = n;

    // One untimed reference solve up front: the sweep diffs spectra
    // against it. The timed naive runs come after the sweep - seconds
    // of serial QL right before the single-thread comparison loop heats
    // the core and deflates sustained turbo, which biased the recorded
    // solver times by ~10%.
    pool.resize(1);
    const dft::EigenResult naive = dft::syevd_naive(m);

    // The low-band window the physics consumers ask for: n/8 pairs (64
    // of 512 is the headline SCF/EPM shape), at least one.
    sample.partial_m = std::max<std::size_t>(1, n / 8);
    std::vector<std::vector<double>> t_full(thread_sweep.size());
    std::vector<std::vector<double>> t_part(thread_sweep.size());
    interleaved(thread_sweep, kReps, [&](std::size_t w) {
      (void)dft::syevd_partial(m, sample.partial_m);  // warmup
      dft::EigenResult blocked;
      t_full[w].push_back(time_ms([&] { blocked = dft::syevd(m); }));
      dft::EigenResult partial;
      t_part[w].push_back(
          time_ms([&] { partial = dft::syevd_partial(m, sample.partial_m); }));
      for (std::size_t i = 0; i < n; ++i) {
        sample.max_eigenvalue_diff =
            std::max(sample.max_eigenvalue_diff,
                     std::fabs(blocked.eigenvalues[i] - naive.eigenvalues[i]));
      }
      for (std::size_t i = 0; i < sample.partial_m; ++i) {
        sample.max_partial_diff =
            std::max(sample.max_partial_diff,
                     std::fabs(partial.eigenvalues[i] - naive.eigenvalues[i]));
      }
    });
    for (std::size_t w = 0; w < thread_sweep.size(); ++w) {
      ThreadSample ts;
      ts.threads = thread_sweep[w];
      ts.ms = median(t_full[w]);
      sample.blocked.push_back(ts);
      PartialSample ps;
      ps.threads = thread_sweep[w];
      ps.ms = median(t_part[w]);
      ps.speedup_vs_full = ps.ms > 0.0 ? ts.ms / ps.ms : 0.0;
      sample.partial.push_back(ps);
    }

    // The reference path is serial; one thread keeps the pool out of it.
    pool.resize(1);
    {
      std::vector<double> t(kReps);
      for (int r = 0; r < kReps; ++r) {
        t[r] = time_ms([&] { dft::syevd_naive(m); });
      }
      sample.naive_ms = median(t);
    }
    for (ThreadSample& t : sample.blocked) {
      t.speedup = t.ms > 0.0 ? sample.naive_ms / t.ms : 0.0;
    }
    samples.push_back(std::move(sample));
  }

  std::vector<ProductionSample> production;
  for (const auto& shape : kProductionShapes) {
    ProductionSample sample;
    sample.n = shape[0];
    sample.m = shape[1];
    const dft::RealMatrix m = random_symmetric(sample.n, 1000 + sample.n);
    const dft::EigenResult full = dft::syevd(m);
    struct StageReps {
      std::vector<double> ms, reduce, tridiag, backtransform;
    };
    std::vector<StageReps> reps(thread_sweep.size());
    interleaved(thread_sweep, kProductionReps, [&](std::size_t w) {
      dft::EigenResult partial = dft::syevd_partial(m, sample.m);  // warmup
      dft::linalg_timer_reset();
      reps[w].ms.push_back(
          time_ms([&] { partial = dft::syevd_partial(m, sample.m); }));
      const dft::LinalgStageTimes stages = dft::linalg_stage_times();
      reps[w].reduce.push_back(stages.reduce_ms);
      reps[w].tridiag.push_back(stages.tridiag_ms);
      reps[w].backtransform.push_back(stages.backtransform_ms);
      for (std::size_t i = 0; i < sample.m; ++i) {
        sample.max_eigenvalue_diff =
            std::max(sample.max_eigenvalue_diff,
                     std::fabs(partial.eigenvalues[i] - full.eigenvalues[i]));
      }
    });
    for (std::size_t w = 0; w < thread_sweep.size(); ++w) {
      sample.runs.push_back({thread_sweep[w], median(reps[w].ms),
                             median(reps[w].reduce), median(reps[w].tridiag),
                             median(reps[w].backtransform)});
    }
    production.push_back(std::move(sample));
  }

  std::vector<KernelSample> kernels;
  for (const std::size_t n : {8, 15}) {
    dft::Grid3 grid(n, n, n);
    Prng prng(2000 + n);
    for (std::size_t i = 0; i < grid.size(); ++i) {
      grid[i] = dft::Complex{prng.next_double(-1, 1), prng.next_double(-1, 1)};
    }
    kernels.push_back(
        time_kernel("fft3d_pair", {n, n, n}, n == 8 ? 400 : 40, [&] {
          dft::fft3d(grid, dft::FftDirection::kForward);
          dft::fft3d(grid, dft::FftDirection::kInverse);
        }));
  }
  {
    // K_H / K_xc: C (64 x 64) = A (64 x 512) B^T into a sized C.
    dft::ComplexMatrix a(64, 512);
    dft::ComplexMatrix b(64, 512);
    Prng prng(3000);
    for (dft::ComplexMatrix* matrix : {&a, &b}) {
      for (std::size_t i = 0; i < 64; ++i) {
        for (std::size_t j = 0; j < 512; ++j) {
          (*matrix)(i, j) =
              dft::Complex{prng.next_double(-1, 1), prng.next_double(-1, 1)};
        }
      }
    }
    dft::ComplexMatrix c(64, 64);
    kernels.push_back(time_kernel("gemm_complex", {64, 64, 512}, 20, [&] {
      dft::gemm(a, b, c, dft::Complex{1.0, 0.0}, dft::Complex{}, false, true);
    }));
  }

  pool.resize(original_threads);

  TextTable table({"n", "naive", "threads", "syevd", "vs naive",
                   "partial(m=n/8)", "vs full", "max |dlambda|"});
  for (const SizeSample& s : samples) {
    for (std::size_t i = 0; i < s.blocked.size(); ++i) {
      const ThreadSample& t = s.blocked[i];
      const PartialSample& p = s.partial[i];
      table.add_row({strformat("%zu", s.n),
                     strformat("%.1f ms", s.naive_ms),
                     strformat("%zu", t.threads),
                     strformat("%.1f ms", t.ms),
                     strformat("%.2fx", t.speedup),
                     strformat("%.1f ms", p.ms),
                     strformat("%.2fx", p.speedup_vs_full),
                     strformat("%.1e", std::max(s.max_eigenvalue_diff,
                                                s.max_partial_diff))});
    }
  }
  std::printf("%s\n", table.render().c_str());
  TextTable stage_table({"n", "m", "threads", "partial", "reduce",
                         "tridiag", "backtransform"});
  for (const ProductionSample& s : production) {
    for (const StageSample& r : s.runs) {
      stage_table.add_row({strformat("%zu", s.n), strformat("%zu", s.m),
                           strformat("%zu", r.threads),
                           strformat("%.2f ms", r.ms),
                           strformat("%.2f ms", r.reduce_ms),
                           strformat("%.2f ms", r.tridiag_ms),
                           strformat("%.2f ms", r.backtransform_ms)});
    }
  }
  std::printf("syevd_partial at the production shapes (median of %d):\n%s\n",
              kProductionReps, stage_table.render().c_str());
  TextTable kernel_table({"kernel", "dims", "threads", "per call"});
  for (const KernelSample& k : kernels) {
    for (const auto& [threads, us] : k.us) {
      kernel_table.add_row(
          {k.kernel, strformat("%zux%zux%zu", k.dims[0], k.dims[1], k.dims[2]),
           strformat("%zu", threads), strformat("%.1f us", us)});
    }
  }
  std::printf("job kernels (median of %d):\n%s\n", kKernelReps,
              kernel_table.render().c_str());

  Json bench = Json::object();
  bench.set("bench", "eig_syevd");
  bench.set("meta", run_metadata_json());
  bench.set("reps", static_cast<std::size_t>(kReps));
  Json entries = Json::array();
  for (const SizeSample& s : samples) {
    Json entry = Json::object();
    entry.set("n", s.n);
    entry.set("naive_ms", s.naive_ms);
    entry.set("max_eigenvalue_diff", s.max_eigenvalue_diff);
    Json runs = Json::array();
    for (const ThreadSample& t : s.blocked) {
      Json run = Json::object();
      run.set("threads", t.threads);
      run.set("ms", t.ms);
      run.set("speedup", t.speedup);
      runs.push_back(std::move(run));
    }
    entry.set("blocked", std::move(runs));
    entry.set("partial_m", s.partial_m);
    entry.set("max_partial_eigenvalue_diff", s.max_partial_diff);
    Json partial_runs = Json::array();
    for (const PartialSample& p : s.partial) {
      Json run = Json::object();
      run.set("threads", p.threads);
      run.set("ms", p.ms);
      run.set("speedup_vs_full", p.speedup_vs_full);
      partial_runs.push_back(std::move(run));
    }
    entry.set("partial", std::move(partial_runs));
    entries.push_back(std::move(entry));
  }
  bench.set("sizes", std::move(entries));
  Json production_entries = Json::array();
  for (const ProductionSample& s : production) {
    Json entry = Json::object();
    entry.set("n", s.n);
    entry.set("m", s.m);
    entry.set("reps", static_cast<std::size_t>(kProductionReps));
    entry.set("max_eigenvalue_diff", s.max_eigenvalue_diff);
    Json runs = Json::array();
    for (const StageSample& r : s.runs) {
      Json run = Json::object();
      run.set("threads", r.threads);
      run.set("ms", r.ms);
      run.set("reduce_ms", r.reduce_ms);
      run.set("tridiag_ms", r.tridiag_ms);
      run.set("backtransform_ms", r.backtransform_ms);
      runs.push_back(std::move(run));
    }
    entry.set("runs", std::move(runs));
    production_entries.push_back(std::move(entry));
  }
  bench.set("production", std::move(production_entries));
  Json kernel_entries = Json::array();
  for (const KernelSample& k : kernels) {
    Json entry = Json::object();
    entry.set("kernel", k.kernel);
    Json dims = Json::array();
    for (const std::size_t d : k.dims) dims.push_back(Json(d));
    entry.set("dims", std::move(dims));
    entry.set("reps", static_cast<std::size_t>(kKernelReps));
    entry.set("calls_per_rep", k.calls);
    Json runs = Json::array();
    for (const auto& [threads, us] : k.us) {
      Json run = Json::object();
      run.set("threads", threads);
      run.set("us", us);
      runs.push_back(std::move(run));
    }
    entry.set("runs", std::move(runs));
    kernel_entries.push_back(std::move(entry));
  }
  bench.set("kernels", std::move(kernel_entries));
  const char* path = "BENCH_eig.json";
  if (write_bench_json(path, bench)) {
    std::printf("wrote %zu size records to %s\n", samples.size(), path);
  } else {
    std::fprintf(stderr, "could not write %s\n", path);
  }

  for (const SizeSample& s : samples) {
    if (s.max_eigenvalue_diff > 1e-8) {
      std::fprintf(stderr, "FAIL: syevd/naive spectra disagree at n=%zu\n",
                   s.n);
      return 1;
    }
    if (s.max_partial_diff > 1e-8) {
      std::fprintf(stderr,
                   "FAIL: partial/naive spectra disagree on the lowest "
                   "%zu pairs at n=%zu\n",
                   s.partial_m, s.n);
      return 1;
    }
  }
  for (const ProductionSample& s : production) {
    if (s.max_eigenvalue_diff > 1e-8) {
      std::fprintf(stderr,
                   "FAIL: partial/full spectra disagree on the lowest %zu "
                   "pairs at n=%zu\n",
                   s.m, s.n);
      return 1;
    }
  }
  if (smoke) {
    // Gate 1: at n=128 syevd must not lose to the serial reference at
    // any swept thread count's best.
    const SizeSample& s128 = samples[0];
    double best = s128.blocked[0].ms;
    for (const ThreadSample& t : s128.blocked) best = std::min(best, t.ms);
    if (best > s128.naive_ms) {
      std::fprintf(stderr,
                   "FAIL: syevd slower than reference at n=128 "
                   "(%.1f ms vs %.1f ms)\n",
                   best, s128.naive_ms);
      return 1;
    }
    // Gate 2: the partial solver must not lose to the full solve.
    double best_partial = s128.partial[0].ms;
    for (const PartialSample& p : s128.partial) {
      best_partial = std::min(best_partial, p.ms);
    }
    if (best_partial > best) {
      std::fprintf(stderr,
                   "FAIL: partial SYEVD (m=%zu) slower than the full "
                   "solve at n=128 (%.1f ms vs %.1f ms)\n",
                   s128.partial_m, best_partial, best);
      return 1;
    }
    std::printf(
        "smoke OK: syevd %.1f ms <= naive %.1f ms at n=128, "
        "partial(m=%zu) %.1f ms <= full %.1f ms\n",
        best, s128.naive_ms, s128.partial_m, best_partial, best);
  }
  return 0;
} catch (const NdftError& error) {
  std::fprintf(stderr, "micro_eig: %s\n", error.what());
  return 1;
}
