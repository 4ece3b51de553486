// Unit tests for the common substrate: PRNG, math helpers, units/clocks,
// string formatting and the table printer.

#include <gtest/gtest.h>

#if defined(__linux__)
#include <sched.h>
#endif

#include <array>
#include <atomic>
#include <chrono>
#include <future>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/math_util.hpp"
#include "common/prng.hpp"
#include "common/str_util.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "common/types.hpp"
#include "common/units.hpp"

namespace ndft {
namespace {

TEST(PrngTest, DeterministicForSameSeed) {
  Prng a(42);
  Prng b(42);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(PrngTest, DifferentSeedsDiverge) {
  Prng a(1);
  Prng b(2);
  int differing = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() != b.next_u64()) ++differing;
  }
  EXPECT_GT(differing, 95);
}

TEST(PrngTest, NextBelowStaysInRange) {
  Prng prng(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 17ull, 1000ull, 1ull << 30}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(prng.next_below(bound), bound);
    }
  }
}

TEST(PrngTest, NextBelowHandlesLargeBounds) {
  Prng prng(9);
  const std::uint64_t bound = (1ull << 40) + 12345;
  for (int i = 0; i < 100; ++i) {
    EXPECT_LT(prng.next_below(bound), bound);
  }
}

TEST(PrngTest, DoubleInUnitInterval) {
  Prng prng(3);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double x = prng.next_double();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
    sum += x;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);  // uniform mean
}

TEST(PrngTest, NormalHasUnitVarianceRoughly) {
  Prng prng(11);
  double sum = 0.0;
  double sum2 = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = prng.next_normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum2 / n, 1.0, 0.1);
}

TEST(PrngTest, BernoulliMatchesProbability) {
  Prng prng(13);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    if (prng.next_bool(0.3)) ++hits;
  }
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(MathUtilTest, CeilDiv) {
  EXPECT_EQ(ceil_div<std::uint64_t>(0, 4), 0u);
  EXPECT_EQ(ceil_div<std::uint64_t>(1, 4), 1u);
  EXPECT_EQ(ceil_div<std::uint64_t>(4, 4), 1u);
  EXPECT_EQ(ceil_div<std::uint64_t>(5, 4), 2u);
}

TEST(MathUtilTest, RoundUp) {
  EXPECT_EQ(round_up<std::uint64_t>(0, 64), 0u);
  EXPECT_EQ(round_up<std::uint64_t>(1, 64), 64u);
  EXPECT_EQ(round_up<std::uint64_t>(64, 64), 64u);
  EXPECT_EQ(round_up<std::uint64_t>(65, 64), 128u);
}

TEST(MathUtilTest, PowersOfTwo) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(64));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(48));
  EXPECT_EQ(log2_exact(1), 0u);
  EXPECT_EQ(log2_exact(4096), 12u);
  EXPECT_EQ(log2_floor(5), 2u);
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(4096), 4096u);
}

TEST(MathUtilTest, BitsExtraction) {
  EXPECT_EQ(bits(0b1101100, 2, 3), 0b011u);
  EXPECT_EQ(bits(0xFF00, 8, 8), 0xFFu);
  EXPECT_EQ(bits(0, 5, 7), 0u);
}

TEST(MathUtilTest, RelativeDifference) {
  EXPECT_DOUBLE_EQ(relative_difference(1.0, 1.0), 0.0);
  EXPECT_NEAR(relative_difference(1.0, 1.1), 0.0909, 1e-3);
  EXPECT_TRUE(approx_equal(1.0, 1.0 + 1e-12));
  EXPECT_FALSE(approx_equal(1.0, 1.1));
}

TEST(ClockTest, PeriodAndConversion) {
  const Clock clock(2000);  // 2 GHz
  EXPECT_EQ(clock.period_ps(), 500u);
  EXPECT_EQ(clock.to_ps(4), 2000u);
  EXPECT_EQ(clock.to_cycles(2400), 4u);
}

TEST(ClockTest, NextEdgeRoundsUp) {
  const Clock clock(1000);  // 1 GHz, 1000 ps period
  EXPECT_EQ(clock.next_edge(0), 0u);
  EXPECT_EQ(clock.next_edge(1), 1000u);
  EXPECT_EQ(clock.next_edge(1000), 1000u);
  EXPECT_EQ(clock.next_edge(1001), 2000u);
}

TEST(ClockTest, RejectsZeroFrequency) {
  EXPECT_THROW(Clock(0), NdftError);
}

TEST(UnitsTest, ByteLiterals) {
  EXPECT_EQ(4_KiB, 4096u);
  EXPECT_EQ(1_MiB, 1048576u);
  EXPECT_EQ(2_GiB, 2147483648ull);
}

TEST(UnitsTest, TransferTime) {
  // 1 GB at 1 GB/s = 1 second = 1e12 ps.
  EXPECT_NEAR(static_cast<double>(transfer_time_ps(1000000000ull, 1.0)),
              1e12, 1e9);
  // 64 B at 64 GB/s = 1 ns.
  EXPECT_EQ(transfer_time_ps(64, 64.0), 1000u);
}

TEST(StrUtilTest, Formatting) {
  EXPECT_EQ(strformat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(4096), "4.00 KiB");
  EXPECT_EQ(format_speedup(2.5), "2.50x");
  EXPECT_EQ(format_percent(0.5515), "55.15 %");
}

TEST(StrUtilTest, FormatTimeUnits) {
  EXPECT_EQ(format_time(500), "500 ps");
  EXPECT_EQ(format_time(1500), "1.50 ns");
  EXPECT_EQ(format_time(2500000), "2.50 us");
  EXPECT_EQ(format_time(3 * kPsPerMs), "3.00 ms");
  EXPECT_EQ(format_time(2 * kPsPerSec), "2.000 s");
}

TEST(StrUtilTest, JoinAndPad) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(pad_right("ab", 4), "ab  ");
  EXPECT_EQ(pad_right("abcdef", 3), "abc");
}

TEST(TextTableTest, RendersAlignedColumns) {
  TextTable table({"name", "value"});
  table.add_row({"x", "1"});
  table.add_row({"longer", "22"});
  const std::string out = table.render();
  EXPECT_NE(out.find("name    value"), std::string::npos);
  EXPECT_NE(out.find("longer  22"), std::string::npos);
  EXPECT_EQ(table.row_count(), 2u);
}

TEST(TextTableTest, RejectsMismatchedRow) {
  TextTable table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), NdftError);
}

TEST(TextTableTest, CsvEscapesSpecials) {
  TextTable table({"k", "v"});
  table.add_row({"a,b", "say \"hi\""});
  const std::string csv = table.render_csv();
  EXPECT_NE(csv.find("\"a,b\""), std::string::npos);
  EXPECT_NE(csv.find("\"say \"\"hi\"\"\""), std::string::npos);
}

TEST(ErrorTest, AssertMacroThrows) {
  EXPECT_THROW([] { NDFT_ASSERT(1 == 2); }(), NdftError);
  EXPECT_NO_THROW([] { NDFT_ASSERT(1 == 1); }());
  EXPECT_THROW([] { NDFT_REQUIRE(false, "nope"); }(), NdftError);
}

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  ThreadPool& pool = ThreadPool::instance();
  const std::size_t original_threads = pool.threads();
  pool.resize(4);
  const std::size_t n = 100000;
  std::vector<int> hits(n, 0);
  parallel_for(0, n, 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) ++hits[i];
  });
  pool.resize(original_threads);
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0),
            static_cast<int>(n));
  EXPECT_TRUE(std::all_of(hits.begin(), hits.end(),
                          [](int h) { return h == 1; }));
}

TEST(ThreadPoolTest, SmallRangesRunInline) {
  // A range at or below the grain must execute as one chunk on the
  // calling thread.
  std::atomic<int> calls{0};
  parallel_for(10, 20, 16, [&](std::size_t lo, std::size_t hi) {
    EXPECT_EQ(lo, 10u);
    EXPECT_EQ(hi, 20u);
    ++calls;
  });
  EXPECT_EQ(calls.load(), 1);
}

TEST(ThreadPoolTest, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadPool& pool = ThreadPool::instance();
  const std::size_t original_threads = pool.threads();
  pool.resize(4);
  std::vector<int> hits(4096, 0);
  parallel_for(0, 8, 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t outer = lo; outer < hi; ++outer) {
      parallel_for(0, 512, 1, [&](std::size_t ilo, std::size_t ihi) {
        for (std::size_t i = ilo; i < ihi; ++i) ++hits[outer * 512 + i];
      });
    }
  });
  pool.resize(original_threads);
  EXPECT_TRUE(std::all_of(hits.begin(), hits.end(),
                          [](int h) { return h == 1; }));
}

TEST(ThreadPoolTest, EnvThreadCountParsesStrictly) {
  // Well-formed positive integers pass through.
  EXPECT_EQ(thread_count_from_env("1"), 1u);
  EXPECT_EQ(thread_count_from_env("8"), 8u);
  EXPECT_EQ(thread_count_from_env("512"), 512u);
  // Regression: strtol's longest-prefix parse used to accept trailing
  // garbage ("8x" ran with 8 threads). Malformed values must be
  // rejected (0 = fall back to hardware concurrency).
  EXPECT_EQ(thread_count_from_env("8x"), 0u);
  EXPECT_EQ(thread_count_from_env("x8"), 0u);
  EXPECT_EQ(thread_count_from_env("8 "), 0u);
  EXPECT_EQ(thread_count_from_env("3.5"), 0u);
  EXPECT_EQ(thread_count_from_env(""), 0u);
  EXPECT_EQ(thread_count_from_env(nullptr), 0u);
  EXPECT_EQ(thread_count_from_env("0"), 0u);
  EXPECT_EQ(thread_count_from_env("-4"), 0u);
}

TEST(ThreadPoolTest, EnvThreadCountClampsAbsurdValues) {
  bool clamped = false;
  EXPECT_EQ(thread_count_from_env("100000", &clamped), kMaxPoolThreads);
  EXPECT_TRUE(clamped);
  // Overflowing strtol entirely still clamps rather than wrapping.
  clamped = false;
  EXPECT_EQ(thread_count_from_env("99999999999999999999999", &clamped),
            kMaxPoolThreads);
  EXPECT_TRUE(clamped);
  EXPECT_EQ(thread_count_from_env("-99999999999999999999999"), 0u);
  // In-range values do not report a clamp.
  clamped = true;
  EXPECT_EQ(thread_count_from_env("2", &clamped), 2u);
  EXPECT_FALSE(clamped);
}

TEST(ThreadPoolTest, PropagatesExceptions) {
  ThreadPool& pool = ThreadPool::instance();
  const std::size_t original_threads = pool.threads();
  pool.resize(2);
  EXPECT_THROW(
      parallel_for(0, 10000, 1,
                   [&](std::size_t lo, std::size_t) {
                     if (lo == 0) throw NdftError("boom");
                   }),
      NdftError);
  pool.resize(original_threads);
}

TEST(ThreadPoolTest, JoinCloseStressKeepsEveryContract) {
  // Regions end as soon as their chunks are drained, while late workers
  // may still be waking; every contract must hold across that hand-off.
  ThreadPool& pool = ThreadPool::instance();
  const std::size_t original_threads = pool.threads();
  for (const std::size_t width : {2u, 4u, 8u}) {
    SCOPED_TRACE("width " + std::to_string(width));
    pool.resize(width);
    Prng rng(0x9001 + width);

    // Every index runs exactly once, in grain-sized and long regions; some
    // regions throw from one chunk, which must reach the caller after
    // every other chunk has run.
    for (int region = 0; region < 400; ++region) {
      const std::size_t grain = 1 + rng.next_below(64);
      const bool long_region = region % 8 == 0;
      const std::size_t range =
          long_region ? grain * (32 + rng.next_below(160))
                      : grain + 1 + rng.next_below(grain);
      const std::size_t begin = rng.next_below(1000);
      const bool throws = region % 5 == 0;
      const std::size_t throw_at = begin + rng.next_below(range);
      std::vector<unsigned char> hits(range, 0);
      std::atomic<std::uint64_t> sink{0};
      auto body = [&](std::size_t lo, std::size_t hi) {
        std::uint64_t work = lo;
        for (std::size_t i = lo; i < hi; ++i) {
          ++hits[i - begin];
          if (long_region) {
            for (int step = 0; step < 64; ++step) work = work * 31 + step;
          }
        }
        sink.fetch_add(work, std::memory_order_relaxed);
        if (throws && lo <= throw_at && throw_at < hi) {
          throw NdftError("chunk failed");
        }
      };
      if (throws) {
        EXPECT_THROW(parallel_for(begin, begin + range, grain, body),
                     NdftError);
      } else {
        parallel_for(begin, begin + range, grain, body);
      }
      ASSERT_TRUE(std::all_of(hits.begin(), hits.end(),
                              [](unsigned char h) { return h == 1; }))
          << "region " << region << " range " << range << " grain "
          << grain;
    }

    // Three top-level callers at once: one region at a time gets the
    // workers and the others run inline, so every index of every caller's
    // regions still runs exactly once.
    constexpr int kCallers = 3;
    std::atomic<int> miscounted{0};
    std::atomic<int> regions{0};
    std::vector<std::thread> callers;
    for (int caller = 0; caller < kCallers; ++caller) {
      callers.emplace_back([&, caller] {
        Prng caller_rng(0x77 + caller * 13 + width);
        for (int region = 0; region < 60; ++region) {
          const std::size_t grain = 1 + caller_rng.next_below(16);
          const std::size_t range = grain * (2 + caller_rng.next_below(24));
          std::vector<unsigned char> hits(range, 0);
          parallel_for(0, range, grain, [&](std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i) ++hits[i];
          });
          if (!std::all_of(hits.begin(), hits.end(),
                           [](unsigned char h) { return h == 1; })) {
            miscounted.fetch_add(1);
          }
          regions.fetch_add(1);
        }
      });
    }
    for (std::thread& caller : callers) caller.join();
    EXPECT_EQ(miscounted.load(), 0);
    EXPECT_EQ(regions.load(), kCallers * 60);

    // resize() straight after a burst of tiny regions, while workers the
    // burst woke may still be on their way back to sleep.
    for (int burst = 0; burst < 10; ++burst) {
      std::atomic<int> runs{0};
      for (int region = 0; region < 200; ++region) {
        parallel_for(0, 2, 1, [&](std::size_t lo, std::size_t hi) {
          runs.fetch_add(static_cast<int>(hi - lo));
        });
      }
      EXPECT_EQ(runs.load(), 400);
      pool.resize(burst % 2 == 0 ? width : width / 2);
    }
    EXPECT_EQ(pool.threads(), width / 2);
  }
  pool.resize(original_threads);
}

TEST(ThreadPoolTest, SecondCallerCompletesWhileFirstRegionIsBlocked) {
  // The first caller's region holds the pool until the latch opens; a
  // second caller's region must complete meanwhile instead of waiting for
  // it.
  ThreadPool& pool = ThreadPool::instance();
  const std::size_t original_threads = pool.threads();
  pool.resize(2);
  std::promise<void> entered;
  std::promise<void> latch;
  std::shared_future<void> open = latch.get_future().share();
  std::atomic<bool> entered_once{false};
  std::thread first([&] {
    parallel_for(0, 8, 1, [&](std::size_t, std::size_t) {
      if (!entered_once.exchange(true)) entered.set_value();
      open.wait();
    });
  });
  entered.get_future().wait();

  std::promise<void> second_done;
  std::future<void> second_finished = second_done.get_future();
  std::vector<unsigned char> hits(64, 0);
  std::thread second([&] {
    parallel_for(0, hits.size(), 1, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) ++hits[i];
    });
    second_done.set_value();
  });
  const bool completed = second_finished.wait_for(std::chrono::seconds(30)) ==
                         std::future_status::ready;
  latch.set_value();
  first.join();
  second.join();
  pool.resize(original_threads);
  EXPECT_TRUE(completed) << "the second region waited for the first";
  EXPECT_TRUE(std::all_of(hits.begin(), hits.end(),
                          [](unsigned char h) { return h == 1; }));
}

#if defined(__linux__)
void busy_for(std::chrono::microseconds duration) {
  const auto until = std::chrono::steady_clock::now() + duration;
  while (std::chrono::steady_clock::now() < until) {
  }
}

TEST(ThreadPoolTest, WorkerLeavesTheCallersCpu) {
  // The kernel often wakes the pool's worker on its waker's CPU, where it
  // runs only while the caller blocks, so a region runs serially. The
  // pool must move a worker that finds itself there.
  cpu_set_t allowed;
  ASSERT_EQ(sched_getaffinity(0, sizeof(allowed), &allowed), 0);
  if (CPU_COUNT(&allowed) < 2) {
    GTEST_SKIP() << "needs at least two allowed CPUs";
  }
  using std::chrono::milliseconds;
  ThreadPool& pool = ThreadPool::instance();
  const std::size_t original_threads = pool.threads();
  pool.resize(2);
  const std::thread::id caller = std::this_thread::get_id();

  // Put the worker on the caller's CPU: a chunk it runs pins it there and
  // restores its mask, which leaves it where the kernel's wake placement
  // would.
  std::atomic<bool> placed{false};
  for (int attempt = 0; attempt < 100 && !placed.load(); ++attempt) {
    const int caller_cpu = sched_getcpu();
    parallel_for(0, 8, 1, [&](std::size_t, std::size_t) {
      if (std::this_thread::get_id() == caller) {
        busy_for(milliseconds(1));
        return;
      }
      if (placed.exchange(true)) return;
      cpu_set_t own;
      ASSERT_EQ(sched_getaffinity(0, sizeof(own), &own), 0);
      cpu_set_t only;
      CPU_ZERO(&only);
      CPU_SET(caller_cpu, &only);
      ASSERT_EQ(sched_setaffinity(0, sizeof(only), &only), 0);
      ASSERT_EQ(sched_setaffinity(0, sizeof(own), &own), 0);
    });
  }
  ASSERT_TRUE(placed.load());

  constexpr int kRegions = 20;
  constexpr std::size_t kChunks = 8;
  int apart = 0;
  for (int region = 0; region < kRegions; ++region) {
    std::array<int, kChunks> cpu{};
    std::array<bool, kChunks> by_worker{};
    parallel_for(0, kChunks, 1, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        busy_for(milliseconds(1));
        cpu[i] = sched_getcpu();
        by_worker[i] = std::this_thread::get_id() != caller;
      }
    });
    std::set<int> caller_cpus;
    std::set<int> worker_cpus;
    for (std::size_t i = 0; i < kChunks; ++i) {
      (by_worker[i] ? worker_cpus : caller_cpus).insert(cpu[i]);
    }
    const bool shared = std::any_of(
        worker_cpus.begin(), worker_cpus.end(),
        [&](int c) { return caller_cpus.count(c) != 0; });
    if (!worker_cpus.empty() && !shared) ++apart;
  }
  pool.resize(original_threads);
  EXPECT_GE(apart, 18) << "the worker shared the caller's CPU (or ran no "
                          "chunk) in "
                       << kRegions - apart << " of " << kRegions
                       << " regions";
}
#endif

TEST(TypesTest, EnumNames) {
  EXPECT_STREQ(to_string(DeviceKind::kCpu), "CPU");
  EXPECT_STREQ(to_string(DeviceKind::kNdp), "NDP");
  EXPECT_STREQ(to_string(DeviceKind::kGpu), "GPU");
  EXPECT_STREQ(to_string(AccessPattern::kBlocked), "blocked");
  EXPECT_STREQ(to_string(KernelClass::kFft), "FFT");
  EXPECT_STREQ(to_string(KernelClass::kAlltoall), "Alltoall");
}

}  // namespace
}  // namespace ndft
