// End-to-end integration tests: the four execution modes of NdftSystem on
// small paper systems, report structure, determinism, and the qualitative
// relations the paper's evaluation asserts.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "common/fault.hpp"
#include "common/thread_pool.hpp"
#include "core/ndft_system.hpp"

namespace ndft::core {
namespace {

/// Shared fixture with cheaper sampling so integration tests stay fast.
class NdftSystemFixture : public ::testing::Test {
 protected:
  static SystemConfig fast_config() {
    SystemConfig config = SystemConfig::paper_default();
    config.sampled_ops_per_kernel = 30000;
    config.min_ops_per_core = 200;
    return config;
  }

  NdftSystemFixture() : system(fast_config()) {}

  NdftSystem system;
};

TEST_F(NdftSystemFixture, CpuReportHasAllKernels) {
  const RunReport report = system.run(16, ExecMode::kCpuBaseline);
  EXPECT_EQ(report.mode, ExecMode::kCpuBaseline);
  EXPECT_EQ(report.kernels.size(), 8u);
  for (const KernelTime& k : report.kernels) {
    EXPECT_GT(k.time_ps, 0u) << k.name;
    EXPECT_EQ(k.device, DeviceKind::kCpu);
  }
  EXPECT_EQ(report.sched_overhead_ps, 0u);
  EXPECT_GT(report.total_ps(), 0u);
}

TEST_F(NdftSystemFixture, GpuReportUsesGpuDevice) {
  const RunReport report = system.run(16, ExecMode::kGpuBaseline);
  for (const KernelTime& k : report.kernels) {
    EXPECT_EQ(k.device, DeviceKind::kGpu);
    EXPECT_GT(k.time_ps, 0u);
  }
}

TEST_F(NdftSystemFixture, NdftPlacementFollowsPlan) {
  const dft::Workload w = system.workload_for(64);
  const runtime::ExecutionPlan plan = system.plan(w);
  const RunReport report = system.run(w, ExecMode::kNdft);
  ASSERT_EQ(report.kernels.size(), plan.placements.size());
  for (std::size_t i = 0; i < report.kernels.size(); ++i) {
    EXPECT_EQ(report.kernels[i].device, plan.placements[i].device)
        << report.kernels[i].name;
  }
  EXPECT_GT(report.sched_overhead_ps, 0u);
}

TEST_F(NdftSystemFixture, NdpOnlyRunsEverythingOnNdp) {
  const RunReport report = system.run(16, ExecMode::kNdpOnly);
  for (const KernelTime& k : report.kernels) {
    EXPECT_EQ(k.device, DeviceKind::kNdp);
  }
  EXPECT_GT(report.mesh_bytes, 0u);  // the Alltoall crossed the mesh
}

TEST_F(NdftSystemFixture, RunsAreDeterministic) {
  const dft::Workload w = system.workload_for(16);
  const RunReport a = system.run(w, ExecMode::kNdft);
  const RunReport b = system.run(w, ExecMode::kNdft);
  ASSERT_EQ(a.kernels.size(), b.kernels.size());
  for (std::size_t i = 0; i < a.kernels.size(); ++i) {
    EXPECT_EQ(a.kernels[i].time_ps, b.kernels[i].time_ps);
  }
  EXPECT_EQ(a.total_ps(), b.total_ps());
}

TEST_F(NdftSystemFixture, NdftBeatsCpuAtScale) {
  // The headline claim, at a reduced size for test speed: NDFT must be
  // clearly faster than the CPU baseline from Si_64 up.
  const dft::Workload w = system.workload_for(64);
  const RunReport cpu = system.run(w, ExecMode::kCpuBaseline);
  const RunReport ndft = system.run(w, ExecMode::kNdft);
  EXPECT_GT(speedup(cpu, ndft), 1.5);
}

TEST(NdftScalingTest, NdftAdvantageGrowsWithSystemSize) {
  // Fig. 8's shape: the speedup over CPU grows with the physical system.
  // The curve is nearly flat below Si_64 (caches still carry the CPU), so
  // compare across a wide gap where the growth is unambiguous. Full
  // sampling is needed here: coarse windows blur the small-size cache
  // behaviour this test is about.
  const NdftSystem system;  // paper-default sampling
  const RunReport cpu_small = system.run(16, ExecMode::kCpuBaseline);
  const RunReport ndft_small = system.run(16, ExecMode::kNdft);
  const RunReport cpu_big = system.run(256, ExecMode::kCpuBaseline);
  const RunReport ndft_big = system.run(256, ExecMode::kNdft);
  EXPECT_GT(speedup(cpu_big, ndft_big), speedup(cpu_small, ndft_small));
}

TEST_F(NdftSystemFixture, MemoryKernelsAccelerateMost) {
  const dft::Workload w = system.workload_for(64);
  const RunReport cpu = system.run(w, ExecMode::kCpuBaseline);
  const RunReport ndft = system.run(w, ExecMode::kNdft);
  const double fft_speedup =
      static_cast<double>(cpu.time_of(KernelClass::kFft)) /
      static_cast<double>(ndft.time_of(KernelClass::kFft));
  const double gemm_speedup =
      static_cast<double>(cpu.time_of(KernelClass::kGemm)) /
      static_cast<double>(ndft.time_of(KernelClass::kGemm));
  EXPECT_GT(fft_speedup, 3.0);
  EXPECT_GT(fft_speedup, gemm_speedup);  // Fig. 7's central contrast
}

TEST_F(NdftSystemFixture, SchedulingOverheadStaysSmall) {
  const RunReport ndft = system.run(64, ExecMode::kNdft);
  const double fraction =
      static_cast<double>(ndft.sched_overhead_ps) /
      static_cast<double>(ndft.total_ps());
  EXPECT_GT(fraction, 0.0);
  EXPECT_LT(fraction, 0.12);  // paper: 3.8-4.9 %
}

/// Exact simulator outputs of one Si_64 report at the fixture's sampling.
struct ReportPin {
  std::vector<TimePs> kernel_ps;
  TimePs sched_overhead_ps;
  Bytes mesh_bytes;
  Bytes sharing_bytes;
  double memory_energy_mj;
  std::map<std::string, double> stats;
};

// Bit-exact outputs of the simulator. A change that reorders same-time
// events (the queue's (when, seq) contract) or alters any component's
// timing fails here, while RunsAreDeterministic, which compares two runs
// of one binary, cannot see it. Doubles are compared with ==.
const ReportPin kCpuPin{
    {63781807418u, 22113681076u, 38077408562u, 22113681076u, 15046624185u, 22113681076u, 9171769828u, 392777940360u},
    0u, 0u, 0u, 2261.6896080108222,
    {
        {"dram.bytes", 12871488},
        {"dram.channel_utilization", 0.43170554010217638},
        {"dram.queue_peak", 1},
        {"dram.reads", 201117},
        {"dram.refresh_stall_ps", 53178720},
        {"dram.refreshes", 172},
        {"dram.row_conflicts", 86563},
        {"dram.row_hits", 113554},
        {"dram.row_misses", 1000},
        {"dram.writes", 0},
    }};
const ReportPin kNdpOnlyPin{
    {8550221680u, 1819203520u, 6715067880u, 1819203520u, 22552105250u, 1819203520u, 1423293360u, 249179922725u},
    0u, 1606533120u, 0u, 2720.2712955554753,
    {
        {"dram.bytes", 19614336},
        {"dram.channel_utilization", 0.0030064937902063555},
        {"dram.queue_peak", 1},
        {"dram.reads", 283778},
        {"dram.refresh_stall_ps", 461760000},
        {"dram.refreshes", 2367},
        {"dram.row_conflicts", 169780},
        {"dram.row_hits", 112221},
        {"dram.row_misses", 24473},
        {"dram.writes", 22696},
        {"mesh.bytes", 1606533120},
        {"mesh.contention_ps", 94158044088},
        {"mesh.hops", 1920},
        {"mesh.messages", 720},
        {"mesh.queue_peak", 1},
    }};
const ReportPin kNdftPin{
    {8550221680u, 1819203520u, 6715067880u, 1819203520u, 15816667541u, 1819203520u, 1423293360u, 277275413019u},
    4968433408u, 1846182624u, 237040800u, 2967.7480015830351,
    {
        {"dram.bytes", 14289280},
        {"dram.channel_utilization", 0.0028530459385970224},
        {"dram.queue_peak", 1},
        {"dram.reads", 200574},
        {"dram.refresh_stall_ps", 298480000},
        {"dram.refreshes", 2019},
        {"dram.row_conflicts", 126949},
        {"dram.row_hits", 74144},
        {"dram.row_misses", 22177},
        {"dram.writes", 22696},
        {"mesh.bytes", 1846182624},
        {"mesh.contention_ps", 108052601509},
        {"mesh.hops", 49200},
        {"mesh.messages", 47544},
        {"mesh.queue_peak", 1},
        {"serdes.contention_ps", 2806198},
        {"serdes.queue_peak", 1},
    }};

void expect_pinned(const RunReport& report, const ReportPin& pin) {
  SCOPED_TRACE(to_string(report.mode));
  ASSERT_EQ(report.kernels.size(), pin.kernel_ps.size());
  for (std::size_t i = 0; i < pin.kernel_ps.size(); ++i) {
    EXPECT_EQ(report.kernels[i].time_ps, pin.kernel_ps[i])
        << report.kernels[i].name;
  }
  EXPECT_EQ(report.sched_overhead_ps, pin.sched_overhead_ps);
  EXPECT_EQ(report.mesh_bytes, pin.mesh_bytes);
  EXPECT_EQ(report.sharing_bytes, pin.sharing_bytes);
  EXPECT_EQ(report.memory_energy_mj, pin.memory_energy_mj);
  EXPECT_EQ(report.stats.size(), pin.stats.size());
  for (const auto& [key, value] : pin.stats) {
    const auto it = report.stats.find(key);
    ASSERT_NE(it, report.stats.end()) << key;
    EXPECT_EQ(it->second, value) << key;
  }
}

// Also pins every simulated output of the three Si_64 runs it makes.
TEST_F(NdftSystemFixture, FootprintsFollowTableI) {
  const dft::Workload w = system.workload_for(64);
  const RunReport cpu = system.run(w, ExecMode::kCpuBaseline);
  const RunReport ndp = system.run(w, ExecMode::kNdpOnly);
  const RunReport ndft = system.run(w, ExecMode::kNdft);
  expect_pinned(cpu, kCpuPin);
  expect_pinned(ndp, kNdpOnlyPin);
  expect_pinned(ndft, kNdftPin);
  EXPECT_GT(ndp.pseudo.total, cpu.pseudo.total);  // replication penalty
  EXPECT_LT(ndft.pseudo.total, ndp.pseudo.total); // shared blocks shrink it
  const double vs_cpu = static_cast<double>(ndft.pseudo.total) /
                        static_cast<double>(cpu.pseudo.total);
  EXPECT_NEAR(vs_cpu, 1.08, 0.1);  // "close to CPU execution (1.08x)"
}

/// net_test's small sampling: the per-core bounds set every kernel's
/// sample, so the seven Fig. 8 sizes in three modes simulate in about a
/// second.
SystemConfig small_sampling() {
  SystemConfig config = SystemConfig::paper_default();
  config.sampled_ops_per_kernel = 500;
  config.min_ops_per_core = 20;
  config.max_ops_per_core = 200;
  return config;
}

// The simulations behind every Fig. 7 and Fig. 8 row of the paper ledger
// (bench/paper_claims.cpp), pinned exactly at small sampling: the CPU,
// GPU and NDFT reports at Si_64 and Si_1024, and the three totals at
// every Fig. 8 size. The ledger runs the same simulations at paper
// sampling; scripts/verify.sh --bench-smoke compares those with the
// committed BENCH_paper.json.
const ReportPin kFig7CpuSi64Pin{
    {96905643910u, 23948414859u, 60238568621u, 23948414859u, 26175360194u, 23948414859u, 13202632435u, 258539150947u},
    0u, 0u, 0u, 2204.8800458662299,
    {
        {"dram.bytes", 311808},
        {"dram.channel_utilization", 0.52882851750445259},
        {"dram.queue_peak", 1},
        {"dram.reads", 4872},
        {"dram.refresh_stall_ps", 0},
        {"dram.refreshes", 0},
        {"dram.row_conflicts", 1095},
        {"dram.row_hits", 3108},
        {"dram.row_misses", 669},
        {"dram.writes", 0},
    }};
const ReportPin kFig7GpuSi64Pin{
    {41673254756u, 6205683284u, 73719398368u, 6205683284u, 12215379829u, 6205683284u, 5843637495u, 139501583562u},
    0u, 0u, 0u, 6823.3361502959997,
    {
    }};
const ReportPin kFig7NdftSi64Pin{
    {7196365400u, 1486078000u, 6620673600u, 1486078000u, 21889727775u, 1486078000u, 1328309400u, 247289665271u},
    4968433408u, 1843683232u, 237040800u, 2969.9743962577968,
    {
        {"dram.bytes", 1029120},
        {"dram.channel_utilization", 0.00021755604458017323},
        {"dram.queue_peak", 1},
        {"dram.reads", 16080},
        {"dram.refresh_stall_ps", 0},
        {"dram.refreshes", 0},
        {"dram.row_conflicts", 2842},
        {"dram.row_hits", 2084},
        {"dram.row_misses", 11154},
        {"dram.writes", 0},
        {"mesh.bytes", 1843683232},
        {"mesh.contention_ps", 108050770935},
        {"mesh.hops", 4560},
        {"mesh.messages", 2912},
        {"mesh.queue_peak", 1},
        {"serdes.contention_ps", 617546},
        {"serdes.queue_peak", 1},
    }};
const ReportPin kFig7CpuSi1024Pin{
    {1297241573600u, 453565374336u, 739422044224u, 453565374336u, 368455521472u, 453565374336u, 203782909350u, 567894091843u},
    0u, 0u, 0u, 16509.621195027619,
    {
        {"dram.bytes", 311808},
        {"dram.channel_utilization", 0.45366460077245507},
        {"dram.queue_peak", 1},
        {"dram.reads", 4872},
        {"dram.refresh_stall_ps", 0},
        {"dram.refreshes", 0},
        {"dram.row_conflicts", 1367},
        {"dram.row_hits", 2806},
        {"dram.row_misses", 699},
        {"dram.writes", 0},
    }};
const ReportPin kFig7GpuSi1024Pin{
    {666635221333u, 99142887365u, 1179383630061u, 99142887365u, 195299928205u, 99142887365u, 93349959919u, 234680222222u},
    0u, 0u, 0u, 61638.425742171996,
    {
    }};
const ReportPin kFig7NdftSi1024Pin{
    {115925085938u, 27403644375u, 133824616500u, 27403644375u, 350626698355u, 27403644375u, 21697875313u, 357145417008u},
    74180412160u, 29497798912u, 3792652800u, 14063.527423465403,
    {
        {"dram.bytes", 1029120},
        {"dram.channel_utilization", 1.3626037426589329e-05},
        {"dram.queue_peak", 1},
        {"dram.reads", 16080},
        {"dram.refresh_stall_ps", 0},
        {"dram.refreshes", 0},
        {"dram.row_conflicts", 2970},
        {"dram.row_hits", 2115},
        {"dram.row_misses", 10995},
        {"dram.writes", 0},
        {"mesh.bytes", 29497798912},
        {"mesh.contention_ps", 1728889230873},
        {"mesh.hops", 4560},
        {"mesh.messages", 2912},
        {"mesh.queue_peak", 1},
        {"serdes.contention_ps", 606390},
        {"serdes.queue_peak", 1},
    }};

struct ScalePin {
  std::size_t atoms;
  TimePs cpu_ps;
  TimePs gpu_ps;
  TimePs ndft_ps;
};
const ScalePin kFig8Pins[] = {
    {16, 22848863656u, 12857955967u, 7640544998u},
    {32, 148999998288u, 94990935233u, 72916376016u},
    {64, 526906600684u, 291570303862u, 293751408854u},
    {128, 1034533170418u, 538752015259u, 454086609228u},
    {256, 1540309713298u, 842753808297u, 551245741687u},
    {1024, 4537492263497u, 2666777623835u, 1135611038399u},
    {2048, 8964024243806u, 6198073121448u, 1971032729649u},
};

TEST(PaperLedgerTest, Fig7AndFig8SimulationsArePinned) {
  const NdftSystem system(small_sampling());
  for (const ScalePin& pin : kFig8Pins) {
    SCOPED_TRACE(pin.atoms);
    const dft::Workload w = system.workload_for(pin.atoms);
    const RunReport cpu = system.run(w, ExecMode::kCpuBaseline);
    const RunReport gpu = system.run(w, ExecMode::kGpuBaseline);
    const RunReport ndft = system.run(w, ExecMode::kNdft);
    EXPECT_EQ(cpu.total_ps(), pin.cpu_ps);
    EXPECT_EQ(gpu.total_ps(), pin.gpu_ps);
    EXPECT_EQ(ndft.total_ps(), pin.ndft_ps);
    if (pin.atoms == 64) {
      expect_pinned(cpu, kFig7CpuSi64Pin);
      expect_pinned(gpu, kFig7GpuSi64Pin);
      expect_pinned(ndft, kFig7NdftSi64Pin);
    } else if (pin.atoms == 1024) {
      expect_pinned(cpu, kFig7CpuSi1024Pin);
      expect_pinned(gpu, kFig7GpuSi1024Pin);
      expect_pinned(ndft, kFig7NdftSi1024Pin);
    }
  }
}

// ---------------------------------------------------------------------------
// The run contract: a kernel's simulation depends on its descriptor,
// device, mode and config alone. scripts/verify.sh runs these under ASan
// and TSan by the RunContractTest name.

class RunContractTest : public NdftSystemFixture {};

/// The simulated outputs of one kernel entry, compared with ==.
void expect_same_kernel(const KernelTime& a, const KernelTime& b) {
  EXPECT_EQ(a.cls, b.cls) << a.name;
  EXPECT_EQ(a.device, b.device) << a.name;
  EXPECT_EQ(a.time_ps, b.time_ps) << a.name;
  EXPECT_EQ(a.memory_energy_mj, b.memory_energy_mj) << a.name;
  EXPECT_EQ(a.mesh_bytes, b.mesh_bytes) << a.name;
  EXPECT_EQ(a.sharing_bytes, b.sharing_bytes) << a.name;
}

/// Every simulated field of two reports, compared with ==.
void expect_same_report(const RunReport& a, const RunReport& b) {
  ASSERT_EQ(a.kernels.size(), b.kernels.size());
  for (std::size_t i = 0; i < a.kernels.size(); ++i) {
    EXPECT_EQ(a.kernels[i].name, b.kernels[i].name);
    expect_same_kernel(a.kernels[i], b.kernels[i]);
  }
  EXPECT_EQ(a.sched_overhead_ps, b.sched_overhead_ps);
  EXPECT_EQ(a.mesh_bytes, b.mesh_bytes);
  EXPECT_EQ(a.sharing_bytes, b.sharing_bytes);
  EXPECT_EQ(a.memory_energy_mj, b.memory_energy_mj);
  EXPECT_EQ(a.pseudo.total, b.pseudo.total);
  EXPECT_EQ(a.stats, b.stats);
}

TEST_F(RunContractTest, ReversedKernelOrderSimulatesEachKernelAlike) {
  const dft::Workload forward = system.workload_for(64);
  dft::Workload reversed = forward;
  std::reverse(reversed.kernels.begin(), reversed.kernels.end());
  // The NDFT run keeps each kernel's device: the reversed plan is the
  // forward plan reversed.
  const runtime::ExecutionPlan plan = system.plan(forward);
  runtime::ExecutionPlan reversed_plan = plan;
  std::reverse(reversed_plan.placements.begin(),
               reversed_plan.placements.end());
  const std::vector<std::pair<RunReport, RunReport>> pairs = {
      {system.run(forward, ExecMode::kCpuBaseline),
       system.run(reversed, ExecMode::kCpuBaseline)},
      {system.run_planned(forward, plan),
       system.run_planned(reversed, reversed_plan)},
  };
  for (const auto& [ahead, behind] : pairs) {
    SCOPED_TRACE(to_string(ahead.mode));
    const std::size_t n = ahead.kernels.size();
    ASSERT_EQ(behind.kernels.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(ahead.kernels[i].name, behind.kernels[n - 1 - i].name);
      expect_same_kernel(ahead.kernels[i], behind.kernels[n - 1 - i]);
    }
  }
}

TEST_F(RunContractTest, DuplicateDescriptorsGetIdenticalEntries) {
  // Si_64's three Alltoalls share one descriptor under three names; a
  // renamed copy of the GEMM appended to the workload is a fourth pair.
  dft::Workload w = system.workload_for(64);
  const std::size_t gemm = 4;
  ASSERT_EQ(w.kernels[gemm].cls, KernelClass::kGemm);
  w.kernels.push_back(w.kernels[gemm]);
  w.kernels.back().name = "GEMM(copy)";
  for (const ExecMode mode : {ExecMode::kCpuBaseline, ExecMode::kNdpOnly}) {
    SCOPED_TRACE(to_string(mode));
    const RunReport report = system.run(w, mode);
    std::vector<const KernelTime*> alltoalls;
    for (const KernelTime& k : report.kernels) {
      if (k.cls == KernelClass::kAlltoall) alltoalls.push_back(&k);
    }
    ASSERT_EQ(alltoalls.size(), 3u);
    expect_same_kernel(*alltoalls[0], *alltoalls[1]);
    expect_same_kernel(*alltoalls[0], *alltoalls[2]);
    EXPECT_EQ(report.kernels.back().name, "GEMM(copy)");
    expect_same_kernel(report.kernels[gemm], report.kernels.back());
    // Totals count every occurrence.
    Bytes mesh = 0;
    for (const KernelTime& k : report.kernels) mesh += k.mesh_bytes;
    EXPECT_EQ(report.mesh_bytes, mesh);
  }
}

TEST_F(RunContractTest, ReportsAreBitwiseAcrossPoolWidths) {
  ThreadPool& pool = ThreadPool::instance();
  const std::size_t original_threads = pool.threads();
  const NdftSystem small(small_sampling());
  for (const std::size_t atoms : {16u, 64u}) {
    const dft::Workload w = small.workload_for(atoms);
    for (const ExecMode mode :
         {ExecMode::kCpuBaseline, ExecMode::kNdpOnly, ExecMode::kNdft}) {
      SCOPED_TRACE(std::string(to_string(mode)) + " Si_" +
                   std::to_string(atoms));
      pool.resize(1);
      const RunReport serial = small.run(w, mode);
      for (const std::size_t width : {2u, 8u}) {
        SCOPED_TRACE("width " + std::to_string(width));
        pool.resize(width);
        expect_same_report(serial, small.run(w, mode));
      }
    }
  }
  pool.resize(original_threads);
}

TEST_F(RunContractTest, ArmedZeroProbabilityFaultsLeaveTheReportUnchanged) {
  // An armed spec runs the kernels serially on this thread in kernel
  // order; at probability 0 nothing fires, so the report must equal the
  // parallel run's.
  const dft::Workload w = system.workload_for(16);
  for (const ExecMode mode : {ExecMode::kCpuBaseline, ExecMode::kNdft}) {
    SCOPED_TRACE(to_string(mode));
    const RunReport plain = system.run(w, mode);
    fault_install(FaultSpec::parse("seed=3;*=0"));
    const RunReport armed = system.run(w, mode);
    fault_clear();
    expect_same_report(plain, armed);
  }
}

TEST_F(RunContractTest, FiringPortFaultsReplayBitwiseAtAnyPoolWidth) {
  // sim.port draws come from one sequence per site, so the report
  // replays only if the kernels draw in kernel order on one thread, at
  // any pool width.
  ThreadPool& pool = ThreadPool::instance();
  const std::size_t original_threads = pool.threads();
  const dft::Workload w = system.workload_for(16);
  const auto run_armed = [&](std::size_t width) {
    pool.resize(width);
    fault_install(FaultSpec::parse("seed=3;sim.port=0.3"));
    const RunReport report = system.run(w, ExecMode::kNdft);
    fault_clear();
    return report;
  };
  const RunReport serial = run_armed(1);
  double delays = 0.0;
  for (const auto& [key, value] : serial.stats) {
    if (key.ends_with(".fault_delays")) delays += value;
  }
  EXPECT_GT(delays, 0.0);
  for (int repeat = 0; repeat < 2; ++repeat) {
    SCOPED_TRACE(repeat);
    expect_same_report(serial, run_armed(4));
  }
  pool.resize(original_threads);
}

TEST_F(NdftSystemFixture, SharingTrafficOnlyUnderCoDesign) {
  const dft::Workload w = system.workload_for(64);
  const RunReport ndp = system.run(w, ExecMode::kNdpOnly);
  const RunReport ndft = system.run(w, ExecMode::kNdft);
  EXPECT_EQ(ndp.sharing_bytes, 0u);
  EXPECT_GT(ndft.sharing_bytes, 0u);
}

TEST_F(NdftSystemFixture, ReportRendersReadably) {
  const RunReport report = system.run(16, ExecMode::kNdft);
  const std::string out = report.render();
  EXPECT_NE(out.find("NDFT"), std::string::npos);
  EXPECT_NE(out.find("Si_16"), std::string::npos);
  EXPECT_NE(out.find("SYEVD"), std::string::npos);
  EXPECT_NE(out.find("scheduling overhead"), std::string::npos);
}

TEST_F(NdftSystemFixture, TimeOfAggregatesClasses) {
  const RunReport report = system.run(16, ExecMode::kCpuBaseline);
  TimePs alltoall = 0;
  for (const KernelTime& k : report.kernels) {
    if (k.cls == KernelClass::kAlltoall) alltoall += k.time_ps;
  }
  EXPECT_EQ(report.time_of(KernelClass::kAlltoall), alltoall);
  EXPECT_EQ(report.global_comm_ps(), alltoall);
}

TEST(ExecModeTest, Names) {
  EXPECT_STREQ(to_string(ExecMode::kCpuBaseline), "CPU");
  EXPECT_STREQ(to_string(ExecMode::kGpuBaseline), "GPU");
  EXPECT_STREQ(to_string(ExecMode::kNdpOnly), "NDP-only");
  EXPECT_STREQ(to_string(ExecMode::kNdft), "NDFT");
}

TEST(SystemConfigTest, PaperDefaultsMatchTableIII) {
  const SystemConfig config = SystemConfig::paper_default();
  EXPECT_EQ(config.host_cpu.cores, 8u);
  EXPECT_EQ(config.host_cpu.core.freq_mhz, 3000u);
  EXPECT_EQ(config.ndp.stacks(), 16u);
  EXPECT_EQ(config.ndp.total_cores(), 256u);
  EXPECT_EQ(config.ndp.total_capacity(), 64ull << 30);
  EXPECT_EQ(config.ndp.stack.spm.capacity, 256u * 1024);
  EXPECT_EQ(config.xeon.cores, 24u);
  EXPECT_NEAR(config.gpu.peak_gflops, 15600.0, 1.0);
}

TEST(SpeedupTest, RejectsZeroRuntime) {
  RunReport a;
  RunReport b;
  KernelTime kernel;
  kernel.name = "x";
  kernel.time_ps = 100;
  a.kernels.push_back(kernel);
  EXPECT_THROW(speedup(a, b), NdftError);
  EXPECT_DOUBLE_EQ(speedup(a, a), 1.0);
}

}  // namespace
}  // namespace ndft::core
