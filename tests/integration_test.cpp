// End-to-end integration tests: the four execution modes of NdftSystem on
// small paper systems, report structure, determinism, and the qualitative
// relations the paper's evaluation asserts.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

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
    {63781807418u, 22526562878u, 42665130776u, 22596987903u, 14424256151u,
     22768935661u, 10411792998u, 314989959966u},
    0u, 0u, 0u, 2189.1792031924315,
    {
        {"dram.bytes", 12868288},
        {"dram.channel_utilization", 0.44121131962348048},
        {"dram.queue_peak", 1},
        {"dram.reads", 201067},
        {"dram.refresh_stall_ps", 55627740},
        {"dram.refreshes", 188},
        {"dram.row_conflicts", 87522},
        {"dram.row_hits", 113417},
        {"dram.row_misses", 128},
        {"dram.writes", 0},
    }};
const ReportPin kNdpOnlyPin{
    {8550221680u, 1949594880u, 7162595432u, 1885096480u, 22589701807u,
     1977834720u, 1431502258u, 249288542303u},
    0u, 1606533120u, 0u, 2727.8743442008481,
    {
        {"dram.bytes", 19614336},
        {"dram.channel_utilization", 0.0030036161706382186},
        {"dram.queue_peak", 1},
        {"dram.reads", 283778},
        {"dram.refresh_stall_ps", 510120000},
        {"dram.refreshes", 51200},
        {"dram.row_conflicts", 191160},
        {"dram.row_hits", 111218},
        {"dram.row_misses", 4096},
        {"dram.writes", 22696},
        {"mesh.bytes", 1606533120},
        {"mesh.contention_ps", 94158044088},
        {"mesh.hops", 1920},
        {"mesh.messages", 720},
        {"mesh.queue_peak", 1},
    }};
const ReportPin kNdftPin{
    {8550221680u, 1949594880u, 7162595432u, 1885096480u, 15676182467u,
     1887961604u, 1449899980u, 297376785766u},
    4968433408u, 1846182624u, 237040800u, 3230.0669369123279,
    {
        {"dram.bytes", 14289280},
        {"dram.channel_utilization", 0.0028492450838283321},
        {"dram.queue_peak", 1},
        {"dram.reads", 200574},
        {"dram.refresh_stall_ps", 421720000},
        {"dram.refreshes", 39940},
        {"dram.row_conflicts", 151501},
        {"dram.row_hits", 67673},
        {"dram.row_misses", 4096},
        {"dram.writes", 22696},
        {"mesh.bytes", 1846182624},
        {"mesh.contention_ps", 108052947825},
        {"mesh.hops", 49200},
        {"mesh.messages", 47544},
        {"mesh.queue_peak", 1},
        {"serdes.contention_ps", 2807703},
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
    {96905643910u, 23793525797u, 51502825567u, 22616368932u, 26076231161u,
     23669614548u, 11927403606u, 265156461400u},
    0u, 0u, 0u, 2227.7435225745157,
    {
        {"dram.bytes", 311808},
        {"dram.channel_utilization", 0.54164522908549584},
        {"dram.queue_peak", 1},
        {"dram.reads", 4872},
        {"dram.refresh_stall_ps", 0},
        {"dram.refreshes", 0},
        {"dram.row_conflicts", 1709},
        {"dram.row_hits", 3035},
        {"dram.row_misses", 128},
        {"dram.writes", 0},
    }};
const ReportPin kFig7GpuSi64Pin{
    {41673254756u, 6205683284u, 73719398368u, 6205683284u, 12215379829u,
     6205683284u, 5843637495u, 139501583562u},
    0u, 0u, 0u, 6823.3361502959997,
    {}};
const ReportPin kFig7NdftSi64Pin{
    {7196365400u, 1754530800u, 7043399600u, 1876554800u, 23569179648u,
     1841690800u, 1757136902u, 339010838755u},
    4968433408u, 1843683232u, 237040800u, 3645.6995730108301,
    {
        {"dram.bytes", 1029120},
        {"dram.channel_utilization", 0.00021748527511075789},
        {"dram.queue_peak", 1},
        {"dram.reads", 16080},
        {"dram.refresh_stall_ps", 63960000},
        {"dram.refreshes", 37888},
        {"dram.row_conflicts", 10265},
        {"dram.row_hits", 1891},
        {"dram.row_misses", 3924},
        {"dram.writes", 0},
        {"mesh.bytes", 1843683232},
        {"mesh.contention_ps", 108050988910},
        {"mesh.hops", 4560},
        {"mesh.messages", 2912},
        {"mesh.queue_peak", 1},
        {"serdes.contention_ps", 686806},
        {"serdes.queue_peak", 1},
    }};
const ReportPin kFig7CpuSi1024Pin{
    {1297241573600u, 394086775296u, 914883911392u, 401521600176u,
     422779308595u, 384669330448u, 224625378818u, 424125528865u},
    0u, 0u, 0u, 16503.247776766882,
    {
        {"dram.bytes", 311808},
        {"dram.channel_utilization", 0.50702561453981754},
        {"dram.queue_peak", 1},
        {"dram.reads", 4872},
        {"dram.refresh_stall_ps", 0},
        {"dram.refreshes", 0},
        {"dram.row_conflicts", 1714},
        {"dram.row_hits", 3030},
        {"dram.row_misses", 128},
        {"dram.writes", 0},
    }};
const ReportPin kFig7GpuSi1024Pin{
    {666635221333u, 99142887365u, 1179383630061u, 99142887365u, 195299928205u,
     99142887365u, 93349959919u, 234680222222u},
    0u, 0u, 0u, 61638.425742171996,
    {}};
const ReportPin kFig7NdftSi1024Pin{
    {115925085938u, 29467633875u, 137366868750u, 30192819375u, 374233918541u,
     27794128875u, 28661195730u, 388090803235u},
    74180412160u, 29497798912u, 3792652800u, 14570.275351753322,
    {
        {"dram.bytes", 1029120},
        {"dram.channel_utilization", 1.3625949843162047e-05},
        {"dram.queue_peak", 1},
        {"dram.reads", 16080},
        {"dram.refresh_stall_ps", 29120000},
        {"dram.refreshes", 605056},
        {"dram.row_conflicts", 10180},
        {"dram.row_hits", 1917},
        {"dram.row_misses", 3983},
        {"dram.writes", 0},
        {"mesh.bytes", 29497798912},
        {"mesh.contention_ps", 1728889249740},
        {"mesh.hops", 4560},
        {"mesh.messages", 2912},
        {"mesh.queue_peak", 1},
        {"serdes.contention_ps", 623909},
        {"serdes.queue_peak", 1},
    }};

struct ScalePin {
  std::size_t atoms;
  TimePs cpu_ps;
  TimePs gpu_ps;
  TimePs ndft_ps;
};
const ScalePin kFig8Pins[] = {
    {16, 22082304122u, 12857955967u, 7999326022u},
    {32, 158121160180u, 94990935233u, 79526898014u},
    {64, 521648074921u, 291570303862u, 389018130113u},
    {128, 966512150847u, 538752015259u, 506971910095u},
    {256, 1609297121260u, 842753808297u, 644239487286u},
    {1024, 4463933407190u, 2666777623835u, 1205912866479u},
    {2048, 9064512019932u, 6198073121448u, 2516727747381u},
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
  a.kernels.push_back(KernelTime{"x", KernelClass::kOther,
                                 DeviceKind::kCpu, 100});
  EXPECT_THROW(speedup(a, b), NdftError);
  EXPECT_DOUBLE_EQ(speedup(a, a), 1.0);
}

}  // namespace
}  // namespace ndft::core
