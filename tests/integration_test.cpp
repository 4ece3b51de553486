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
