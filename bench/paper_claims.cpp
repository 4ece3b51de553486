// bench_paper_claims: the paper-fidelity ledger. Every number that the
// evaluation (Fig. 4, 7 and 8, Tables I and II) and the ablations A1-A7
// put on the page is one row {id, paper, ours, unit, ratio, in_band,
// reason}, printed grouped by figure and table and written to
// BENCH_paper.json in the working directory. No flags.
//
// `paper` is the value the paper states, or null. A row with one gives
// `ours` in the paper's unit, so `ratio` is ours / paper, and every such
// row is held to one band, ratio in [kBandLow, kBandHigh]; a categorical
// row (Fig. 4's memory/compute verdicts) is in band when the verdicts
// are equal. A row outside the band carries a one-line reason.
//
// The driver lists the simulations the rows need (machine, system size,
// mode or plan) and runs each distinct one once, the independent runs
// spread over the thread pool (NdftSystem::run is thread-safe).
// Footprints come from PseudoStore, which computes them without
// simulating. Simulated values are deterministic, so the committed
// BENCH_paper.json is a pin: scripts/verify.sh --bench-smoke regenerates
// it and fails when any part but "meta" differs.

#include <algorithm>
#include <cstdio>
#include <deque>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/prng.hpp"
#include "common/run_metadata.hpp"
#include "common/str_util.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "core/ndft_system.hpp"
#include "mem/dram_system.hpp"
#include "ndp/ndp_system.hpp"
#include "runtime/adaptive.hpp"
#include "runtime/pseudo_store.hpp"
#include "runtime/sca.hpp"
#include "runtime/shared_memory.hpp"

using namespace ndft;

namespace {

using core::ExecMode;
using core::RunReport;

/// The one accepted band for ours / paper.
constexpr double kBandLow = 0.8;
constexpr double kBandHigh = 1.25;
constexpr const char* kUnexplained = "not yet explained (ROADMAP item 2)";

constexpr std::size_t kFig8Sizes[] = {16, 32, 64, 128, 256, 1024, 2048};
constexpr std::size_t kFig7Sizes[] = {64, 1024};

std::string si(std::size_t atoms) { return strformat("Si_%zu", atoms); }

double ratio(double numerator, double denominator) {
  return denominator == 0.0 ? 0.0 : numerator / denominator;
}

/// Percent change of `value` over `base`.
double change_pct(double value, double base) {
  return base == 0.0 ? 0.0 : (value / base - 1.0) * 100.0;
}

/// Rows grouped by figure and table, in print order. Each row is the
/// JSON object BENCH_paper.json records.
class Ledger {
 public:
  void group(std::string title) {
    groups_.push_back({std::move(title), Json::array()});
  }

  /// Adds a row. `paper` is null where the paper states no value;
  /// `reason` is recorded only when the row falls outside the band.
  void add(const std::string& id, Json ours, const std::string& unit,
           Json paper = {}, const char* reason = kUnexplained) {
    Json ratio;
    Json in_band;
    if (paper.is_number()) {
      ratio = ours.as_double() / paper.as_double();
      in_band = ratio.as_double() >= kBandLow && ratio.as_double() <= kBandHigh;
    } else if (!paper.is_null()) {
      in_band = ours.as_string() == paper.as_string();
    }
    Json row = Json::object();
    row.set("id", id);
    row.set("paper", std::move(paper));
    row.set("ours", std::move(ours));
    row.set("unit", unit);
    row.set("ratio", ratio);
    row.set("in_band", in_band);
    row.set("reason", in_band.is_null() || in_band.as_bool() ? Json() : reason);
    groups_.back().second.push_back(std::move(row));
  }

  void print() const {
    for (const auto& [title, rows] : groups_) {
      TextTable table({"row", "paper", "ours", "unit", "ours/paper", "band"});
      std::string reasons;
      for (const Json& row : rows.items()) {
        const std::string& unit = row.at("unit").as_string();
        const Json& ratio = row.at("ratio");
        const Json& in_band = row.at("in_band");
        table.add_row({row.at("id").as_string(), show(row.at("paper"), unit),
                       show(row.at("ours"), unit), unit,
                       ratio.is_null() ? "-"
                                       : strformat("%.3f", ratio.as_double()),
                       in_band.is_null() ? "-"
                       : in_band.as_bool() ? "in"
                                           : "OUT"});
        if (!row.at("reason").is_null()) {
          reasons += "  " + row.at("id").as_string() + ": " +
                     row.at("reason").as_string() + "\n";
        }
      }
      std::printf("=== %s ===\n%s%s\n", title.c_str(), table.render().c_str(),
                  reasons.c_str());
    }
  }

  /// Every row, in print order.
  Json rows() const {
    Json all = Json::array();
    for (const auto& group : groups_) {
      for (const Json& row : group.second.items()) all.push_back(row);
    }
    return all;
  }

 private:
  static std::string show(const Json& value, const std::string& unit) {
    if (value.is_null()) return "-";
    if (!value.is_number()) return value.as_string();
    if (unit == "ps") return format_time(value.as_uint());
    if (unit == "B") return format_bytes(value.as_uint());
    return strformat("%.4g", value.as_double());
  }

  std::vector<std::pair<std::string, Json>> groups_;
};

/// One simulation a row needs: a machine, a workload (system size) and a
/// mode, or the plan that run_planned takes. The report lands in `out`.
struct Simulation {
  const core::NdftSystem* system;
  const dft::Workload* workload;
  ExecMode mode;
  const runtime::ExecutionPlan* plan;
  RunReport* out;
};

/// Runs every listed simulation once, independent runs across the pool.
void run_all(const std::vector<Simulation>& sims) {
  parallel_for(0, sims.size(), 1, [&sims](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const Simulation& s = sims[i];
      *s.out = s.plan != nullptr ? s.system->run_planned(*s.workload, *s.plan)
                                 : s.system->run(*s.workload, s.mode);
    }
  });
}

/// The three machines of Fig. 7 and 8 on one workload.
struct Trio {
  RunReport cpu;
  RunReport gpu;
  RunReport ndft;
};

/// What the paper-machine rows read: the machine, its workloads and the
/// Fig. 8 runs.
struct PaperRuns {
  core::NdftSystem system;
  std::map<std::size_t, dft::Workload> workloads;
  std::map<std::size_t, Trio> runs;

  runtime::PseudoStore store(std::size_t atoms) const {
    return {workloads.at(atoms), system.config().processes};
  }
};

const char* fits(const runtime::PseudoFootprint& footprint) {
  return footprint.out_of_memory() ? "OOM" : "fits";
}

// ----------------------------------------------------- Fig. 4, 7 and 8

void fig4(Ledger& ledger, const PaperRuns& paper) {
  ledger.group("Fig. 4: roofline of the LR-TDDFT kernels on the CPU");
  const runtime::DeviceProfile profile =
      runtime::DeviceProfile::xeon_baseline();
  const runtime::Sca sca(profile, paper.system.config().ndp_profile);
  ledger.add("fig4.cpu.balance", profile.balance(), "flop/B");
  ledger.add("fig4.cpu.peak", profile.peak_gflops, "GFLOP/s");
  ledger.add("fig4.cpu.dram", profile.dram_gbps, "GB/s");
  // Paper: FFT and face-splitting memory-bound at all sizes, GEMM
  // compute-bound, SYEVD memory-bound small and compute-bound large.
  const auto paper_bound = [](KernelClass cls, std::size_t atoms) -> Json {
    switch (cls) {
      case KernelClass::kFft:
      case KernelClass::kFaceSplit: return "memory";
      case KernelClass::kGemm: return "compute";
      case KernelClass::kSyevd: return atoms == 64 ? "memory" : "compute";
      default: return {};
    }
  };
  for (const std::size_t atoms : kFig7Sizes) {
    const dft::Workload& w = paper.workloads.at(atoms);
    const RunReport& cpu = paper.runs.at(atoms).cpu;
    for (std::size_t i = 0; i < w.kernels.size(); ++i) {
      const dft::KernelWork& k = w.kernels[i];
      if (k.flops == 0) continue;  // Alltoall has no roofline point
      const std::string p = "fig4." + si(atoms) + "." + k.name + ".";
      ledger.add(p + "ai", k.arithmetic_intensity(), "flop/B");
      // flop/ps -> GFLOP/s
      ledger.add(p + "achieved", ratio(k.flops, cpu.kernels[i].time_ps) * 1e3,
                 "GFLOP/s");
      ledger.add(p + "bound",
                 sca.analyze(k).on_cpu == runtime::Boundedness::kComputeBound
                     ? "compute"
                     : "memory",
                 "verdict", paper_bound(k.cls, atoms));
    }
  }
}

void fig7(Ledger& ledger, const PaperRuns& paper) {
  ledger.group("Fig. 7: CPU vs GPU vs NDFT breakdown");
  for (const std::size_t atoms : kFig7Sizes) {
    const bool small = atoms == 64;
    const std::string p = "fig7." + si(atoms) + ".";
    const auto& [cpu, gpu, ndft] = paper.runs.at(atoms);
    for (std::size_t i = 0; i < cpu.kernels.size(); ++i) {
      const std::string k = p + cpu.kernels[i].name + ".";
      ledger.add(k + "CPU", cpu.kernels[i].time_ps, "ps");
      ledger.add(k + "GPU", gpu.kernels[i].time_ps, "ps");
      ledger.add(k + "NDFT", ndft.kernels[i].time_ps, "ps");
      ledger.add(k + "device", to_string(ndft.kernels[i].device), "device");
    }
    ledger.add(p + "sched_overhead", ndft.sched_overhead_ps, "ps");
    ledger.add(p + "total.CPU", cpu.total_ps(), "ps");
    ledger.add(p + "total.GPU", gpu.total_ps(), "ps");
    ledger.add(p + "total.NDFT", ndft.total_ps(), "ps");
    ledger.add(p + "ndft_vs_cpu", core::speedup(cpu, ndft), "x",
               small ? 1.9 : 5.2,
               small ? kUnexplained
                     : "the CPU baseline's FFT(P_vc) and SYEVD(Casida) are "
                       "priced by our own kernels' cost functions, and "
                       "repricing them took this row from 4.66x to under 4x "
                       "(ROADMAP item 2)");
    ledger.add(p + "ndft_vs_gpu", core::speedup(gpu, ndft), "x",
               small ? 1.6 : 2.5,
               small ? "SYEVD(Casida) is 2176 wide against the model's 64 x "
                       "16 = 1024-pair space, is priced by our own "
                       "syevd_cost and dominates NDFT's time (ROADMAP item 2)"
                     : kUnexplained);
    ledger.add(p + "gpu_vs_cpu", core::speedup(cpu, gpu), "x");
    ledger.add(p + "fft_vs_cpu",
               ratio(cpu.time_of(KernelClass::kFft),
                     ndft.time_of(KernelClass::kFft)),
               "x", small ? Json() : Json(11.2));
    ledger.add(p + "facesplit_vs_cpu",
               ratio(cpu.time_of(KernelClass::kFaceSplit),
                     ndft.time_of(KernelClass::kFaceSplit)),
               "x", small ? Json(1.99) : Json());
    ledger.add(p + "gpu_gemm_ahead",
               change_pct(ndft.time_of(KernelClass::kGemm),
                          gpu.time_of(KernelClass::kGemm)),
               "%", small ? 35.9 : 22.2);
    ledger.add(p + "sched_overhead_share",
               100.0 * ratio(ndft.sched_overhead_ps, ndft.total_ps()), "%",
               small ? 3.8 : 4.9);
    const TimePs ndft_comm = ndft.time_of(KernelClass::kAlltoall);
    const TimePs gpu_comm = gpu.time_of(KernelClass::kAlltoall);
    ledger.add(p + "global_comm.NDFT", ndft_comm, "ps");
    ledger.add(p + "global_comm.GPU", gpu_comm, "ps");
    ledger.add(p + "global_comm_change", change_pct(ndft_comm, gpu_comm), "%");
    // The footprint discussion attached to the figure. The paper states
    // it once, with no size, so both sizes are held to it.
    const core::SystemConfig& config = paper.system.config();
    const runtime::PseudoStore store = paper.store(atoms);
    const Bytes ndp_total =
        store.on_ndp(runtime::PseudoLayout::kReplicated, config.ndp_capacity)
            .total;
    const Bytes ndft_total = store.on_ndft(config.ndp_capacity).total;
    ledger.add(p + "footprint.NDP", ndp_total, "B");
    ledger.add(p + "footprint.NDFT", ndft_total, "B");
    ledger.add(p + "footprint_change", change_pct(ndft_total, ndp_total), "%",
               -57.8);
    ledger.add(p + "footprint_vs_cpu",
               ratio(ndft_total, store.on_cpu(config.cpu_capacity).total), "x",
               1.08);
  }
}

void fig8(Ledger& ledger, const PaperRuns& paper) {
  ledger.group("Fig. 8: NDFT / GPU speedup over CPU vs system scale");
  for (const std::size_t atoms : kFig8Sizes) {
    const auto& [cpu, gpu, ndft] = paper.runs.at(atoms);
    const std::string p = "fig8." + si(atoms) + ".";
    ledger.add(p + "cpu_total", cpu.total_ps(), "ps");
    ledger.add(p + "gpu_vs_cpu", core::speedup(cpu, gpu), "x");
    ledger.add(p + "ndft_vs_cpu", core::speedup(cpu, ndft), "x",
               atoms == 2048 ? Json(5.33) : Json());
  }
}

// ------------------------------------------------------ Tables I and II

void table1(Ledger& ledger, const PaperRuns& paper) {
  ledger.group("Table I: pseudopotential memory footprint");
  const Bytes capacity = paper.system.config().cpu_capacity;
  // Paper: footprint (GB) and share of memory (%) on NDP and CPU, and NDP
  // over CPU (%), for the small and the large system.
  struct Stated {
    std::size_t atoms;
    double ndp_gb, ndp_pct, cpu_gb, cpu_pct, ndp_over_cpu_pct;
  };
  for (const Stated& stated : {Stated{64, 4.43, 6.92, 1.84, 2.88, 140.2},
                               Stated{1024, 35.3, 55.15, 13.8, 21.56, 155.7}}) {
    const runtime::PseudoStore store = paper.store(stated.atoms);
    const runtime::PseudoFootprint ndp =
        store.on_ndp(runtime::PseudoLayout::kReplicated, capacity);
    const runtime::PseudoFootprint cpu = store.on_cpu(capacity);
    const std::string p = "table1." + si(stated.atoms) + ".";
    constexpr double kGiB = 1u << 30;
    ledger.add(p + "NDP.footprint", ndp.total / kGiB, "GiB", stated.ndp_gb);
    ledger.add(p + "NDP.share", ndp.fraction() * 100.0, "%", stated.ndp_pct);
    ledger.add(p + "NDP.status", fits(ndp), "status");
    ledger.add(p + "CPU.footprint", cpu.total / kGiB, "GiB", stated.cpu_gb);
    ledger.add(p + "CPU.share", cpu.fraction() * 100.0, "%", stated.cpu_pct);
    ledger.add(p + "CPU.status", fits(cpu), "status");
    ledger.add(p + "ndp_over_cpu", change_pct(ndp.total, cpu.total), "%",
               stated.ndp_over_cpu_pct);
  }
  // The OOM cliff that replication puts on NDP systems.
  const runtime::PseudoStore store = paper.store(2048);
  const runtime::PseudoFootprint rep =
      store.on_ndp(runtime::PseudoLayout::kReplicated, capacity);
  const runtime::PseudoFootprint shared =
      store.on_ndp(runtime::PseudoLayout::kSharedBlock, capacity);
  ledger.add("table1.Si_2048.NDP.replicated", rep.total, "B");
  ledger.add("table1.Si_2048.NDP.replicated_status", fits(rep), "status");
  ledger.add("table1.Si_2048.NDP.shared", shared.total, "B");
  ledger.add("table1.Si_2048.NDP.shared_status", fits(shared), "status");
}

/// Latency and bandwidth of the simulated shared-memory API that the NDP
/// processes use: intra-stack SPM accesses, inter-stack arbiter + mesh.
void table2(Ledger& ledger) {
  ledger.group("Table II: NDFT shared-memory API");
  sim::EventQueue queue;
  ndp::NdpSystem ndp("ndp", queue, ndp::NdpSystemConfig::table3());
  runtime::SharedMemoryManager shm("shm", queue, ndp,
                                   runtime::SharedMemoryConfig{});
  // Times one API call to completion and records it.
  const auto add = [&](const std::string& call, Bytes bytes, auto&& issue) {
    const TimePs start = queue.now();
    TimePs end = start;
    issue([&end](TimePs at) { end = at; });
    queue.run();
    const std::string p = strformat("table2.%s.%lluB.", call.c_str(),
                                    static_cast<unsigned long long>(bytes));
    ledger.add(p + "latency", end - start, "ps");
    // B/ps is TB/s.
    ledger.add(p + "bandwidth", ratio(bytes, end - start) * 1000.0, "GB/s");
  };
  // Alloc (no simulated events, so 0 ps) + intra-stack read/write on a
  // 16 KiB block owned by unit 0.
  const runtime::SharedBlock block = shm.alloc_shared(16 * 1024, 0);
  add("NDFT_Alloc_Shared", 16 * 1024, [](auto) {});
  for (const Bytes size : {Bytes{256}, Bytes{4096}, Bytes{16384}}) {
    add("NDFT_Read(intra-stack)", size,
        [&](auto done) { shm.read(block, size, done); });
    add("NDFT_Write(intra-stack)", size,
        [&](auto done) { shm.write(block, size, done); });
  }
  // Remote reads: the first touch crosses the mesh, the second hits the
  // arbiter's staging filter.
  for (const unsigned requester : {1u, 15u}) {
    for (const char* state : {"cold", "staged"}) {
      add(strformat("NDFT_Read_Remote(stack %u,%s)", requester, state), 16384,
          [&](auto done) { shm.read_remote(block, 16384, requester, done); });
    }
  }
  add("NDFT_Write_Remote(stack 15)", 16384,
      [&](auto done) { shm.write_remote(block, 16384, 15, done); });
  add("NDFT_Broadcast(15 stacks)", 16384 * 15,
      [&](auto done) { shm.broadcast(block, done); });
  ledger.add("table2.staging_hits", shm.staging_hits(), "count");
  ledger.add("table2.staging_misses", shm.staging_misses(), "count");
  ledger.add("table2.intra_stack_bytes", shm.intra_stack_bytes(), "B");
  ledger.add("table2.inter_stack_bytes", shm.inter_stack_bytes(), "B");
}

// ---------------------------------------------------------- Ablations

/// A1 (Section IV-A1): offload granularity, from the scheduler's
/// estimates. Finer granularities multiply crossing overheads; whole-
/// kernel granularity forfeits the CPU/NDP specialisation.
void a1(Ledger& ledger, const PaperRuns& paper) {
  ledger.group("A1: offload granularity (scheduler estimates)");
  for (const std::size_t atoms : kFig7Sizes) {
    for (const runtime::Granularity g :
         {runtime::Granularity::kInstruction, runtime::Granularity::kBasicBlock,
          runtime::Granularity::kFunction, runtime::Granularity::kKernel}) {
      const runtime::ExecutionPlan plan =
          paper.system.plan(paper.workloads.at(atoms), g);
      const std::string p =
          strformat("a1.%s.%s.", si(atoms).c_str(),
                    runtime::enum_names(g)[static_cast<std::size_t>(g)]);
      ledger.add(p + "est_total", plan.est_total_ps, "ps");
      ledger.add(p + "est_overhead", plan.est_overhead_ps, "ps");
      ledger.add(p + "overhead_share", plan.overhead_fraction() * 100.0, "%");
      ledger.add(p + "crossings", plan.crossings, "count");
    }
  }
}

/// A2 (Sections IV-B/IV-C): replicated vs shared-block pseudopotential
/// layout across system sizes, and the sharing traffic it costs.
void a2(Ledger& ledger, const PaperRuns& paper) {
  ledger.group("A2: pseudopotential layout vs system size");
  const Bytes capacity = paper.system.config().ndp_capacity;
  for (const std::size_t atoms : kFig8Sizes) {
    const runtime::PseudoStore store = paper.store(atoms);
    const runtime::PseudoFootprint replicated =
        store.on_ndp(runtime::PseudoLayout::kReplicated, capacity);
    const std::string p = "a2." + si(atoms) + ".";
    ledger.add(p + "replicated", replicated.total, "B");
    ledger.add(p + "replicated_share", replicated.fraction() * 100.0, "%");
    ledger.add(p + "replicated_status", fits(replicated), "status");
    ledger.add(
        p + "shared",
        store.on_ndp(runtime::PseudoLayout::kSharedBlock, capacity).total, "B");
    ledger.add(p + "ndft", store.on_ndft(capacity).total, "B");
  }
  for (const std::size_t atoms : kFig7Sizes) {
    const runtime::PseudoStore store = paper.store(atoms);
    const Bytes hier = store.sharing_traffic_bytes(true);
    const Bytes flat = store.sharing_traffic_bytes(false);
    const std::string p = "a2." + si(atoms) + ".";
    ledger.add(p + "traffic.hierarchical", hier, "B");
    ledger.add(p + "traffic.flat", flat, "B");
    ledger.add(p + "filter_saving", ratio(flat, hier), "x");
  }
}

/// A3's pattern: every unit of every stack reads `reads_per_unit` remote
/// blocks of `block_bytes`. Returns the makespan and the mesh bytes.
std::pair<TimePs, Bytes> sharing_pattern(bool hierarchical, Bytes block_bytes,
                                         unsigned reads_per_unit) {
  sim::EventQueue queue;
  ndp::NdpSystem ndp("ndp", queue, ndp::NdpSystemConfig::table3());
  runtime::SharedMemoryConfig config;
  config.hierarchical = hierarchical;
  runtime::SharedMemoryManager shm("shm", queue, ndp, config);
  // One block per stack, owned by that stack's unit 0.
  const unsigned stacks = ndp.stack_count();
  const unsigned units = ndp.config().stack.units;
  std::vector<runtime::SharedBlock> blocks;
  for (unsigned s = 0; s < stacks; ++s) {
    blocks.push_back(shm.alloc_shared(block_bytes, s * units));
  }
  TimePs last = 0;
  for (unsigned s = 0; s < stacks; ++s) {
    for (unsigned u = 0; u < units; ++u) {
      for (unsigned r = 0; r < reads_per_unit; ++r) {
        const unsigned owner = (s + 1 + r) % stacks;  // always remote
        shm.read_remote(blocks[owner], block_bytes, s,
                        [&last](TimePs at) { last = std::max(last, at); });
      }
    }
  }
  queue.run();
  return {last, shm.inter_stack_bytes()};
}

/// A3 (Section IV-C): hierarchical communication (per-stack arbiters and
/// SPM staging) against flat remote reads of pseudopotential blocks.
void a3(Ledger& ledger) {
  ledger.group("A3: hierarchical vs flat inter-stack communication");
  for (const Bytes block : {Bytes{64} << 10, Bytes{256} << 10}) {
    for (const unsigned reads : {4u, 12u}) {
      const auto [flat, flat_bytes] = sharing_pattern(false, block, reads);
      const auto [hier, hier_bytes] = sharing_pattern(true, block, reads);
      const std::string p = strformat(
          "a3.%lluB.%ureads.", static_cast<unsigned long long>(block), reads);
      ledger.add(p + "flat", flat, "ps");
      ledger.add(p + "hierarchical", hier, "ps");
      ledger.add(p + "speedup", ratio(flat, hier), "x");
      ledger.add(p + "mesh_bytes.flat", flat_bytes, "B");
      ledger.add(p + "mesh_bytes.hierarchical", hier_bytes, "B");
    }
  }
}

/// A4: open-page vs closed-page DRAM policy (DDR4-2400, 4 channels).
/// Open-page wins on streams (row-hit trains), closed-page on scattered
/// traffic, which is why the controllers default to open-page FR-FCFS.
void a4(Ledger& ledger) {
  ledger.group("A4: open-page vs closed-page DRAM policy");
  const unsigned count = 16000;
  // Effective GB/s of `count` 64-byte reads at the addresses `next` gives.
  const auto gbps = [count](mem::PagePolicy policy, auto&& next) {
    sim::EventQueue queue;
    mem::DramConfig config = mem::DramConfig::xeon_ddr4();
    config.access_latency_ps = 0;
    config.page_policy = policy;
    mem::DramSystem dram("d", queue, config);
    TimePs last = 0;
    for (unsigned i = 0; i < count; ++i) {
      mem::MemRequest req;
      req.addr = next(i);
      req.size = 64;
      req.on_complete = [&last](TimePs at) { last = std::max(last, at); };
      dram.access(std::move(req));
    }
    queue.run();
    return count * 64.0 / static_cast<double>(last) * 1000.0;
  };
  Prng prng(99);
  std::vector<Addr> random_addrs(count);
  for (Addr& addr : random_addrs) {
    addr = prng.next_below(1ull << 30) / 64 * 64;
  }
  const auto row = [&](const char* name, auto&& next) {
    const double open = gbps(mem::PagePolicy::kOpen, next);
    const double closed = gbps(mem::PagePolicy::kClosed, next);
    const std::string p = strformat("a4.%s.", name);
    ledger.add(p + "open", open, "GB/s");
    ledger.add(p + "closed", closed, "GB/s");
    ledger.add(p + "open_over_closed", open / closed, "x");
  };
  row("sequential", [](unsigned i) { return Addr(i) * 64; });
  row("strided_1KiB", [](unsigned i) { return Addr(i) * 1024; });
  row("random", [&](unsigned i) { return random_addrs[i]; });
}

/// A5: static vs profile-guided scheduling at Si_256. The misprofiled SCA
/// believes the host CPU has 2 TB/s of DRAM bandwidth, so the static plan
/// keeps memory-bound kernels on the CPU; the adaptive scheduler measures
/// one iteration on each side and re-plans.
struct A5 {
  runtime::ExecutionPlan oracle_plan, static_plan, adapted_plan;
  RunReport static_run, ndp_probe, adapted;
};

void a5(Ledger& ledger, const PaperRuns& paper, const A5& runs) {
  ledger.group("A5: static (misprofiled) vs adaptive scheduling, Si_256");
  const RunReport& oracle = paper.runs.at(256).ndft;
  const std::pair<const char*, const RunReport*> schedules[] = {
      {"oracle", &oracle}, {"static", &runs.static_run},
      {"adaptive", &runs.adapted}};
  for (const auto& [name, report] : schedules) {
    ledger.add(strformat("a5.%s.total", name), report->total_ps(), "ps");
    ledger.add(strformat("a5.%s.vs_oracle", name),
               ratio(report->total_ps(), oracle.total_ps()), "x");
  }
  const dft::Workload& w = paper.workloads.at(256);
  for (std::size_t i = 0; i < w.kernels.size(); ++i) {
    const std::string p = "a5." + w.kernels[i].name + ".";
    ledger.add(p + "oracle", to_string(runs.oracle_plan.placements[i].device),
               "device");
    ledger.add(p + "static", to_string(runs.static_plan.placements[i].device),
               "device");
    ledger.add(p + "adaptive",
               to_string(runs.adapted_plan.placements[i].device), "device");
  }
}

/// A6: NDFT at Si_256 against the mesh size; 4x4 is Table III's.
struct Mesh {
  const char* name;
  unsigned width;
  unsigned height;
};
constexpr Mesh kMeshes[] = {
    {"2x2", 2, 2}, {"2x4", 2, 4}, {"4x4", 4, 4}, {"4x8", 4, 8}};

/// The paper machine on `mesh`, planned with that mesh's own NDP beliefs
/// (scaled from Table III's as a SimulateJob's machine document is).
core::SystemConfig mesh_config(const Mesh& mesh) {
  core::SystemConfig config = core::SystemConfig::paper_default();
  config.ndp.mesh.width = mesh.width;
  config.ndp.mesh.height = mesh.height;
  config.processes.stacks = config.ndp.stacks();
  config.ndp_profile = core::ndp_profile_from(config.ndp, config.ndp_profile);
  return config;
}

/// The CPU baseline does not depend on the mesh, so every row shares the
/// paper machine's run, which is also the Table III mesh's NDFT run.
void a6(Ledger& ledger, const PaperRuns& paper,
        const std::map<std::string, RunReport>& mesh_runs) {
  ledger.group("A6: NDFT vs mesh size, Si_256");
  const auto& [cpu, gpu, paper_ndft] = paper.runs.at(256);
  for (const Mesh& mesh : kMeshes) {
    const core::SystemConfig config = mesh_config(mesh);
    const auto it = mesh_runs.find(mesh.name);
    const RunReport& ndft = it == mesh_runs.end() ? paper_ndft : it->second;
    const std::string p = strformat("a6.%s.", mesh.name);
    ledger.add(p + "ndp_cores", config.ndp.total_cores(), "count");
    ledger.add(p + "hbm_peak",
               config.ndp.stack.dram.peak_gbps() * config.ndp.stacks(),
               "GB/s");
    ledger.add(p + "cpu_total", cpu.total_ps(), "ps");
    ledger.add(p + "ndft_total", ndft.total_ps(), "ps");
    ledger.add(p + "speedup", core::speedup(cpu, ndft), "x");
  }
}

/// A7: memory-system energy per iteration. Stack-local HBM costs ~4
/// pJ/bit against ~20 pJ/bit for DDR4 and ~10 pJ/bit for PCIe staging.
void a7(Ledger& ledger, const PaperRuns& paper) {
  ledger.group("A7: memory-system energy per LR-TDDFT iteration");
  for (const std::size_t atoms : kFig7Sizes) {
    const auto& [cpu, gpu, ndft] = paper.runs.at(atoms);
    const std::string p = "a7." + si(atoms) + ".";
    ledger.add(p + "CPU", cpu.memory_energy_mj, "mJ");
    ledger.add(p + "GPU", gpu.memory_energy_mj, "mJ");
    ledger.add(p + "NDFT", ndft.memory_energy_mj, "mJ");
    ledger.add(p + "cpu_over_ndft",
               cpu.memory_energy_mj / ndft.memory_energy_mj, "x");
    ledger.add(p + "gpu_over_ndft",
               gpu.memory_energy_mj / ndft.memory_energy_mj, "x");
  }
}

}  // namespace

int main() try {
  PaperRuns paper;
  for (const std::size_t atoms : kFig8Sizes) {
    paper.workloads.emplace(atoms, paper.system.workload_for(atoms));
  }
  const dft::Workload& w256 = paper.workloads.at(256);

  // A5's plans: the true profile's, and the one a system makes whose SCA
  // believes the CPU has 2 TB/s of DRAM bandwidth.
  core::SystemConfig wrong = core::SystemConfig::paper_default();
  wrong.cpu_profile.dram_gbps = 2000.0;
  A5 a5_runs;
  a5_runs.oracle_plan = paper.system.plan(w256);
  a5_runs.static_plan = core::NdftSystem(wrong).plan(w256);

  // Every distinct simulation the rows read, listed once. The Fig. 8
  // trios also serve Fig. 4, Fig. 7, A7, A6's CPU baseline and 4x4 row,
  // and A5's oracle (run_planned on plan(w) is run(w, kNdft)).
  std::vector<Simulation> sims;
  for (const std::size_t atoms : kFig8Sizes) {
    Trio& trio = paper.runs[atoms];
    const dft::Workload* w = &paper.workloads.at(atoms);
    sims.push_back({&paper.system, w, ExecMode::kCpuBaseline, nullptr,
                    &trio.cpu});
    sims.push_back({&paper.system, w, ExecMode::kNdft, nullptr, &trio.ndft});
    sims.push_back({&paper.system, w, ExecMode::kGpuBaseline, nullptr,
                    &trio.gpu});
  }
  std::deque<core::NdftSystem> mesh_systems;
  std::map<std::string, RunReport> mesh_runs;
  const noc::MeshConfig& table3 = paper.system.config().ndp.mesh;
  for (const Mesh& mesh : kMeshes) {
    if (mesh.width == table3.width && mesh.height == table3.height) continue;
    sims.push_back({&mesh_systems.emplace_back(mesh_config(mesh)), &w256,
                    ExecMode::kNdft, nullptr, &mesh_runs[mesh.name]});
  }
  sims.push_back({&paper.system, &w256, ExecMode::kNdft,
                  &a5_runs.static_plan, &a5_runs.static_run});
  sims.push_back({&paper.system, &w256, ExecMode::kNdpOnly, nullptr,
                  &a5_runs.ndp_probe});
  run_all(sims);

  // A5's adaptive pass waits for its two probes: every kernel measured
  // once on each side (the static iteration and an all-NDP iteration).
  const runtime::Sca sca(wrong.cpu_profile, wrong.ndp_profile);
  const runtime::CostModel cost(wrong.cpu_profile, wrong.ndp_profile);
  runtime::AdaptiveScheduler adaptive(sca, cost);
  for (std::size_t i = 0; i < w256.kernels.size(); ++i) {
    adaptive.record(w256.kernels[i].name,
                    a5_runs.static_plan.placements[i].device,
                    a5_runs.static_run.kernels[i].time_ps);
    adaptive.record(w256.kernels[i].name, DeviceKind::kNdp,
                    a5_runs.ndp_probe.kernels[i].time_ps);
  }
  a5_runs.adapted_plan = adaptive.plan(w256);
  a5_runs.adapted = paper.system.run_planned(w256, a5_runs.adapted_plan);

  Ledger ledger;
  fig4(ledger, paper);
  fig7(ledger, paper);
  fig8(ledger, paper);
  table1(ledger, paper);
  table2(ledger);
  a1(ledger, paper);
  a2(ledger, paper);
  a3(ledger);
  a4(ledger);
  a5(ledger, paper, a5_runs);
  a6(ledger, paper, mesh_runs);
  a7(ledger, paper);
  ledger.print();

  Json bench = Json::object();
  bench.set("bench", "paper_claims");
  bench.set("meta", run_metadata_json());
  Json band = Json::array();
  band.push_back(kBandLow);
  band.push_back(kBandHigh);
  bench.set("band", std::move(band));
  const Json rows = ledger.rows();
  bench.set("rows", rows);
  const char* path = "BENCH_paper.json";
  if (!write_bench_json(path, bench)) {
    std::fprintf(stderr, "could not write %s\n", path);
    return 1;
  }
  std::printf("wrote %zu rows to %s\n", rows.size(), path);
  return 0;
} catch (const NdftError& error) {
  std::fprintf(stderr, "paper_claims: %s\n", error.what());
  return 1;
}
