#include "core/ndft_system.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <string>
#include <tuple>

#include "common/cancel.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/thread_pool.hpp"
#include "cpu/trace_gen.hpp"
#include "mem/energy.hpp"
#include "runtime/pseudo_store.hpp"
#include "runtime/sca.hpp"

namespace ndft::core {
namespace {

/// Fraction of a kernel's instruction-level traffic that is stores.
double write_fraction(KernelClass cls) {
  switch (cls) {
    case KernelClass::kFaceSplit: return 32.0 / 112.0;
    case KernelClass::kAlltoall: return 0.5;
    case KernelClass::kFft: return 0.5;
    case KernelClass::kGemm: return 0.05;
    case KernelClass::kPseudopotential: return 0.1;
    case KernelClass::kSyevd: return 0.3;
    case KernelClass::kOther: return 0.25;
  }
  return 0.25;
}

/// Builds one trace stream per core for a kernel, splitting work evenly;
/// core c's data starts at c working sets from address 0. All streams
/// share the same sampling scale. `llc_share` is the per-core slice of
/// the machine's last-level cache and `reuse_floor` the smallest
/// footprint that still reuses at LLC distance (i.e. just above the
/// private levels).
std::vector<cpu::TraceStream> make_traces(const dft::KernelWork& kernel,
                                          unsigned cores,
                                          const SystemConfig& config,
                                          Bytes block_bytes, Bytes llc_share,
                                          Bytes reuse_floor) {
  NDFT_ASSERT(cores > 0);
  const double wf = write_fraction(kernel.cls);
  const Bytes l1_per_core = std::max<Bytes>(kernel.l1_bytes / cores, 64);
  const auto writes = static_cast<Bytes>(static_cast<double>(l1_per_core) *
                                         wf);
  const Bytes reads = l1_per_core - writes;
  // Streaming kernels revisit their live buffers (input + output), the
  // way the real code makes multiple passes over P; blocked kernels use
  // the analytic panel-traffic volume as their sweep footprint — unless
  // the whole matrix is LLC-resident, in which case the only DRAM
  // traffic is the matrix itself. Using traffic volume as the address
  // footprint for streams would sprawl past physical memory and alias
  // DRAM rows unphysically.
  const Bytes live = kernel.input_bytes + kernel.output_bytes;
  Bytes footprint = kernel.dram_bytes;
  if (kernel.pattern != AccessPattern::kBlocked) {
    if (live > 0) {
      footprint = std::min<Bytes>(footprint, live);
    }
  } else if (live > 0 && live <= llc_share * cores) {
    footprint = live;  // LLC-resident panels: stream the matrix once
  }
  Bytes ws = std::max<Bytes>(footprint / cores, 4096);
  std::size_t ops =
      std::clamp(config.sampled_ops_per_kernel / cores,
                 config.min_ops_per_core, config.max_ops_per_core);

  // A blocked kernel's sample must cover at least one full reuse cycle
  // of the physical tile; with fewer ops the trace generator shrinks the
  // tile to fit the window, which moves its reuse hits into a faster
  // cache level than the real tile can reach (a 128 KiB panel reused
  // from L2 would sample as L1-resident and report an optimistic time).
  // Grow the window instead of letting the tile shrink.
  if (kernel.pattern == AccessPattern::kBlocked) {
    const Bytes block = std::min<Bytes>(std::max<Bytes>(block_bytes, 64),
                                        std::max<Bytes>(ws, 64));
    const std::uint64_t reuse =
        std::max<std::uint64_t>(l1_per_core / std::max<Bytes>(ws, 1), 1);
    const auto cycle_ops =
        static_cast<std::size_t>(reuse * std::max<Bytes>(block / 64, 1));
    ops = std::max(ops, std::min(cycle_ops, config.max_ops_per_core));
  }

  // Sampling-window correction: when the real execution makes several
  // passes over an LLC-resident footprint but the sampled window is
  // shorter than one pass, the sample would look all-cold and
  // misrepresent a cache-friendly kernel as DRAM-bound. Shrink the
  // footprint so the window observes the same number of passes, keeping
  // the reuse distance above the private levels (reuse_floor) so hits
  // come from the correct cache level.
  const Bytes sampled_bytes = static_cast<Bytes>(ops) * 64;
  const std::uint64_t passes =
      std::max<std::uint64_t>(l1_per_core / std::max<Bytes>(ws, 1), 1);
  if (passes > 1 && ws <= llc_share && ws > sampled_bytes) {
    ws = std::max<Bytes>(sampled_bytes / passes, reuse_floor);
    ws = std::max<Bytes>(ws, 4096);
  }
  const Bytes ws_aligned = (ws + 4095) / 4096 * 4096;

  std::vector<cpu::TraceStream> traces;
  traces.reserve(cores);
  for (unsigned c = 0; c < cores; ++c) {
    cpu::TraceParams params;
    params.flops = kernel.flops / cores;
    params.bytes_read = reads;
    params.bytes_written = writes;
    params.pattern = kernel.pattern;
    params.working_set = ws;
    params.stride_bytes = kernel.stride_bytes;
    params.base_addr = static_cast<Addr>(c) * ws_aligned;
    params.seed = 0x5eed0000 + c;
    params.max_mem_ops = ops;
    params.block_bytes = block_bytes;
    traces.emplace_back(params);
  }
  return traces;
}

TimePs scaled(TimePs elapsed, double scale) {
  return static_cast<TimePs>(static_cast<double>(elapsed) * scale + 0.5);
}

/// Adds one counter to a roll-up: *_peak keys keep the maximum, every
/// other key sums.
void add_stat(std::map<std::string, double>& out, const std::string& key,
              double value) {
  double& slot = out[key];
  if (key.size() > 5 && key.compare(key.size() - 5, 5, "_peak") == 0) {
    slot = std::max(slot, value);
  } else {
    slot += value;
  }
}

/// Rolls the full per-instance StatSet tree into one bounded key per
/// (component class, counter) pair. The allowlist keeps the payload size
/// independent of the machine size (a 16-stack machine has 128 DRAM
/// channels — nobody wants 128 rows of "row_hits" in a job result).
std::map<std::string, double> roll_up_stats(const sim::StatSet& all) {
  static const char* const kLeaves[] = {
      // Fabric connection / staging counters (sim/port.hpp).
      "messages", "bytes", "hops", "contention_ps", "backpressure_stalls",
      "backpressure_stall_ps", "staged_peak", "queue_peak", "fault_delays",
      // DRAM channel counters (mem/dram_channel.cpp).
      "reads", "writes", "row_hits", "row_misses", "row_conflicts",
      "refresh_stall_ps", "refreshes",
  };
  std::map<std::string, double> out;
  for (const auto& [key, value] : all.snapshot()) {
    const char* group = nullptr;
    if (key.find(".mesh.") != std::string::npos) group = "mesh";
    else if (key.find(".serdes.") != std::string::npos) group = "serdes";
    else if (key.find(".dram.") != std::string::npos) group = "dram";
    else if (key.find(".spm.") != std::string::npos) group = "spm";
    else continue;  // core/cache counters stay out of the bounded set
    const std::string leaf = key.substr(key.rfind('.') + 1);
    bool allowed = false;
    for (const char* candidate : kLeaves) {
      if (leaf == candidate) allowed = true;
    }
    if (allowed) add_stat(out, std::string(group) + "." + leaf, value);
  }
  return out;
}

/// One kernel simulated alone on a fresh machine.
struct KernelRun {
  TimePs time_ps = 0;  ///< scaled up from the sampled window
  double memory_energy_mj = 0.0;
  Bytes mesh_bytes = 0;
  Bytes sharing_bytes = 0;
  TimePs window_ps = 0;  ///< the sampled window, unscaled
  std::map<std::string, double> stats;  ///< roll_up_stats of the machine
};

/// Starts one core per trace on `machine` (a CpuComplex or NdpSystem);
/// `done` gets the time its last core retires once the queue runs.
template <typename Machine>
void start_traces(Machine& machine, std::vector<cpu::TraceStream>& traces,
                  const sim::EventQueue& queue, std::optional<TimePs>& done) {
  std::vector<cpu::OpSource*> sources;
  sources.reserve(traces.size());
  for (cpu::TraceStream& t : traces) sources.push_back(&t);
  machine.run(sources, [&done, &queue] { done = queue.now(); });
}

/// Runs `kernel` on `machine`'s cores until its queue drains; returns
/// the sampling scale.
double run_on_cpu(const dft::KernelWork& kernel, cpu::CpuComplex& machine,
                  sim::EventQueue& queue, const SystemConfig& config) {
  const cpu::CpuComplexConfig& cpu = machine.config();
  auto traces = make_traces(kernel, cpu.cores, config, Bytes{128} << 10,
                            cpu.l3.size_bytes / cpu.cores,
                            cpu.l2.size_bytes * 3 / 2);
  std::optional<TimePs> done;
  start_traces(machine, traces, queue, done);
  queue.run();
  NDFT_ASSERT(done.has_value());
  return traces.front().scale();
}

/// The CPU baseline's Xeon server running `kernel`.
KernelRun simulate_on_xeon(const dft::KernelWork& kernel,
                           const SystemConfig& config) {
  sim::EventQueue queue;
  mem::DramSystem dram("xeon.dram", queue, config.xeon_dram);
  cpu::CpuComplex machine("xeon", queue, config.xeon, dram);
  const double scale = run_on_cpu(kernel, machine, queue, config);

  KernelRun run;
  run.time_ps = scaled(queue.now(), scale);
  run.window_ps = queue.now();
  // Dynamic energy scales with the sampling factor; background power
  // burns over the kernel's (already scaled) duration.
  const mem::DramEnergy ddr4 = mem::DramEnergy::ddr4();
  const double background_mw =
      ddr4.background_with_refresh_mw(config.xeon_dram.timing.tCK_ps *
                                      config.xeon_dram.timing.tREFI) *
      config.xeon_dram.channels;
  run.memory_energy_mj =
      dram.dynamic_energy_nj(ddr4) * scale * 1e-6 +
      background_mw * static_cast<double>(run.time_ps) * 1e-12;
  sim::StatSet stats;
  dram.collect_stats("xeon.dram", stats);
  run.stats = roll_up_stats(stats);
  return run;
}

/// The CPU-NDP machine running `kernel` on its host CPU (`on_host`) or on
/// its NDP cores. Under the co-design, a pseudopotential kernel on the
/// NDP cores also streams the shared blocks between stacks.
KernelRun simulate_on_ndp_machine(const dft::KernelWork& kernel,
                                  bool on_host, bool co_design,
                                  const SystemConfig& config) {
  sim::EventQueue queue;
  ndp::NdpSystem ndp("ndp", queue, config.ndp);
  KernelRun run;
  double scale = 1.0;
  if (on_host) {
    cpu::CpuComplex host("host", queue, config.host_cpu, ndp.cpu_port());
    scale = run_on_cpu(kernel, host, queue, config);
    run.time_ps = scaled(queue.now(), scale);
  } else {
    const unsigned stacks = ndp.stack_count();
    auto traces = make_traces(kernel, config.ndp.total_cores(), config,
                              Bytes{16} << 10, config.ndp.stack.l1.size_bytes,
                              4096);
    // Fabric traffic that overlaps the computation: Alltoall exchange
    // between stacks, and (under the co-design) the pseudopotential
    // shared-block streaming filtered by the per-stack arbiters.
    Bytes per_pair_bytes = 0;
    if (kernel.cls == KernelClass::kAlltoall) {
      per_pair_bytes = kernel.comm_volume / (stacks * stacks);
    } else if (co_design && kernel.cls == KernelClass::kPseudopotential) {
      per_pair_bytes = kernel.dram_bytes / (stacks * stacks);
      if (!config.shared_memory.hierarchical) {
        // Flat mode: every worker process fetches its own remote copy.
        per_pair_bytes *=
            std::max(1u, config.processes.ndp_processes / stacks);
      }
      run.sharing_bytes =
          static_cast<Bytes>(stacks) * (stacks - 1) * per_pair_bytes;
    }
    std::optional<TimePs> trace_done;
    start_traces(ndp, traces, queue, trace_done);
    TimePs mesh_done = 0;
    if (per_pair_bytes > 0) {
      for (unsigned s = 0; s < stacks; ++s) {
        for (unsigned d = 0; d < stacks; ++d) {
          if (s == d) continue;
          ndp.mesh().send(s, d, per_pair_bytes,
                          [&mesh_done, &queue](TimePs) {
                            mesh_done = queue.now();
                          });
        }
      }
    }
    queue.run();
    NDFT_ASSERT(trace_done.has_value());
    scale = traces.front().scale();
    run.time_ps = std::max(scaled(*trace_done, scale), mesh_done);
  }
  run.window_ps = queue.now();
  // DRAM command energy in the window scales with the sampling factor;
  // mesh messages were issued at full volume; background power burns
  // over the kernel's (already scaled) duration.
  run.memory_energy_mj =
      ndp.dram_dynamic_energy_nj() * scale * 1e-6 +
      ndp.mesh().energy_nj() * 1e-6 +
      ndp.dram_background_mw() * static_cast<double>(run.time_ps) * 1e-12;
  run.mesh_bytes = ndp.mesh().bytes_sent();
  sim::StatSet stats;
  ndp.collect_stats("ndp", stats);
  run.stats = roll_up_stats(stats);
  return run;
}

/// One kernel's simulation: a pure function of its descriptor, device,
/// mode and config. The CPU baseline runs every kernel on the Xeon.
KernelRun simulate_kernel(const dft::KernelWork& kernel, DeviceKind device,
                          ExecMode mode, const SystemConfig& config) {
  if (mode == ExecMode::kCpuBaseline) return simulate_on_xeon(kernel, config);
  return simulate_on_ndp_machine(kernel, device == DeviceKind::kCpu,
                                 mode == ExecMode::kNdft, config);
}

/// True when two kernels simulate alike: every descriptor field but the
/// name is equal.
bool same_work(const dft::KernelWork& a, const dft::KernelWork& b) {
  const auto fields = [](const dft::KernelWork& k) {
    return std::tie(k.cls, k.flops, k.l1_bytes, k.dram_bytes, k.pattern,
                    k.stride_bytes, k.comm_volume, k.input_bytes,
                    k.output_bytes);
  };
  return fields(a) == fields(b);
}

/// Every kernel on one device, no crossings.
runtime::ExecutionPlan all_on(DeviceKind device, std::size_t kernels) {
  runtime::ExecutionPlan plan;
  plan.placements.assign(kernels, runtime::Placement{});
  for (runtime::Placement& p : plan.placements) p.device = device;
  return plan;
}

}  // namespace

NdftSystem::NdftSystem(SystemConfig config) : config_(std::move(config)) {}

dft::Workload NdftSystem::workload_for(std::size_t atoms) const {
  return dft::Workload::lrtddft_iteration(dft::SystemDims::silicon(atoms));
}

dft::Workload NdftSystem::workload_from_trace(
    const KernelTrace& trace) const {
  return dft::Workload::from_trace(trace);
}

runtime::ExecutionPlan NdftSystem::plan(
    const dft::Workload& workload, runtime::Granularity granularity) const {
  const runtime::Sca sca(config_.cpu_profile, config_.ndp_profile);
  const runtime::CostModel cost(config_.cpu_profile, config_.ndp_profile);
  const runtime::Scheduler scheduler(sca, cost);
  return scheduler.plan(workload, granularity);
}

RunReport NdftSystem::run(std::size_t atoms, ExecMode mode) const {
  return run(workload_for(atoms), mode);
}

RunReport NdftSystem::run(const dft::Workload& workload,
                          ExecMode mode) const {
  switch (mode) {
    case ExecMode::kCpuBaseline:
    case ExecMode::kNdpOnly:
      return run_simulated(
          workload,
          all_on(mode == ExecMode::kCpuBaseline ? DeviceKind::kCpu
                                                : DeviceKind::kNdp,
                 workload.kernels.size()),
          mode);
    case ExecMode::kGpuBaseline: return run_gpu_baseline(workload);
    case ExecMode::kNdft: return run_simulated(workload, plan(workload), mode);
  }
  throw NdftError("unknown execution mode");
}

RunReport NdftSystem::run_gpu_baseline(const dft::Workload& workload) const {
  const gpu::GpuModel model(config_.gpu);
  RunReport report;
  report.mode = ExecMode::kGpuBaseline;
  report.dims = workload.dims;

  for (std::size_t i = 0; i < workload.kernels.size(); ++i) {
    const dft::KernelWork& kernel = workload.kernels[i];
    Bytes h2d = 0;
    Bytes d2h = 0;
    // The paper's GPU critique: the multi-process LR-TDDFT pipeline
    // stages each kernel's working arrays between host and device memory
    // around the MPI steps. The response GEMM is the exception: its
    // operands were just produced on-device, so it runs resident; the
    // Alltoall moves device-to-device over NVLink instead of PCIe.
    if (kernel.cls != KernelClass::kGemm &&
        kernel.cls != KernelClass::kAlltoall) {
      h2d += kernel.input_bytes;
      d2h += kernel.output_bytes;
    }
    // Working data beyond device memory additionally spills each pass.
    const Bytes working = kernel.input_bytes + kernel.output_bytes;
    if (working > config_.gpu.device_memory) {
      const Bytes spill = working - config_.gpu.device_memory;
      h2d += spill;
      d2h += spill;
    }
    gpu::GpuStepTime t = model.execute(kernel.cls, kernel.flops,
                                       kernel.dram_bytes, h2d, d2h);
    if (kernel.cls == KernelClass::kAlltoall) {
      t.kernel += model.peer_transfer(kernel.comm_volume);
    }
    // Memory-system energy: device HBM at ~4 pJ/bit, PCIe at ~10 pJ/bit
    // (1 pJ = 1e-9 mJ), plus ~20 W of HBM background across both devices.
    const double energy_mj =
        (static_cast<double>(kernel.dram_bytes) * 8.0 * 4.0 +
         static_cast<double>(h2d + d2h) * 8.0 * 10.0) *
            1e-9 +
        20000.0 * static_cast<double>(t.total()) * 1e-12;
    report.kernels.push_back(KernelTime{kernel.name, kernel.cls,
                                        DeviceKind::kGpu, t.total(),
                                        energy_mj, 0, 0});
    report.memory_energy_mj += energy_mj;
  }

  const runtime::PseudoStore store(workload, config_.processes);
  runtime::PseudoFootprint footprint;
  footprint.capacity = config_.gpu.device_memory;
  footprint.per_process = store.copy_bytes();
  footprint.total = store.copy_bytes();  // one resident copy on the device
  report.pseudo = footprint;
  return report;
}

RunReport NdftSystem::run_planned(const dft::Workload& workload,
                                  const runtime::ExecutionPlan& plan) const {
  return run_simulated(workload, plan, ExecMode::kNdft);
}

RunReport NdftSystem::run_simulated(const dft::Workload& workload,
                                    const runtime::ExecutionPlan& plan,
                                    ExecMode mode) const {
  const std::vector<dft::KernelWork>& kernels = workload.kernels;
  NDFT_REQUIRE(plan.placements.size() == kernels.size(),
               "plan must cover every kernel of the workload");
  const auto device_of = [&plan](std::size_t i) {
    return plan.placements[i].device;
  };

  // Each distinct (descriptor, device) is simulated once: kernel i reads
  // runs[slot[i]], and firsts[s] is the first kernel of slot s.
  std::vector<std::size_t> slot(kernels.size());
  std::vector<std::size_t> firsts;
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    std::size_t s = 0;
    while (s < firsts.size() &&
           !(device_of(firsts[s]) == device_of(i) &&
             same_work(kernels[firsts[s]], kernels[i]))) {
      ++s;
    }
    if (s == firsts.size()) firsts.push_back(i);
    slot[i] = s;
  }
  std::vector<KernelRun> runs(firsts.size());
  const auto simulate = [&](std::size_t s) {
    runs[s] = simulate_kernel(kernels[firsts[s]], device_of(firsts[s]), mode,
                              config_);
  };
  // Armed faults keep every simulation on the job thread, in kernel order
  // (below), so a spec's fault draws replay bitwise.
  const bool serial = fault_enabled();
  if (!serial) {
    // cancel_point() checks the job's token on the job thread and is a
    // null check on a pool worker.
    parallel_for(0, firsts.size(), 1, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t s = lo; s < hi; ++s) {
        cancel_point();
        simulate(s);
      }
    });
  }

  RunReport report;
  report.mode = mode;
  report.dims = workload.dims;
  TimePs windows_ps = 0;
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    // Stage boundary: one simulated kernel at a time, on the job thread.
    cancel_point();
    fault_point("sim.mem");
    if (serial && firsts[slot[i]] == i) simulate(slot[i]);
    const KernelRun& run = runs[slot[i]];
    const runtime::Placement& placement = plan.placements[i];
    if (mode == ExecMode::kNdft && placement.crossing) {
      report.sched_overhead_ps +=
          placement.transfer_in_ps + placement.switch_in_ps;
    }
    report.kernels.push_back(KernelTime{
        kernels[i].name, kernels[i].cls, placement.device, run.time_ps,
        run.memory_energy_mj, run.mesh_bytes, run.sharing_bytes});
    report.memory_energy_mj += run.memory_energy_mj;
    report.mesh_bytes += run.mesh_bytes;
    report.sharing_bytes += run.sharing_bytes;
    windows_ps += run.window_ps;
    for (const auto& [key, value] : run.stats) {
      add_stat(report.stats, key, value);
    }
  }
  if (windows_ps > 0) {
    // Bytes moved over peak bandwidth x the summed sampled windows; GB/s
    // (decimal) is 1e-3 bytes/ps, and the NDP peak aggregates all stacks.
    const double peak_gbps =
        mode == ExecMode::kCpuBaseline
            ? config_.xeon_dram.peak_gbps()
            : config_.ndp.stack.dram.peak_gbps() * config_.ndp.stacks();
    report.stats["dram.channel_utilization"] =
        report.stats["dram.bytes"] /
        (peak_gbps * 1e-3 * static_cast<double>(windows_ps));
  }

  const runtime::PseudoStore store(workload, config_.processes);
  switch (mode) {
    case ExecMode::kCpuBaseline:
      report.pseudo = store.on_cpu(config_.cpu_capacity);
      break;
    case ExecMode::kNdpOnly:
      report.pseudo = store.on_ndp(runtime::PseudoLayout::kReplicated,
                                   config_.ndp_capacity);
      break;
    default: report.pseudo = store.on_ndft(config_.ndp_capacity); break;
  }
  return report;
}

}  // namespace ndft::core
