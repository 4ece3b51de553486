#pragma once
// Trace-driven core timing model.
//
// Models a decoupled core: compute bundles retire at the core's peak FP
// rate, memory operations issue into the cache hierarchy and overlap up to
// `max_outstanding` in flight (memory-level parallelism). With a wide
// window and high MLP this approximates an out-of-order host core; with
// MLP of 1-2 it approximates the paper's in-order NDP cores.

#include <functional>
#include <string>

#include "common/units.hpp"
#include "cpu/trace.hpp"
#include "mem/mem_request.hpp"
#include "sim/sim_object.hpp"

namespace ndft::cpu {

/// Hot-path execution counters; publish_stats() copies them into the
/// StatSet.
struct CoreCounters {
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t mlp_stalls = 0;
  double flops = 0.0;
  double mem_bytes = 0.0;
};

/// Microarchitectural parameters of one core.
struct CoreConfig {
  std::uint64_t freq_mhz = 3000;
  unsigned issue_width = 4;       ///< memory ops issued per cycle (front end)
  double flops_per_cycle = 16.0;  ///< peak FP retire rate
  unsigned max_outstanding = 10;  ///< in-flight memory ops (MLP)

  /// Peak FP throughput in GFLOP/s.
  double peak_gflops() const noexcept {
    return static_cast<double>(freq_mhz) / 1000.0 * flops_per_cycle;
  }

  /// Xeon E5-2695-like baseline core: 2.4 GHz, AVX2 FMA (16 DP flop/cyc).
  static CoreConfig xeon_core();
  /// Table III host core: 3 GHz, 4-way superscalar, wide vector FP.
  static CoreConfig host_core();
  /// Table III NDP core: 2 GHz in-order, scalar FPU, shallow MLP.
  static CoreConfig ndp_core();
};

/// A single trace-driven core attached to a memory port (normally an L1).
class Core : public sim::SimObject {
 public:
  Core(std::string name, sim::EventQueue& queue, const CoreConfig& config,
       mem::MemoryPort& port);

  /// Begins executing the operations `ops` yields; `on_done` fires (as an
  /// event) when the last one has retired. `ops` must outlive execution.
  /// A core runs one sequence at a time.
  void run_trace(OpSource& ops, std::function<void()> on_done);

  /// True while a sequence is executing.
  bool busy() const noexcept { return ops_ != nullptr; }

  /// Raw execution counters.
  const CoreCounters& counters() const noexcept { return counters_; }

  /// Copies the counters into the StatSet (call before reading stats()).
  void publish_stats();

  const CoreConfig& config() const noexcept { return config_; }

 private:
  void advance();
  /// Pulls the next operation into op_; false once the sequence is done.
  bool fetch();
  /// Sends one memory operation into the port; its completion resumes
  /// advance().
  void issue(Addr addr, Bytes size, bool is_write);
  void try_finish();

  CoreConfig config_;
  Clock clock_;
  mem::MemoryPort* port_;
  OpSource* ops_ = nullptr;
  std::function<void()> on_done_;
  TraceOp op_;              ///< the operation due next, when has_op_
  bool has_op_ = false;
  bool exhausted_ = false;  ///< ops_ has yielded its last operation
  unsigned outstanding_ = 0;
  TimePs issue_time_ = 0;       ///< core-local front-end time
  TimePs last_completion_ = 0;  ///< latest memory completion
  CoreCounters counters_;
};

}  // namespace ndft::cpu
