#pragma once
// Unified kernel-dispatch/trace layer: the hot kernels (fft3d, gemm,
// syevd/heev, the nonlocal projectors) and the pipeline stage boundaries
// (SCF / LR-TDDFT / EPM) all report through here, so one real run emits
// an ordered stream of kernel events — class, analytic flop/byte counts,
// grid/matrix dimensions and the measured host wall time. The stream is
// the measured counterpart of the analytic dft::Workload: it feeds the
// co-design loop (Workload::from_trace + runtime::calibrate_cpu), closing
// the gap between the DFT numerics and the NDP scheduler.
//
// Recording model and determinism:
//  - A TraceScope installs a TraceRecorder on the *calling thread*; only
//    that thread emits events. Kernels invoked from pool workers inside a
//    parallel_for never record (they have no recorder installed), and
//    kernels the recording thread runs inline inside a parallel region
//    are suppressed by the enclosing TraceRegion. Event order is
//    therefore program order, and the recorded structure (class, name,
//    counts, dims) is bitwise identical for any pool width; only host_ms
//    varies between runs.
//  - The event is the one record of a kernel's work: each kernel computes
//    its analytic flop/byte tally once, in its KernelTimer or TraceRegion
//    call (never sampled hardware counters), and benchmarks, tests and
//    the co-design loop all read it from here. That is what makes traces
//    comparable against workload.hpp's closed-form model.
//  - Nested kernels fold into their outermost entry (a GEMM inside syevd
//    is part of the syevd event), mirroring the linalg timer.
//
// When no recorder is installed every hook is a cheap no-op (one
// thread-local pointer test), so production runs without tracing pay
// nothing measurable.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/json_fields.hpp"
#include "common/types.hpp"

namespace ndft {

/// One recorded kernel execution (or aggregated pipeline stage).
struct TraceEvent {
  KernelClass cls = KernelClass::kOther;
  std::string name;       ///< kernel / stage name ("syevd", "scf.density")
  std::string stage;      ///< enclosing pipeline stage ("scf[3]", "lrtddft")
  Flops flops = 0;        ///< analytic flop count
  Bytes bytes = 0;        ///< analytic instruction-level traffic
  Bytes input_bytes = 0;  ///< operand bytes consumed from the prior stage
  Bytes output_bytes = 0; ///< result bytes handed to the next stage
  std::uint64_t dims[3] = {0, 0, 0};  ///< grid (nx,ny,nz) / matrix (m,n,k)
  double host_ms = 0.0;   ///< measured wall-clock milliseconds
};

/// An ordered kernel trace of one run plus the system metadata needed to
/// rebuild a dft::Workload from it.
struct KernelTrace {
  std::size_t atoms = 0;        ///< atom count of the traced system
  std::size_t basis_size = 0;   ///< N_G of the traced basis
  std::size_t grid_points = 0;  ///< Nr of the traced FFT grid
  std::size_t pool_threads = 0; ///< kernel pool width during the run
  bool truncated = false;       ///< event cap hit; tail events dropped
  std::vector<TraceEvent> events;

  Flops total_flops() const noexcept;
  Bytes total_bytes() const noexcept;
  double total_host_ms() const noexcept;
  /// Number of events of one kernel class.
  std::size_t count_of(KernelClass cls) const noexcept;
  /// Summed flops of one kernel class.
  Flops flops_of(KernelClass cls) const noexcept;
  /// Summed instruction-level bytes of one kernel class.
  Bytes bytes_of(KernelClass cls) const noexcept;

  /// Serializes under the "ndft.kernel_trace.v1" schema.
  Json to_json() const;
  /// Reconstructs a trace; throws NdftError on schema mismatch or any
  /// member that breaks the reading rule (common/json_fields.hpp). Only
  /// the program writes traces, so every member is required.
  static KernelTrace from_json(const Json& json);
};

// Field lists (common/json_fields.hpp). They live here because traces
// also travel inside job requests and results.

template <class Io>
void fields(Io& io, TraceEvent& e) {
  io("class", e.cls);
  io("name", e.name);
  io("stage", e.stage);
  io("flops", e.flops);
  io("bytes", e.bytes);
  io("input_bytes", e.input_bytes);
  io("output_bytes", e.output_bytes);
  io("dims", e.dims);
  io("host_ms", e.host_ms);
}

template <class Io>
void fields(Io& io, KernelTrace& t) {
  io.schema("ndft.kernel_trace.v1", JsonAuthor::kProgram);
  io("atoms", t.atoms);
  io("basis_size", t.basis_size);
  io("grid_points", t.grid_points);
  io("pool_threads", t.pool_threads);
  io("truncated", t.truncated);
  io("events", t.events);
}

/// Thread-safe per-run event sink. One recorder lives for the duration of
/// one traced job; TraceScope routes the calling thread's kernels to it.
class TraceRecorder {
 public:
  /// Hard cap on recorded events; beyond it events are dropped and the
  /// trace is marked truncated (a runaway SCF cannot eat the heap).
  static constexpr std::size_t kMaxEvents = 65536;

  TraceRecorder();
  ~TraceRecorder();
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Appends one event (thread-safe, though in practice only the scope
  /// thread emits).
  void record(TraceEvent event);

  /// Stamps the traced system's dimensions (atoms / N_G / Nr).
  void set_system(std::size_t atoms, std::size_t basis_size,
                  std::size_t grid_points);

  /// Moves the accumulated trace out (the recorder resets to empty).
  KernelTrace take();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// True when the calling thread has a recorder installed and recording is
/// not suppressed by an enclosing region/kernel. Pipelines use this to
/// skip building per-event metadata (e.g. formatting per-iteration stage
/// labels) on untraced runs.
bool trace_active() noexcept;

/// RAII: routes the calling thread's kernel events to `recorder` for the
/// scope's lifetime. Scopes must not nest on one thread.
class TraceScope {
 public:
  explicit TraceScope(TraceRecorder& recorder);
  ~TraceScope();
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;
};

/// RAII: labels events emitted in the scope with a pipeline stage name
/// ("scf[2]", "lrtddft", "bands[L]"). Nestable; restores the previous
/// label on exit. No-op when the thread is not recording.
class TraceStage {
 public:
  explicit TraceStage(std::string stage);
  ~TraceStage();
  TraceStage(const TraceStage&) = delete;
  TraceStage& operator=(const TraceStage&) = delete;

 private:
  std::string previous_;
  bool active_ = false;
};

/// RAII: aggregates a whole pipeline phase (e.g. the pair-product FFT
/// batch, the SCF density update) into ONE event. While a region is open
/// on the recording thread, individual kernel entries are suppressed —
/// their chunking under parallel_for would otherwise make the event
/// stream depend on the pool width. The region's flop/byte counts are
/// supplied explicitly by the pipeline (deterministic analytic tallies)
/// via add_work(); the region measures its own wall time.
class TraceRegion {
 public:
  TraceRegion(KernelClass cls, std::string name);
  ~TraceRegion();
  TraceRegion(const TraceRegion&) = delete;
  TraceRegion& operator=(const TraceRegion&) = delete;

  /// Folds deterministic work into the region's event.
  void add_work(Flops flops, Bytes bytes) noexcept;
  /// Dimensions for the emitted event (grid or matrix shape).
  void set_dims(std::uint64_t a, std::uint64_t b, std::uint64_t c) noexcept;
  /// Operand traffic for the scheduler's DT term.
  void set_io(Bytes input_bytes, Bytes output_bytes) noexcept;

  struct State;  ///< implementation detail (thread-local region chain)

 private:
  State* state_ = nullptr;  ///< null when the thread is not recording
};

/// Stamps the traced system's dimensions on the calling thread's recorder
/// (no-op when the thread is not recording). The pipelines call this with
/// their real basis/grid sizes so Workload::from_trace can rebuild
/// SystemDims from measured values.
void trace_set_system(std::size_t atoms, std::size_t basis_size,
                      std::size_t grid_points) noexcept;

/// RAII used inside the hot kernel entry points (fft3d, gemm, syevd,
/// syevd_partial, heev, KbProjectors::apply): times the call and emits
/// one event to the thread's recorder.
/// Only the outermost kernel on the thread emits (nested entries fold),
/// and an open TraceRegion suppresses emission entirely. All setters are
/// no-ops when the timer is inactive, so entry points may call them
/// unconditionally.
class KernelTimer {
 public:
  KernelTimer(KernelClass cls, const char* name);
  ~KernelTimer();
  KernelTimer(const KernelTimer&) = delete;
  KernelTimer& operator=(const KernelTimer&) = delete;

  /// True when this timer will emit an event (outermost + recording).
  bool active() const noexcept { return active_; }

  void set_work(Flops flops, Bytes bytes) noexcept;
  void set_dims(std::uint64_t a, std::uint64_t b, std::uint64_t c) noexcept;
  void set_io(Bytes input_bytes, Bytes output_bytes) noexcept;

 private:
  TraceEvent event_;
  double start_ms_ = 0.0;
  bool active_ = false;
};

}  // namespace ndft
