#pragma once
// The abstract operation trace that couples the functional DFT kernels to
// the timing models. A kernel slice is rendered as a sequence of compute
// bundles and line-granularity memory accesses, which a CPU or NDP core
// pulls one at a time from an OpSource: a TraceStream generates them on
// demand (trace_gen.hpp), a TraceReplay reads a materialized Trace.

#include <vector>

#include "common/types.hpp"

namespace ndft::cpu {

/// Kind of a trace operation.
enum class OpKind : std::uint8_t {
  kCompute,  ///< a bundle of floating-point work
  kLoad,     ///< memory read (size <= one cache line)
  kStore,    ///< memory write
};

/// One operation in a kernel trace.
struct TraceOp {
  OpKind kind = OpKind::kCompute;
  Addr addr = 0;    ///< valid for loads/stores
  Bytes size = 64;  ///< valid for loads/stores
  Flops flops = 0;  ///< valid for compute bundles
};

/// A sampled trace. `scale` says how many times longer the real kernel is
/// than the sampled window; simulated elapsed time is multiplied by it.
struct Trace {
  std::vector<TraceOp> ops;
  double scale = 1.0;

  /// Total flops in the sampled window.
  Flops total_flops() const noexcept {
    Flops total = 0;
    for (const TraceOp& op : ops) total += op.flops;
    return total;
  }

  /// Total bytes touched by loads+stores in the sampled window.
  Bytes total_bytes() const noexcept {
    Bytes total = 0;
    for (const TraceOp& op : ops) {
      if (op.kind != OpKind::kCompute) total += op.size;
    }
    return total;
  }
};

/// A sequence of trace operations, pulled one at a time by a core.
class OpSource {
 public:
  virtual ~OpSource() = default;
  /// Stores the next operation in `op`; false once the sequence is done.
  virtual bool next(TraceOp& op) = 0;
};

/// Replays a materialized Trace; the trace must outlive the replay.
class TraceReplay final : public OpSource {
 public:
  explicit TraceReplay(const Trace& trace) : trace_(&trace) {}

  bool next(TraceOp& op) override {
    if (pc_ == trace_->ops.size()) return false;
    op = trace_->ops[pc_++];
    return true;
  }

 private:
  const Trace* trace_;
  std::size_t pc_ = 0;
};

}  // namespace ndft::cpu
