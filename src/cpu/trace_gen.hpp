#pragma once
// Synthesises representative operation traces from kernel-level parameters
// (flop count, traffic, access pattern). This is how large physical systems
// (Si_1024, Si_2048) are simulated in seconds: the trace is sampled down to
// `max_mem_ops` while preserving per-op arithmetic intensity and the access
// pattern's cache/row-buffer behaviour, and the elapsed time is scaled back
// up by the sampling factor.

#include "common/prng.hpp"
#include "common/types.hpp"
#include "cpu/trace.hpp"

namespace ndft::cpu {

/// Parameters describing one kernel slice (the work of one core).
struct TraceParams {
  Flops flops = 0;           ///< FP work in this slice
  Bytes bytes_read = 0;      ///< total bytes loaded (not unique)
  Bytes bytes_written = 0;   ///< total bytes stored
  AccessPattern pattern = AccessPattern::kSequential;
  Bytes working_set = 1 << 20;  ///< unique footprint of the slice
  Bytes stride_bytes = 256;     ///< step for kStrided
  Addr base_addr = 0;           ///< placement of the slice's data
  Bytes access_bytes = 64;      ///< granularity of each memory op
  std::uint64_t seed = 1;       ///< PRNG seed for kRandom
  std::size_t max_mem_ops = 40000;  ///< sampling bound
  /// Tile size for kBlocked sweeps; set to roughly half the private cache
  /// of the executing core (128 KiB for host cores, 16 KiB for NDP cores).
  Bytes block_bytes = 128 * 1024;
};

/// The sampled trace of one slice, generated one operation at a time as
/// a core pulls it, so a kernel's traces never exist in memory at once.
/// Each sampled memory op is preceded by the compute bundle that keeps
/// the slice's arithmetic intensity (omitted when it rounds to zero).
class TraceStream final : public OpSource {
 public:
  /// Throws NdftError on an access granularity outside 1..64 bytes or a
  /// sampling bound below 16.
  explicit TraceStream(const TraceParams& params);

  /// How many times longer the real slice is than the sampled window.
  double scale() const noexcept { return scale_; }

  bool next(TraceOp& op) override;

 private:
  /// Computes sampled op i_: its compute bundle and its memory op.
  void step();

  TraceParams params_;
  double scale_ = 1.0;
  std::uint64_t sampled_ops_ = 0;
  std::uint64_t i_ = 0;  ///< memory ops emitted so far
  double flops_per_op_ = 0.0;
  double flops_carry_ = 0.0;
  Bytes working_set_ = 64;
  std::uint64_t ws_lines_ = 1;
  std::uint64_t writes_per_16_ = 0;
  Addr cursor_ = 0;  ///< byte offset within the working set
  Prng prng_;
  // Blocked pattern: sweep a block of block_lines_ lines reuse_ times,
  // then move on.
  std::uint64_t block_lines_ = 1;
  std::uint64_t reuse_ = 1;
  std::uint64_t block_pos_ = 0;
  std::uint64_t block_pass_ = 0;
  Addr block_base_ = 0;
  Flops pure_compute_ = 0;  ///< a slice without traffic: one bundle
  TraceOp mem_op_;          ///< the memory op due after a compute bundle
  bool mem_pending_ = false;
};

/// Generates a whole sampled trace: a TraceStream drained into a Trace.
///
/// Invariants (checked by tests):
///  - per-op arithmetic intensity equals flops / (bytes_read+bytes_written)
///    up to rounding;
///  - ops.size() memory ops <= max_mem_ops;
///  - trace.scale * sampled traffic == requested traffic (±1 op).
Trace generate_trace(const TraceParams& params);

}  // namespace ndft::cpu
