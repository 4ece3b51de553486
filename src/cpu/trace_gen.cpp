#include "cpu/trace_gen.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/math_util.hpp"

namespace ndft::cpu {

TraceStream::TraceStream(const TraceParams& params)
    : params_(params), prng_(params.seed) {
  NDFT_REQUIRE(params.access_bytes > 0 && params.access_bytes <= 64,
               "access granularity must be 1..64 bytes");
  NDFT_REQUIRE(params.max_mem_ops >= 16, "sampling bound too small");

  const Bytes total_bytes = params.bytes_read + params.bytes_written;
  // Pure-compute slice: one bundle, no sampling needed.
  if (total_bytes == 0) {
    pure_compute_ = params.flops;
    return;
  }

  const std::uint64_t total_ops =
      std::max<std::uint64_t>(1, total_bytes / params.access_bytes);
  sampled_ops_ = total_ops;
  if (total_ops > params.max_mem_ops) {
    scale_ = static_cast<double>(total_ops) /
             static_cast<double>(params.max_mem_ops);
    sampled_ops_ = params.max_mem_ops;
  }

  // Interleave compute so per-op arithmetic intensity matches the kernel.
  flops_per_op_ =
      static_cast<double>(params.flops) / static_cast<double>(total_ops);
  const double write_fraction =
      static_cast<double>(params.bytes_written) /
      static_cast<double>(total_bytes);

  working_set_ = std::max<Bytes>(params.working_set, 64);
  ws_lines_ = std::max<Bytes>(working_set_ / 64, 1);

  // Writes are batched into runs (real kernels separate their load and
  // store phases; per-op interleaving would thrash the DRAM write-to-read
  // turnaround in a way no tuned code does).
  writes_per_16_ = static_cast<std::uint64_t>(16.0 * write_fraction + 0.5);

  // Blocked pattern: sweep a cache-sized block `reuse` times before
  // moving on (models tiled GEMM reuse).
  const Bytes block_bytes =
      std::min<Bytes>(working_set_, std::max<Bytes>(params.block_bytes, 64));
  block_lines_ = std::max<Bytes>(block_bytes / 64, 1);
  reuse_ = std::max<std::uint64_t>(1, total_bytes / working_set_);
  // Shrink the tile if needed so the sampled window covers at least one
  // full reuse cycle; otherwise the sample over-weights the cold pass and
  // misrepresents the kernel's DRAM traffic.
  if (sampled_ops_ < reuse_ * block_lines_) {
    block_lines_ = std::max<std::uint64_t>(sampled_ops_ / reuse_, 16);
  }
}

bool TraceStream::next(TraceOp& op) {
  if (mem_pending_) {
    mem_pending_ = false;
    op = mem_op_;
    return true;
  }
  if (pure_compute_ > 0) {
    op = TraceOp{};
    op.kind = OpKind::kCompute;
    op.flops = pure_compute_;
    pure_compute_ = 0;
    return true;
  }
  if (i_ == sampled_ops_) return false;

  flops_carry_ += flops_per_op_;
  const auto bundle = static_cast<Flops>(flops_carry_);
  flops_carry_ -= static_cast<double>(bundle);
  step();
  if (bundle == 0) {
    op = mem_op_;
    return true;
  }
  op = TraceOp{};
  op.kind = OpKind::kCompute;
  op.flops = bundle;
  mem_pending_ = true;
  return true;
}

void TraceStream::step() {
  Addr offset = 0;
  switch (params_.pattern) {
    case AccessPattern::kSequential:
      offset = cursor_;
      cursor_ = (cursor_ + params_.access_bytes) % working_set_;
      break;
    case AccessPattern::kStrided:
      offset = cursor_;
      cursor_ = (cursor_ + params_.stride_bytes) % working_set_;
      break;
    case AccessPattern::kRandom:
      offset = prng_.next_below(ws_lines_) * 64;
      break;
    case AccessPattern::kBlocked: {
      offset = block_base_ + block_pos_ * 64;
      if (++block_pos_ == block_lines_) {
        block_pos_ = 0;
        if (++block_pass_ >= reuse_) {
          block_pass_ = 0;
          block_base_ = (block_base_ + block_lines_ * 64) % working_set_;
        }
      }
      break;
    }
  }

  const bool is_write = (i_ % 16) < writes_per_16_;
  mem_op_ = TraceOp{};
  mem_op_.kind = is_write ? OpKind::kStore : OpKind::kLoad;
  mem_op_.addr = params_.base_addr + (offset % working_set_);
  mem_op_.size = params_.access_bytes;
  ++i_;
}

Trace generate_trace(const TraceParams& params) {
  TraceStream stream(params);
  Trace trace;
  trace.scale = stream.scale();
  TraceOp op;
  while (stream.next(op)) trace.ops.push_back(op);
  return trace;
}

}  // namespace ndft::cpu
