#include "cpu/core.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace ndft::cpu {

CoreConfig CoreConfig::xeon_core() {
  CoreConfig c{};
  c.freq_mhz = 2400;
  c.issue_width = 4;
  c.flops_per_cycle = 16.0;  // 2x 256-bit FMA pipes
  c.max_outstanding = 10;
  return c;
}

CoreConfig CoreConfig::host_core() {
  CoreConfig c{};
  c.freq_mhz = 3000;
  c.issue_width = 4;
  c.flops_per_cycle = 32.0;  // 2x 512-bit FMA pipes
  c.max_outstanding = 12;
  return c;
}

CoreConfig CoreConfig::ndp_core() {
  CoreConfig c{};
  c.freq_mhz = 2000;
  c.issue_width = 2;
  c.flops_per_cycle = 0.8;   // scalar FPU, no FMA: wimpy by design
  c.max_outstanding = 2;     // in-order core: one miss + one hit-under-miss
  return c;
}

Core::Core(std::string name, sim::EventQueue& queue, const CoreConfig& config,
           mem::MemoryPort& port)
    : SimObject(std::move(name), queue),
      config_(config),
      clock_(config.freq_mhz),
      port_(&port) {}

void Core::run_trace(OpSource& ops, std::function<void()> on_done) {
  NDFT_REQUIRE(!busy(), "core is already executing a trace");
  ops_ = &ops;
  on_done_ = std::move(on_done);
  has_op_ = false;
  exhausted_ = false;
  outstanding_ = 0;
  issue_time_ = now();
  last_completion_ = now();
  advance();
}

bool Core::fetch() {
  if (!has_op_ && !exhausted_) {
    has_op_ = ops_->next(op_);
    exhausted_ = !has_op_;
  }
  return has_op_;
}

void Core::advance() {
  if (ops_ == nullptr) {
    return;
  }
  issue_time_ = std::max(issue_time_, now());
  const TimePs issue_cost =
      std::max<TimePs>(1, clock_.period_ps() / config_.issue_width);

  while (fetch()) {
    const TraceOp& op = op_;
    if (op.kind == OpKind::kCompute) {
      const double cycles_needed = static_cast<double>(op.flops) /
                                   config_.flops_per_cycle;
      issue_time_ += static_cast<TimePs>(
          std::ceil(cycles_needed * static_cast<double>(clock_.period_ps())));
      counters_.flops += static_cast<double>(op.flops);
      has_op_ = false;
      continue;
    }

    if (outstanding_ >= config_.max_outstanding) {
      // MLP limit reached: resume from the next completion callback.
      ++counters_.mlp_stalls;
      return;
    }

    issue_time_ += issue_cost;
    const bool is_write = (op.kind == OpKind::kStore);
    ++outstanding_;
    if (is_write) {
      ++counters_.stores;
    } else {
      ++counters_.loads;
    }
    counters_.mem_bytes += static_cast<double>(op.size);

    if (issue_time_ <= now()) {
      issue(op.addr, op.size, is_write);
    } else {
      queue().schedule_at(issue_time_,
                          [this, addr = op.addr, size = op.size, is_write] {
                            issue(addr, size, is_write);
                          });
    }
    has_op_ = false;
  }
  try_finish();
}

void Core::issue(Addr addr, Bytes size, bool is_write) {
  mem::MemRequest req;
  req.addr = addr;
  req.size = size;
  req.is_write = is_write;
  req.on_complete = [this](TimePs at) {
    NDFT_ASSERT(outstanding_ > 0);
    --outstanding_;
    last_completion_ = std::max(last_completion_, at);
    advance();
    try_finish();
  };
  port_->access(std::move(req));
}

void Core::try_finish() {
  if (ops_ == nullptr || !exhausted_ || outstanding_ != 0) {
    return;
  }
  const TimePs end = std::max({issue_time_, last_completion_, now()});
  ops_ = nullptr;
  auto done = std::move(on_done_);
  on_done_ = nullptr;
  queue().schedule_at(end, [done = std::move(done)] {
    if (done) done();
  });
}

void Core::publish_stats() {
  stats().set("loads", static_cast<double>(counters_.loads));
  stats().set("stores", static_cast<double>(counters_.stores));
  stats().set("mlp_stalls", static_cast<double>(counters_.mlp_stalls));
  stats().set("flops", counters_.flops);
  stats().set("mem_bytes", counters_.mem_bytes);
}

}  // namespace ndft::cpu
