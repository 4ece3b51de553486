#include "ndp/ndp_system.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/units.hpp"
#include "mem/energy.hpp"

namespace ndft::ndp {

NdpSystemConfig NdpSystemConfig::table3() {
  return NdpSystemConfig{};  // defaults encode Table III
}

NdpSystem::NdpSystem(const std::string& name, sim::EventQueue& queue,
                     const NdpSystemConfig& config)
    : config_(config), queue_(&queue) {
  mesh_ = std::make_unique<noc::Mesh>(name + ".mesh", queue, config.mesh);
  const unsigned stacks = config.stacks();
  stacks_.reserve(stacks);
  for (unsigned i = 0; i < stacks; ++i) {
    stacks_.push_back(std::make_unique<NdpStack>(
        name + ".stack" + std::to_string(i), queue, config.stack));
  }
  cpu_port_ = std::make_unique<CpuPort>(*this);

  // Outbound SerDes links: store-forward (a request is fully serialized
  // before the PHY latency), one bounded connection per physical link.
  sim::LinkConfig link;
  link.latency_ps = config.serdes_latency_ps;
  link.gbps = config.cpu_link_gbps;
  link.capacity = std::max<std::size_t>(config.cpu_link_queue, 1);
  link.delivery = sim::Delivery::kStoreForward;
  const unsigned links = std::max(config.cpu_links, 1u);
  for (unsigned i = 0; i < links; ++i) {
    cpu_links_.push_back(std::make_unique<sim::Connection<CpuRequestMsg>>(
        queue, link, &serdes_stats_));
    cpu_links_.back()->on_receive([this, i] {
      auto& in = *cpu_links_[i];
      while (!in.empty()) {
        handle_cpu_request(in.pop());
      }
    });
    cpu_link_out_.push_back(
        std::make_unique<sim::OutputPort<CpuRequestMsg>>(*cpu_links_.back()));
    cpu_link_senders_.push_back(
        std::make_unique<sim::CreditedSender<CpuRequestMsg>>(
            queue, *cpu_link_out_.back(), &serdes_stats_));
  }

  // Return path for read data leaving the mesh: the outbound trip already
  // charged the wire, so the exit pays PHY latency only (gbps 0 = no
  // serialization, no contention) — the historical asymmetry, kept
  // bitwise.
  sim::LinkConfig response;
  response.latency_ps = config.serdes_latency_ps;
  response.gbps = 0.0;
  response.capacity = 1024;
  response.delivery = sim::Delivery::kStoreForward;
  cpu_response_ = std::make_unique<sim::Connection<CpuResponseMsg>>(
      queue, response, &serdes_stats_);
  cpu_response_->on_receive([this] {
    while (!cpu_response_->empty()) {
      complete_transaction(cpu_response_->pop().transaction);
    }
  });
  cpu_response_out_ =
      std::make_unique<sim::OutputPort<CpuResponseMsg>>(*cpu_response_);
  cpu_response_sender_ = std::make_unique<sim::CreditedSender<CpuResponseMsg>>(
      queue, *cpu_response_out_, &serdes_stats_);
}

unsigned NdpSystem::stack_of_addr(Addr addr) const noexcept {
  // Line-interleaved across stacks: consecutive 64 B lines round-robin, so
  // CPU streaming spreads over all stacks and channels.
  return static_cast<unsigned>((addr / 64) % stacks_.size());
}

Addr NdpSystem::local_addr(Addr addr) const noexcept {
  const Addr line = addr / 64;
  const Addr offset = addr % 64;
  return (line / stacks_.size()) * 64 + offset;
}

unsigned NdpSystem::entry_node_for(unsigned stack) const noexcept {
  // The CPU package connects at the four corners of the 4x4 mesh; traffic
  // enters at the corner nearest the destination stack.
  const unsigned w = config_.mesh.width;
  const unsigned h = config_.mesh.height;
  const unsigned corners[4] = {0, w - 1, (h - 1) * w, h * w - 1};
  unsigned best = corners[0];
  unsigned best_hops = mesh_->hops(corners[0], stack);
  for (unsigned i = 1; i < 4; ++i) {
    const unsigned hop = mesh_->hops(corners[i], stack);
    if (hop < best_hops) {
      best = corners[i];
      best_hops = hop;
    }
  }
  return best;
}

void NdpSystem::CpuPort::access(mem::MemRequest req) {
  NdpSystem& sys = *owner_;
  CpuTransaction txn;
  txn.stack = sys.stack_of_addr(req.addr);
  txn.entry = sys.entry_node_for(txn.stack);
  txn.local = sys.local_addr(req.addr);
  txn.data_bytes = req.size;
  txn.is_write = req.is_write;
  txn.on_complete = std::move(req.on_complete);
  const Bytes outbound =
      sys.config_.request_bytes + (txn.is_write ? txn.data_bytes : 0);
  const std::uint32_t id = sys.transactions_.insert(std::move(txn));

  // Pick the least-loaded SerDes link by wire availability (ties go to
  // the lowest-numbered link, as before); the connection then pays
  // serialization + PHY latency.
  std::size_t link = 0;
  for (std::size_t i = 1; i < sys.cpu_links_.size(); ++i) {
    if (sys.cpu_links_[i]->wire_free_at() <
        sys.cpu_links_[link]->wire_free_at()) {
      link = i;
    }
  }
  sys.cpu_link_senders_[link]->push(CpuRequestMsg{id}, outbound);
}

void NdpSystem::handle_cpu_request(CpuRequestMsg msg) {
  // Hop across the mesh to the owning stack.
  const CpuTransaction& txn = transactions_[msg.transaction];
  mesh_->send(txn.entry, txn.stack, config_.request_bytes,
              [this, id = msg.transaction] { access_stack_dram(id); });
}

void NdpSystem::access_stack_dram(std::uint32_t transaction) {
  const CpuTransaction& txn = transactions_[transaction];
  const unsigned stack = txn.stack;
  mem::MemRequest dram_req;
  dram_req.addr = txn.local;
  dram_req.size = txn.data_bytes;
  dram_req.is_write = txn.is_write;
  if (txn.is_write) {
    // Posted write: complete once the stack DRAM accepts it.
    stacks_[stack]->dram().access(std::move(dram_req));
    complete_transaction(transaction);
    return;
  }
  dram_req.on_complete = [this, transaction] {
    // Data response crosses the mesh back and exits over SerDes.
    const CpuTransaction& read = transactions_[transaction];
    mesh_->send(read.stack, read.entry,
                read.data_bytes + config_.response_overhead,
                [this, transaction] {
                  cpu_response_sender_->push(CpuResponseMsg{transaction}, 0);
                });
  };
  stacks_[stack]->dram().access(std::move(dram_req));
}

void NdpSystem::complete_transaction(std::uint32_t transaction) {
  mem::MemCallback callback = transactions_.take(transaction).on_complete;
  if (callback) callback(queue_->now());
}

void NdpSystem::run(std::span<cpu::OpSource* const> traces,
                    std::function<void()> on_done) {
  NDFT_REQUIRE(!traces.empty(), "no traces to run");
  NDFT_REQUIRE(traces.size() <= config_.total_cores(),
               "more traces than NDP cores");
  NDFT_REQUIRE(running_ == 0, "NDP system is already running a kernel");
  on_done_ = std::move(on_done);
  running_ = static_cast<unsigned>(traces.size());
  for (std::size_t i = 0; i < traces.size(); ++i) {
    NDFT_ASSERT(traces[i] != nullptr);
    // Round-robin across stacks: trace i runs in stack i % stacks, which
    // matches how the scheduler partitions data (stack-local slices).
    const unsigned stack = static_cast<unsigned>(i) % stack_count();
    const unsigned core_in_stack =
        static_cast<unsigned>(i) / stack_count() %
        stacks_[stack]->core_count();
    stacks_[stack]->core(core_in_stack).run_trace(*traces[i], [this] {
      NDFT_ASSERT(running_ > 0);
      if (--running_ == 0 && on_done_) {
        auto done = std::move(on_done_);
        on_done_ = nullptr;
        done();
      }
    });
  }
}

double NdpSystem::dram_energy_nj() const {
  double total = 0.0;
  const mem::DramEnergy hbm = mem::DramEnergy::hbm2();
  for (const auto& stack : stacks_) {
    total += stack->dram().energy_nj(hbm);
  }
  return total;
}

double NdpSystem::dram_dynamic_energy_nj() const {
  double total = 0.0;
  const mem::DramEnergy hbm = mem::DramEnergy::hbm2();
  for (const auto& stack : stacks_) {
    total += stack->dram().dynamic_energy_nj(hbm);
  }
  return total;
}

double NdpSystem::dram_background_mw() const {
  const mem::DramEnergy hbm = mem::DramEnergy::hbm2();
  const TimePs trefi =
      config_.stack.dram.timing.tCK_ps * config_.stack.dram.timing.tREFI;
  return hbm.background_with_refresh_mw(trefi) *
         static_cast<double>(stacks_.size()) * config_.stack.dram.channels;
}

double NdpSystem::energy_nj() const {
  return dram_energy_nj() + mesh_->energy_nj();
}

void NdpSystem::collect_stats(const std::string& prefix,
                              sim::StatSet& out) const {
  out.merge_prefixed(prefix + ".mesh", mesh_->stats());
  out.merge_prefixed(prefix + ".serdes", serdes_stats_);
  for (std::size_t i = 0; i < stacks_.size(); ++i) {
    stacks_[i]->collect_stats(prefix + ".stack" + std::to_string(i), out);
  }
}

}  // namespace ndft::ndp
