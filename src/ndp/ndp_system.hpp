#pragma once
// The full near-data memory system: a 4x4 mesh of HBM stacks (Table III)
// plus the host CPU's path into it. The same 64 GiB of HBM serves as the
// machine's main memory: the CPU reaches it over SerDes links into the
// mesh, while NDP cores access their stack-local channels directly.

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/json.hpp"
#include "cpu/trace.hpp"
#include "mem/mem_request.hpp"
#include "ndp/ndp_stack.hpp"
#include "noc/mesh.hpp"
#include "sim/containers.hpp"
#include "sim/port.hpp"

namespace ndft::ndp {

/// Configuration of the whole NDP memory system.
struct NdpSystemConfig {
  noc::MeshConfig mesh = noc::MeshConfig::table3();
  NdpStackConfig stack = NdpStackConfig::table3();
  unsigned cpu_links = 4;            ///< SerDes links from the CPU package
  double cpu_link_gbps = 120.0;      ///< per-link bandwidth
  TimePs serdes_latency_ps = 10000;  ///< one-way SerDes + PHY latency
  Bytes request_bytes = 32;          ///< read/write request packet size
  Bytes response_overhead = 16;      ///< header on a data response
  /// In-flight requests per SerDes link (credits). The default exceeds
  /// the aggregate MLP the host complex can offer, so the bound is
  /// behavior-neutral until a machine config tightens it.
  std::size_t cpu_link_queue = 256;

  unsigned stacks() const noexcept { return mesh.stacks(); }
  unsigned total_cores() const noexcept {
    return stacks() * stack.total_cores();
  }
  Bytes total_capacity() const noexcept {
    return static_cast<Bytes>(stacks()) * stack.dram.channels *
           stack.dram.geometry.channel_capacity();
  }

  /// Table III NDP system (16 stacks, 64 GiB, 128 NDP units).
  static NdpSystemConfig table3();

  /// Parses an "ndft.machine.v1" hardware description (machine_json.cpp):
  /// absent members keep the Table-III values, and the one JSON reading
  /// rule (docs/API.md) rejects unknown members so a typo'd sweep fails
  /// loudly. Throws NdftError on any violation.
  static NdpSystemConfig from_json(const Json& j);

  /// Serializes this config as an "ndft.machine.v1" document;
  /// from_json(to_json()) round-trips bitwise.
  Json to_json() const;
};

/// The CPU-visible memory port plus all NDP compute resources.
class NdpSystem {
 public:
  NdpSystem(const std::string& name, sim::EventQueue& queue,
            const NdpSystemConfig& config);

  /// Port the host CPU's L3 misses go into (SerDes + mesh + stack DRAM).
  mem::MemoryPort& cpu_port() noexcept { return *cpu_port_; }

  /// Runs one op sequence per NDP core (round-robin across stacks so work
  /// and data spread evenly); `on_done` fires when all have retired.
  void run(std::span<cpu::OpSource* const> traces,
           std::function<void()> on_done);

  unsigned stack_count() const noexcept {
    return static_cast<unsigned>(stacks_.size());
  }
  NdpStack& stack(unsigned i) { return *stacks_.at(i); }
  noc::Mesh& mesh() noexcept { return *mesh_; }
  const NdpSystemConfig& config() const noexcept { return config_; }

  /// Which stack an NDP core index (global, round-robin) lives in.
  unsigned stack_of_core(unsigned global_core) const noexcept {
    return global_core % stack_count();
  }

  /// Aggregates statistics from stacks and mesh under `prefix`.
  void collect_stats(const std::string& prefix, sim::StatSet& out) const;

  /// Total memory-system energy so far (nJ): stack HBM + mesh traffic.
  double energy_nj() const;

  /// Stack-DRAM energy only (nJ); subject to trace-sampling scaling.
  double dram_energy_nj() const;

  /// Stack-DRAM dynamic (command-only) energy (nJ).
  double dram_dynamic_energy_nj() const;

  /// Total background power of all stack channels, in milliwatts.
  double dram_background_mw() const;

 private:
  /// One CPU line request from SerDes entry until it completes. Lives in
  /// transactions_; messages and callbacks refer to it by index, so no
  /// callback captures another.
  struct CpuTransaction {
    unsigned stack = 0;   ///< owning HBM stack
    unsigned entry = 0;   ///< mesh entry/exit corner
    Addr local = 0;       ///< stack-local address
    Bytes data_bytes = 0;
    bool is_write = false;
    mem::MemCallback on_complete;
  };
  /// A CPU line request crossing a SerDes link into the mesh.
  struct CpuRequestMsg {
    std::uint32_t transaction = 0;
  };
  /// A read's data coming back out of the mesh over SerDes.
  struct CpuResponseMsg {
    std::uint32_t transaction = 0;
  };

  /// Adapts CPU line requests onto the mesh + stack DRAM round trip.
  class CpuPort : public mem::MemoryPort {
   public:
    explicit CpuPort(NdpSystem& owner) : owner_(&owner) {}
    void access(mem::MemRequest req) override;

   private:
    NdpSystem* owner_;
  };

  /// Receiver at the mesh side of a SerDes link: forwards the request
  /// across the mesh, into the owning stack's DRAM, and routes a read's
  /// data back over the response connection.
  void handle_cpu_request(CpuRequestMsg msg);
  /// The request reached its stack: issue it to the stack's DRAM.
  void access_stack_dram(std::uint32_t transaction);
  /// Releases a transaction and fires its completion.
  void complete_transaction(std::uint32_t transaction);

  /// Stack that owns a physical address (line-interleaved).
  unsigned stack_of_addr(Addr addr) const noexcept;
  /// Mesh entry node used by the CPU for a given stack (nearest corner).
  unsigned entry_node_for(unsigned stack) const noexcept;
  /// Stack-local address for a global address.
  Addr local_addr(Addr addr) const noexcept;

  NdpSystemConfig config_;
  sim::EventQueue* queue_;
  std::unique_ptr<noc::Mesh> mesh_;
  std::vector<std::unique_ptr<NdpStack>> stacks_;
  std::unique_ptr<CpuPort> cpu_port_;
  // SerDes fabric: one bounded store-forward connection per outbound CPU
  // link (serialization + PHY latency, request picks the least-loaded
  // wire) and one latency-only return connection for read data leaving
  // the mesh. All share serdes_stats_ ("contention_ps",
  // "backpressure_stall_ps", ...), merged by collect_stats().
  sim::StatSet serdes_stats_;
  std::vector<std::unique_ptr<sim::Connection<CpuRequestMsg>>> cpu_links_;
  std::vector<std::unique_ptr<sim::OutputPort<CpuRequestMsg>>> cpu_link_out_;
  std::vector<std::unique_ptr<sim::CreditedSender<CpuRequestMsg>>>
      cpu_link_senders_;
  std::unique_ptr<sim::Connection<CpuResponseMsg>> cpu_response_;
  std::unique_ptr<sim::OutputPort<CpuResponseMsg>> cpu_response_out_;
  std::unique_ptr<sim::CreditedSender<CpuResponseMsg>> cpu_response_sender_;
  sim::Slab<CpuTransaction> transactions_;
  unsigned running_ = 0;
  std::function<void()> on_done_;
};

}  // namespace ndft::ndp
