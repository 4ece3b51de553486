#pragma once
// 2D-mesh memory network connecting the HBM stacks (Table III: 4x4 stacks
// in mesh). Wormhole model on the port/connection fabric: one Router
// component per node, one bounded credit-flow-controlled Connection per
// directed link. A message's head reserves each link along its XY route
// hop by hop; serialization is paid once at ejection (the body pipelines
// behind the head), contention comes from per-link wire occupancy, and
// back-pressure from exhausted link credits stalls upstream routers —
// packets then wait in the (observable) injection staging of their source
// router instead of growing hidden in-network buffers.

#include <memory>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "sim/port.hpp"
#include "sim/sim_object.hpp"

namespace ndft::noc {

/// Callback invoked when a message is fully delivered.
using DeliveryFn = sim::Callback;

/// Mesh geometry and link parameters.
struct MeshConfig {
  unsigned width = 4;
  unsigned height = 4;
  double link_gbps = 120.0;      ///< per-direction link bandwidth (SerDes)
  TimePs hop_latency_ps = 4000;  ///< router traversal + wire, per hop
  Bytes packet_overhead = 16;    ///< header/CRC bytes per message
  double link_pj_per_bit = 4.0;  ///< SerDes + router energy per bit-hop
  /// Per-link input buffer depth (credits). Deep enough by default that
  /// the Table-III alltoall burst pipelines as the pre-fabric analytic
  /// model did; shrink it to make back-pressure bite (fabric tests do).
  std::size_t link_queue = 16;

  unsigned stacks() const noexcept { return width * height; }

  /// Table III network: 4x4 stacks.
  static MeshConfig table3();
};

/// One in-flight message (head flit + pipelined body).
struct MeshPacket {
  unsigned dst = 0;
  Bytes wire_bytes = 0;      ///< payload + packet overhead
  TimePs serialization = 0;  ///< paid once, at ejection
  DeliveryFn on_delivered;
};

/// The stack-to-stack mesh. Node ids are row-major: id = y*width + x.
class Mesh : public sim::SimObject {
 public:
  Mesh(std::string name, sim::EventQueue& queue, const MeshConfig& config);
  ~Mesh();

  /// Sends `bytes` from `src` to `dst`; `on_delivered` fires at arrival.
  /// A zero-hop send (src == dst) costs one hop latency (local loopback).
  /// Never blocks the caller: when the source router's outgoing link is
  /// out of credits the packet waits in that router's injection staging
  /// (accounted under "backpressure_stall*" in stats()).
  void send(unsigned src, unsigned dst, Bytes bytes,
            DeliveryFn on_delivered);

  /// Manhattan distance between two nodes.
  unsigned hops(unsigned src, unsigned dst) const;

  /// Total bytes injected so far.
  Bytes bytes_sent() const noexcept { return bytes_sent_; }

  /// Energy of all traffic so far (nJ): bytes carried per link times the
  /// per-bit-hop cost.
  double energy_nj() const noexcept;

  const MeshConfig& config() const noexcept { return config_; }

 private:
  class Router;
  friend class Router;

  unsigned node_x(unsigned id) const noexcept { return id % config_.width; }
  unsigned node_y(unsigned id) const noexcept { return id / config_.width; }
  /// Neighbor of `node` in `direction` (0=+x, 1=-x, 2=+y, 3=-y), or
  /// ~0u when the link would leave the mesh.
  unsigned neighbor(unsigned node, unsigned direction) const noexcept;

  MeshConfig config_;
  // Directed links, indexed [node*4 + direction]; null at mesh edges.
  std::vector<std::unique_ptr<sim::Connection<MeshPacket>>> links_;
  std::vector<Bytes> link_bytes_;  // per-directed-link traffic (energy)
  std::vector<std::unique_ptr<Router>> routers_;
  Bytes bytes_sent_ = 0;
};

}  // namespace ndft::noc
