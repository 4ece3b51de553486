#include "noc/mesh.hpp"

#include <algorithm>
#include <array>

#include "common/error.hpp"
#include "common/units.hpp"
#include "sim/containers.hpp"

namespace ndft::noc {

MeshConfig MeshConfig::table3() {
  return MeshConfig{};  // 4x4, 120 GB/s links, 4 ns hops
}

// One node of the mesh: up to four link input ports (bounded by the link
// credits), up to four link output ports, and an unbounded injection
// staging FIFO for locally-originated packets whose first link is out of
// credits. The pump forwards head packets whose XY output has a credit
// and ejects packets addressed to this node (ejection is always accepted,
// which with XY routing makes the fabric deadlock-free). All queue scans
// run in a fixed order, so forwarding decisions are deterministic.
class Mesh::Router {
 public:
  Router(Mesh& mesh, unsigned id) : mesh_(mesh), id_(id) {
    for (unsigned direction = 0; direction < 4; ++direction) {
      auto& out = mesh_.links_[id_ * 4 + direction];
      if (out != nullptr) {
        out_[direction].bind(*out);
        out_[direction].on_credit([this] { pump(); });
      }
      const unsigned from = mesh_.neighbor(id_, direction);
      if (from == ~0u) continue;
      // The reverse direction pairs +x<->-x (0,1) and +y<->-y (2,3): the
      // neighbor in my `direction` reaches me over its opposite link.
      const unsigned reverse = direction ^ 1u;
      auto& in = mesh_.links_[from * 4 + reverse];
      if (in != nullptr) {
        in_[direction].bind(*in);
        in_[direction].on_receive([this] { pump(); });
      }
    }
  }
  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Accepts a locally-originated packet (synchronous; from Mesh::send).
  void inject(MeshPacket packet) {
    if (staged_.empty() && can_forward(packet)) {
      forward(std::move(packet));
      return;
    }
    staged_.push_back(Staged{std::move(packet), mesh_.queue().now()});
    mesh_.stats().add("backpressure_stalls");
    const double depth = static_cast<double>(staged_.size());
    if (depth > mesh_.stats().get("staged_peak")) {
      mesh_.stats().set("staged_peak", depth);
    }
  }

 private:
  struct Staged {
    MeshPacket packet;
    TimePs since = 0;
  };

  unsigned route(unsigned dst) const noexcept {
    // XY: resolve x first, then y.
    const unsigned my_x = mesh_.node_x(id_);
    const unsigned my_y = mesh_.node_y(id_);
    const unsigned dst_x = mesh_.node_x(dst);
    const unsigned dst_y = mesh_.node_y(dst);
    if (dst_x > my_x) return 0;
    if (dst_x < my_x) return 1;
    return dst_y > my_y ? 2 : 3;
  }

  bool can_forward(const MeshPacket& packet) const {
    return out_[route(packet.dst)].can_send();
  }

  void forward(MeshPacket packet) {
    const unsigned direction = route(packet.dst);
    const Bytes wire_bytes = packet.wire_bytes;
    mesh_.link_bytes_[id_ * 4 + direction] += wire_bytes;
    out_[direction].send(std::move(packet), wire_bytes);
  }

  void eject(MeshPacket packet) {
    // The head arrived now; the body drains for one serialization time.
    const TimePs arrival = mesh_.queue().now() + packet.serialization;
    if (packet.on_delivered) {
      mesh_.queue().schedule_at(arrival, std::move(packet.on_delivered));
    }
  }

  void pump() {
    bool progress = true;
    while (progress) {
      progress = false;
      while (!staged_.empty() && can_forward(staged_.front().packet)) {
        Staged entry = std::move(staged_.front());
        staged_.pop_front();
        mesh_.stats().add(
            "backpressure_stall_ps",
            static_cast<double>(mesh_.queue().now() - entry.since));
        forward(std::move(entry.packet));
        progress = true;
      }
      for (auto& in : in_) {
        if (!in.bound()) continue;
        while (!in.empty()) {
          if (in.front().dst == id_) {
            eject(in.pop());
            progress = true;
            continue;
          }
          if (!can_forward(in.front())) break;  // head-of-line: wait
          forward(in.pop());
          progress = true;
        }
      }
    }
  }

  Mesh& mesh_;
  unsigned id_;
  std::array<sim::InputPort<MeshPacket>, 4> in_;
  std::array<sim::OutputPort<MeshPacket>, 4> out_;
  sim::Fifo<Staged> staged_;
};

Mesh::Mesh(std::string name, sim::EventQueue& queue, const MeshConfig& config)
    : SimObject(std::move(name), queue), config_(config) {
  NDFT_REQUIRE(config.width > 0 && config.height > 0,
               "mesh must have at least one node");
  NDFT_REQUIRE(config.link_gbps > 0.0, "link bandwidth must be positive");
  NDFT_REQUIRE(config.link_queue > 0, "link queue depth must be positive");
  const std::size_t slots = static_cast<std::size_t>(config.stacks()) * 4;
  links_.resize(slots);
  link_bytes_.assign(slots, 0);
  // Links are cut-through: a head that wins a link appears at the next
  // router one hop latency later while the body pipelines behind it, so
  // serialization is charged to the wire (free_at) but not to the head.
  sim::LinkConfig link;
  link.latency_ps = config.hop_latency_ps;
  link.gbps = config.link_gbps;
  link.capacity = config.link_queue;
  link.delivery = sim::Delivery::kCutThrough;
  for (unsigned node = 0; node < config.stacks(); ++node) {
    for (unsigned direction = 0; direction < 4; ++direction) {
      if (neighbor(node, direction) == ~0u) continue;
      links_[node * 4 + direction] =
          std::make_unique<sim::Connection<MeshPacket>>(this->queue(), link,
                                                        &stats());
    }
  }
  routers_.reserve(config.stacks());
  for (unsigned node = 0; node < config.stacks(); ++node) {
    routers_.push_back(std::make_unique<Router>(*this, node));
  }
}

Mesh::~Mesh() = default;

unsigned Mesh::neighbor(unsigned node, unsigned direction) const noexcept {
  const unsigned x = node_x(node);
  const unsigned y = node_y(node);
  switch (direction) {
    case 0: return x + 1 < config_.width ? node + 1 : ~0u;
    case 1: return x > 0 ? node - 1 : ~0u;
    case 2: return y + 1 < config_.height ? node + config_.width : ~0u;
    default: return y > 0 ? node - config_.width : ~0u;
  }
}

unsigned Mesh::hops(unsigned src, unsigned dst) const {
  NDFT_REQUIRE(src < config_.stacks() && dst < config_.stacks(),
               "node id out of range");
  const int dx = static_cast<int>(node_x(dst)) - static_cast<int>(node_x(src));
  const int dy = static_cast<int>(node_y(dst)) - static_cast<int>(node_y(src));
  return static_cast<unsigned>(std::abs(dx) + std::abs(dy));
}

double Mesh::energy_nj() const noexcept {
  double link_bytes = 0.0;
  for (const Bytes bytes : link_bytes_) {
    link_bytes += static_cast<double>(bytes);
  }
  return link_bytes * 8.0 * config_.link_pj_per_bit * 1e-3;  // pJ -> nJ
}

void Mesh::send(unsigned src, unsigned dst, Bytes bytes,
                DeliveryFn on_delivered) {
  NDFT_REQUIRE(src < config_.stacks() && dst < config_.stacks(),
               "node id out of range");
  const Bytes wire_bytes = bytes + config_.packet_overhead;
  const TimePs serialization =
      transfer_time_ps(wire_bytes, config_.link_gbps);
  bytes_sent_ += bytes;
  stats().add("messages");
  stats().add("bytes", static_cast<double>(bytes));
  stats().add("hops", static_cast<double>(hops(src, dst)));

  if (src == dst) {
    // Local loopback: one router traversal, no link traffic.
    const TimePs arrival = now() + config_.hop_latency_ps + serialization;
    if (on_delivered) {
      queue().schedule_at(arrival, std::move(on_delivered));
    }
    return;
  }
  routers_[src]->inject(
      MeshPacket{dst, wire_bytes, serialization, std::move(on_delivered)});
}

}  // namespace ndft::noc
