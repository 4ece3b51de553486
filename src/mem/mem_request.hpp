#pragma once
// The request type that flows from cores through caches into DRAM.

#include "common/types.hpp"
#include "sim/callback.hpp"

namespace ndft::mem {

/// Completion callback; receives the simulated time at which data returned.
using MemCallback = sim::Callback;

/// A single memory transaction (one cache line by the time it reaches DRAM).
struct MemRequest {
  Addr addr = 0;
  Bytes size = 64;
  bool is_write = false;
  MemCallback on_complete;  ///< may be empty for writes (posted)
};

/// Interface implemented by anything that can service memory requests:
/// DRAM systems, caches (from the level above), and remote-access proxies.
class MemoryPort {
 public:
  virtual ~MemoryPort() = default;

  /// Submits a request; `req.on_complete` fires when data is available
  /// (reads) or when the write is accepted at its destination.
  virtual void access(MemRequest req) = 0;
};

}  // namespace ndft::mem
