#pragma once
// Non-blocking set-associative cache model.
//
// Write-back, write-allocate, true-LRU replacement, MSHR-based miss
// coalescing and an optional table-driven stride prefetcher. Caches chain
// through the MemoryPort interface: L1 -> L2 -> L3 -> DRAM, and the same
// class models every level (only the configuration differs).

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "mem/mem_request.hpp"
#include "sim/containers.hpp"
#include "sim/sim_object.hpp"

namespace ndft::cache {

/// Largest CacheConfig::mshrs a Cache accepts: its MSHR table is
/// allocated in full when the cache is built.
inline constexpr unsigned kMaxMshrs = 4096;

/// Geometry and latency of one cache level.
struct CacheConfig {
  Bytes size_bytes = 32 * 1024;
  unsigned ways = 8;
  Bytes line_bytes = 64;
  TimePs hit_latency_ps = 1334;  ///< tag+data access (4 cycles @ 3 GHz)
  unsigned mshrs = 16;           ///< outstanding distinct-line misses
  bool prefetch = false;         ///< enable the stride prefetcher
  unsigned prefetch_degree = 2;  ///< lines fetched ahead per trigger

  /// Number of sets implied by the geometry.
  unsigned sets() const noexcept {
    return static_cast<unsigned>(size_bytes / (line_bytes * ways));
  }

  /// 32 KiB 8-way L1 with 4-cycle latency at `freq_mhz`.
  static CacheConfig l1(std::uint64_t freq_mhz);
  /// 256 KiB 8-way L2 with 12-cycle latency at `freq_mhz`.
  static CacheConfig l2(std::uint64_t freq_mhz);
  /// 2 MiB 16-way L3 with 38-cycle latency at `freq_mhz`.
  static CacheConfig l3(std::uint64_t freq_mhz);
};

/// Event counters kept as plain integers (the access path is too hot for
/// string-keyed stats); publish_stats() copies them into the StatSet.
struct CacheCounters {
  std::uint64_t accesses = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t coalesced = 0;       ///< misses merged into an MSHR
  std::uint64_t mshr_stalls = 0;     ///< requests parked for a free MSHR
  std::uint64_t writebacks = 0;
  std::uint64_t evictions = 0;
  std::uint64_t prefetches = 0;
  std::uint64_t flush_writebacks = 0;
};

/// One cache level. Thread-unsafe by design: the event queue serialises.
class Cache : public sim::SimObject, public mem::MemoryPort {
 public:
  /// `next` is the next level towards memory; must outlive this cache.
  Cache(std::string name, sim::EventQueue& queue, const CacheConfig& config,
        mem::MemoryPort& next);

  /// Handles a request from the level above (or a core).
  void access(mem::MemRequest req) override;

  /// Invalidates every line, writing back dirty ones.
  void flush();

  /// Hit ratio so far (0 when no accesses).
  double hit_ratio() const noexcept;

  /// Raw event counters.
  const CacheCounters& counters() const noexcept { return counters_; }

  /// Copies the counters into the named StatSet (call before reading
  /// stats()).
  void publish_stats();

  const CacheConfig& config() const noexcept { return config_; }

 private:
  struct Line {
    Addr tag = 0;
    bool valid = false;
    bool dirty = false;
    std::uint64_t lru = 0;
  };

  /// One outstanding line fill and the requests waiting on it. The slot
  /// keeps its waiter list's capacity when it is reused.
  struct Mshr {
    Addr line = 0;
    std::vector<mem::MemRequest> waiters;
  };

  /// One prefetcher stream: the stride trained on one 128 KiB region.
  struct StrideStream {
    Addr page = 0;
    Addr last_line = 0;
    std::int64_t stride = 0;
    int confidence = 0;
    std::uint64_t trained = 0;  ///< stream_tick_ of the last training
  };
  /// Streams the prefetcher tracks at once.
  static constexpr std::size_t kStreams = 64;

  Addr line_of(Addr addr) const noexcept { return addr / config_.line_bytes; }
  unsigned set_of(Addr line) const noexcept {
    return static_cast<unsigned>(line % sets_);
  }

  Line* lookup(Addr line_addr);
  Line& choose_victim(unsigned set);
  /// Home bucket of a line in mshr_index_.
  std::size_t mshr_home(Addr line_addr) const noexcept;
  /// The MSHR tracking `line_addr`, or null.
  Mshr* find_mshr(Addr line_addr);
  /// Takes a free MSHR for `line_addr`. Requires mshrs_busy() < mshrs.
  Mshr& open_mshr(Addr line_addr);
  /// Returns an MSHR (its waiters already completed) to the free list.
  void close_mshr(Mshr& mshr);
  std::size_t mshrs_busy() const noexcept {
    return mshrs_.size() - free_mshrs_.size();
  }
  void handle_fill(Addr line_addr);
  void issue_fill(Addr line_addr, bool is_prefetch);
  void complete(mem::MemRequest& req, TimePs at);
  void maybe_prefetch(Addr line_addr);
  /// The stream of `page`, made in the least recently trained slot when
  /// the page has none.
  StrideStream& train_stream(Addr page);
  void retry_blocked();

  CacheConfig config_;
  mem::MemoryPort* next_;
  unsigned sets_;
  std::vector<Line> lines_;  // sets_ * ways, row-major by set
  // Flat MSHR table: config.mshrs slots built with the cache, a stack of
  // free slot indices, and an open-addressing index line -> slot (linear
  // probing, power-of-two size >= 2 * mshrs, -1 = empty) that finds an
  // outstanding miss without hashing into a node-based map.
  std::vector<Mshr> mshrs_;
  std::vector<std::uint32_t> free_mshrs_;
  std::vector<std::int32_t> mshr_index_;
  unsigned mshr_shift_ = 0;  // 64 - log2(mshr_index_.size())
  sim::Fifo<mem::MemRequest> blocked_;  // waiting for a free MSHR
  // Stream table: the first stream_count_ slots are live; last_stream_
  // is the slot trained last (the next access usually trains it again).
  std::array<StrideStream, kStreams> streams_{};
  std::size_t stream_count_ = 0;
  std::size_t last_stream_ = 0;
  std::uint64_t stream_tick_ = 0;
  std::uint64_t lru_tick_ = 0;
  CacheCounters counters_;
};

/// A private L1+L2 pair in front of a shared port; convenience for building
/// per-core hierarchies.
class PrivateHierarchy {
 public:
  PrivateHierarchy(const std::string& name, sim::EventQueue& queue,
                   const CacheConfig& l1_cfg, const CacheConfig& l2_cfg,
                   mem::MemoryPort& shared);

  /// The port cores issue into (the L1).
  mem::MemoryPort& port() noexcept { return *l1_; }
  Cache& l1() noexcept { return *l1_; }
  Cache& l2() noexcept { return *l2_; }

 private:
  std::unique_ptr<Cache> l2_;
  std::unique_ptr<Cache> l1_;
};

}  // namespace ndft::cache
