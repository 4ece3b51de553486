#include "cache/cache.hpp"

#include <algorithm>
#include <bit>

#include "common/math_util.hpp"

namespace ndft::cache {

CacheConfig CacheConfig::l1(std::uint64_t freq_mhz) {
  CacheConfig c{};
  c.size_bytes = 32 * 1024;
  c.ways = 8;
  c.hit_latency_ps = 4 * (1000000 / freq_mhz);
  c.mshrs = 10;
  return c;
}

CacheConfig CacheConfig::l2(std::uint64_t freq_mhz) {
  CacheConfig c{};
  c.size_bytes = 256 * 1024;
  c.ways = 8;
  c.hit_latency_ps = 12 * (1000000 / freq_mhz);
  c.mshrs = 24;
  c.prefetch = true;
  // Deep streaming prefetch: keeps 8-line bursts in flight per stream so
  // the FR-FCFS controller can amortise row activations across streams.
  c.prefetch_degree = 8;
  return c;
}

CacheConfig CacheConfig::l3(std::uint64_t freq_mhz) {
  CacheConfig c{};
  c.size_bytes = 2 * 1024 * 1024;
  c.ways = 16;
  c.hit_latency_ps = 38 * (1000000 / freq_mhz);
  c.mshrs = 32;
  return c;
}

Cache::Cache(std::string name, sim::EventQueue& queue,
             const CacheConfig& config, mem::MemoryPort& next)
    : SimObject(std::move(name), queue), config_(config), next_(&next) {
  NDFT_REQUIRE(is_pow2(config.line_bytes), "line size must be a power of two");
  NDFT_REQUIRE(config.ways > 0, "cache needs at least one way");
  NDFT_REQUIRE(config.size_bytes % (config.line_bytes * config.ways) == 0,
               "cache size must be a whole number of sets");
  sets_ = config.sets();
  NDFT_REQUIRE(sets_ > 0, "cache must have at least one set");
  NDFT_REQUIRE(config.mshrs <= kMaxMshrs, "cache has too many MSHRs");
  lines_.resize(static_cast<std::size_t>(sets_) * config.ways);
  mshrs_.resize(config.mshrs);
  free_mshrs_.reserve(config.mshrs);
  for (unsigned slot = config.mshrs; slot-- > 0;) {
    free_mshrs_.push_back(slot);
  }
  const std::size_t buckets =
      std::bit_ceil(std::max<std::size_t>(2 * config.mshrs, 2));
  mshr_index_.assign(buckets, -1);
  mshr_shift_ = 64 - static_cast<unsigned>(std::countr_zero(buckets));
}

std::size_t Cache::mshr_home(Addr line_addr) const noexcept {
  // Fibonacci hashing: strided miss streams spread over the buckets.
  return static_cast<std::size_t>((line_addr * 0x9E3779B97F4A7C15ull) >>
                                  mshr_shift_);
}

Cache::Mshr* Cache::find_mshr(Addr line_addr) {
  const std::size_t mask = mshr_index_.size() - 1;
  for (std::size_t i = mshr_home(line_addr);; i = (i + 1) & mask) {
    const std::int32_t slot = mshr_index_[i];
    if (slot < 0) return nullptr;  // load <= 1/2: an empty bucket exists
    if (mshrs_[static_cast<std::size_t>(slot)].line == line_addr) {
      return &mshrs_[static_cast<std::size_t>(slot)];
    }
  }
}

Cache::Mshr& Cache::open_mshr(Addr line_addr) {
  NDFT_ASSERT(!free_mshrs_.empty());
  const std::uint32_t slot = free_mshrs_.back();
  free_mshrs_.pop_back();
  const std::size_t mask = mshr_index_.size() - 1;
  std::size_t i = mshr_home(line_addr);
  while (mshr_index_[i] >= 0) i = (i + 1) & mask;
  mshr_index_[i] = static_cast<std::int32_t>(slot);
  Mshr& mshr = mshrs_[slot];
  mshr.line = line_addr;
  return mshr;
}

void Cache::close_mshr(Mshr& mshr) {
  const auto slot = static_cast<std::int32_t>(&mshr - mshrs_.data());
  const std::size_t mask = mshr_index_.size() - 1;
  std::size_t hole = mshr_home(mshr.line);
  while (mshr_index_[hole] != slot) hole = (hole + 1) & mask;
  // Backward-shift deletion: an entry later in the probe run moves into
  // the hole when the hole lies between its home bucket and its bucket,
  // so every remaining line stays reachable from its home.
  for (std::size_t next = (hole + 1) & mask; mshr_index_[next] >= 0;
       next = (next + 1) & mask) {
    const std::size_t home =
        mshr_home(mshrs_[static_cast<std::size_t>(mshr_index_[next])].line);
    if (((next - home) & mask) >= ((next - hole) & mask)) {
      mshr_index_[hole] = mshr_index_[next];
      hole = next;
    }
  }
  mshr_index_[hole] = -1;
  mshr.waiters.clear();
  free_mshrs_.push_back(static_cast<std::uint32_t>(slot));
}

Cache::Line* Cache::lookup(Addr line_addr) {
  const unsigned set = set_of(line_addr);
  Line* base = &lines_[static_cast<std::size_t>(set) * config_.ways];
  for (unsigned w = 0; w < config_.ways; ++w) {
    if (base[w].valid && base[w].tag == line_addr) {
      return &base[w];
    }
  }
  return nullptr;
}

Cache::Line& Cache::choose_victim(unsigned set) {
  Line* base = &lines_[static_cast<std::size_t>(set) * config_.ways];
  Line* victim = base;
  for (unsigned w = 0; w < config_.ways; ++w) {
    if (!base[w].valid) {
      return base[w];
    }
    if (base[w].lru < victim->lru) {
      victim = &base[w];
    }
  }
  return *victim;
}

void Cache::complete(mem::MemRequest& req, TimePs at) {
  if (req.on_complete) {
    queue().schedule_at(at, std::move(req.on_complete));
  }
}

void Cache::access(mem::MemRequest req) {
  NDFT_ASSERT_MSG(req.size <= config_.line_bytes,
                  "requests must be split to line granularity by the core");
  const Addr line_addr = line_of(req.addr);
  ++counters_.accesses;

  // Train the prefetcher on every demand access (hits included) so the
  // stream keeps running ahead of the demand front.
  if (config_.prefetch) {
    maybe_prefetch(line_addr);
  }

  if (Line* line = lookup(line_addr)) {
    ++counters_.hits;
    line->lru = ++lru_tick_;
    if (req.is_write) {
      line->dirty = true;
    }
    complete(req, now() + config_.hit_latency_ps);
    return;
  }

  ++counters_.misses;

  // Full-line store misses install without fetching (write-validate):
  // streaming kernels use non-temporal stores, so the read-for-ownership
  // a plain write-allocate would add does not exist in tuned code.
  if (req.is_write && req.size == config_.line_bytes &&
      find_mshr(line_addr) == nullptr) {
    Line& victim = choose_victim(set_of(line_addr));
    if (victim.valid && victim.dirty) {
      ++counters_.writebacks;
      mem::MemRequest writeback;
      writeback.addr = victim.tag * config_.line_bytes;
      writeback.size = config_.line_bytes;
      writeback.is_write = true;
      next_->access(std::move(writeback));
    }
    if (victim.valid) {
      ++counters_.evictions;
    }
    victim.valid = true;
    victim.dirty = true;
    victim.tag = line_addr;
    victim.lru = ++lru_tick_;
    complete(req, now() + config_.hit_latency_ps);
    return;
  }

  // Coalesce into an existing MSHR for the same line.
  if (Mshr* mshr = find_mshr(line_addr)) {
    ++counters_.coalesced;
    mshr->waiters.push_back(std::move(req));
    return;
  }

  if (mshrs_busy() >= config_.mshrs) {
    ++counters_.mshr_stalls;
    blocked_.push_back(std::move(req));
    return;
  }

  open_mshr(line_addr).waiters.push_back(std::move(req));
  issue_fill(line_addr, /*is_prefetch=*/false);
}

void Cache::issue_fill(Addr line_addr, bool is_prefetch) {
  if (is_prefetch) {
    ++counters_.prefetches;
  }
  // Tag lookup time before the miss propagates downstream.
  queue().schedule_after(config_.hit_latency_ps, [this, line_addr] {
    mem::MemRequest fill;
    fill.addr = line_addr * config_.line_bytes;
    fill.size = config_.line_bytes;
    fill.is_write = false;
    fill.on_complete = [this, line_addr] { handle_fill(line_addr); };
    next_->access(std::move(fill));
  });
}

void Cache::handle_fill(Addr line_addr) {
  const unsigned set = set_of(line_addr);
  Line& victim = choose_victim(set);
  if (victim.valid && victim.dirty) {
    ++counters_.writebacks;
    mem::MemRequest writeback;
    writeback.addr = victim.tag * config_.line_bytes;
    writeback.size = config_.line_bytes;
    writeback.is_write = true;
    next_->access(std::move(writeback));
  }
  if (victim.valid) {
    ++counters_.evictions;
  }
  victim.valid = true;
  victim.dirty = false;
  victim.tag = line_addr;
  victim.lru = ++lru_tick_;

  if (Mshr* mshr = find_mshr(line_addr)) {
    for (auto& waiter : mshr->waiters) {
      if (waiter.is_write) {
        victim.dirty = true;
      }
      complete(waiter, now() + config_.hit_latency_ps);
    }
    close_mshr(*mshr);
  }
  retry_blocked();
}

void Cache::retry_blocked() {
  while (!blocked_.empty() && mshrs_busy() < config_.mshrs) {
    mem::MemRequest req = std::move(blocked_.front());
    blocked_.pop_front();
    access(std::move(req));
  }
}

void Cache::maybe_prefetch(Addr line_addr) {
  // One stream per 128 KiB region (large enough that strided kernels see
  // dozens of accesses per region); a stride confirmed twice triggers
  // prefetches `prefetch_degree` strides ahead.
  const Addr page = line_addr / ((128 * 1024) / config_.line_bytes);
  StrideStream& stream = train_stream(page);
  const std::int64_t stride =
      static_cast<std::int64_t>(line_addr) -
      static_cast<std::int64_t>(stream.last_line);
  if (stream.last_line != 0 && stride != 0 && stride == stream.stride) {
    stream.confidence = std::min(stream.confidence + 1, 4);
  } else if (stream.last_line != 0) {
    stream.confidence = 0;
    stream.stride = stride;
  }
  stream.last_line = line_addr;
  if (stream.confidence >= 2) {
    for (unsigned i = 1; i <= config_.prefetch_degree; ++i) {
      const Addr target =
          line_addr + static_cast<Addr>(stream.stride) * i;
      if (lookup(target) != nullptr || find_mshr(target) != nullptr ||
          mshrs_busy() >= config_.mshrs) {
        continue;
      }
      open_mshr(target);
      issue_fill(target, /*is_prefetch=*/true);
    }
  }
}

Cache::StrideStream& Cache::train_stream(Addr page) {
  ++stream_tick_;
  StrideStream* found = nullptr;
  if (stream_count_ > 0 && streams_[last_stream_].page == page) {
    found = &streams_[last_stream_];
  } else {
    StrideStream* oldest = &streams_[0];
    for (std::size_t i = 0; i < stream_count_; ++i) {
      if (streams_[i].page == page) {
        found = &streams_[i];
        break;
      }
      if (streams_[i].trained < oldest->trained) oldest = &streams_[i];
    }
    if (found == nullptr) {
      // A new region: a free slot, else the least recently trained one.
      found = stream_count_ < kStreams ? &streams_[stream_count_++] : oldest;
      *found = StrideStream{};
      found->page = page;
    }
    last_stream_ = static_cast<std::size_t>(found - streams_.data());
  }
  found->trained = stream_tick_;
  return *found;
}

void Cache::flush() {
  for (Line& line : lines_) {
    if (line.valid && line.dirty) {
      ++counters_.flush_writebacks;
      mem::MemRequest writeback;
      writeback.addr = line.tag * config_.line_bytes;
      writeback.size = config_.line_bytes;
      writeback.is_write = true;
      next_->access(std::move(writeback));
    }
    line = Line{};
  }
  stream_count_ = 0;
}

double Cache::hit_ratio() const noexcept {
  return counters_.accesses == 0
             ? 0.0
             : static_cast<double>(counters_.hits) /
                   static_cast<double>(counters_.accesses);
}

void Cache::publish_stats() {
  stats().set("accesses", static_cast<double>(counters_.accesses));
  stats().set("hits", static_cast<double>(counters_.hits));
  stats().set("misses", static_cast<double>(counters_.misses));
  stats().set("mshr_coalesced", static_cast<double>(counters_.coalesced));
  stats().set("mshr_stalls", static_cast<double>(counters_.mshr_stalls));
  stats().set("writebacks", static_cast<double>(counters_.writebacks));
  stats().set("evictions", static_cast<double>(counters_.evictions));
  stats().set("prefetch_issued", static_cast<double>(counters_.prefetches));
  stats().set("flush_writebacks",
              static_cast<double>(counters_.flush_writebacks));
}

PrivateHierarchy::PrivateHierarchy(const std::string& name,
                                   sim::EventQueue& queue,
                                   const CacheConfig& l1_cfg,
                                   const CacheConfig& l2_cfg,
                                   mem::MemoryPort& shared)
    : l2_(std::make_unique<Cache>(name + ".l2", queue, l2_cfg, shared)),
      l1_(std::make_unique<Cache>(name + ".l1", queue, l1_cfg, *l2_)) {}

}  // namespace ndft::cache
