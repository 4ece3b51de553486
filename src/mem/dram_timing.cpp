#include "mem/dram_timing.hpp"

#include <iterator>

#include "common/units.hpp"

namespace ndft::mem {

std::span<const char* const> enum_names(PagePolicy) noexcept {
  static constexpr const char* kNames[] = {"open", "closed"};
  static_assert(std::size(kNames) ==
                static_cast<std::size_t>(PagePolicy::kClosed) + 1);
  return kNames;
}

DramTiming DramTiming::ddr4_2400() {
  DramTiming t{};
  t.tCK_ps = 833;  // 1200 MHz clock, 2400 MT/s
  t.CL = 17;
  t.CWL = 12;
  t.tRCD = 17;
  t.tRP = 17;
  t.tRAS = 39;
  t.tRC = 56;
  t.tCCD = 6;   // tCCD_L dominant for same-bank-group streams
  t.tRRD = 6;
  t.tFAW = 26;
  t.tWR = 18;
  t.tWTR = 9;
  t.tRTP = 9;
  t.tREFI = 9363;  // 7.8 us
  t.tRFC = 420;    // 350 ns for 8 Gb devices
  t.burst_length = 8;
  t.bus_width_bits = 64;
  return t;
}

DramTiming DramTiming::hbm2_1000() {
  DramTiming t{};
  t.tCK_ps = 1000;  // 1000 MHz clock, 2 Gb/s/pin
  t.CL = 14;
  t.CWL = 4;
  t.tRCD = 14;
  t.tRP = 14;
  t.tRAS = 33;
  t.tRC = 47;
  t.tCCD = 2;
  t.tRRD = 4;
  t.tFAW = 16;
  t.tWR = 16;
  t.tWTR = 8;
  t.tRTP = 5;
  t.tREFI = 3900;  // 3.9 us
  t.tRFC = 260;
  t.burst_length = 4;
  t.bus_width_bits = 128;
  return t;
}

DramGeometry DramGeometry::ddr4_16gb_channel() {
  DramGeometry g{};
  // 16 banks x 2 ranks, folded into one bank dimension: rank-level
  // parallelism matters for concurrent streams and the per-bank state
  // machine treats ranks identically at this modelling level.
  g.banks = 32;
  g.row_bytes = 8_KiB;
  g.rows = static_cast<unsigned>(16_GiB / (g.banks * g.row_bytes));
  return g;
}

DramGeometry DramGeometry::hbm2_512mb_channel() {
  DramGeometry g{};
  // 4 bank groups x 4 banks x 2 pseudo-channel halves.
  g.banks = 32;
  g.row_bytes = 2_KiB;
  g.rows = static_cast<unsigned>(512_MiB / (g.banks * g.row_bytes));
  return g;
}

}  // namespace ndft::mem
