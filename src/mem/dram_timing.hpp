#pragma once
// DRAM device timing parameters, expressed in device clock cycles, plus
// presets for the two technologies in the paper's Table III:
//   - DDR4-2400 for the Xeon CPU baseline's main memory
//   - HBM2 at 1000 MHz bus (2 Gb/s/pin) for the 3D-stacked NDP memory

#include <cstdint>
#include <span>

#include "common/types.hpp"

namespace ndft::mem {

/// Row-buffer management policy of the controller.
enum class PagePolicy : std::uint8_t {
  kOpen,    ///< leave rows open, bet on row hits (FR-FCFS default)
  kClosed,  ///< auto-precharge after every access: no hits, no conflicts
};
/// Names indexed by enumerator ("open", "closed"), as machine documents
/// spell them.
std::span<const char* const> enum_names(PagePolicy) noexcept;

/// JEDEC-style timing constraints in device clock cycles.
/// Only the constraints that matter at transaction granularity are kept;
/// this is the same modelling level as Ramulator's per-bank state machine.
struct DramTiming {
  TimePs tCK_ps;     ///< clock period in picoseconds
  unsigned CL;       ///< CAS latency (READ to first data)
  unsigned CWL;      ///< CAS write latency
  unsigned tRCD;     ///< ACT to READ/WRITE
  unsigned tRP;      ///< PRE to ACT
  unsigned tRAS;     ///< ACT to PRE (minimum row-open time)
  unsigned tRC;      ///< ACT to ACT, same bank
  unsigned tCCD;     ///< READ to READ / column-to-column
  unsigned tRRD;     ///< ACT to ACT, different banks
  unsigned tFAW;     ///< four-activate window
  unsigned tWR;      ///< write recovery (end of write data to PRE)
  unsigned tWTR;     ///< write-to-read turnaround
  unsigned tRTP;     ///< read-to-precharge
  unsigned tREFI;    ///< refresh interval
  unsigned tRFC;     ///< refresh cycle time
  unsigned burst_length;     ///< beats per access (data bus busy BL/2 cycles)
  unsigned bus_width_bits;   ///< data bus width per channel

  /// Bytes transferred by one burst access.
  Bytes burst_bytes() const noexcept {
    return static_cast<Bytes>(bus_width_bits) / 8 * burst_length;
  }

  /// Data-bus occupancy of one burst in picoseconds (DDR: BL/2 clocks).
  TimePs burst_time_ps() const noexcept {
    return tCK_ps * burst_length / 2;
  }

  /// Peak per-channel bandwidth in decimal GB/s.
  double peak_gbps() const noexcept {
    return static_cast<double>(burst_bytes()) /
           static_cast<double>(burst_time_ps()) * 1000.0;
  }

  /// DDR4-2400R-like timing (tCK = 833 ps, CL17). 64-bit channel, BL8.
  static DramTiming ddr4_2400();

  /// HBM2 legacy-mode timing at 1000 MHz bus clock: 128-bit channel, BL4,
  /// 64 B per access — matches Table III's "128-bit bus width, 1000 MHz".
  static DramTiming hbm2_1000();
};

/// Per-channel geometry. Capacity = banks * rows * row_bytes.
struct DramGeometry {
  unsigned banks;     ///< banks per channel (bank groups folded in)
  unsigned rows;      ///< rows per bank
  Bytes row_bytes;    ///< row (page) size in bytes

  Bytes channel_capacity() const noexcept {
    return static_cast<Bytes>(banks) * rows * row_bytes;
  }

  /// DDR4: 16 banks, 8 KiB rows, sized for 16 GiB per channel.
  static DramGeometry ddr4_16gb_channel();

  /// HBM2: 16 banks, 2 KiB rows, sized for 512 MiB per channel
  /// (4 GiB stack / 8 channels, Table III).
  static DramGeometry hbm2_512mb_channel();
};

}  // namespace ndft::mem
