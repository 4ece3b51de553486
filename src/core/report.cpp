#include "core/report.hpp"

#include <iterator>

#include "common/enum_names.hpp"
#include "common/error.hpp"
#include "common/str_util.hpp"
#include "common/table.hpp"

namespace ndft::core {

std::span<const char* const> enum_names(ExecMode) noexcept {
  static constexpr const char* kNames[] = {"CPU", "GPU", "NDP-only", "NDFT"};
  static_assert(std::size(kNames) ==
                static_cast<std::size_t>(ExecMode::kNdft) + 1);
  return kNames;
}

const char* to_string(ExecMode mode) noexcept { return enum_name(mode); }

TimePs RunReport::total_ps() const noexcept {
  TimePs total = sched_overhead_ps;
  for (const KernelTime& k : kernels) {
    total += k.time_ps;
  }
  return total;
}

TimePs RunReport::time_of(KernelClass cls) const noexcept {
  TimePs total = 0;
  for (const KernelTime& k : kernels) {
    if (k.cls == cls) {
      total += k.time_ps;
    }
  }
  return total;
}

std::string render_kernel_table(ExecMode mode, std::size_t atoms,
                                const std::vector<KernelTime>& kernels,
                                TimePs total_ps, TimePs sched_overhead_ps,
                                double memory_energy_mj) {
  TextTable table({"kernel", "class", "device", "time", "share"});
  const double total = static_cast<double>(total_ps);
  for (const KernelTime& k : kernels) {
    table.add_row({k.name, to_string(k.cls), to_string(k.device),
                   format_time(k.time_ps),
                   format_percent(static_cast<double>(k.time_ps) /
                                  (total > 0 ? total : 1.0))});
  }
  if (sched_overhead_ps != 0) {
    table.add_row({"(scheduling overhead)", "-", "-",
                   format_time(sched_overhead_ps),
                   format_percent(static_cast<double>(sched_overhead_ps) /
                                  (total > 0 ? total : 1.0))});
  }
  std::string out = strformat("%s on Si_%zu: total %s\n", to_string(mode),
                              atoms, format_time(total_ps).c_str());
  out += table.render();
  if (memory_energy_mj > 0.0) {
    out += strformat("memory-system energy: %.2f mJ\n", memory_energy_mj);
  }
  return out;
}

std::string RunReport::render() const {
  return render_kernel_table(mode, dims.atoms, kernels, total_ps(),
                             sched_overhead_ps, memory_energy_mj);
}

double speedup(const RunReport& baseline, const RunReport& candidate) {
  NDFT_REQUIRE(candidate.total_ps() > 0, "candidate has zero runtime");
  return static_cast<double>(baseline.total_ps()) /
         static_cast<double>(candidate.total_ps());
}

}  // namespace ndft::core
