#include "common/fault.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include "common/str_util.hpp"

namespace ndft {
namespace {

// The site catalog. Order is stable (the fault-site sweep test iterates it);
// names are part of the spec grammar, so renaming one is a breaking
// change for saved NDFT_FAULTS strings.
const std::vector<FaultSite>& catalog() {
  static const std::vector<FaultSite> sites = {
      {"engine.alloc", "allocation pressure at job setup", FaultClass::kResource},
      {"scf.alloc", "allocation pressure at an SCF iteration boundary",
       FaultClass::kResource},
      {"bands.alloc", "allocation pressure at a band-structure k batch",
       FaultClass::kResource},
      {"solver.syevd_partial",
       "partial eigensolver non-convergence (degrades to the full solver)",
       FaultClass::kSolver},
      {"trace.recorder",
       "kernel trace recorder failure (degrades to an untraced run)",
       FaultClass::kTrace},
      {"sim.mem", "simulated NDP/DRAM fault during an event batch",
       FaultClass::kDevice},
      {"sim.port",
       "message dropped on a fabric connection (recovered by a delayed "
       "retransmission inside the simulation)",
       FaultClass::kDevice},
      {"net.accept",
       "accepted connection dropped at the service boundary",
       FaultClass::kDevice},
  };
  return sites;
}

const FaultSite* find_site(const std::string& name) noexcept {
  for (const FaultSite& site : catalog()) {
    if (name == site.name) return &site;
  }
  return nullptr;
}

/// splitmix64: the standard 64-bit finalizer — a bijective mix, so
/// distinct (seed, site, sequence) triples decorrelate fully.
std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t hash_name(const char* name) noexcept {
  // FNV-1a; site names are short and static.
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char* p = name; *p != '\0'; ++p) {
    h ^= static_cast<unsigned char>(*p);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// One armed site's mutable state (sequence/fire counters).
struct ArmedSite {
  bool configured = false;  ///< has its own rule (wildcard fills the rest)
  double probability = 0.0;
  std::uint64_t max_fires = 0;
  std::uint64_t sequence = 0;
  std::uint64_t fired = 0;
};

struct FaultState {
  std::uint64_t seed = 0;
  std::vector<ArmedSite> sites;  ///< parallel to catalog()
};

std::mutex g_mutex;            // guards g_state mutations and rolls
FaultState g_state;            // armed rules + counters (under g_mutex)

double trim_number(const std::string& text, const char* what) {
  std::size_t pos = 0;
  double value = 0.0;
  try {
    value = std::stod(text, &pos);
  } catch (const std::exception&) {
    throw NdftError(strformat("fault spec: bad %s '%s'", what, text.c_str()));
  }
  if (pos != text.size()) {
    throw NdftError(strformat("fault spec: bad %s '%s'", what, text.c_str()));
  }
  return value;
}

}  // namespace

const char* to_string(FaultClass cls) noexcept {
  switch (cls) {
    case FaultClass::kResource: return "resource";
    case FaultClass::kDevice: return "device";
    case FaultClass::kSolver: return "solver";
    case FaultClass::kTrace: return "trace";
  }
  return "?";
}

FaultInjected::FaultInjected(std::string site, FaultClass cls,
                             std::uint64_t sequence)
    : NdftError(strformat("injected %s fault at %s (draw %llu)",
                          to_string(cls), site.c_str(),
                          static_cast<unsigned long long>(sequence))),
      site_(std::move(site)),
      cls_(cls),
      sequence_(sequence) {}

const std::vector<FaultSite>& fault_sites() { return catalog(); }

FaultSpec FaultSpec::parse(const std::string& text) {
  FaultSpec spec;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t end = text.find_first_of(";,", start);
    if (end == std::string::npos) end = text.size();
    std::string entry = text.substr(start, end - start);
    start = end + 1;
    // Trim surrounding whitespace so "a=1; b=1" parses.
    const std::size_t first = entry.find_first_not_of(" \t");
    if (first == std::string::npos) {
      if (start > text.size()) break;
      continue;  // empty entry (trailing separator)
    }
    entry = entry.substr(first, entry.find_last_not_of(" \t") - first + 1);

    const std::size_t eq = entry.find('=');
    NDFT_REQUIRE(eq != std::string::npos && eq != 0,
                 ("fault spec: entry is not name=value: " + entry).c_str());
    const std::string name = entry.substr(0, eq);
    std::string value = entry.substr(eq + 1);

    if (name == "seed") {
      const double seed = trim_number(value, "seed");
      NDFT_REQUIRE(seed >= 0.0, "fault spec: seed must be non-negative");
      spec.seed = static_cast<std::uint64_t>(seed);
      continue;
    }
    FaultRule rule;
    rule.site = name;
    if (name != "*" && find_site(name) == nullptr) {
      throw NdftError(strformat("fault spec: unknown site '%s'",
                                name.c_str()));
    }
    const std::size_t at = value.find('@');
    if (at != std::string::npos) {
      const double fires = trim_number(value.substr(at + 1), "fire count");
      NDFT_REQUIRE(fires >= 0.0, "fault spec: fire count must be >= 0");
      rule.max_fires = static_cast<std::uint64_t>(fires);
      value = value.substr(0, at);
    }
    rule.probability = trim_number(value, "probability");
    NDFT_REQUIRE(rule.probability >= 0.0 && rule.probability <= 1.0,
                 "fault spec: probability must be in [0, 1]");
    spec.rules.push_back(std::move(rule));
    if (start > text.size()) break;
  }
  return spec;
}

void fault_install(const FaultSpec& spec) {
  std::lock_guard<std::mutex> lock(g_mutex);
  g_state = FaultState{};
  g_state.seed = spec.seed;
  g_state.sites.assign(catalog().size(), ArmedSite{});
  bool any = false;
  bool has_wildcard = false;
  FaultRule wildcard;
  for (const FaultRule& rule : spec.rules) {
    if (rule.site == "*") {
      has_wildcard = true;
      wildcard = rule;
      any = true;
      continue;
    }
    for (std::size_t i = 0; i < catalog().size(); ++i) {
      if (rule.site == catalog()[i].name) {
        g_state.sites[i].configured = true;
        g_state.sites[i].probability = rule.probability;
        g_state.sites[i].max_fires = rule.max_fires;
        any = true;
        break;
      }
    }
  }
  if (has_wildcard) {
    // Sites without their own rule inherit the wildcard; explicit rules
    // (including probability 0) win.
    for (ArmedSite& site : g_state.sites) {
      if (!site.configured) {
        site.probability = wildcard.probability;
        site.max_fires = wildcard.max_fires;
      }
    }
  }
  detail::g_fault_enabled.store(any, std::memory_order_relaxed);
}

void fault_clear() noexcept {
  std::lock_guard<std::mutex> lock(g_mutex);
  detail::g_fault_enabled.store(false, std::memory_order_relaxed);
  g_state = FaultState{};
}

bool fault_enabled() noexcept {
  return detail::g_fault_enabled.load(std::memory_order_relaxed);
}

namespace detail {

std::atomic<bool> g_fault_enabled{false};

bool fault_roll(const char* site) noexcept {
  std::lock_guard<std::mutex> lock(g_mutex);
  if (g_state.sites.empty()) return false;  // cleared concurrently
  ArmedSite* armed = nullptr;
  for (std::size_t i = 0; i < catalog().size(); ++i) {
    if (std::strcmp(site, catalog()[i].name) == 0) {
      armed = &g_state.sites[i];
      break;
    }
  }
  if (armed == nullptr) return false;  // unregistered site: never fires
  const std::uint64_t sequence = armed->sequence++;
  if (armed->probability <= 0.0) return false;
  if (armed->max_fires != 0 && armed->fired >= armed->max_fires) {
    return false;
  }
  // Deterministic draw keyed by (seed, site, sequence): 53 uniform bits
  // mapped to [0, 1), compared against the rule's probability.
  const std::uint64_t key =
      mix64(g_state.seed ^ hash_name(site) ^
            (sequence * 0x9e3779b97f4a7c15ull));
  const double u =
      static_cast<double>(key >> 11) * 0x1.0p-53;
  if (u >= armed->probability) return false;
  ++armed->fired;
  return true;
}

}  // namespace detail

void fault_point(const char* site) {
  if (!fault_fires(site)) return;
  const FaultSite* entry = find_site(site);
  const FaultClass cls =
      entry != nullptr ? entry->cls : FaultClass::kResource;
  // The sequence that fired was the previous draw.
  std::uint64_t sequence = 0;
  {
    std::lock_guard<std::mutex> lock(g_mutex);
    for (std::size_t i = 0; i < catalog().size(); ++i) {
      if (std::strcmp(site, catalog()[i].name) == 0 &&
          i < g_state.sites.size()) {
        sequence = g_state.sites[i].sequence - 1;
        break;
      }
    }
  }
  throw FaultInjected(site, cls, sequence);
}

// ------------------------------------------------------- degradation notes

namespace {
thread_local std::vector<std::string>* t_degradation_sink = nullptr;
}  // namespace

DegradationScope::DegradationScope() : previous_(t_degradation_sink) {
  t_degradation_sink = &notes_;
}

DegradationScope::~DegradationScope() { t_degradation_sink = previous_; }

void note_degradation(std::string note) {
  if (t_degradation_sink != nullptr) {
    t_degradation_sink->push_back(std::move(note));
  }
}

}  // namespace ndft
