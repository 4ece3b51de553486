#pragma once
// Deterministic fault injection: named sites at the hot-path boundaries
// (allocation pressure, solver non-convergence, trace-recorder failure,
// simulated NDP/DRAM faults) that an installed FaultSpec can arm.
//
// Decisions are PRNG-driven but replayable: each site keeps a sequence
// counter, and whether draw #k at site S fires depends only on
// (spec seed, S, k) — the same spec replays the same fault pattern
// bitwise from process start (fault_install resets the counters).
//
// The zero-fault path costs one relaxed atomic load per site: when no
// spec is installed every fault_fires()/fault_point() call is a
// branch-on-disabled-flag, so production runs keep current performance.
//
// Degradable sites (solver fallbacks, trace downgrade) record what they
// did through the thread-local degradation notes the Engine brackets
// around each job; see DegradationScope below.

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace ndft {

/// What an armed site simulates failing — determines how the Engine
/// classifies an escaped FaultInjected (transient kinds retry).
enum class FaultClass {
  kResource,  ///< allocation pressure (transient: retry may succeed)
  kDevice,    ///< simulated NDP/memory fault (transient)
  kSolver,    ///< solver non-convergence (degrades to a robust fallback)
  kTrace,     ///< trace-recorder failure (degrades to an untraced run)
};
const char* to_string(FaultClass cls) noexcept;

/// Thrown by fault_point() when its site fires (and by degradable sites
/// whose fallback is handled by the caller). Derives from NdftError so
/// un-instrumented layers fail the same way a genuine error would.
class FaultInjected : public NdftError {
 public:
  FaultInjected(std::string site, FaultClass cls, std::uint64_t sequence);

  const std::string& site() const noexcept { return site_; }
  FaultClass fault_class() const noexcept { return cls_; }
  /// Which draw at the site fired (0-based), for replay diagnostics.
  std::uint64_t sequence() const noexcept { return sequence_; }

 private:
  std::string site_;
  FaultClass cls_;
  std::uint64_t sequence_;
};

/// One registered injection point.
struct FaultSite {
  const char* name;         ///< stable id used in specs ("scf.alloc", ...)
  const char* description;  ///< what firing simulates
  FaultClass cls;
};

/// The static catalog of every injection site compiled into the binary
/// (the fault-site sweep test iterates it; specs may only name these or "*").
const std::vector<FaultSite>& fault_sites();

/// One armed rule: fire at `site` with `probability` per draw, at most
/// `max_fires` times (0 = unlimited). site "*" matches any site without
/// its own rule.
struct FaultRule {
  std::string site;
  double probability = 0.0;
  std::uint64_t max_fires = 0;
};

/// A parsed fault spec. Grammar (see docs/ROBUSTNESS.md):
///   spec  := [entry (';' entry)*]
///   entry := "seed=" uint | site '=' prob ['@' max_fires]
/// e.g. "seed=7;scf.alloc=0.5;trace.recorder=1.0@1". ',' also separates.
struct FaultSpec {
  std::uint64_t seed = 0;
  std::vector<FaultRule> rules;

  bool empty() const noexcept { return rules.empty(); }

  /// Parses the grammar above; throws NdftError on syntax errors or on
  /// sites that are neither registered nor "*".
  static FaultSpec parse(const std::string& text);
};

/// Installs `spec` process-wide (replacing any previous spec) and resets
/// every site's sequence counter, so the same spec replays bitwise.
void fault_install(const FaultSpec& spec);

/// Disarms all sites; the hot path returns to the single-branch check.
void fault_clear() noexcept;

/// True when any spec is armed (one relaxed load — the hot-path gate).
/// Fault-aware parallel regions serialize under this so injection
/// decisions and degradation notes stay on the job thread.
bool fault_enabled() noexcept;

namespace detail {
extern std::atomic<bool> g_fault_enabled;
/// Draws the site's next sequence number and decides deterministically.
bool fault_roll(const char* site) noexcept;
}  // namespace detail

/// True when the armed spec fires for this draw at `site`. The call is a
/// single branch when no spec is installed.
inline bool fault_fires(const char* site) noexcept {
  if (!detail::g_fault_enabled.load(std::memory_order_relaxed)) {
    return false;
  }
  return detail::fault_roll(site);
}

/// Checks `site` and throws FaultInjected (classified from the catalog)
/// when it fires; no-op otherwise.
void fault_point(const char* site);

// ------------------------------------------------------- degradation notes
// A job that survives a failure in degraded form (solver fallback,
// untraced run) records what happened instead of erroring. The Engine
// installs a thread-local sink around each job; note_degradation() is a
// no-op without one (and off the job thread), so library code can always
// call it.

/// RAII sink for degradation notes on the installing thread.
class DegradationScope {
 public:
  DegradationScope();
  ~DegradationScope();
  DegradationScope(const DegradationScope&) = delete;
  DegradationScope& operator=(const DegradationScope&) = delete;

  /// The notes recorded since construction, in program order.
  std::vector<std::string> take() noexcept { return std::move(notes_); }

 private:
  std::vector<std::string> notes_;
  std::vector<std::string>* previous_;
};

/// Records one degradation note into the innermost scope (no-op without
/// one). Notes are short stable tags, e.g. "syevd_partial:full_fallback".
void note_degradation(std::string note);

}  // namespace ndft
