// Simulator self-profiling: scoped wall-clock timers over the simulator's
// own hot paths (event drain, Algorithm 1 sweep, dispatch/monitor ticks,
// exporter flush), aggregated per phase.
//
// This measures the *host* cost of running the simulation, not simulated
// time — so unlike every other obs stream its numbers are nondeterministic
// by nature. To keep the byte-identity guarantees of the trace/metrics/
// rollup exports intact, profile data only ever reaches an export when the
// run opted in (--profile): the report gains a "profile" section and the
// chrome trace a dedicated self-profile lane, both emitted only when the
// profiler observed at least one phase.
//
// Hot-path discipline matches the Tracer: call sites hold a Profiler* that
// is nullptr when profiling is disabled; ScopedPhase on a nullptr profiler
// skips the clock reads entirely, so the disabled cost is a single branch.
// One Profiler per repetition; scopes are only ever opened on the thread
// driving that repetition.
//
// Kept dependency-free (std only) so sim/ can include it without layering
// the simulator on the rest of the obs subsystem.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string_view>

namespace paldia::obs {

/// The instrumented phases. Order is the report/export order.
enum class ProfilePhase : std::uint8_t {
  kSerialDrain = 0,  // the simulator's (time, sequence) pop loop
  kSelectionSweep,   // Algorithm 1 hardware-selection sweep
  kDispatchTick,     // framework dispatch tick (batching + submission)
  kMonitorTick,      // framework monitor tick (selection + telemetry)
  kExportFlush,      // exporter flush (trace/decisions/rollup writes)
};

inline constexpr int kProfilePhaseCount = 5;

/// Stable machine name ("serial_drain", "selection_sweep", ...).
std::string_view profile_phase_name(ProfilePhase phase);

struct PhaseStats {
  std::uint64_t calls = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t max_ns = 0;
};

class Profiler {
 public:
  void record(ProfilePhase phase, std::uint64_t elapsed_ns) {
    PhaseStats& stats = phases_[static_cast<std::size_t>(phase)];
    ++stats.calls;
    stats.total_ns += elapsed_ns;
    if (elapsed_ns > stats.max_ns) stats.max_ns = elapsed_ns;
  }

  const std::array<PhaseStats, kProfilePhaseCount>& phases() const {
    return phases_;
  }
  const PhaseStats& phase(ProfilePhase phase) const {
    return phases_[static_cast<std::size_t>(phase)];
  }

  /// Fold another repetition's profile into this one (max of maxes).
  void merge(const Profiler& other);

  /// True when no phase was ever recorded (suppresses export sections).
  bool empty() const;

 private:
  std::array<PhaseStats, kProfilePhaseCount> phases_{};
};

/// RAII phase timer tolerant of a disabled (nullptr) profiler.
class ScopedPhase {
 public:
  ScopedPhase(Profiler* profiler, ProfilePhase phase)
      : profiler_(profiler), phase_(phase) {
    if (profiler_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedPhase() {
    if (profiler_ == nullptr) return;
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    profiler_->record(phase_, static_cast<std::uint64_t>(
                                  std::chrono::duration_cast<std::chrono::nanoseconds>(
                                      elapsed)
                                      .count()));
  }
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  Profiler* profiler_;
  ProfilePhase phase_;
  std::chrono::steady_clock::time_point start_{};
};

}  // namespace paldia::obs
