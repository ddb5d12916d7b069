// Umbrella header for the observability subsystem: run-time configuration
// (SimObs) and the environment knobs (CATT_TRACE, CATT_METRICS_INTERVAL).
// Simulator code takes a `const SimObs*` (null = everything off) and calls
// obs::resolve() once per launch; a null result skips every hook.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>

#include "obs/registry.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"

namespace catt::obs {

/// Per-run observability configuration, attached to SimOptions. The
/// pointer is deliberately excluded from SimOptions::fingerprint():
/// observability must never perturb memoization keys or simulated results.
struct SimObs {
  /// 0 = no event tracing, 1 = coarse (launch, TB dispatch, exec jobs),
  /// 2 = fine (+ per-issue scheduler decisions, cache miss lifetimes).
  int trace_level = 0;
  /// Sampling interval in cycles for the per-launch time-series;
  /// 0 disables sampling.
  std::int64_t metrics_interval = 0;

  /// Sinks; null falls back to the process-wide instances.
  Tracer* tracer = nullptr;
  Registry* registry = nullptr;

  /// Invoked once per sampled launch with the finished series. Must be
  /// thread-safe: the exec pool simulates launches concurrently.
  std::function<void(const LaunchSeries&)> on_series;

  Tracer& tracer_or_global() const { return tracer != nullptr ? *tracer : Tracer::global(); }
  Registry& registry_or_global() const {
    return registry != nullptr ? *registry : Registry::global();
  }
  bool active() const { return trace_level > 0 || metrics_interval > 0; }
};

/// CATT_TRACE level from the environment (cached; 0 when unset/invalid),
/// possibly raised by override_trace_level().
int env_trace_level();
/// Raises the effective env_trace_level() floor (used by --trace-out: a
/// trace output path implies at least coarse tracing).
void override_trace_level(int level);

/// CATT_METRICS_INTERVAL cycles from the environment (cached; 0 when
/// unset/invalid).
std::int64_t env_metrics_interval();

/// The process-wide SimObs assembled from the environment knobs, or null
/// when every knob is off. Used by entry points that have no explicit
/// SimObs (benches pick it up via harness::ObsSession).
const SimObs* env_sim_obs();

/// Gate for every hook site: returns the configured SimObs only when it is
/// active, else the env-configured one (null when every knob is off).
inline const SimObs* resolve(const SimObs* configured) {
  if (configured != nullptr) return configured->active() ? configured : nullptr;
  return env_sim_obs();
}

/// Bumps a named counter on the ambient registry (the attached SimObs, or
/// the env-configured one when `obs` is null). The shared idiom for
/// engine-level event counters: a no-op when observability is off, and
/// never allowed to perturb fingerprints or simulated results.
void count(const char* name, std::uint64_t delta = 1, const SimObs* obs = nullptr);

/// Wall-clock accumulator, successor of prof::Accum: same ms() contract
/// (so [profile] lines stay byte-compatible), plus the accumulated time is
/// mirrored into a registry counter (microseconds) at stop() when a metric
/// id is bound. The counter reads floor(total ns / 1000): sub-microsecond
/// remainders carry across stop()s instead of being truncated away.
class Accum {
 public:
  Accum() = default;
  Accum(Registry* registry, MetricId us_counter)
      : registry_(registry), us_counter_(us_counter) {}

  void start();
  void stop();
  double ms() const { return total_ms_; }

 private:
  std::chrono::steady_clock::time_point t0_{};
  double total_ms_ = 0.0;
  std::uint64_t pending_ns_ = 0;  // elapsed time not yet mirrored (< 1 us)
  Registry* registry_ = nullptr;
  MetricId us_counter_ = 0;
};

}  // namespace catt::obs
