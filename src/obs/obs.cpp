#include "obs/obs.hpp"

#include <atomic>
#include <chrono>
#include <cstdlib>

namespace catt::obs {
namespace {

std::atomic<int> g_trace_floor{0};

int parse_env_int(const char* name) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return 0;
  char* end = nullptr;
  const long parsed = std::strtol(v, &end, 10);
  if (end == v || *end != '\0' || parsed < 0) return 0;
  return static_cast<int>(parsed);
}

}  // namespace

int env_trace_level() {
  static const int from_env = parse_env_int("CATT_TRACE");
  const int floor = g_trace_floor.load(std::memory_order_relaxed);
  return from_env > floor ? from_env : floor;
}

void override_trace_level(int level) {
  int cur = g_trace_floor.load(std::memory_order_relaxed);
  while (level > cur &&
         !g_trace_floor.compare_exchange_weak(cur, level, std::memory_order_relaxed)) {
  }
}

std::int64_t env_metrics_interval() {
  static const std::int64_t v = parse_env_int("CATT_METRICS_INTERVAL");
  return v;
}

const SimObs* env_sim_obs() {
  // The env SimObs is rebuilt lazily so an override_trace_level() call
  // before the first launch (the --trace-out path) is honoured; after
  // first use the configuration is frozen for the process lifetime.
  static const SimObs* configured = [] {
    static SimObs s;
    s.trace_level = env_trace_level();
    s.metrics_interval = env_metrics_interval();
    return s.active() ? &s : nullptr;
  }();
  return configured;
}

void count(const char* name, std::uint64_t delta, const SimObs* obs) {
  if (const SimObs* ob = resolve(obs)) {
    Registry& reg = ob->registry_or_global();
    reg.add(reg.counter(name), delta);
  }
}

void Accum::start() { t0_ = std::chrono::steady_clock::now(); }

void Accum::stop() {
  const auto elapsed = std::chrono::steady_clock::now() - t0_;
  total_ms_ += std::chrono::duration<double, std::milli>(elapsed).count();
  if (registry_ != nullptr) {
    // Whole microseconds go to the registry; the sub-microsecond rest
    // carries into the next stop(), so many short intervals still add up.
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count();
    pending_ns_ += static_cast<std::uint64_t>(ns < 0 ? 0 : ns);
    registry_->add(us_counter_, pending_ns_ / 1000);
    pending_ns_ %= 1000;
  }
}

}  // namespace catt::obs
