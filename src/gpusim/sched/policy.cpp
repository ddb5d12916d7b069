#include "gpusim/sched/policy.hpp"

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstdlib>
#include <limits>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/string_util.hpp"
#include "gpusim/cache.hpp"
#include "policy/adaptive.hpp"

namespace catt::sim::sched {

const char* to_string(Kind k) {
  switch (k) {
    case Kind::kNone: return "none";
    case Kind::kCcws: return "ccws";
    case Kind::kDyncta: return "dyncta";
    case Kind::kAdaptive: return "adaptive";
  }
  return "?";
}

const char* to_string(DecisionReason r) {
  switch (r) {
    case DecisionReason::kThrottle: return "throttle";
    case DecisionReason::kRelax: return "relax";
    case DecisionReason::kPhaseReset: return "phase_reset";
  }
  return "?";
}

namespace {

[[noreturn]] void bad_spec(const std::string& spec, const std::string& why) {
  throw SimError("bad --sched spec '" + spec + "': " + why);
}

/// Integer knob in [lo, hi]. Out-of-range values — strtoll's ERANGE
/// saturation included — are rejected, never wrapped into the narrower
/// config field.
std::int64_t parse_int(const std::string& spec, const std::string& v, std::int64_t lo,
                       std::int64_t hi) {
  errno = 0;
  char* end = nullptr;
  const long long x = std::strtoll(v.c_str(), &end, 10);
  if (end == v.c_str() || *end != '\0' || errno == ERANGE || x < lo || x > hi) {
    bad_spec(spec, "expected integer in [" + std::to_string(lo) + ", " + std::to_string(hi) +
                       "], got '" + v + "'");
  }
  return static_cast<std::int64_t>(x);
}

/// Positive knob that fits the config's int fields.
int parse_pos(const std::string& spec, const std::string& v) {
  return static_cast<int>(parse_int(spec, v, 1, std::numeric_limits<int>::max()));
}

/// Knobs where zero is meaningful (adaptive's window=0 degenerate mode,
/// cooldown=0 for decide-every-window).
int parse_nonneg(const std::string& spec, const std::string& v) {
  return static_cast<int>(parse_int(spec, v, 0, std::numeric_limits<int>::max()));
}

double parse_frac(const std::string& spec, const std::string& v) {
  char* end = nullptr;
  const double x = std::strtod(v.c_str(), &end);
  if (end == v.c_str() || *end != '\0' || x < 0.0 || x > 1.0) {
    bad_spec(spec, "expected fraction in [0,1], got '" + v + "'");
  }
  return x;
}

}  // namespace

PolicyConfig PolicyConfig::parse(const std::string& spec) {
  PolicyConfig cfg;
  std::string name = spec;
  std::string knobs;
  if (const auto colon = spec.find(':'); colon != std::string::npos) {
    name = spec.substr(0, colon);
    knobs = spec.substr(colon + 1);
  }
  if (name == "none") {
    cfg.kind = Kind::kNone;
  } else if (name == "ccws") {
    cfg.kind = Kind::kCcws;
  } else if (name == "dyncta") {
    cfg.kind = Kind::kDyncta;
  } else if (name == "adaptive") {
    cfg.kind = Kind::kAdaptive;
  } else {
    bad_spec(spec, "unknown policy '" + name + "' (use none|ccws|dyncta|adaptive)");
  }
  if (cfg.kind == Kind::kNone && !knobs.empty()) bad_spec(spec, "'none' takes no knobs");

  for (const std::string& kv : split(knobs, ',')) {
    if (kv.empty()) continue;
    const auto eq = kv.find('=');
    if (eq == std::string::npos) bad_spec(spec, "knob '" + kv + "' is not key=value");
    const std::string key = kv.substr(0, eq);
    const std::string val = kv.substr(eq + 1);
    if (key == "interval") {
      cfg.update_interval = parse_int(spec, val, 1, std::numeric_limits<std::int64_t>::max());
    } else if (cfg.kind == Kind::kCcws && key == "tags") {
      cfg.ccws_victim_tags = parse_pos(spec, val);
    } else if (cfg.kind == Kind::kCcws && key == "hit_score") {
      cfg.ccws_hit_score = parse_pos(spec, val);
    } else if (cfg.kind == Kind::kCcws && key == "decay") {
      cfg.ccws_decay = parse_pos(spec, val);
    } else if (cfg.kind == Kind::kCcws && key == "base") {
      cfg.ccws_base_score = parse_pos(spec, val);
    } else if (cfg.kind == Kind::kCcws && key == "min_active") {
      cfg.ccws_min_active = parse_pos(spec, val);
    } else if (cfg.kind == Kind::kDyncta && key == "low") {
      cfg.dyncta_low_hit = parse_frac(spec, val);
    } else if (cfg.kind == Kind::kDyncta && key == "high") {
      cfg.dyncta_high_hit = parse_frac(spec, val);
    } else if (cfg.kind == Kind::kDyncta && key == "min_tbs") {
      cfg.dyncta_min_tbs = parse_pos(spec, val);
    } else if (cfg.kind == Kind::kAdaptive && key == "window") {
      cfg.adaptive_window = parse_nonneg(spec, val);
    } else if (cfg.kind == Kind::kAdaptive && key == "low") {
      cfg.adaptive_low_hit = parse_frac(spec, val);
    } else if (cfg.kind == Kind::kAdaptive && key == "hysteresis") {
      cfg.adaptive_hysteresis = parse_frac(spec, val);
    } else if (cfg.kind == Kind::kAdaptive && key == "cooldown") {
      cfg.adaptive_cooldown = parse_nonneg(spec, val);
    } else if (cfg.kind == Kind::kAdaptive && key == "max_drop") {
      cfg.adaptive_max_drop = parse_pos(spec, val);
    } else if (cfg.kind == Kind::kAdaptive && key == "min_active") {
      cfg.adaptive_min_active = parse_pos(spec, val);
    } else {
      bad_spec(spec, "unknown knob '" + key + "' for policy '" + name + "'");
    }
  }
  return cfg;
}

std::string PolicyConfig::str() const {
  switch (kind) {
    case Kind::kNone:
      return "none";
    case Kind::kCcws:
      return "ccws:interval=" + std::to_string(update_interval) +
             ",tags=" + std::to_string(ccws_victim_tags) +
             ",hit_score=" + std::to_string(ccws_hit_score) +
             ",decay=" + std::to_string(ccws_decay) + ",base=" + std::to_string(ccws_base_score) +
             ",min_active=" + std::to_string(ccws_min_active);
    case Kind::kDyncta:
      return "dyncta:interval=" + std::to_string(update_interval) +
             ",low=" + std::to_string(dyncta_low_hit) + ",high=" + std::to_string(dyncta_high_hit) +
             ",min_tbs=" + std::to_string(dyncta_min_tbs);
    case Kind::kAdaptive:
      return "adaptive:interval=" + std::to_string(update_interval) +
             ",window=" + std::to_string(adaptive_window) +
             ",low=" + std::to_string(adaptive_low_hit) +
             ",hysteresis=" + std::to_string(adaptive_hysteresis) +
             ",cooldown=" + std::to_string(adaptive_cooldown) +
             ",max_drop=" + std::to_string(adaptive_max_drop) +
             ",min_active=" + std::to_string(adaptive_min_active);
  }
  return "?";
}

std::uint64_t PolicyConfig::fingerprint() const {
  if (!enabled()) return 0;
  hash::Fnv1a h;
  h.i32(static_cast<int>(kind)).i64(update_interval);
  if (kind == Kind::kCcws) {
    h.i32(ccws_victim_tags).i32(ccws_hit_score).i32(ccws_decay).i32(ccws_base_score).i32(
        ccws_min_active);
  } else if (kind == Kind::kDyncta) {
    h.u64(std::bit_cast<std::uint64_t>(dyncta_low_hit))
        .u64(std::bit_cast<std::uint64_t>(dyncta_high_hit))
        .i32(dyncta_min_tbs);
  } else {
    h.i32(adaptive_window)
        .u64(std::bit_cast<std::uint64_t>(adaptive_low_hit))
        .u64(std::bit_cast<std::uint64_t>(adaptive_hysteresis))
        .i32(adaptive_cooldown)
        .i32(adaptive_max_drop)
        .i32(adaptive_min_active);
  }
  return h.value();
}

namespace {

/// CCWS-style lost-locality scored warp throttling (see header comment).
class CcwsPolicy final : public SchedPolicy {
 public:
  explicit CcwsPolicy(const PolicyConfig& cfg) : cfg_(cfg), next_update_(cfg.update_interval) {
    owner_.assign(kOwnerSlots, Owner{});
    stats_.throttle_level = 0;
  }

  void on_warp_admitted(int warp, int tb) override {
    (void)tb;
    const std::size_t n = static_cast<std::size_t>(warp) + 1;
    if (warps_.size() < n) warps_.resize(n);
    WarpState& w = warps_[static_cast<std::size_t>(warp)];
    w.live = true;
    w.eligible = true;  // new warps run until the next re-evaluation
    w.score = cfg_.ccws_base_score;
    w.tags.assign(static_cast<std::size_t>(std::max(1, cfg_.ccws_victim_tags)), kNoTag);
    w.tag_cursor = 0;
    ++live_warps_;
  }

  void on_warp_done(int warp, int tb) override {
    (void)tb;
    WarpState& w = warps_[static_cast<std::size_t>(warp)];
    if (!w.live) return;
    w.live = false;
    --live_warps_;
  }

  void on_l1_access(int warp, std::uint64_t line, bool hit) override {
    if (hit || warp < 0 || static_cast<std::size_t>(warp) >= warps_.size()) return;
    WarpState& w = warps_[static_cast<std::size_t>(warp)];
    // A miss on a line this warp recently lost to an eviction is the CCWS
    // "lost locality detected" signal.
    for (std::uint64_t& t : w.tags) {
      if (t == line) {
        t = kNoTag;
        w.score += cfg_.ccws_hit_score;
        ++stats_.victim_tag_hits;
        break;
      }
    }
    owner_[owner_slot(line)] = Owner{line, warp};
  }

  void on_l1_evict(std::uint64_t line) override {
    const Owner& o = owner_[owner_slot(line)];
    if (o.line != line || o.warp < 0) return;  // owner unknown or aliased out
    if (static_cast<std::size_t>(o.warp) >= warps_.size()) return;
    WarpState& w = warps_[static_cast<std::size_t>(o.warp)];
    if (!w.live) return;
    w.tags[w.tag_cursor] = line;
    if (++w.tag_cursor == w.tags.size()) w.tag_cursor = 0;
  }

  void update(std::int64_t now, const CacheStats& l1, std::uint64_t ready_warps,
              std::uint64_t mshr_in_flight, std::uint64_t insts_retired) override {
    (void)l1;
    (void)ready_warps;
    (void)mshr_in_flight;
    (void)insts_retired;
    ++stats_.updates;
    // Catch up past skipped intervals (the event engine jumps over idle
    // stretches); one decay per elapsed interval keeps decay time-based.
    while (next_update_ <= now) {
      next_update_ += cfg_.update_interval;
      for (WarpState& w : warps_) {
        if (w.live) w.score = std::max(cfg_.ccws_base_score, w.score - cfg_.ccws_decay);
      }
    }
    // Rank live warps by score (desc, warp index asc for determinism) and
    // cut the active set where cumulative score exceeds the base budget.
    order_.clear();
    for (std::size_t i = 0; i < warps_.size(); ++i) {
      if (warps_[i].live) order_.push_back(static_cast<int>(i));
    }
    std::sort(order_.begin(), order_.end(), [&](int a, int b) {
      const int sa = warps_[static_cast<std::size_t>(a)].score;
      const int sb = warps_[static_cast<std::size_t>(b)].score;
      return sa != sb ? sa > sb : a < b;
    });
    const long long budget =
        static_cast<long long>(cfg_.ccws_base_score) * static_cast<long long>(order_.size());
    long long cum = 0;
    int active = 0;
    for (const int wi : order_) {
      WarpState& w = warps_[static_cast<std::size_t>(wi)];
      cum += w.score;
      const bool in = active < cfg_.ccws_min_active || cum <= budget;
      w.eligible = in;
      active += in ? 1 : 0;
    }
    stats_.throttle_level = active;
  }

  std::int64_t next_update_time() const override { return next_update_; }

  bool may_issue(int warp, int tb) override {
    (void)tb;
    const bool ok = warps_[static_cast<std::size_t>(warp)].eligible;
    stats_.vetoes += ok ? 0 : 1;
    return ok;
  }

 private:
  struct WarpState {
    bool live = false;
    bool eligible = true;
    int score = 0;
    std::vector<std::uint64_t> tags;  // kNoTag = empty
    std::size_t tag_cursor = 0;
  };
  /// Direct-mapped line -> last missing warp table, so an eviction can be
  /// attributed to the warp that brought the line in (bounded stand-in for
  /// per-line owner metadata in the cache).
  struct Owner {
    std::uint64_t line = ~0ULL;
    int warp = -1;
  };
  static constexpr std::uint64_t kNoTag = ~0ULL;
  static constexpr std::size_t kOwnerSlots = 1024;  // power of two

  static std::size_t owner_slot(std::uint64_t line) {
    std::uint64_t x = line;
    x ^= x >> 33;
    x *= 0xFF51AFD7ED558CCDULL;
    x ^= x >> 29;
    return static_cast<std::size_t>(x & (kOwnerSlots - 1));
  }

  const PolicyConfig cfg_;
  std::int64_t next_update_;
  std::vector<WarpState> warps_;
  std::vector<Owner> owner_;
  std::vector<int> order_;  // scratch for update()
  int live_warps_ = 0;
};

/// DYNCTA-style resident-TB pausing (see header comment).
class DynctaPolicy final : public SchedPolicy {
 public:
  explicit DynctaPolicy(const PolicyConfig& cfg) : cfg_(cfg), next_update_(cfg.update_interval) {}

  void on_warp_admitted(int warp, int tb) override {
    (void)warp;
    const std::size_t n = static_cast<std::size_t>(tb) + 1;
    if (tbs_.size() < n) tbs_.resize(n);
    TbState& t = tbs_[static_cast<std::size_t>(tb)];
    if (!t.live) {
      t.live = true;
      t.paused = false;  // a fresh TB runs until the next re-evaluation
      ++live_tbs_;
      // The controller's target is relative to residency: a new admission
      // raises the ceiling but never unpauses an already-paused TB.
      if (target_ > 0) target_ = std::min(target_ + 1, live_tbs_);
    }
    ++t.warps;
  }

  void on_warp_done(int warp, int tb) override {
    (void)warp;
    TbState& t = tbs_[static_cast<std::size_t>(tb)];
    if (--t.warps == 0 && t.live) {
      t.live = false;
      if (t.paused) t.paused = false;
      --live_tbs_;
      apply_target();
    }
  }

  void update(std::int64_t now, const CacheStats& l1, std::uint64_t ready_warps,
              std::uint64_t mshr_in_flight, std::uint64_t insts_retired) override {
    (void)mshr_in_flight;
    (void)insts_retired;
    ++stats_.updates;
    while (next_update_ <= now) next_update_ += cfg_.update_interval;

    const std::uint64_t d_acc = l1.accesses - last_accesses_;
    const std::uint64_t d_hit = l1.hits - last_hits_;
    last_accesses_ = l1.accesses;
    last_hits_ = l1.hits;

    int t = target_ > 0 ? target_ : live_tbs_;
    if (d_acc > 0) {
      const double hit = static_cast<double>(d_hit) / static_cast<double>(d_acc);
      if (hit < cfg_.dyncta_low_hit) {
        --t;  // thrashing: shrink the active TB set
      } else if (hit > cfg_.dyncta_high_hit && ready_warps <= kLowReadyWarps) {
        ++t;  // cache is happy and the SM is starving: grow it back
      }
    } else if (ready_warps <= kLowReadyWarps) {
      ++t;  // no memory traffic at all: latency-bound, throttling cannot help
    }
    target_ = std::clamp(t, std::min(cfg_.dyncta_min_tbs, std::max(1, live_tbs_)),
                         std::max(1, live_tbs_));
    apply_target();
  }

  std::int64_t next_update_time() const override { return next_update_; }

  bool may_issue(int warp, int tb) override {
    (void)warp;
    const bool ok = !tbs_[static_cast<std::size_t>(tb)].paused;
    stats_.vetoes += ok ? 0 : 1;
    return ok;
  }

 private:
  struct TbState {
    int warps = 0;
    bool live = false;
    bool paused = false;
  };
  /// "SM is starving" threshold: at or below this many issuable warps the
  /// controller treats idle cycles as lack of TLP rather than contention.
  static constexpr std::uint64_t kLowReadyWarps = 2;

  /// Pauses the youngest live TBs beyond the target (oldest-first
  /// activation mirrors DYNCTA's launch-order CTA priority).
  void apply_target() {
    if (target_ <= 0) return;
    int active = 0;
    int paused = 0;
    for (TbState& t : tbs_) {
      if (!t.live) continue;
      t.paused = active >= target_;
      active += t.paused ? 0 : 1;
      paused += t.paused ? 1 : 0;
    }
    stats_.paused_tbs = paused;
    stats_.max_paused_tbs = std::max(stats_.max_paused_tbs, paused);
    stats_.throttle_level = active;
  }

  const PolicyConfig cfg_;
  std::int64_t next_update_;
  std::vector<TbState> tbs_;
  std::uint64_t last_accesses_ = 0;
  std::uint64_t last_hits_ = 0;
  int live_tbs_ = 0;
  /// Desired active-TB count; 0 = not yet decided (everything runs).
  int target_ = 0;
};

}  // namespace

std::unique_ptr<SchedPolicy> make_policy(const PolicyConfig& cfg) {
  switch (cfg.kind) {
    case Kind::kCcws:
      return std::make_unique<CcwsPolicy>(cfg);
    case Kind::kDyncta:
      return std::make_unique<DynctaPolicy>(cfg);
    case Kind::kAdaptive:
      return policy::make_adaptive(cfg);
    case Kind::kNone:
      break;
  }
  throw SimError("make_policy called with kind=none");
}

}  // namespace catt::sim::sched
