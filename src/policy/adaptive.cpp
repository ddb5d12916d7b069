#include "policy/adaptive.hpp"

#include <algorithm>
#include <vector>

#include "gpusim/cache.hpp"
#include "policy/engine.hpp"

namespace catt::policy {

namespace sched = sim::sched;

namespace {

/// Per-SM adaptive throttling (see header comments here and in
/// engine.hpp). Eligibility mirrors warp admission order: the cap oldest
/// live warps may issue, the rest are vetoed — the same oldest-first
/// priority the static transform gives its surviving warp groups.
///
/// Loop phases are tracked through barrier releases: each TB counts its
/// completed barriers, and the SM's phase is the minimum over live TBs
/// (the slowest TB's progress through the kernel's barrier sequence). A
/// phase change observed at an update boundary resets the controller to
/// the static prior — the evidence gathered in the previous phase does
/// not transfer.
class AdaptivePolicy final : public sched::SchedPolicy {
 public:
  explicit AdaptivePolicy(const sched::PolicyConfig& cfg)
      : cfg_(cfg),
        ctrl_(ControllerConfig{cfg.adaptive_window, cfg.adaptive_low_hit,
                               cfg.adaptive_hysteresis, cfg.adaptive_cooldown,
                               cfg.adaptive_max_drop, cfg.adaptive_min_active}),
        next_update_(cfg.update_interval) {}

  void on_warp_admitted(int warp, int tb) override {
    const std::size_t wn = static_cast<std::size_t>(warp) + 1;
    if (warps_.size() < wn) warps_.resize(wn);
    WarpState& w = warps_[static_cast<std::size_t>(warp)];
    w.live = true;
    w.eligible = true;
    ++live_warps_;
    const std::size_t tn = static_cast<std::size_t>(tb) + 1;
    if (tbs_.size() < tn) tbs_.resize(tn);
    TbState& t = tbs_[static_cast<std::size_t>(tb)];
    t.live = true;
    ++t.warps;
    apply_cap();
  }

  void on_warp_done(int warp, int tb) override {
    WarpState& w = warps_[static_cast<std::size_t>(warp)];
    if (!w.live) return;
    w.live = false;
    --live_warps_;
    TbState& t = tbs_[static_cast<std::size_t>(tb)];
    if (--t.warps == 0) t.live = false;
    apply_cap();
  }

  void on_barrier(int tb) override { ++tbs_[static_cast<std::size_t>(tb)].barriers_done; }

  void on_bind(int l1_mshrs) override { mshr_capacity_ = l1_mshrs; }

  void update(std::int64_t now, const sim::CacheStats& l1, std::uint64_t ready_warps,
              std::uint64_t mshr_in_flight, std::uint64_t insts_retired) override {
    ++stats_.updates;
    while (next_update_ <= now) next_update_ += cfg_.update_interval;

    // A new loop phase first: the old window's evidence belongs to code
    // that is no longer running, so the controller returns to the static
    // prior before sampling restarts. Phases only move forward: freshly
    // admitted TBs re-enter at barrier count zero, and that turnover dip
    // is the same code still running, not a new phase — treating it as
    // one would reset (and re-arm) the controller on every TB rotation.
    const int phase = current_phase();
    if (phase > phase_) {
      if (ctrl_.drop() != 0) {
        decisions_.push_back({now, 0, phase, ctrl_.drop(), 0,
                              sched::DecisionReason::kPhaseReset});
      }
      phase_ = phase;
      ctrl_.reset();
      apply_cap();
    }

    const std::uint64_t d_acc = l1.accesses - last_accesses_;
    const std::uint64_t d_hit = l1.hits - last_hits_;
    const std::uint64_t d_insts = insts_retired - last_insts_;
    // `now` is global simulation time, not launch-relative: the span of
    // the very first interval is measured from this policy's first sight
    // of the clock, never from zero, or every launch after the first
    // would start with a window whose IPC is diluted by the entire
    // preceding history (and whose probe verdicts would then always pass).
    const std::int64_t d_cycles = last_now_ >= 0 ? now - last_now_ : cfg_.update_interval;
    last_accesses_ = l1.accesses;
    last_hits_ = l1.hits;
    last_insts_ = insts_retired;
    last_now_ = now;

    IntervalSample s;
    s.had_traffic = d_acc > 0;
    s.hit_rate = d_acc > 0 ? static_cast<double>(d_hit) / static_cast<double>(d_acc) : 0.0;
    s.mshr_in_flight = mshr_in_flight;
    s.mshr_capacity = mshr_capacity_;
    s.ready_warps = ready_warps;
    s.insts = d_insts;
    s.cycles = d_cycles;
    s.live_warps = live_warps_;

    const int before = ctrl_.drop();
    switch (ctrl_.observe(s)) {
      case Verdict::kHold:
        break;
      case Verdict::kThrottle:
        decisions_.push_back({now, 0, phase_, before, ctrl_.drop(),
                              sched::DecisionReason::kThrottle});
        apply_cap();
        break;
      case Verdict::kRelax:
        decisions_.push_back({now, 0, phase_, before, ctrl_.drop(),
                              sched::DecisionReason::kRelax});
        apply_cap();
        break;
    }
  }

  std::int64_t next_update_time() const override { return next_update_; }

  bool may_issue(int warp, int tb) override {
    (void)tb;
    const bool ok = warps_[static_cast<std::size_t>(warp)].eligible;
    stats_.vetoes += ok ? 0 : 1;
    return ok;
  }

  const std::vector<sched::Decision>* decisions() const override { return &decisions_; }

 private:
  struct WarpState {
    bool live = false;
    bool eligible = true;
  };
  struct TbState {
    int warps = 0;
    int barriers_done = 0;
    bool live = false;
  };

  /// The slowest live TB's completed-barrier count; with no live TBs the
  /// phase is whatever it last was (nothing left to correct).
  int current_phase() const {
    int phase = phase_;
    bool any = false;
    for (const TbState& t : tbs_) {
      if (!t.live) continue;
      phase = any ? std::min(phase, t.barriers_done) : t.barriers_done;
      any = true;
    }
    return phase;
  }

  /// Recomputes warp eligibility from the controller level: the cap
  /// oldest live warps issue, the rest wait. The floor keeps at least
  /// min_active (or every remaining) warp running, so the SM always makes
  /// progress toward the next phase boundary.
  void apply_cap() {
    const int cap = active_cap(live_warps_, ctrl_.drop(), cfg_.adaptive_min_active);
    int seen = 0;
    for (WarpState& w : warps_) {
      if (!w.live) continue;
      w.eligible = seen < cap;
      ++seen;
    }
    stats_.throttle_level = std::min(cap, live_warps_);
  }

  const sched::PolicyConfig cfg_;
  WindowedController ctrl_;
  std::int64_t next_update_;
  std::vector<WarpState> warps_;
  std::vector<TbState> tbs_;
  std::vector<sched::Decision> decisions_;
  std::uint64_t last_accesses_ = 0;
  std::uint64_t last_hits_ = 0;
  std::uint64_t last_insts_ = 0;
  std::int64_t last_now_ = -1;
  int live_warps_ = 0;
  int mshr_capacity_ = 0;
  int phase_ = 0;
};

}  // namespace

std::unique_ptr<sched::SchedPolicy> make_adaptive(const sched::PolicyConfig& cfg) {
  return std::make_unique<AdaptivePolicy>(cfg);
}

}  // namespace catt::policy
