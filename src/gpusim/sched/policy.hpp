// Runtime thread-throttling scheduler policies (the hardware-dynamic
// baselines the paper argues against, Section 2.2): a SchedPolicy instance
// per SM is consulted by both timing engines (Sm, SmRef) at their issue
// points and fed L1D access/eviction events by the shared SmDatapath.
//
// Four policies:
//  * none   — no policy object is created at all; the engines' scheduling
//             code path is bit-identical to a build without the seam
//             (pinned by tests/golden_test.cpp and runner_test.cpp).
//  * ccws   — CCWS-style lost-locality scoring (Rogers et al., MICRO'12):
//             each warp owns a small victim-tag array sampled from L1D
//             evictions of lines it brought in; a miss that hits the
//             warp's own victim tags means intra-warp locality was lost
//             to contention and bumps the warp's score. At every update
//             interval the warps are ranked by score and the active-warp
//             set is cut off where the cumulative score exceeds the
//             baseline budget — high scorers keep the cache, the rest are
//             throttled.
//  * dyncta — DYNCTA-style CTA pausing (Kayiran et al., PACT'13): a
//             per-SM controller samples the L1D hit rate and the ready-
//             warp count each interval and pauses/resumes whole resident
//             thread blocks (youngest first) to steer the active TB count
//             toward the contention sweet spot.
//  * adaptive — the phase-adaptive feedback controller from src/policy
//             (APEX-style windowed hysteresis over interval samples, see
//             policy/engine.hpp). Designed to ride on CATT-transformed
//             code: the static plan baked into the code is the prior and
//             the controller only corrects below it (drop-from-static),
//             resetting to neutral at loop-phase boundaries (barrier
//             counts). Every level transition is logged as a Decision.
//
// Decisions depend only on simulated state (cycle counts, cache events),
// so every policy is deterministic across repeated runs and across exec
// pool sizes (pinned by runner_test.cpp).
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

namespace catt::sim {
struct CacheStats;
}

namespace catt::sim::sched {

enum class Kind : std::uint8_t { kNone, kCcws, kDyncta, kAdaptive };

const char* to_string(Kind k);

/// Value-type policy selection + knobs; lives in SimOptions. Only the
/// fields of the selected kind are part of fingerprint()/str(), so two
/// configs that simulate identically always hash identically.
struct PolicyConfig {
  Kind kind = Kind::kNone;

  /// Cycles between controller re-evaluations (both dynamic policies).
  std::int64_t update_interval = 2048;

  // --- CCWS knobs ---
  int ccws_victim_tags = 8;   // victim-tag entries per warp
  int ccws_hit_score = 64;    // score bump on a victim-tag hit
  int ccws_decay = 8;         // score decay per update interval
  int ccws_base_score = 32;   // per-warp budget contribution and score floor
  int ccws_min_active = 2;    // never throttle below this many warps

  // --- DYNCTA knobs ---
  double dyncta_low_hit = 0.55;   // interval hit rate below which a TB pauses
  double dyncta_high_hit = 0.90;  // interval hit rate above which a TB resumes
  int dyncta_min_tbs = 1;         // active TBs never drop below this

  // --- adaptive knobs (see policy/engine.hpp for the controller) ---
  int adaptive_window = 4;           // samples per decision window; 0 disables
                                     // the controller entirely (degenerates to
                                     // the static plan byte-identically)
  double adaptive_low_hit = 0.55;    // windowed hit rate below which N drops
  double adaptive_hysteresis = 0.30; // relax band: recover above low+hysteresis
  int adaptive_cooldown = 2;         // full windows to sit out after a change
  int adaptive_max_drop = 8;         // never throttle more than this below static
  int adaptive_min_active = 2;       // never throttle below this many warps

  bool enabled() const { return kind != Kind::kNone; }

  /// Parses "none" | "ccws" | "dyncta" | "adaptive", optionally followed by
  /// ":key=value,..." knob overrides (e.g. "ccws:interval=4096,tags=16",
  /// "adaptive:window=8,hysteresis=0.2"). Throws catt::SimError on unknown
  /// names/keys.
  static PolicyConfig parse(const std::string& spec);

  /// Canonical spec string: "none", or "<kind>:interval=...,..." with every
  /// knob of the active kind spelled out.
  std::string str() const;

  /// Stable content hash of the *active* knobs (0 when disabled, so a
  /// "none" config never perturbs SimOptions::fingerprint()).
  std::uint64_t fingerprint() const;
};

/// Why an adaptive controller changed (or reset) its throttle level.
enum class DecisionReason : std::uint8_t {
  kThrottle = 0,    // windowed hit rate below the low band: drop one level
  kRelax = 1,       // hit rate recovered past low+hysteresis: restore one level
  kPhaseReset = 2,  // loop-phase boundary: back to the static prior
};

const char* to_string(DecisionReason r);

/// One effective-N transition taken by an adaptive controller. `sm` is
/// stamped during per-launch aggregation (a policy instance does not know
/// its SM index); `phase` is the controller's loop-phase counter (min
/// completed-barrier count over the SM's live TBs). Levels are drops below
/// the static plan (0 = run the code as compiled).
struct Decision {
  std::int64_t cycle = 0;
  int sm = 0;
  int phase = 0;
  int from_level = 0;
  int to_level = 0;
  DecisionReason reason = DecisionReason::kThrottle;

  bool operator==(const Decision&) const = default;
};

/// Per-launch throttling telemetry, aggregated over SMs into KernelStats
/// and the obs registry (sim.sched.* counters).
struct PolicyStats {
  std::uint64_t vetoes = 0;           // issue opportunities denied
  std::uint64_t victim_tag_hits = 0;  // CCWS lost-locality detections
  std::uint64_t updates = 0;          // controller re-evaluations
  int throttle_level = 0;             // final active-warp cap (ccws) / active TBs (dyncta)
  int paused_tbs = 0;                 // currently paused TBs (dyncta)
  int max_paused_tbs = 0;             // high-water mark of paused TBs
};

/// One instance per SM; single-threaded (a Gpu and its SMs live on one
/// simulation thread). All virtual calls are gated behind a null check in
/// the engines, so the "none" configuration pays nothing.
class SchedPolicy {
 public:
  static constexpr std::int64_t kNever = std::numeric_limits<std::int64_t>::max();

  virtual ~SchedPolicy() = default;

  /// Lifecycle feedback from the engine.
  virtual void on_warp_admitted(int warp, int tb) = 0;
  virtual void on_warp_done(int warp, int tb) = 0;

  /// L1D datapath feedback (called by SmDatapath for load probes).
  virtual void on_l1_access(int warp, std::uint64_t line, bool hit) {
    (void)warp;
    (void)line;
    (void)hit;
  }
  virtual void on_l1_evict(std::uint64_t line) { (void)line; }

  /// Barrier-boundary feedback: called by both engines when a barrier of
  /// TB `tb` releases (at least one warp resumed). The adaptive policy
  /// counts these to detect loop-phase transitions; the hardware baselines
  /// ignore them.
  virtual void on_barrier(int tb) { (void)tb; }

  /// Controller re-evaluation; the engine calls this at the top of step()
  /// whenever `now >= next_update_time()`. `l1` is the SM's cumulative L1D
  /// stats, `ready_warps` the instantaneous issuable-warp count,
  /// `mshr_in_flight` the datapath's in-flight miss count at `now` and
  /// `insts_retired` the SM's cumulative retired-instruction count (all
  /// exact between events). The retired count is the outcome signal: a
  /// policy that probes a throttle level can compare per-interval IPC
  /// before and after instead of trusting the cache signature alone.
  virtual void update(std::int64_t now, const CacheStats& l1, std::uint64_t ready_warps,
                      std::uint64_t mshr_in_flight, std::uint64_t insts_retired) = 0;

  /// Called once when the policy is bound to an SM, before any update:
  /// datapath capacities the decision laws normalize against. `l1_mshrs`
  /// is the SM's miss-status-holding-register count — an in-flight miss
  /// level only means contention relative to how many the datapath can
  /// absorb.
  virtual void on_bind(int l1_mshrs) { (void)l1_mshrs; }

  /// Earliest cycle at which a currently-vetoed warp may become eligible
  /// again. The engines fold this into their next-wake computation so a
  /// fully-throttled SM is re-stepped exactly at the next update.
  virtual std::int64_t next_update_time() const = 0;

  /// May warp `warp` of TB `tb` issue now? Engines exempt TBs with a warp
  /// waiting at a barrier (barrier release must never be throttled), so
  /// policies need no barrier awareness. A denial is counted in stats().
  virtual bool may_issue(int warp, int tb) = 0;

  /// The adaptive controller's decision log (null for policies that take
  /// no discrete decisions). Entries are in increasing cycle order.
  virtual const std::vector<Decision>* decisions() const { return nullptr; }

  const PolicyStats& stats() const { return stats_; }

 protected:
  PolicyStats stats_;
};

/// Factory; cfg.kind must not be kNone (the seam's "none" is a null
/// pointer, not a pass-through object).
std::unique_ptr<SchedPolicy> make_policy(const PolicyConfig& cfg);

}  // namespace catt::sim::sched
