// Phase-adaptive throttling policy engine (ROADMAP item 2): the feedback
// controller that closes the loop from the simulator's interval
// time-series back into the effective throttle level. Modeled on APEX's
// throttling policy engine (SNIPPETS.md Snippet 1): a window of recent
// interval samples is reduced to a windowed L1D hit rate, and the
// controller walks the throttle level down (kThrottle) when the window
// falls below a low band, back up (kRelax) once it recovers past
// low + hysteresis, with a cooldown of full windows after every change so
// the level cannot oscillate at the decision rate.
//
// The cache signature alone cannot tell *thrashing* (reuse exists, and a
// smaller active set recovers it) from *streaming* (no reuse; throttling
// only cuts memory-level parallelism) — both present as a low windowed hit
// rate with saturated MSHRs. So every level change is a *probe*: the
// controller records the pre-probe window's IPC (retired warp instructions
// per elapsed cycle), drops one level, and compares the first full window
// after the cooldown. If IPC improved by a margin the probe commits (and
// deeper probes may follow); otherwise the level reverts and probing is
// suppressed until the next loop-phase reset — a streaming phase pays for
// at most one mispriced probe.
//
// The level is expressed as a *drop below the static prior*: 0 means "run
// the code exactly as compiled" — for CATT-transformed kernels the static
// per-loop plan baked into the code IS the prior, and the controller only
// corrects downward from it (it cannot add TLP the code does not have).
// Each level halves the active warp set (active_cap), the same
// multiplicative backoff DYNCTA applies to TB counts: additive single-warp
// steps are invisible against the 50+ resident warps of a full SM. This is
// what makes the adaptive policy safe on the apps static CATT already
// wins: inside a split loop the inactive warp groups wait at the
// transform's __syncthreads(), the engines exempt TBs with barrier
// waiters from vetoes, and the controller's corrections only bite where
// the compile-time plan left code untransformed.
//
// Everything here is deliberately simulator-agnostic plain state (no obs
// dependency, no engine types beyond plain counts): the engine drives the
// controller from its internal sample path whether or not obs is active,
// and unit tests (tests/policy_test.cpp) can step it directly.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

namespace catt::policy {

/// One update-interval's worth of engine-internal observations, sampled by
/// the adaptive SchedPolicy at its deterministic interval boundaries. The
/// fields mirror the obs interval sampler's series (L1D hit rate, MSHR
/// occupancy, ready warps) but are fed straight from the SM datapath so
/// the controller works identically with observability compiled out.
struct IntervalSample {
  double hit_rate = 0.0;              // delta L1D hit rate over the interval
  bool had_traffic = false;           // any L1D accesses this interval?
  std::uint64_t mshr_in_flight = 0;   // in-flight misses at the sample point
  int mshr_capacity = 0;              // the SM's MSHR count (0 = unknown)
  std::uint64_t ready_warps = 0;      // issuable warps at the sample point
  std::uint64_t insts = 0;            // warp instructions retired this interval
  std::int64_t cycles = 0;            // interval span (event engines skip idle
                                      // stretches, so spans are not uniform)
  int live_warps = 0;                 // resident un-finished warps
};

struct ControllerConfig {
  int window = 4;            // samples per decision window; <= 0 disables
  double low_hit = 0.55;     // throttle band: windowed hit rate below this
  double hysteresis = 0.30;  // relax band starts at low_hit + hysteresis
  int cooldown = 2;          // full windows to sit out after a level change
  int max_drop = 8;          // hard cap on levels below the static prior
  int min_active = 2;        // never throttle below this many live warps
};

/// A controller's verdict for one completed window (kHold in between).
enum class Verdict : std::uint8_t { kHold, kThrottle, kRelax };

/// Active-warp cap for a drop level: each level halves the active set,
/// floored at min_active (clamped to the live count) and never below one
/// warp while any is live. Shared by the controller (to tell when a
/// further level would have no effect) and the scheduler policy (to turn
/// the level into per-warp eligibility).
int active_cap(int live_warps, int drop, int min_active);

/// Feedback controllers consumed by the adaptive SchedPolicy: feed one
/// sample per interval, read the current drop-from-static level back.
class PolicyEngine {
 public:
  virtual ~PolicyEngine() = default;

  /// Consumes one interval sample; returns the level transition this
  /// sample triggered (at most one per full window).
  virtual Verdict observe(const IntervalSample& s) = 0;

  /// Current throttle level as a drop below the static prior (>= 0).
  virtual int drop() const = 0;

  /// Loop-phase boundary: discard the window, lift the cooldown, and
  /// return to the static prior (drop 0). The caller logs the transition.
  virtual void reset() = 0;
};

/// The windowed hysteresis controller described in the header comment.
/// Deterministic by construction: state advances only in observe()/reset()
/// and depends only on the sample values.
class WindowedController final : public PolicyEngine {
 public:
  explicit WindowedController(const ControllerConfig& cfg);

  Verdict observe(const IntervalSample& s) override;
  int drop() const override { return drop_; }
  void reset() override;

  /// Windows remaining before the next decision opportunity (test probe).
  int cooldown_remaining() const { return cooldown_; }

  /// True while a probe's outcome is still pending (test probe).
  bool probing() const { return probing_; }
  /// True once a failed probe has shut off further probes (test probe).
  bool suppressed() const { return suppressed_; }

 private:
  /// Throttling only helps contention, and contention means MSHR
  /// *saturation*: thrashing kernels pin the in-flight miss count at the
  /// datapath's limit (misses queue faster than the memory system absorbs
  /// them), while streaming kernels cruise at a low steady level far
  /// below it. The gate is this fraction of the sampled MSHR capacity —
  /// or one in-flight miss when the capacity is unknown (capacity 0).
  /// (Instantaneous ready-warp counts are sampled too but deliberately not
  /// gated on: at event-driven interval boundaries nearly every warp is
  /// parked on memory, so the instantaneous count is ~1 regardless of how
  /// much TLP the SM actually has.)
  static constexpr double kContendedFrac = 0.5;

  /// A probe commits only if the post-probe window's IPC beats the
  /// pre-probe baseline's by this fraction; ties revert (conservative: the
  /// static prior is presumed right until throttling demonstrably helps).
  static constexpr double kProbeMargin = 0.02;

  /// The probe baseline is the rolling IPC over this many completed
  /// windows (including the trigger window), so in steady phases the
  /// comparison is against representative throughput rather than one
  /// unlucky burst window.
  static constexpr int kBaselineWindows = 4;

  /// A committed level whose windowed hit rate sits between the throttle
  /// and relax bands (the dead band) for this many consecutive decision
  /// windows decays one level: a correction that neither re-earns its
  /// signature nor recovers locality does not get to park there forever.
  static constexpr int kDeadBandPatience = 2;

  /// One completed window's work aggregate, kept for the rolling baseline.
  struct WindowWork {
    std::uint64_t insts = 0;
    std::int64_t cycles = 0;
  };

  /// Rolling IPC over the retained window aggregates.
  double baseline_ipc() const;

  const ControllerConfig cfg_;
  std::vector<IntervalSample> win_;   // cleared at every full window
  std::vector<WindowWork> hist_;      // last kBaselineWindows aggregates
  std::size_t hist_next_ = 0;         // ring cursor into hist_
  int drop_ = 0;
  int cooldown_ = 0;
  int dead_band_ = 0;        // consecutive dead-band windows at drop_ > 0
  bool probing_ = false;     // a probe's first post-cooldown window pending
  bool suppressed_ = false;  // failed probe: no more probes until reset()
  double probe_ipc_ = 0.0;   // pre-probe rolling baseline IPC to beat
};

std::unique_ptr<PolicyEngine> make_windowed_controller(const ControllerConfig& cfg);

}  // namespace catt::policy
