// Unit tests for the phase-adaptive policy engine (src/policy): the
// WindowedController's decision law stepped sample-by-sample, the
// active-warp cap arithmetic shared with the scheduler policy, and the
// PolicyConfig "adaptive" spec surface. The controller is plain state
// (no simulator types), so every branch of the law is pinned here with
// hand-constructed interval samples; the sim-facing integration is
// covered by timing_test/runner_test/fuzz_kernel_test.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "common/error.hpp"
#include "gpusim/sched/policy.hpp"
#include "policy/engine.hpp"

namespace catt::policy {
namespace {

// A contended-looking interval: full-window traffic against a 16-entry
// MSHR file on an SM with 8 live warps unless a test says otherwise.
IntervalSample sample(double hit, std::uint64_t mshr, std::uint64_t insts,
                      std::int64_t cycles, int live = 8, int capacity = 16) {
  IntervalSample s;
  s.hit_rate = hit;
  s.had_traffic = true;
  s.mshr_in_flight = mshr;
  s.mshr_capacity = capacity;
  s.ready_warps = 1;
  s.insts = insts;
  s.cycles = cycles;
  s.live_warps = live;
  return s;
}

IntervalSample idle_sample(std::int64_t cycles) {
  IntervalSample s;
  s.had_traffic = false;
  s.cycles = cycles;
  s.live_warps = 8;
  s.mshr_capacity = 16;
  return s;
}

// Single-sample windows and a one-window cooldown keep the hand-stepped
// sequences short; the law is identical at the production defaults.
ControllerConfig tight_config() {
  ControllerConfig cfg;
  cfg.window = 1;
  cfg.low_hit = 0.5;
  cfg.hysteresis = 0.3;
  cfg.cooldown = 1;
  cfg.max_drop = 4;
  cfg.min_active = 1;
  return cfg;
}

TEST(ActiveCap, HalvesPerLevelAndFloors) {
  EXPECT_EQ(active_cap(32, 0, 2), 32);
  EXPECT_EQ(active_cap(32, 1, 2), 16);
  EXPECT_EQ(active_cap(32, 2, 2), 8);
  EXPECT_EQ(active_cap(32, 4, 2), 2);
  EXPECT_EQ(active_cap(32, 10, 2), 2);   // min_active floor
  EXPECT_EQ(active_cap(8, 1, 4), 4);     // floor binds before halving ends
  EXPECT_EQ(active_cap(8, 3, 4), 4);
  EXPECT_EQ(active_cap(1, 5, 2), 1);     // never below one live warp
  EXPECT_EQ(active_cap(0, 3, 2), 0);     // no live warps -> no cap to hold
}

TEST(WindowedController, WindowZeroDisablesEntirely) {
  ControllerConfig cfg = tight_config();
  cfg.window = 0;
  WindowedController c(cfg);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(c.observe(sample(0.0, 16, 1000, 1000)), Verdict::kHold);
  }
  EXPECT_EQ(c.drop(), 0);
  EXPECT_FALSE(c.probing());
}

TEST(WindowedController, PartialWindowNeverDecides) {
  ControllerConfig cfg = tight_config();
  cfg.window = 4;
  WindowedController c(cfg);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(c.observe(sample(0.0, 16, 1000, 1000)), Verdict::kHold);
  }
  EXPECT_EQ(c.drop(), 0);
  // The fourth sample completes the window and the thrash signature fires.
  EXPECT_EQ(c.observe(sample(0.0, 16, 1000, 1000)), Verdict::kThrottle);
  EXPECT_EQ(c.drop(), 1);
}

TEST(WindowedController, ProbeCommitsOnIpcGain) {
  WindowedController c(tight_config());
  // Thrash signature: low hit, saturated MSHRs -> provisional drop to 1.
  EXPECT_EQ(c.observe(sample(0.2, 16, 1000, 1000)), Verdict::kThrottle);
  EXPECT_EQ(c.drop(), 1);
  EXPECT_TRUE(c.probing());
  EXPECT_EQ(c.cooldown_remaining(), 1);
  // Cooldown window sits out (its work still feeds the rolling baseline).
  EXPECT_EQ(c.observe(sample(0.2, 16, 2000, 1000)), Verdict::kHold);
  // Post-probe window: rolling IPC 5000/3000 beats the pre-probe 1.0 by
  // more than the 2% margin -> the probe commits and the level stays.
  EXPECT_EQ(c.observe(sample(0.6, 4, 2000, 1000)), Verdict::kHold);
  EXPECT_EQ(c.drop(), 1);
  EXPECT_FALSE(c.probing());
  EXPECT_FALSE(c.suppressed());
}

TEST(WindowedController, ProbeRevertsAndSuppressesOnNoGain) {
  WindowedController c(tight_config());
  EXPECT_EQ(c.observe(sample(0.2, 16, 1000, 1000)), Verdict::kThrottle);
  EXPECT_EQ(c.observe(sample(0.2, 16, 1000, 1000)), Verdict::kHold);  // cooldown
  // Same IPC as before the probe (1.0 vs 1.0): streaming, not thrashing.
  EXPECT_EQ(c.observe(sample(0.2, 16, 1000, 1000)), Verdict::kRelax);
  EXPECT_EQ(c.drop(), 0);
  EXPECT_TRUE(c.suppressed());
  // Suppression outlives the revert's cooldown: the same signature no
  // longer triggers probes for the rest of the phase.
  EXPECT_EQ(c.observe(sample(0.2, 16, 1000, 1000)), Verdict::kHold);  // cooldown
  EXPECT_EQ(c.observe(sample(0.2, 16, 1000, 1000)), Verdict::kHold);
  EXPECT_EQ(c.observe(sample(0.2, 16, 1000, 1000)), Verdict::kHold);
  EXPECT_EQ(c.drop(), 0);
  // A loop-phase reset clears the suppression; the next phase may probe.
  c.reset();
  EXPECT_FALSE(c.suppressed());
  EXPECT_EQ(c.observe(sample(0.2, 16, 1000, 1000)), Verdict::kThrottle);
  EXPECT_EQ(c.drop(), 1);
}

TEST(WindowedController, MshrGateBlocksUnsaturatedPhases) {
  // Low hit rate alone is not contention: below half the MSHR capacity
  // the controller refuses to probe (16-entry file -> gate at 8).
  WindowedController c(tight_config());
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(c.observe(sample(0.1, 7, 1000, 1000)), Verdict::kHold);
  }
  EXPECT_EQ(c.drop(), 0);
  // At the gate the probe fires.
  EXPECT_EQ(c.observe(sample(0.1, 8, 1000, 1000)), Verdict::kThrottle);
}

TEST(WindowedController, UnknownMshrCapacityUsesAbsoluteGate) {
  // capacity 0 (unbound / unknown datapath): any in-flight miss counts.
  WindowedController c(tight_config());
  EXPECT_EQ(c.observe(sample(0.1, 0, 1000, 1000, 8, 0)), Verdict::kHold);
  EXPECT_EQ(c.observe(sample(0.1, 1, 1000, 1000, 8, 0)), Verdict::kThrottle);
}

TEST(WindowedController, RelaxBandRestoresLevel) {
  WindowedController c(tight_config());
  ASSERT_EQ(c.observe(sample(0.2, 16, 1000, 1000)), Verdict::kThrottle);
  ASSERT_EQ(c.observe(sample(0.2, 16, 2000, 1000)), Verdict::kHold);
  ASSERT_EQ(c.observe(sample(0.6, 4, 2000, 1000)), Verdict::kHold);  // commit
  ASSERT_EQ(c.drop(), 1);
  // Hit rate recovers past low + hysteresis = 0.8 -> walk back up.
  EXPECT_EQ(c.observe(sample(0.85, 2, 2000, 1000)), Verdict::kRelax);
  EXPECT_EQ(c.drop(), 0);
  EXPECT_EQ(c.cooldown_remaining(), 1);
}

TEST(WindowedController, DeadBandDecaysCommittedLevel) {
  WindowedController c(tight_config());
  ASSERT_EQ(c.observe(sample(0.2, 16, 1000, 1000)), Verdict::kThrottle);
  ASSERT_EQ(c.observe(sample(0.2, 16, 2000, 1000)), Verdict::kHold);
  // Commit window lands in the dead band (0.5 < 0.6 < 0.8): patience 1.
  ASSERT_EQ(c.observe(sample(0.6, 4, 2000, 1000)), Verdict::kHold);
  ASSERT_EQ(c.drop(), 1);
  // Second consecutive dead-band window: the level decays.
  EXPECT_EQ(c.observe(sample(0.6, 4, 2000, 1000)), Verdict::kRelax);
  EXPECT_EQ(c.drop(), 0);
}

TEST(WindowedController, IneffectiveLevelIsNotTaken) {
  // One live warp at min_active 1: a deeper level would not shrink the
  // active set, so the thrash signature is ignored.
  WindowedController c(tight_config());
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(c.observe(sample(0.1, 16, 1000, 1000, /*live=*/1)), Verdict::kHold);
  }
  EXPECT_EQ(c.drop(), 0);
}

TEST(WindowedController, MaxDropCapsTheWalkDown) {
  ControllerConfig cfg = tight_config();
  cfg.max_drop = 1;
  WindowedController c(cfg);
  ASSERT_EQ(c.observe(sample(0.2, 16, 1000, 1000)), Verdict::kThrottle);
  ASSERT_EQ(c.observe(sample(0.2, 16, 2000, 1000)), Verdict::kHold);
  ASSERT_EQ(c.observe(sample(0.2, 16, 2000, 1000)), Verdict::kHold);  // commit
  ASSERT_EQ(c.drop(), 1);
  // Still thrashing, but drop == max_drop: no deeper probe.
  EXPECT_EQ(c.observe(sample(0.2, 16, 2000, 1000)), Verdict::kHold);
  EXPECT_EQ(c.drop(), 1);
}

TEST(WindowedController, IdlePhaseAbandonsProbeWithoutSuppression) {
  WindowedController c(tight_config());
  ASSERT_EQ(c.observe(sample(0.2, 16, 1000, 1000)), Verdict::kThrottle);
  ASSERT_EQ(c.observe(sample(0.2, 16, 1000, 1000)), Verdict::kHold);  // cooldown
  // A window with no memory traffic: compute-bound stretch. The pending
  // probe verdict is abandoned (the window ran different code) and the
  // residual level walks back toward the static prior - but probing is
  // NOT suppressed, so the next contended phase may probe again.
  EXPECT_EQ(c.observe(idle_sample(1000)), Verdict::kRelax);
  EXPECT_EQ(c.drop(), 0);
  EXPECT_FALSE(c.probing());
  EXPECT_FALSE(c.suppressed());
  EXPECT_EQ(c.observe(idle_sample(1000)), Verdict::kHold);  // cooldown
  EXPECT_EQ(c.observe(idle_sample(1000)), Verdict::kHold);  // already at 0
  EXPECT_EQ(c.observe(sample(0.2, 16, 1000, 1000)), Verdict::kThrottle);
}

TEST(WindowedController, ResetReturnsToStaticPrior) {
  WindowedController c(tight_config());
  ASSERT_EQ(c.observe(sample(0.2, 16, 1000, 1000)), Verdict::kThrottle);
  ASSERT_EQ(c.drop(), 1);
  c.reset();
  EXPECT_EQ(c.drop(), 0);
  EXPECT_EQ(c.cooldown_remaining(), 0);
  EXPECT_FALSE(c.probing());
}

}  // namespace
}  // namespace catt::policy

// --- the sched-seam config surface for the adaptive kind -------------------

namespace catt::sim::sched {
namespace {

TEST(AdaptiveConfig, ParsesKindAndKnobs) {
  const PolicyConfig def = PolicyConfig::parse("adaptive");
  EXPECT_EQ(def.kind, Kind::kAdaptive);
  EXPECT_EQ(def.adaptive_window, 4);
  EXPECT_EQ(def.adaptive_cooldown, 2);

  const PolicyConfig cfg =
      PolicyConfig::parse("adaptive:interval=512,window=8,low=0.4,hysteresis=0.2,"
                          "cooldown=1,max_drop=3,min_active=4");
  EXPECT_EQ(cfg.update_interval, 512);
  EXPECT_EQ(cfg.adaptive_window, 8);
  EXPECT_DOUBLE_EQ(cfg.adaptive_low_hit, 0.4);
  EXPECT_DOUBLE_EQ(cfg.adaptive_hysteresis, 0.2);
  EXPECT_EQ(cfg.adaptive_cooldown, 1);
  EXPECT_EQ(cfg.adaptive_max_drop, 3);
  EXPECT_EQ(cfg.adaptive_min_active, 4);

  // The canonical string round-trips to the same config.
  const PolicyConfig again = PolicyConfig::parse(cfg.str());
  EXPECT_EQ(again.fingerprint(), cfg.fingerprint());
  EXPECT_EQ(again.str(), cfg.str());
}

TEST(AdaptiveConfig, RejectsUnknownAndForeignKnobs) {
  EXPECT_THROW(PolicyConfig::parse("adaptive:bogus=1"), SimError);
  // 'tags' is a CCWS knob; the adaptive kind must not silently accept it.
  EXPECT_THROW(PolicyConfig::parse("adaptive:tags=8"), SimError);
  EXPECT_THROW(PolicyConfig::parse("adaptive:window=-1"), SimError);
}

// Integers that do not fit the config field are rejected, never wrapped
// (window=2^32 used to parse as 0 and silently disable the controller)
// or saturated (strtoll's ERANGE).
TEST(AdaptiveConfig, RejectsOutOfRangeIntegers) {
  EXPECT_THROW(PolicyConfig::parse("adaptive:window=4294967296"), SimError);
  EXPECT_THROW(PolicyConfig::parse("adaptive:cooldown=4294967295"), SimError);
  EXPECT_THROW(PolicyConfig::parse("adaptive:max_drop=2147483648"), SimError);
  EXPECT_THROW(PolicyConfig::parse("ccws:min_active=2147483648"), SimError);
  EXPECT_THROW(PolicyConfig::parse("dyncta:min_tbs=-2147483649"), SimError);
  EXPECT_THROW(PolicyConfig::parse("dyncta:interval=99999999999999999999999"), SimError);
  EXPECT_THROW(PolicyConfig::parse("ccws:interval=-99999999999999999999999"), SimError);

  // The edges of each range still parse.
  EXPECT_EQ(PolicyConfig::parse("adaptive:window=2147483647").adaptive_window, 2147483647);
  EXPECT_EQ(PolicyConfig::parse("adaptive:cooldown=0").adaptive_cooldown, 0);
  EXPECT_EQ(PolicyConfig::parse("ccws:min_active=2147483647").ccws_min_active, 2147483647);
  EXPECT_EQ(PolicyConfig::parse("dyncta:interval=9223372036854775807").update_interval,
            std::numeric_limits<std::int64_t>::max());
}

TEST(AdaptiveConfig, FingerprintSeparatesConfigs) {
  const std::uint64_t none = PolicyConfig::parse("none").fingerprint();
  const std::uint64_t adaptive = PolicyConfig::parse("adaptive").fingerprint();
  const std::uint64_t tuned = PolicyConfig::parse("adaptive:window=8").fingerprint();
  const std::uint64_t ccws = PolicyConfig::parse("ccws").fingerprint();
  EXPECT_EQ(none, 0u);
  EXPECT_NE(adaptive, 0u);
  EXPECT_NE(adaptive, tuned);
  EXPECT_NE(adaptive, ccws);
}

}  // namespace
}  // namespace catt::sim::sched
