// Cache-tier tests: the PlanService's no-simulation contract (pinned with
// the sim.gpu.launches obs counter — the acceptance criterion for the
// plan/sim API split), and two-tier assembly and publication of launch
// stats through the SimCache over a DiskCache.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "exec/disk_cache.hpp"
#include "exec/plan_service.hpp"
#include "exec/sim_cache.hpp"
#include "exec/wire.hpp"
#include "obs/obs.hpp"
#include "throttle/runner.hpp"
#include "workloads/workload.hpp"

namespace catt::exec {
namespace {

// The engine-level counters (sim.gpu.launches, exec.planservice.*) are
// no-ops unless an ambient SimObs is active. Raise the trace floor before
// anything launches so env_sim_obs() materializes with the global registry
// attached — gtest runs in one process, and the env SimObs freezes on
// first use.
const bool g_obs_active = [] {
  obs::override_trace_level(1);
  return true;
}();

std::uint64_t global_counter(const char* name) {
  return obs::Registry::global().scrape().counter_or(name);
}

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "catt_service_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

// ---------------------------------------------------------------------------
// PlanService
// ---------------------------------------------------------------------------

TEST(PlanService, PlanForNeverInvokesTimingEngine) {
  ASSERT_TRUE(g_obs_active);
  const wl::Workload& w = wl::find_workload("atax", 2);
  PlanService plans(arch::GpuArch::titan_v(2));

  const std::uint64_t launches_before = global_counter("sim.gpu.launches");
  const std::uint64_t computes_before = global_counter("exec.planservice.computes");
  for (const wl::KernelRun& run : w.schedule) {
    const analysis::ThrottlePlan p =
        plans.plan_for(w.kernel(run.kernel), run.launch, run.params);
    (void)p;
  }
  // The acceptance pin: answering every plan query in the schedule runs
  // the static analysis (visible as planservice computes) and *zero*
  // timing-engine launches.
  EXPECT_EQ(global_counter("sim.gpu.launches"), launches_before);
  EXPECT_EQ(global_counter("exec.planservice.computes"),
            computes_before + w.schedule.size());

  // Positive control: the counter is live — a real simulation moves it.
  throttle::Runner r(arch::GpuArch::titan_v(2));
  (void)r.run(w, throttle::Baseline{});
  EXPECT_GT(global_counter("sim.gpu.launches"), launches_before);
}

TEST(PlanService, MemoizesAndMatchesDirectAnalysis) {
  const wl::Workload& w = wl::find_workload("atax", 2);
  const wl::KernelRun& run = w.schedule.front();
  PlanService plans(arch::GpuArch::titan_v(2));

  const std::uint64_t computes_before = global_counter("exec.planservice.computes");
  const analysis::ThrottlePlan first =
      plans.plan_for(w.kernel(run.kernel), run.launch, run.params);
  const analysis::ThrottlePlan again =
      plans.plan_for(w.kernel(run.kernel), run.launch, run.params);
  EXPECT_EQ(global_counter("exec.planservice.computes"), computes_before + 1);
  EXPECT_EQ(wire::encode_throttle_plan(first), wire::encode_throttle_plan(again));

  const analysis::KernelAnalysis direct = analysis::analyze(
      arch::GpuArch::titan_v(2), w.kernel(run.kernel), run.launch, run.params);
  EXPECT_EQ(wire::encode_throttle_plan(first), wire::encode_throttle_plan(direct.plan));
}

TEST(PlanService, DiskTierServesAFreshInstance) {
  const wl::Workload& w = wl::find_workload("atax", 2);
  const wl::KernelRun& run = w.schedule.front();
  DiskCache disk({.dir = fresh_dir("plans")});

  PlanService warm(arch::GpuArch::titan_v(2), &disk);
  const analysis::ThrottlePlan computed =
      warm.plan_for(w.kernel(run.kernel), run.launch, run.params);

  // A fresh service over the same disk dir answers from the persisted
  // plan: no new analysis compute.
  const std::uint64_t computes_before = global_counter("exec.planservice.computes");
  PlanService cold(arch::GpuArch::titan_v(2), &disk);
  const analysis::ThrottlePlan served =
      cold.plan_for(w.kernel(run.kernel), run.launch, run.params);
  EXPECT_EQ(global_counter("exec.planservice.computes"), computes_before);
  EXPECT_EQ(wire::encode_throttle_plan(served), wire::encode_throttle_plan(computed));

  // Analysis options are part of the key: an ablation variant must not be
  // served the default plan.
  analysis::AnalysisOptions aggressive;
  aggressive.conservative_irregular = false;
  EXPECT_NE(cold.plan_key(w.kernel(run.kernel), run.launch, run.params),
            cold.plan_key(w.kernel(run.kernel), run.launch, run.params, aggressive));
}

// ---------------------------------------------------------------------------
// SimCache over a DiskCache: the two launch-stats tiers Runner composes
// ---------------------------------------------------------------------------

sim::KernelStats stats_with(std::int64_t cycles) {
  sim::KernelStats s;
  s.kernel_name = std::string("k");  // not a literal assignment: GCC bug 105329
  s.cycles = cycles;
  return s;
}

/// The lower-tier fetch Runner hands to SimCache::lookup_run.
SimCache::FetchFn disk_fetch(DiskCache& disk) {
  return [&disk](std::uint64_t k) { return disk.get_stats(k); };
}

/// What Runner does after simulating a launch: SimCache, then disk.
void publish(SimCache& l1, DiskCache& disk, std::uint64_t key, const sim::KernelStats& s) {
  l1.insert(key, s);
  ASSERT_TRUE(disk.put_stats(key, s));
}

TEST(TieredSimCache, PromotesDiskHitsIntoL1) {
  DiskCache disk({.dir = fresh_dir("promote")});
  ASSERT_TRUE(disk.put_stats(1, stats_with(10)));

  SimCache l1;
  EXPECT_FALSE(l1.contains(1));
  const auto got = l1.lookup_run({1}, disk_fetch(disk));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->front().cycles, 10);
  // Promoted: the next lookup is pure L1, no disk read.
  EXPECT_TRUE(l1.contains(1));
  const auto disk_hits = disk.counters().hits;
  EXPECT_TRUE(l1.lookup_run({1}, disk_fetch(disk)).has_value());
  EXPECT_EQ(disk.counters().hits, disk_hits);
}

TEST(TieredSimCache, RunIsAllOrNothingAcrossTiers) {
  DiskCache disk({.dir = fresh_dir("assemble")});
  SimCache l1;

  publish(l1, disk, 1, stats_with(10));            // in L1 and on disk
  ASSERT_TRUE(disk.put_stats(2, stats_with(20)));  // disk only

  // Key 3 is nowhere: the whole run misses (the caller must simulate),
  // charged as one miss per key — the atomic-accounting contract.
  EXPECT_FALSE(l1.lookup_run({1, 2, 3}, disk_fetch(disk)).has_value());
  EXPECT_EQ(l1.misses(), 3u);

  publish(l1, disk, 3, stats_with(30));
  const auto run = l1.lookup_run({1, 2, 3}, disk_fetch(disk));
  ASSERT_TRUE(run.has_value());
  ASSERT_EQ(run->size(), 3u);
  EXPECT_EQ((*run)[0].cycles, 10);
  EXPECT_EQ((*run)[1].cycles, 20);
  EXPECT_EQ((*run)[2].cycles, 30);
  EXPECT_EQ(l1.hits(), 3u);

  // publish() wrote through: a fresh in-memory tier still assembles.
  SimCache other_l1;
  EXPECT_TRUE(other_l1.lookup_run({1, 2, 3}, disk_fetch(disk)).has_value());
}

TEST(TieredSimCache, WithoutDiskBehavesAsPureL1) {
  // Runner with no disk attached passes an empty fetch.
  SimCache l1;
  EXPECT_FALSE(l1.lookup_run({9}).has_value());
  l1.insert(9, stats_with(90));
  const auto run = l1.lookup_run({9});
  ASSERT_TRUE(run.has_value());
  EXPECT_EQ(run->front().cycles, 90);
  EXPECT_EQ(l1.misses(), 1u);
  EXPECT_EQ(l1.hits(), 1u);
}

}  // namespace
}  // namespace catt::exec
