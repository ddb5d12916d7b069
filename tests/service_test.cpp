// Cache-tier tests: the PlanService's no-simulation contract (pinned with
// the sim.gpu.launches obs counter) and its in-memory memo, and two-tier
// assembly and publication of launch stats through the SimCache over a
// DiskCache.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "exec/disk_cache.hpp"
#include "exec/plan_service.hpp"
#include "exec/sim_cache.hpp"
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

void expect_plans_equal(const analysis::ThrottlePlan& a, const analysis::ThrottlePlan& b) {
  EXPECT_EQ(a.tb_limit, b.tb_limit);
  ASSERT_EQ(a.warp_throttles.size(), b.warp_throttles.size());
  for (std::size_t i = 0; i < a.warp_throttles.size(); ++i) {
    EXPECT_EQ(a.warp_throttles[i].loop_id, b.warp_throttles[i].loop_id) << "throttle " << i;
    EXPECT_EQ(a.warp_throttles[i].n_divisor, b.warp_throttles[i].n_divisor) << "throttle " << i;
  }
}

TEST(PlanService, PlanForNeverInvokesTimingEngine) {
  ASSERT_TRUE(g_obs_active);
  const wl::Workload& w = wl::find_workload("atax", 2);
  PlanService plans(arch::GpuArch::titan_v(2));

  const std::uint64_t launches_before = global_counter("sim.gpu.launches");
  const std::uint64_t computes_before = global_counter("exec.planservice.computes");
  for (const wl::KernelRun& run : w.schedule) {
    (void)plans.analysis_for(w.kernel(run.kernel), run.launch, run.params);
  }
  // The acceptance pin: answering every analysis query in the schedule
  // runs the static analysis (visible as planservice computes) and *zero*
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
  const ir::Kernel& k = w.kernel(run.kernel);
  PlanService plans(arch::GpuArch::titan_v(2));

  const std::uint64_t computes_before = global_counter("exec.planservice.computes");
  const std::uint64_t mem_hits_before = global_counter("exec.planservice.mem_hits");
  const analysis::KernelAnalysis first = plans.analysis_for(k, run.launch, run.params);
  const analysis::KernelAnalysis again = plans.analysis_for(k, run.launch, run.params);
  EXPECT_EQ(global_counter("exec.planservice.computes"), computes_before + 1);
  EXPECT_EQ(global_counter("exec.planservice.mem_hits"), mem_hits_before + 1);
  expect_plans_equal(first.plan, again.plan);

  const analysis::KernelAnalysis direct =
      analysis::analyze(arch::GpuArch::titan_v(2), k, run.launch, run.params);
  expect_plans_equal(first.plan, direct.plan);
  EXPECT_EQ(first.occ.tbs_per_sm, direct.occ.tbs_per_sm);
  EXPECT_EQ(first.occ.warps_per_tb, direct.occ.warps_per_tb);
  EXPECT_EQ(first.loops.size(), direct.loops.size());

  // Analysis options are part of the key: an ablation variant is its own
  // compute, never served the default analysis from the memo.
  analysis::AnalysisOptions aggressive;
  aggressive.conservative_irregular = false;
  EXPECT_NE(plans.plan_key(k, run.launch, run.params),
            plans.plan_key(k, run.launch, run.params, aggressive));
  (void)plans.analysis_for(k, run.launch, run.params, aggressive);
  EXPECT_EQ(global_counter("exec.planservice.computes"), computes_before + 2);
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
