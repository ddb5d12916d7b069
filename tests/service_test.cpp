// Plan/sim service-layer tests: the PlanService's no-simulation contract
// (pinned with the sim.gpu.launches obs counter — the acceptance criterion
// for the plan/sim API split), two-tier assembly and publication in the
// SimService, and single-flight deduplication of concurrent identical
// queries.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exec/disk_cache.hpp"
#include "exec/plan_service.hpp"
#include "exec/sim_cache.hpp"
#include "exec/sim_service.hpp"
#include "exec/single_flight.hpp"
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
// SimService
// ---------------------------------------------------------------------------

sim::KernelStats stats_with(std::int64_t cycles) {
  sim::KernelStats s;
  s.kernel_name = std::string("k");  // not a literal assignment: GCC bug 105329
  s.cycles = cycles;
  return s;
}

TEST(SimService, PromotesDiskHitsIntoL1) {
  DiskCache disk({.dir = fresh_dir("promote")});
  ASSERT_TRUE(disk.put_stats(1, stats_with(10)));

  SimCache l1;
  SimService svc(l1, &disk);
  EXPECT_FALSE(l1.contains(1));
  const auto got = svc.stats_for(1);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->cycles, 10);
  // Promoted: the next lookup is pure L1, no disk read.
  EXPECT_TRUE(l1.contains(1));
  const auto disk_hits = disk.counters().hits;
  EXPECT_TRUE(svc.stats_for(1).has_value());
  EXPECT_EQ(disk.counters().hits, disk_hits);
}

TEST(SimService, AssembleIsAllOrNothingAcrossTiers) {
  DiskCache disk({.dir = fresh_dir("assemble")});
  SimCache l1;
  SimService svc(l1, &disk);

  svc.publish(1, stats_with(10));      // in L1 and on disk
  ASSERT_TRUE(disk.put_stats(2, stats_with(20)));  // disk only

  // Key 3 is nowhere: the whole run misses (the caller must simulate),
  // charged as one miss per key — the atomic-accounting contract.
  EXPECT_FALSE(svc.assemble({1, 2, 3}).has_value());
  EXPECT_EQ(l1.misses(), 3u);

  svc.publish(3, stats_with(30));
  const auto run = svc.assemble({1, 2, 3});
  ASSERT_TRUE(run.has_value());
  ASSERT_EQ(run->size(), 3u);
  EXPECT_EQ((*run)[0].cycles, 10);
  EXPECT_EQ((*run)[1].cycles, 20);
  EXPECT_EQ((*run)[2].cycles, 30);
  EXPECT_EQ(l1.hits(), 3u);

  // publish() wrote through: a fresh in-memory tier still assembles.
  SimCache other_l1;
  SimService other(other_l1, &disk);
  EXPECT_TRUE(other.assemble({1, 2, 3}).has_value());
}

TEST(SimService, WithoutDiskBehavesAsPureL1) {
  SimCache l1;
  SimService svc(l1);
  EXPECT_FALSE(svc.stats_for(9).has_value());
  svc.publish(9, stats_with(90));
  ASSERT_TRUE(svc.stats_for(9).has_value());
  EXPECT_EQ(svc.disk(), nullptr);
}

// ---------------------------------------------------------------------------
// SingleFlight
// ---------------------------------------------------------------------------

TEST(SingleFlight, ConcurrentIdenticalQueriesComputeOnce) {
  SingleFlight<std::uint64_t, std::string> flights;
  constexpr int kThreads = 6;
  std::atomic<int> computations{0};

  std::vector<std::thread> threads;
  std::vector<std::string> results(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      results[i] = flights.run(7, [&] {
        // Hold the flight open until every other caller has registered as
        // a follower (followers_ bumps under the same lock that joins the
        // gate), making the single computation deterministic, not timing-
        // dependent.
        while (flights.followers() < kThreads - 1) std::this_thread::yield();
        ++computations;
        return std::string("answer");
      });
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(computations.load(), 1);
  EXPECT_EQ(flights.leaders(), 1u);
  EXPECT_EQ(flights.followers(), static_cast<std::uint64_t>(kThreads - 1));
  for (const auto& r : results) EXPECT_EQ(r, "answer");
}

TEST(SingleFlight, DistinctKeysRunIndependentlyAndFlightsAreForgotten) {
  SingleFlight<std::uint64_t, int> flights;
  EXPECT_EQ(flights.run(1, [] { return 10; }), 10);
  EXPECT_EQ(flights.run(2, [] { return 20; }), 20);
  // A landed flight is forgotten: the next call with the same key
  // recomputes (caching belongs to the tiered caches).
  EXPECT_EQ(flights.run(1, [] { return 11; }), 11);
  EXPECT_EQ(flights.leaders(), 3u);
  EXPECT_EQ(flights.followers(), 0u);
}

TEST(SingleFlight, LeaderExceptionPropagatesToAllCallers) {
  SingleFlight<std::uint64_t, int> flights;
  std::atomic<int> follower_throws{0};

  std::thread follower;
  try {
    flights.run(5, [&]() -> int {
      follower = std::thread([&] {
        try {
          (void)flights.run(5, []() -> int { return 0; });
        } catch (const std::runtime_error&) {
          ++follower_throws;
        }
      });
      while (flights.followers() < 1) std::this_thread::yield();
      throw std::runtime_error("boom");
    });
    FAIL() << "expected the leader's exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom");
  }
  follower.join();
  EXPECT_EQ(follower_throws.load(), 1);
}

}  // namespace
}  // namespace catt::exec
