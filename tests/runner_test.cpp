// End-to-end policy tests: CATT must beat the baseline on contended
// regular workloads, match it on CI workloads, and BFTT must return the
// best candidate of its own sweep.
#include <gtest/gtest.h>

#include <algorithm>

#include "harness/harness.hpp"
#include "throttle/runner.hpp"
#include "transform/transform.hpp"
#include "workloads/workload.hpp"

namespace catt::throttle {
namespace {

/// One memoizing Runner shared by every test that only inspects results:
/// repeated policies over the same workloads (atax baseline/CATT, gsmv
/// sweeps, ...) hit the SimCache instead of re-simulating. Results are
/// bit-identical either way — cache-vs-fresh identity is exec_test's
/// pin — and tests that assert cache counters build their own Runner.
Runner& shared_runner() {
  static Runner r(bench::max_l1d_arch());
  return r;
}

TEST(Runner, BaselineRecordsOneLaunchPerScheduleEntry) {
  Runner& r = shared_runner();
  const wl::Workload& w = wl::find_workload("atax", 2);
  const AppResult res = r.run(w, Baseline{});
  EXPECT_EQ(res.launches.size(), w.schedule.size());
  EXPECT_EQ(res.choices.size(), w.schedule.size());
  EXPECT_GT(res.total_cycles, 0);
  EXPECT_GT(res.l1_hit_rate(), 0.0);
  EXPECT_EQ(res.policy, "baseline");
}

/// Every launch of `w`'s schedule, replayed by hand on one Gpu (the L2
/// persists across launches, as in Runner): per entry, one KernelStats per
/// repeat. `kernel_for` picks the kernel each entry runs.
template <typename KernelFor>
std::vector<std::vector<sim::KernelStats>> replay_schedule(const Runner& r, const wl::Workload& w,
                                                           const sim::SimOptions& opts,
                                                           KernelFor&& kernel_for) {
  sim::DeviceMemory mem;
  w.setup(mem);
  sim::Gpu gpu(r.gpu_arch(), mem);
  std::vector<std::vector<sim::KernelStats>> out;
  for (const wl::KernelRun& entry : w.schedule) {
    const ir::Kernel kernel = kernel_for(entry);
    out.emplace_back();
    for (int rep = 0; rep < entry.repeats; ++rep) {
      out.back().push_back(gpu.run(sim::LaunchSpec{&kernel, entry.launch, entry.params}, opts));
    }
  }
  return out;
}

TEST(Runner, RepeatedLaunchesAccumulateLaneAndDivergenceCounters) {
  // km launches each kernel twice: the schedule entry's stats must fold
  // both launches, not keep the first launch's lane and divergence
  // counters beside summed cycles.
  Runner& r = shared_runner();
  const wl::Workload& w = wl::find_workload("km", 2);
  const AppResult res = r.run(w, Baseline{});
  const auto launches = replay_schedule(
      r, w, {}, [&](const wl::KernelRun& entry) { return w.kernel(entry.kernel).clone(); });
  ASSERT_EQ(res.launches.size(), launches.size());
  int repeated = 0;
  for (std::size_t i = 0; i < launches.size(); ++i) {
    SCOPED_TRACE(w.schedule[i].kernel);
    std::uint64_t lane_cycles = 0;
    std::uint64_t lane_mem_insts = 0;
    sim::simt::DivCounters div;
    for (const sim::KernelStats& s : launches[i]) {
      lane_cycles += s.lane_cycles;
      lane_mem_insts += s.lane_mem_insts;
      div.merge(s.div);
    }
    if (launches[i].size() > 1) ++repeated;
    EXPECT_EQ(res.launches[i].lane_cycles, lane_cycles);
    EXPECT_EQ(res.launches[i].lane_mem_insts, lane_mem_insts);
    EXPECT_EQ(res.launches[i].div, div);
  }
  EXPECT_GT(repeated, 0);
}

TEST(Runner, RepeatedAdaptiveLaunchesKeepEveryDecision) {
  // cfd's flux kernel runs twice under the adaptive controller: the
  // entry's decision log is both launches' logs in launch order, vetoes
  // sum, and the throttle level is the larger of the two.
  Runner& r = shared_runner();
  const wl::Workload& w = wl::find_workload("cfd", 2);
  const Adaptive policy;
  const AppResult res = r.run(w, policy);
  sim::SimOptions opts;
  opts.sched = policy.sched;
  const auto launches = replay_schedule(r, w, opts, [&](const wl::KernelRun& entry) {
    const ir::Kernel& k = w.kernel(entry.kernel);
    const analysis::KernelAnalysis ka =
        r.plan_service().analysis_for(k, entry.launch, entry.params, policy.opts);
    return xform::apply_plan(r.gpu_arch(), k, entry.launch, ka.plan).kernel;
  });
  ASSERT_EQ(res.launches.size(), launches.size());
  std::size_t repeated_decisions = 0;
  for (std::size_t i = 0; i < launches.size(); ++i) {
    SCOPED_TRACE(w.schedule[i].kernel);
    std::vector<std::int64_t> cycles;
    std::uint64_t vetoes = 0;
    int level = 0;
    for (const sim::KernelStats& s : launches[i]) {
      for (const auto& d : s.sched_decisions) cycles.push_back(d.cycle);
      vetoes += s.sched_vetoes;
      level = std::max(level, s.sched_throttle_level);
    }
    if (launches[i].size() > 1) repeated_decisions += launches[i].back().sched_decisions.size();
    std::vector<std::int64_t> got;
    for (const auto& d : res.launches[i].sched_decisions) got.push_back(d.cycle);
    EXPECT_EQ(got, cycles);
    EXPECT_EQ(res.launches[i].sched_vetoes, vetoes);
    EXPECT_EQ(res.launches[i].sched_throttle_level, level);
  }
  // The repeat itself decides something, or the test would pin nothing.
  EXPECT_GT(repeated_decisions, 0u);
}

TEST(Runner, CattSpeedsUpAtax) {
  Runner& r = shared_runner();
  const wl::Workload& w = wl::find_workload("atax", 2);
  const AppResult base = r.run(w, Baseline{});
  const AppResult catt = r.run(w, Catt{});
  EXPECT_LT(catt.total_cycles, base.total_cycles);
  EXPECT_GT(catt.l1_hit_rate(), base.l1_hit_rate());
  // Kernel 2 must be untouched: same choice as baseline occupancy.
  ASSERT_EQ(catt.choices.size(), 2u);
  const auto& k2 = catt.choices[1];
  ASSERT_FALSE(k2.loops.empty());
  EXPECT_EQ(k2.loops[0].warps, k2.baseline_occ.warps_per_tb);
}

TEST(Runner, CattChoicesMatchTable3ForAtax) {
  Runner& r = shared_runner();
  const auto choices = r.catt_choices(wl::find_workload("atax", 2));
  ASSERT_EQ(choices.size(), 2u);
  // Max L1D: kernel 1 throttled to (4,4), kernel 2 kept at (8,4).
  EXPECT_EQ(choices[0].loops[0].warps, 4);
  EXPECT_EQ(choices[0].loops[0].tbs, 4);
  EXPECT_EQ(choices[1].loops[0].warps, 8);
  EXPECT_EQ(choices[1].loops[0].tbs, 4);

  Runner r32(bench::small_l1d_arch());
  const auto c32 = r32.catt_choices(wl::find_workload("atax", 2));
  EXPECT_EQ(c32[0].loops[0].warps, 1);  // Table 3: (1,4) at 32 KB
  EXPECT_EQ(c32[1].loops[0].warps, 8);
}

TEST(Runner, FixedFactorClampsPerKernel) {
  Runner& r = shared_runner();
  const wl::Workload& w = wl::find_workload("cfd", 2);  // 6 warps/TB
  // 4 does not divide 6: clamps to 3.
  const AppResult res = r.run(w, Fixed{{4, 0}});
  ASSERT_FALSE(res.choices.empty());
  EXPECT_EQ(res.choices[0].loops.empty() ? 2 : res.choices[0].loops[0].warps, 2);
}

TEST(Runner, FixedIdentityEqualsBaseline) {
  Runner& r = shared_runner();
  const wl::Workload& w = wl::find_workload("gsmv", 2);
  const AppResult base = r.run(w, Baseline{});
  const AppResult fixed1 = r.run(w, Fixed{{1, 0}});
  EXPECT_EQ(base.total_cycles, fixed1.total_cycles);
}

TEST(Runner, CandidateFactorsCoverDivisorsAndTbs) {
  Runner& r = shared_runner();
  const auto cands = r.candidate_factors(wl::find_workload("atax", 2));
  // divisors {1,2,4,8} x tb caps {none,3,2,1} = 16 candidates.
  EXPECT_EQ(cands.size(), 16u);
  const auto km = r.candidate_factors(wl::find_workload("km", 2));
  // divisors {1,2,4,8} x tb caps {none,7,4,2,1} = 20 (geometric ladder).
  EXPECT_EQ(km.size(), 20u);
}

TEST(Runner, BfttPicksBestOfSweep) {
  Runner& r = shared_runner();
  const wl::Workload& w = wl::find_workload("gsmv", 2);
  const Runner::BfttOutcome out = r.bftt_sweep(w);
  ASSERT_FALSE(out.sweep.empty());
  std::int64_t best = out.sweep.front().second;
  for (const auto& [f, cycles] : out.sweep) best = std::min(best, cycles);
  EXPECT_EQ(out.best.total_cycles, best);
  // GSMV is contended: the best factor must actually throttle.
  EXPECT_TRUE(out.factor.n_divisor > 1 || out.factor.tb_limit > 0);
}

TEST(Runner, CattBeatsOrMatchesBfttOnMultiPhaseApp) {
  // ATAX's two kernels want different TLPs; a single fixed factor cannot
  // serve both (the paper's core argument, Section 5.1).
  Runner& r = shared_runner();
  const wl::Workload& w = wl::find_workload("atax", 2);
  const AppResult catt = r.run(w, Catt{});
  const Runner::BfttOutcome bftt = r.bftt_sweep(w);
  EXPECT_LE(catt.total_cycles,
            static_cast<std::int64_t>(static_cast<double>(bftt.best.total_cycles) * 1.05));
}

TEST(Runner, CiWorkloadUnaffectedByCatt) {
  Runner& r = shared_runner();
  const wl::Workload& w = wl::find_workload("gemm", 2);
  const AppResult base = r.run(w, Baseline{});
  const AppResult catt = r.run(w, Catt{});
  // No transform applied: cycle counts identical.
  EXPECT_EQ(base.total_cycles, catt.total_cycles);
}

TEST(Harness, KernelLabels) {
  const wl::Workload& atax = wl::find_workload("atax", 2);
  EXPECT_EQ(bench::kernel_label(atax, 0), "ATAX#1");
  EXPECT_EQ(bench::kernel_label(atax, 1), "ATAX#2");
  const wl::Workload& bfs = wl::find_workload("bfs", 2);
  EXPECT_EQ(bench::kernel_label(bfs, 2), "BFS#1");  // repeat of kernel 1
}

TEST(Harness, SpeedupMath) {
  EXPECT_DOUBLE_EQ(bench::speedup(200, 100), 2.0);
  EXPECT_DOUBLE_EQ(bench::speedup(100, 200), 0.5);
  EXPECT_EQ(bench::speedup(100, 0), 0.0);
}

TEST(Harness, SmallL1dArchCaps) {
  EXPECT_EQ(bench::small_l1d_arch().l1d_bytes_for_carveout(0), 32u * 1024u);
}

}  // namespace
}  // namespace catt::throttle
// Appended: DYNCTA-style dynamic policy tests.
namespace catt::throttle {
namespace {

TEST(Dyncta, LearnsOnRepeatedLaunches) {
  // KM repeats its contended kernels, so the reactive scheme has warm-up
  // material: it must end up strictly faster than the baseline.
  Runner& r = shared_runner();
  const wl::Workload& w = wl::find_workload("km", 2);
  const AppResult base = r.run(w, Baseline{});
  const AppResult dyn = r.run(w, Dyncta{});
  EXPECT_LT(dyn.total_cycles, base.total_cycles);
}

TEST(Dyncta, LosesToCattOnSinglePhaseApps) {
  // GSMV is one contended launch: the dynamic scheme has nothing to learn
  // from and runs it at full TLP, while CATT throttles it up front.
  Runner& r = shared_runner();
  const wl::Workload& w = wl::find_workload("gsmv", 2);
  const AppResult dyn = r.run(w, Dyncta{});
  const AppResult catt = r.run(w, Catt{});
  EXPECT_LE(catt.total_cycles, dyn.total_cycles);
}

TEST(Dyncta, RecordsPerLaunchTbChoices) {
  Runner& r = shared_runner();
  const wl::Workload& w = wl::find_workload("km", 2);
  const AppResult dyn = r.run(w, Dyncta{});
  ASSERT_EQ(dyn.choices.size(), w.schedule.size());
  for (const auto& c : dyn.choices) {
    for (const auto& l : c.loops) {
      EXPECT_GE(l.tbs, 1);
      EXPECT_LE(l.tbs, c.baseline_occ.tbs_per_sm);
    }
  }
}

}  // namespace
}  // namespace catt::throttle
// Appended: Policy sum-type API tests (unified Runner::run entry point).
namespace catt::throttle {
namespace {

TEST(Policy, LabelsAreCanonical) {
  EXPECT_EQ(Policy(Baseline{}).label(), "baseline");
  EXPECT_EQ(Policy(Catt{}).label(), "catt");
  EXPECT_EQ(Policy(Fixed{{2, 3}}).label(), "fixed[N=2,TB<=3]");
  EXPECT_EQ(Policy(Fixed{{4, 0}}).label(), "fixed[N=4]");
  EXPECT_EQ(Policy(Dyncta{}).label(), "dyncta");
  EXPECT_EQ(Policy(Bftt{}).label(), "bftt");
}

TEST(Policy, ResultPolicyFieldIsTheLabel) {
  Runner& r = shared_runner();
  const wl::Workload& w = wl::find_workload("gsmv", 2);
  EXPECT_EQ(r.run(w, Fixed{{2, 0}}).policy, "fixed[N=2]");
  EXPECT_EQ(r.run(w, Catt{}).policy, "catt");
  // The BFTT winner carries the winning factor in its label.
  const AppResult best = r.run(w, Bftt{});
  EXPECT_EQ(best.policy.rfind("bftt[", 0), 0u);
}

}  // namespace
}  // namespace catt::throttle
// Appended: observability must be invisible to results (the fingerprint
// exclusion pin for PR 4's obs subsystem).
#include <mutex>

#include "obs/obs.hpp"

namespace catt::throttle {
namespace {

TEST(Obs, TracingDoesNotPerturbResults) {
  // The acceptance pin for the observability subsystem: a sweep run with
  // full tracing + interval sampling attached must produce byte-identical
  // result CSVs (and identical cache behaviour) to a plain run.
  // SimOptions::fingerprint() deliberately excludes the obs attachment;
  // this test is what keeps that exclusion honest.
  const wl::Workload& w = wl::find_workload("atax", 2);

  auto render = [](const AppResult& r, const Runner::BfttOutcome& sweep) {
    std::string out = r.workload + "," + r.policy + "," + std::to_string(r.total_cycles) + "\n";
    for (const auto& l : r.launches) {
      out += l.kernel_name + "," + std::to_string(l.cycles) + "," +
             std::to_string(l.l1.accesses) + "," + std::to_string(l.l1.hits) + "," +
             std::to_string(l.l2.accesses) + "," + std::to_string(l.l2.hits) + "," +
             std::to_string(l.dram_lines) + "," + std::to_string(l.warp_insts) + "\n";
    }
    for (const auto& c : r.choices) {
      for (const auto& lp : c.loops) {
        out += c.kernel + "," + std::to_string(lp.loop_id) + "," +
               std::to_string(lp.warps) + "," + std::to_string(lp.tbs) + "\n";
      }
    }
    for (const auto& [f, cycles] : sweep.sweep) {
      out += f.str() + "," + std::to_string(cycles) + "\n";
    }
    return out;
  };

  auto run_all = [&](const obs::SimObs* ob, std::uint64_t& hits, std::uint64_t& misses) {
    Runner r(bench::max_l1d_arch());
    if (ob != nullptr) r.sim_options.obs = ob;
    const AppResult base = r.run(w, Baseline{});
    const Runner::BfttOutcome sweep = r.bftt_sweep(w);
    const AppResult catt = r.run(w, Catt{});
    hits = r.cache().hits();
    misses = r.cache().misses();
    return render(base, sweep) + render(catt, sweep);
  };

  std::uint64_t plain_hits = 0, plain_misses = 0;
  const std::string plain = run_all(nullptr, plain_hits, plain_misses);

  obs::Tracer tracer;
  obs::Registry registry;
  std::mutex mu;
  std::size_t series_seen = 0;
  obs::SimObs ob;
  ob.trace_level = 2;  // fine: per-issue + miss-lifetime events
  ob.metrics_interval = 1024;
  ob.tracer = &tracer;
  ob.registry = &registry;
  ob.on_series = [&](const obs::LaunchSeries&) {
    std::lock_guard<std::mutex> lock(mu);
    ++series_seen;
  };

  std::uint64_t traced_hits = 0, traced_misses = 0;
  const std::string traced = run_all(&ob, traced_hits, traced_misses);

  EXPECT_EQ(plain, traced);
  EXPECT_EQ(plain_hits, traced_hits);
  EXPECT_EQ(plain_misses, traced_misses);
  // The attachment demonstrably did something: events and series flowed.
  EXPECT_GT(tracer.recorded() + tracer.dropped(), 0u);
  EXPECT_GT(series_seen, 0u);
}

}  // namespace
}  // namespace catt::throttle
// Appended: runtime scheduler-policy seam (SimOptions::sched) through the
// Runner — the `none` identity, determinism of the dynamic policies across
// repeated runs and pool widths, and their observable effect counters.
namespace catt::throttle {
namespace {

std::string stats_signature(const AppResult& r) {
  std::string out = std::to_string(r.total_cycles);
  for (const auto& l : r.launches) {
    out += '|';
    out += std::to_string(l.cycles) + "," + std::to_string(l.l1.accesses) + "," +
           std::to_string(l.l1.hits) + "," + std::to_string(l.l2.accesses) + "," +
           std::to_string(l.l2.hits) + "," + std::to_string(l.dram_lines) + "," +
           std::to_string(l.sched_vetoes) + "," + std::to_string(l.sched_victim_tag_hits) + "," +
           std::to_string(l.sched_updates) + "," + std::to_string(l.sched_paused_tbs);
  }
  return out;
}

TEST(SchedSeam, NoneThroughRunnerMatchesDefaultAcrossWorkloads) {
  for (const char* name : {"lud", "nw", "hp"}) {
    const wl::Workload& w = wl::find_workload(name, 2);
    Runner plain(bench::max_l1d_arch());
    Runner none(bench::max_l1d_arch());
    none.sim_options.sched = sim::sched::PolicyConfig::parse("none");
    EXPECT_EQ(stats_signature(plain.run(w, Baseline{})), stats_signature(none.run(w, Baseline{})))
        << name;
    EXPECT_EQ(stats_signature(plain.run(w, Catt{})), stats_signature(none.run(w, Catt{})))
        << name;
  }
}

TEST(SchedSeam, DynamicPoliciesDeterministicAcrossRunsAndPoolWidths) {
  // Fresh Runner per run, so every signature comes from a real simulation
  // (not a SimCache hit), and two pool widths, so thread scheduling in the
  // exec fan-out cannot leak into policy decisions.
  exec::Pool pool1(1);
  exec::Pool pool4(4);
  const wl::Workload& w = wl::find_workload("hp", 2);
  for (const char* spec : {"ccws", "dyncta", "adaptive:interval=512,window=2,cooldown=1"}) {
    const sim::sched::PolicyConfig cfg = sim::sched::PolicyConfig::parse(spec);
    auto run_once = [&](exec::Pool& pool) {
      Runner r(bench::max_l1d_arch(), &pool);
      r.sim_options.sched = cfg;
      return stats_signature(r.run(w, Baseline{}));
    };
    const std::string first = run_once(pool1);
    EXPECT_EQ(first, run_once(pool1)) << spec << " repeated run diverged";
    EXPECT_EQ(first, run_once(pool4)) << spec << " pool width changed the result";
  }
}

TEST(SchedSeam, CcwsThrottlesAndScoresOnContendedWorkload) {
  Runner r(bench::max_l1d_arch());
  r.sim_options.sched = sim::sched::PolicyConfig::parse("ccws");
  const AppResult res = r.run(wl::find_workload("gsmv", 2), Baseline{});
  std::uint64_t vetoes = 0, tag_hits = 0, updates = 0;
  for (const auto& l : res.launches) {
    vetoes += l.sched_vetoes;
    tag_hits += l.sched_victim_tag_hits;
    updates += l.sched_updates;
  }
  // GSMV thrashes the L1D at full TLP: the scorer must see its own victims
  // come back (lost locality) and actually suppress issue slots.
  EXPECT_GT(updates, 0u);
  EXPECT_GT(tag_hits, 0u);
  EXPECT_GT(vetoes, 0u);
}

TEST(SchedSeam, DynctaPausesTbsOnContendedWorkload) {
  Runner r(bench::max_l1d_arch());
  r.sim_options.sched = sim::sched::PolicyConfig::parse("dyncta");
  const AppResult res = r.run(wl::find_workload("gsmv", 2), Baseline{});
  std::uint64_t updates = 0;
  int max_paused = 0;
  for (const auto& l : res.launches) {
    updates += l.sched_updates;
    max_paused = std::max(max_paused, l.sched_max_paused_tbs);
  }
  EXPECT_GT(updates, 0u);
  EXPECT_GT(max_paused, 0);
}

/// Timing signature only (no sched_* counters): the adaptive policy's
/// degenerate modes keep the simulated machine identical while its update
/// clock still ticks, so the sched telemetry legitimately differs.
std::string timing_signature(const AppResult& r) {
  std::string out = std::to_string(r.total_cycles);
  for (const auto& l : r.launches) {
    out += '|';
    out += std::to_string(l.cycles) + "," + std::to_string(l.l1.accesses) + "," +
           std::to_string(l.l1.hits) + "," + std::to_string(l.l2.accesses) + "," +
           std::to_string(l.l2.hits) + "," + std::to_string(l.dram_lines) + "," +
           std::to_string(l.warp_insts);
  }
  return out;
}

TEST(SchedSeam, AdaptiveWindowZeroDegeneratesToCatt) {
  // `catt+adaptive` with the controller disabled (window=0) is exactly the
  // static CATT plan: the policy rides along, observes, and never vetoes.
  Runner r(bench::max_l1d_arch());
  const wl::Workload& w = wl::find_workload("gsmv", 2);
  const AppResult catt = r.run(w, Catt{});
  Adaptive degenerate;
  degenerate.sched = sim::sched::PolicyConfig::parse("adaptive:window=0");
  const AppResult adp = r.run(w, degenerate);
  EXPECT_EQ(timing_signature(catt), timing_signature(adp));
  ASSERT_EQ(catt.launches.size(), adp.launches.size());
  std::uint64_t updates = 0;
  for (const auto& l : adp.launches) {
    EXPECT_EQ(l.sched_vetoes, 0u);
    EXPECT_TRUE(l.sched_decisions.empty());
    updates += l.sched_updates;
  }
  EXPECT_GT(updates, 0u);  // the policy really was installed
}

TEST(SchedSeam, AdaptiveActsOnIrregularWorkload) {
  // CFD is the case static CATT cannot touch (irregular -> conservative
  // baseline plan): the runtime controller must engage there — updates
  // tick, decisions land in the per-launch log — and must not lose to the
  // static plan it started from.
  Runner r(bench::max_l1d_arch());
  const wl::Workload& w = wl::find_workload("cfd", 2);
  const AppResult catt = r.run(w, Catt{});
  const AppResult adp = r.run(w, Adaptive{});
  EXPECT_EQ(adp.policy, "catt+adaptive");
  std::uint64_t updates = 0, decisions = 0;
  std::int64_t last_cycle = -1;
  for (const auto& l : adp.launches) {
    updates += l.sched_updates;
    decisions += l.sched_decisions.size();
    last_cycle = -1;  // the log restarts per launch
    for (const auto& d : l.sched_decisions) {
      EXPECT_GE(d.cycle, last_cycle);
      last_cycle = d.cycle;
      EXPECT_TRUE(d.from_level != d.to_level ||
                  d.reason == sim::sched::DecisionReason::kPhaseReset);
      EXPECT_GE(d.to_level, 0);
    }
  }
  EXPECT_GT(updates, 0u);
  EXPECT_GT(decisions, 0u);
  EXPECT_LE(adp.total_cycles, catt.total_cycles);
}

}  // namespace
}  // namespace catt::throttle
// Appended: the disk tier must be invisible to results — a fresh Runner
// over a warm DiskCache answers every policy and the full BFTT sweep
// byte-identically, from disk alone.
#include <filesystem>

#include "exec/disk_cache.hpp"
#include "exec/wire.hpp"

namespace catt::throttle {
namespace {

/// Every field of an AppResult, launches in their disk-cache encoding.
std::string result_bytes(const AppResult& r) {
  exec::wire::Writer out;
  out.str(r.workload);
  out.str(r.policy);
  out.i64(r.total_cycles);
  for (const auto& l : r.launches) out.str(exec::wire::encode_kernel_stats(l));
  for (const auto& c : r.choices) {
    out.str(c.kernel);
    exec::wire::encode(out, c.baseline_occ);
    for (const auto& loop : c.loops) {
      out.i32(loop.loop_id);
      out.i32(loop.warps);
      out.i32(loop.tbs);
      out.b(loop.unresolvable);
    }
  }
  return out.take();
}

/// Baseline, CATT, one fixed factor and the BFTT sweep of gsmv, flattened.
std::vector<std::string> gsmv_queries(Runner& r) {
  const wl::Workload& w = wl::find_workload("gsmv", 2);
  std::vector<std::string> out;
  for (const Policy& policy : std::initializer_list<Policy>{Baseline{}, Catt{}, Fixed{{2, 0}}}) {
    out.push_back(result_bytes(r.run(w, policy)));
  }
  const Runner::BfttOutcome sweep = r.bftt_sweep(w);
  out.push_back(result_bytes(sweep.best));
  std::string points = sweep.factor.str();
  for (const auto& [factor, cycles] : sweep.sweep) {
    // Appended piecewise: "lit" + std::string trips GCC bug 105329.
    points += ';';
    points += factor.str();
    points += '=';
    points += std::to_string(cycles);
  }
  out.push_back(std::move(points));
  return out;
}

TEST(Runner, FreshRunnerOverWarmDiskCacheIsByteIdentical) {
  const std::string dir = ::testing::TempDir() + "catt_runner_warm_disk";
  std::filesystem::remove_all(dir);

  std::vector<std::string> cold;
  {
    exec::DiskCache disk({.dir = dir});
    Runner r(bench::max_l1d_arch());
    r.set_disk_cache(&disk);
    cold = gsmv_queries(r);
    EXPECT_GT(r.cache().misses(), 0u);
    EXPECT_GT(disk.counters().writes, 0u);
  }

  // A new process's view: fresh in-memory tiers, same directory. Every
  // launch resolves from disk (promoted into the SimCache), nothing is
  // simulated, and nothing new is published.
  exec::DiskCache disk({.dir = dir});
  Runner r(bench::max_l1d_arch());
  r.set_disk_cache(&disk);
  const std::vector<std::string> warm = gsmv_queries(r);
  ASSERT_EQ(warm.size(), cold.size());
  for (std::size_t i = 0; i < cold.size(); ++i) EXPECT_EQ(warm[i], cold[i]) << "query " << i;
  EXPECT_EQ(r.cache().misses(), 0u);
  EXPECT_GT(r.cache().hits(), 0u);
  EXPECT_EQ(disk.counters().writes, 0u);
  // Every read probe is a hit: the warm run publishes nothing, not even a
  // no-op republish of something it never read.
  EXPECT_EQ(disk.counters().dup_writes, 0u);
  EXPECT_GT(disk.counters().hits, 0u);
}

}  // namespace
}  // namespace catt::throttle
