// Cycle-exactness pin for the event-driven timing engine: for every
// registered workload, every launch of the application schedule must
// produce bit-identical KernelStats (cycles, L1/L2 stats, DRAM traffic,
// instruction counts, request series) under the event-driven Sm + calendar
// loop and under the retained cycle-stepped SmRef + scan loop
// (SimOptions::use_stepped_reference). The scheduler-attribution counters
// (sm_steps/warps_scanned/queue_pops) are engine-dependent by design and
// deliberately not compared.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "frontend/parser.hpp"
#include "gpusim/gpu.hpp"
#include "obs/obs.hpp"
#include "workloads/workload.hpp"

namespace catt::sim {
namespace {

void expect_stats_equal(const KernelStats& ev, const KernelStats& ref, const std::string& label) {
  EXPECT_EQ(ev.cycles, ref.cycles) << label;
  EXPECT_EQ(ev.l1.accesses, ref.l1.accesses) << label;
  EXPECT_EQ(ev.l1.hits, ref.l1.hits) << label;
  EXPECT_EQ(ev.l1.misses, ref.l1.misses) << label;
  EXPECT_EQ(ev.l1.store_accesses, ref.l1.store_accesses) << label;
  EXPECT_EQ(ev.l2.accesses, ref.l2.accesses) << label;
  EXPECT_EQ(ev.l2.hits, ref.l2.hits) << label;
  EXPECT_EQ(ev.l2.misses, ref.l2.misses) << label;
  EXPECT_EQ(ev.l2.store_accesses, ref.l2.store_accesses) << label;
  EXPECT_EQ(ev.dram_lines, ref.dram_lines) << label;
  EXPECT_EQ(ev.warp_insts, ref.warp_insts) << label;
  EXPECT_EQ(ev.mem_insts, ref.mem_insts) << label;
  EXPECT_EQ(ev.mem_requests, ref.mem_requests) << label;
  EXPECT_EQ(ev.lane_cycles, ref.lane_cycles) << label;
  EXPECT_EQ(ev.lane_mem_insts, ref.lane_mem_insts) << label;
  EXPECT_TRUE(ev.div == ref.div) << label;
  ASSERT_EQ(ev.request_trace.size(), ref.request_trace.size()) << label;
  for (std::size_t i = 0; i < ev.request_trace.size(); ++i) {
    EXPECT_EQ(ev.request_trace[i].index, ref.request_trace[i].index) << label << " point " << i;
    EXPECT_EQ(ev.request_trace[i].mean, ref.request_trace[i].mean) << label << " point " << i;
  }
}

/// Runs a workload's full schedule on both engines (separate memory images
/// and Gpu instances, so L2 history stays pairwise identical across
/// launches) and pins the per-launch stats equal.
void run_workload_both_engines(const wl::Workload& w, SimOptions opts, int num_sms = 2) {
  DeviceMemory mem_ev;
  DeviceMemory mem_ref;
  w.setup(mem_ev);
  w.setup(mem_ref);
  Gpu gpu_ev(arch::GpuArch::titan_v(num_sms), mem_ev);
  Gpu gpu_ref(arch::GpuArch::titan_v(num_sms), mem_ref);
  SimOptions opts_ref = opts;
  opts_ref.use_stepped_reference = true;
  for (std::size_t e = 0; e < w.schedule.size(); ++e) {
    const wl::KernelRun& run = w.schedule[e];
    const ir::Kernel& k = w.kernel(run.kernel);
    const LaunchSpec spec{&k, run.launch, run.params};
    const std::string label = w.name + "/" + run.kernel + "#" + std::to_string(e);
    expect_stats_equal(gpu_ev.run(spec, opts), gpu_ref.run(spec, opts_ref), label);
  }
}

// The exhaustive sweep runs at the 1-SM workload scale: per-SM scheduling
// (ready/wake heaps, barriers, MSHR, datapath timing) is what differs
// between the engines, and halving the grid halves the double-engine
// cost. Cross-SM concerns — same-cycle SM ordering through the shared
// MemorySystem cursors, calendar-queue scheduling of many SMs — are
// pinned by the 2-SM runs below and in the tb_cap test.
TEST(TimingEngine, MatchesSteppedReferenceOnAllWorkloads) {
  for (const wl::Workload& w : wl::all_workloads(1)) {
    run_workload_both_engines(w, SimOptions{}, 1);
  }
}

TEST(TimingEngine, MatchesReferenceOnMultiSmRuns) {
  run_workload_both_engines(wl::find_workload("gsmv", 2), SimOptions{});
  run_workload_both_engines(wl::find_workload("lud", 2), SimOptions{});
}

// Throttled occupancy exercises barrier release + TB refill interleavings
// the untouched run never hits; the request series pins SM 0's per-load
// transaction sequence (issue order, not just totals).
TEST(TimingEngine, MatchesReferenceUnderTbCapAndRequestTrace) {
  SimOptions opts;
  opts.tb_cap = 1;
  opts.collect_request_trace = true;
  run_workload_both_engines(wl::find_workload("atax", 2), opts);
  run_workload_both_engines(wl::find_workload("hp", 2), opts);
}

// The delta-keyed render cache is a pure trace-generation speed knob: a
// dedup'd schedule run with the cache on (and trace workers sharded) must
// produce per-launch KernelStats and interval-sampler series bit-identical
// to the cache-off serial-producer run.
TEST(TimingEngine, RenderCacheDoesNotPerturbStatsOrIntervalSamples) {
  const wl::Workload& w = wl::find_workload("atax", 2);
  struct RunOut {
    std::vector<KernelStats> stats;
    std::vector<obs::LaunchSeries> series;
  };
  auto run_schedule = [&](int trace_threads, bool render_cache) {
    RunOut out;
    obs::Registry registry;  // local: keeps the process registry test-clean
    obs::SimObs so;
    so.metrics_interval = 2048;
    so.registry = &registry;
    so.on_series = [&](const obs::LaunchSeries& s) { out.series.push_back(s); };
    DeviceMemory mem;
    w.setup(mem);
    Gpu gpu(arch::GpuArch::titan_v(2), mem);
    for (std::size_t e = 0; e < w.schedule.size(); ++e) {
      const wl::KernelRun& run = w.schedule[e];
      SimOptions o;
      o.skip_functional = true;
      o.trace_key = e + 1;  // per-entry keys: repeats of an entry share traces
      o.sim_threads = 1;
      o.trace_threads = trace_threads;
      o.render_cache = render_cache;
      o.obs = &so;
      const LaunchSpec spec{&w.kernel(run.kernel), run.launch, run.params};
      out.stats.push_back(gpu.run(spec, o));
    }
    return out;
  };
  const RunOut base = run_schedule(1, false);
  const RunOut cached = run_schedule(4, true);
  ASSERT_EQ(base.stats.size(), cached.stats.size());
  for (std::size_t i = 0; i < base.stats.size(); ++i) {
    expect_stats_equal(cached.stats[i], base.stats[i],
                       "render-cache launch " + std::to_string(i));
  }
  ASSERT_EQ(base.series.size(), cached.series.size());
  EXPECT_FALSE(base.series.empty());  // guard: an empty-vs-empty pass pins nothing
  for (std::size_t i = 0; i < base.series.size(); ++i) {
    EXPECT_EQ(cached.series[i].kernel, base.series[i].kernel) << "series " << i;
    EXPECT_EQ(cached.series[i].interval, base.series[i].interval) << "series " << i;
    EXPECT_EQ(cached.series[i].csv_rows(), base.series[i].csv_rows()) << "series " << i;
  }
}

// The render cache's hit path itself. The workload suite indexes every
// array by global id, so block coordinates enter every delta key and the
// cache only ever misses there; this kernel's addresses never involve
// blockIdx, making every block's per-event translate deltas all-zero —
// the one shape where keys collide — so hits (lookup, refcounted trace
// share, byte accounting) are actually exercised and counted exactly.
TEST(TimingEngine, RenderCacheHitsOnBlockInvariantKernel) {
  const char* src =
      "//@regs=16\n"
      "__global__ void block_invariant(float *A, float *C, int T) {\n"
      "    int t = threadIdx.x;\n"
      "    float acc = 0.25f;\n"
      "    for (int j = 0; j < T; j++) {\n"
      "        acc += A[t * 2 + j];\n"
      "    }\n"
      "    C[t] = acc;\n"
      "}\n";
  const std::vector<ir::Kernel> kernels = frontend::parse_program(src);
  ASSERT_EQ(kernels.size(), 1u);
  arch::LaunchConfig launch;
  launch.block = arch::Dim3{64};  // 2 warps per block
  launch.grid = arch::Dim3{6};
  const expr::ParamEnv params{{"T", 4}};

  struct Leg {
    KernelStats first, second;
    std::uint64_t hits = 0;
    std::uint64_t bytes_saved = 0;
  };
  // Two launches on one Gpu (the dedup table is per-Gpu): launch 1
  // symbolizes, then renders all six blocks; launch 2 renders all six
  // from the cached entry. Counters are read cumulatively over both.
  auto run = [&](int trace_threads, bool render_cache) {
    Leg leg;
    obs::Registry registry;
    obs::SimObs so;
    so.metrics_interval = 1 << 20;  // > kernel cycles: activates obs, no samples
    so.registry = &registry;
    SimOptions o;
    o.skip_functional = true;
    o.trace_key = 0x6b1;
    o.sim_threads = 1;
    o.trace_threads = trace_threads;
    o.render_cache = render_cache;
    o.obs = &so;
    DeviceMemory mem;
    mem.alloc_f32("A", 4096, 0.5f);
    mem.alloc_f32("C", 4096, 0.0f);
    Gpu gpu(arch::GpuArch::titan_v(2), mem);
    const LaunchSpec spec{&kernels[0], launch, params};
    leg.first = gpu.run(spec, o);
    leg.second = gpu.run(spec, o);
    const obs::Registry::Snapshot snap = registry.scrape();
    leg.hits = snap.counter_or("sim.tracegen.render_cache_hits");
    leg.bytes_saved = snap.counter_or("sim.tracegen.render_cache_bytes_saved");
    return leg;
  };

  // Cache off: renders happen, lookups don't.
  const Leg base = run(1, false);
  EXPECT_EQ(base.hits, 0u);
  EXPECT_EQ(base.bytes_saved, 0u);

  // Serial producer: deterministic hit counts. Each launch renders all six
  // blocks (block 0 included); per warp id, one render misses and the
  // other five blocks hit (10 per launch).
  const Leg serial = run(1, true);
  expect_stats_equal(serial.first, base.first, "render-cache hit launch 1");
  expect_stats_equal(serial.second, base.second, "render-cache hit launch 2");
  EXPECT_EQ(serial.hits, 20u);
  EXPECT_GT(serial.bytes_saved, 0u);

  // Sharded workers race misses on the same key (first insert wins, the
  // losers' renders are discarded), so only a band is deterministic: with
  // 4 workers at most 4 in-flight misses per warp id, leaving at least
  // one hit per warp; in both launches block 0 is rendered by the leader's
  // serial pre-pass, which seeds the cache before sharding begins.
  const Leg sharded = run(4, true);
  expect_stats_equal(sharded.first, base.first, "sharded render-cache launch 1");
  expect_stats_equal(sharded.second, base.second, "sharded render-cache launch 2");
  EXPECT_GE(sharded.hits, 12u);
  EXPECT_LE(sharded.hits, 20u);
  EXPECT_GT(sharded.bytes_saved, 0u);
}

// Dedup attribution through the obs registry: a launch that symbolizes
// exports each failed warp under sim.dedup.bail.<reason> and its cost
// under sim.dedup.symbolize_us; a launch that reuses the cached entry adds
// no bails; after Gpu::release_traces the next launch symbolizes again.
TEST(TimingEngine, DedupBailsReachTheRegistryAndReleaseRegenerates) {
  const std::vector<ir::Kernel> kernels = frontend::parse_program(R"(
__global__ void corr_like(float *data, float *symmat, int M, int N, int K) {
    int j1 = blockIdx.x * blockDim.x + threadIdx.x;
    if (j1 < M) {
        for (int j2 = j1; j2 < j1 + K && j2 < M; j2++) {
            float acc = 0.0f;
            for (int i = 0; i < N; i++) {
                acc += data[i * M + j1] * data[i * M + j2];
            }
            symmat[j1 * M + j2] = acc;
        }
    }
}
)");
  const arch::LaunchConfig launch{arch::Dim3{2}, arch::Dim3{128}};
  const expr::ParamEnv params{{"M", 256}, {"N", 2}, {"K", 64}};
  // Reference: the same three launches with dedup off (the L2 persists
  // across launches, so each launch is compared with its own position).
  SimOptions plain;
  plain.skip_functional = true;
  plain.sim_threads = 1;
  plain.trace_threads = 1;
  DeviceMemory ref_mem;
  ref_mem.alloc_f32("data", 512, 1.0f);
  ref_mem.alloc_f32("symmat", 256 * 256, 0.0f);
  Gpu ref_gpu(arch::GpuArch::titan_v(2), ref_mem);
  const LaunchSpec spec{&kernels[0], launch, params};
  std::vector<KernelStats> ref;
  for (int i = 0; i < 3; ++i) ref.push_back(ref_gpu.run(spec, plain));

  obs::Registry registry;
  obs::SimObs so;
  so.metrics_interval = 1 << 30;  // activates obs, no samples
  so.registry = &registry;
  SimOptions o = plain;
  o.trace_key = 0xC022;
  o.obs = &so;
  DeviceMemory mem;
  mem.alloc_f32("data", 512, 1.0f);
  mem.alloc_f32("symmat", 256 * 256, 0.0f);
  Gpu gpu(arch::GpuArch::titan_v(2), mem);

  auto counter = [&](const char* name) { return registry.scrape().counter_or(name); };
  expect_stats_equal(gpu.run(spec, o), ref[0], "generating launch");
  // Warps 2 and 3 of each block bail on the block-dependent `j2 < M`.
  EXPECT_EQ(counter("sim.dedup.bail.block_dependent"), 2u);
  EXPECT_EQ(counter("sim.tracegen.warps_executed"), 4u);
  EXPECT_EQ(counter("sim.tracegen.warps_rendered"), 4u);
  for (const char* other : {"sim.dedup.bail.poisoned", "sim.dedup.bail.out_of_bounds",
                            "sim.dedup.bail.nonuniform_delta", "sim.dedup.bail.shared_invalidated",
                            "sim.dedup.bail.error"}) {
    EXPECT_EQ(counter(other), 0u) << other;
  }

  expect_stats_equal(gpu.run(spec, o), ref[1], "reused dedup entry");
  EXPECT_EQ(counter("sim.dedup.bail.block_dependent"), 2u);
  EXPECT_EQ(counter("sim.tracegen.warps_executed"), 8u);

  gpu.release_traces(o.trace_key);
  expect_stats_equal(gpu.run(spec, o), ref[2], "regenerated dedup entry");
  EXPECT_EQ(counter("sim.dedup.bail.block_dependent"), 4u);
  EXPECT_EQ(counter("sim.tracegen.warps_executed"), 12u);
}

// The scheduler-policy seam's identity pin: an explicit `--sched=none`
// spec must be indistinguishable from a default-constructed SimOptions —
// same memoization fingerprint and bit-identical per-launch stats — and
// both engines must still agree under the explicit spec (no policy object
// is installed, so no issue-path behaviour may change).
TEST(TimingEngine, SchedNoneIsIdenticalToDefaultOnBothEngines) {
  const wl::Workload& w = wl::find_workload("hp", 2);
  SimOptions none_opts;
  none_opts.sched = sched::PolicyConfig::parse("none");
  EXPECT_EQ(SimOptions{}.fingerprint(), none_opts.fingerprint());
  EXPECT_FALSE(none_opts.sched.enabled());

  DeviceMemory mem_def, mem_none;
  w.setup(mem_def);
  w.setup(mem_none);
  Gpu gpu_def(arch::GpuArch::titan_v(2), mem_def);
  Gpu gpu_none(arch::GpuArch::titan_v(2), mem_none);
  for (std::size_t e = 0; e < w.schedule.size(); ++e) {
    const wl::KernelRun& run = w.schedule[e];
    const LaunchSpec spec{&w.kernel(run.kernel), run.launch, run.params};
    expect_stats_equal(gpu_def.run(spec, SimOptions{}), gpu_none.run(spec, none_opts),
                       w.name + "#" + std::to_string(e) + " default-vs-none");
  }
  run_workload_both_engines(w, none_opts);
}

// An enabled policy must change the fingerprint (so the SimCache cannot
// serve a policy run from a baseline entry, and vice versa), and distinct
// knob settings must not collide.
TEST(TimingEngine, EnabledPoliciesChangeTheFingerprint) {
  SimOptions ccws;
  ccws.sched = sched::PolicyConfig::parse("ccws");
  SimOptions dyncta;
  dyncta.sched = sched::PolicyConfig::parse("dyncta");
  SimOptions ccws_tuned;
  ccws_tuned.sched = sched::PolicyConfig::parse("ccws:tags=4");
  EXPECT_NE(SimOptions{}.fingerprint(), ccws.fingerprint());
  EXPECT_NE(SimOptions{}.fingerprint(), dyncta.fingerprint());
  EXPECT_NE(ccws.fingerprint(), dyncta.fingerprint());
  EXPECT_NE(ccws.fingerprint(), ccws_tuned.fingerprint());
  SimOptions adaptive;
  adaptive.sched = sched::PolicyConfig::parse("adaptive");
  SimOptions adaptive_tuned;
  adaptive_tuned.sched = sched::PolicyConfig::parse("adaptive:window=8");
  EXPECT_NE(SimOptions{}.fingerprint(), adaptive.fingerprint());
  EXPECT_NE(adaptive.fingerprint(), ccws.fingerprint());
  EXPECT_NE(adaptive.fingerprint(), dyncta.fingerprint());
  EXPECT_NE(adaptive.fingerprint(), adaptive_tuned.fingerprint());
}

// The adaptive policy's degenerate mode: window=0 disables the controller,
// so the policy object is installed (distinct fingerprint, update clock
// ticking) but never takes a decision — the simulated machine must be
// bit-identical to the static plan baked into the code, on both engines.
TEST(TimingEngine, AdaptiveEmptyWindowDegeneratesToStatic) {
  const wl::Workload& w = wl::find_workload("hp", 2);
  SimOptions adaptive_opts;
  adaptive_opts.sched = sched::PolicyConfig::parse("adaptive:window=0");
  EXPECT_NE(SimOptions{}.fingerprint(), adaptive_opts.fingerprint());
  EXPECT_TRUE(adaptive_opts.sched.enabled());

  DeviceMemory mem_def, mem_adp;
  w.setup(mem_def);
  w.setup(mem_adp);
  Gpu gpu_def(arch::GpuArch::titan_v(2), mem_def);
  Gpu gpu_adp(arch::GpuArch::titan_v(2), mem_adp);
  for (std::size_t e = 0; e < w.schedule.size(); ++e) {
    const wl::KernelRun& run = w.schedule[e];
    const LaunchSpec spec{&w.kernel(run.kernel), run.launch, run.params};
    const KernelStats def = gpu_def.run(spec, SimOptions{});
    const KernelStats adp = gpu_adp.run(spec, adaptive_opts);
    const std::string label = w.name + "#" + std::to_string(e) + " default-vs-adaptive0";
    expect_stats_equal(def, adp, label);
    // The controller is disabled: the update clock ran, nothing else did.
    EXPECT_GT(adp.sched_updates, 0u) << label;
    EXPECT_EQ(adp.sched_vetoes, 0u) << label;
    EXPECT_TRUE(adp.sched_decisions.empty()) << label;
  }
  run_workload_both_engines(w, adaptive_opts);
}

}  // namespace
}  // namespace catt::sim
