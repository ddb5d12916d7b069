// Cycle-exactness pin for the event-driven timing engine: for every
// registered workload, every launch of the application schedule must
// produce bit-identical KernelStats (cycles, L1/L2 stats, DRAM traffic,
// instruction counts, request series) under the event-driven Sm + calendar
// loop and under the retained cycle-stepped SmRef + scan loop
// (SimOptions::use_stepped_reference). The scheduler-attribution counters
// (sm_steps/warps_scanned/queue_pops) are engine-dependent by design and
// deliberately not compared.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
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

// Dedup attribution through the obs registry: a launch that symbolizes
// exports each failed warp under sim.dedup.bail.<reason> and its cost
// under sim.dedup.symbolize_us; every launch exports its render cost under
// sim.dedup.render_us, and both lie inside sim.trace_gen_us; a launch that
// reuses the cached entry adds no bails and no symbolization; after
// Gpu::release_traces the next launch symbolizes again.
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
  // The dedup clocks are nested in the trace-generation clock, and that
  // clock carries sub-microsecond remainders across blocks, so each
  // launch's whole-microsecond dedup time cannot exceed its trace time.
  auto expect_dedup_time_within_trace_gen = [&](const char* at) {
    EXPECT_LE(counter("sim.dedup.symbolize_us") + counter("sim.dedup.render_us"),
              counter("sim.trace_gen_us"))
        << at;
  };
  expect_stats_equal(gpu.run(spec, o), ref[0], "generating launch");
  const obs::Registry::Snapshot snap = registry.scrape();
  EXPECT_TRUE(std::any_of(snap.counters.begin(), snap.counters.end(),
                          [](const auto& c) { return c.first == "sim.dedup.render_us"; }));
  expect_dedup_time_within_trace_gen("generating launch");
  // Warps 2 and 3 of each block bail on the block-dependent `j2 < M`.
  EXPECT_EQ(counter("sim.dedup.bail.block_dependent"), 2u);
  EXPECT_EQ(counter("sim.tracegen.warps_executed"), 4u);
  EXPECT_EQ(counter("sim.tracegen.warps_rendered"), 4u);
  for (const char* other : {"sim.dedup.bail.poisoned", "sim.dedup.bail.out_of_bounds",
                            "sim.dedup.bail.nonuniform_delta", "sim.dedup.bail.shared_invalidated",
                            "sim.dedup.bail.error"}) {
    EXPECT_EQ(counter(other), 0u) << other;
  }

  const std::uint64_t symbolize_us = counter("sim.dedup.symbolize_us");
  expect_stats_equal(gpu.run(spec, o), ref[1], "reused dedup entry");
  EXPECT_EQ(counter("sim.dedup.bail.block_dependent"), 2u);
  EXPECT_EQ(counter("sim.tracegen.warps_executed"), 8u);
  EXPECT_EQ(counter("sim.tracegen.warps_rendered"), 8u);
  EXPECT_EQ(counter("sim.dedup.symbolize_us"), symbolize_us);
  expect_dedup_time_within_trace_gen("reused dedup entry");

  gpu.release_traces(o.trace_key);
  expect_stats_equal(gpu.run(spec, o), ref[2], "regenerated dedup entry");
  EXPECT_EQ(counter("sim.dedup.bail.block_dependent"), 4u);
  EXPECT_EQ(counter("sim.tracegen.warps_executed"), 12u);
  expect_dedup_time_within_trace_gen("regenerated dedup entry");
}

// sim.dedup.patch_events counts memory events re-rendered per block
// because their block delta is not line-aligned. atax's sites all move by
// whole lines per block, so it has none; syr2k's C load and store move
// 64 B per blockIdx.x, so every rendered syr2k warp carries two. Either
// way the launches match the same schedule with dedup off.
TEST(TimingEngine, DedupPatchEventsCountUnalignedSites) {
  for (const char* name : {"atax", "syr2k"}) {
    const wl::Workload& w = wl::find_workload(name, 2);
    obs::Registry registry;
    obs::SimObs so;
    so.metrics_interval = 1 << 30;  // activates obs, no samples
    so.registry = &registry;
    DeviceMemory mem;
    DeviceMemory ref_mem;
    w.setup(mem);
    w.setup(ref_mem);
    Gpu gpu(arch::GpuArch::titan_v(2), mem);
    Gpu ref_gpu(arch::GpuArch::titan_v(2), ref_mem);
    for (std::size_t e = 0; e < w.schedule.size(); ++e) {
      const wl::KernelRun& run = w.schedule[e];
      const LaunchSpec spec{&w.kernel(run.kernel), run.launch, run.params};
      SimOptions o;
      o.skip_functional = true;
      o.trace_key = e + 1;
      o.obs = &so;
      SimOptions plain;
      plain.skip_functional = true;
      expect_stats_equal(gpu.run(spec, o), ref_gpu.run(spec, plain),
                         w.name + "#" + std::to_string(e));
    }
    const obs::Registry::Snapshot snap = registry.scrape();
    const std::uint64_t rendered = snap.counter_or("sim.tracegen.warps_rendered");
    const std::uint64_t patches = snap.counter_or("sim.dedup.patch_events");
    EXPECT_GT(rendered, 0u) << name;
    if (std::string(name) == "atax") {
      EXPECT_EQ(patches, 0u);
    } else {
      EXPECT_EQ(patches, 2 * rendered);
    }
  }
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
