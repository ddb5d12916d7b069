// Whole-GPU simulation: thread-block dispatch across SMs, a shared
// L2/DRAM, and per-launch statistics. This is the evaluation substrate
// standing in for the paper's Titan V + nvprof (see DESIGN.md).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "arch/gpu_arch.hpp"
#include "arch/launch.hpp"
#include "expr/affine.hpp"
#include "gpusim/cache.hpp"
#include "gpusim/dedup.hpp"
#include "gpusim/memory.hpp"
#include "gpusim/sched/policy.hpp"
#include "gpusim/series.hpp"
#include "gpusim/sm.hpp"
#include "ir/ir.hpp"
#include "occupancy/occupancy.hpp"

namespace catt::obs {
struct SimObs;
}

namespace catt::sim {

/// One kernel launch: kernel + geometry + scalar argument bindings.
struct LaunchSpec {
  const ir::Kernel* kernel = nullptr;
  arch::LaunchConfig launch;
  expr::ParamEnv params;
};

struct SimOptions {
  /// Collect the Figure 2 requests-per-instruction series (SM 0 only).
  bool collect_request_trace = false;
  /// Cap resident TBs per SM below the occupancy result (0 = no cap);
  /// used by throttling policies that limit TBs without code changes.
  int tb_cap = 0;

  /// Runtime scheduler policy (the hardware-dynamic throttling baselines:
  /// CCWS-style warp throttling, DYNCTA-style TB pausing). kNone installs
  /// no policy object at all — the engines run their pre-seam code path
  /// and the fingerprint is unchanged (pinned by tests/golden_test.cpp).
  sched::PolicyConfig sched;

  /// Skip functional global-memory effects for trace-pure kernels (the
  /// runner sets this when nothing downstream observes memory contents).
  /// Honoured only when the kernel proves bc::trace_data_independent.
  bool skip_functional = false;
  /// Non-zero enables homogeneous-warp trace dedup across blocks (and
  /// across launches sharing the key). The key must capture kernel,
  /// launch config and scalar params; the runner derives it from the
  /// exec::CacheKey chain. Requires skip_functional semantics.
  std::uint64_t trace_key = 0;

  /// Run the retained cycle-stepped engine (SmRef + per-cycle scan loop)
  /// instead of the event-driven one. The two are pinned cycle-identical
  /// by tests/timing_test.cpp; this switch exists for that test and for
  /// bisecting any future divergence.
  bool use_stepped_reference = false;

  /// Observability attachment (null = environment defaults, see
  /// obs::resolve). Read-only for the simulator; sinks inside are written.
  const obs::SimObs* obs = nullptr;

  /// Stable content hash; part of the exec::SimCache key (options that
  /// change simulated behaviour or collected outputs must be included).
  /// skip_functional/trace_key/use_stepped_reference/obs are deliberately
  /// EXCLUDED: all but the last are pure execution-strategy switches that
  /// cannot change any collected output, and observability must never
  /// perturb memoization keys (runner_test pins trace-on/off CSVs
  /// byte-identical through the cache). `sched` folds in only when
  /// enabled, so a "none" config hashes identically to pre-seam builds.
  std::uint64_t fingerprint() const;
};

/// Per-launch results (the nvprof stand-in).
struct KernelStats {
  std::string kernel_name;
  std::int64_t cycles = 0;
  CacheStats l1;  // aggregated over SMs
  CacheStats l2;
  std::uint64_t dram_lines = 0;
  std::uint64_t warp_insts = 0;
  std::uint64_t mem_insts = 0;
  std::uint64_t mem_requests = 0;
  /// SIMT lane accounting and divergence counters (aggregated SmStats).
  /// Deterministic sums/max, so part of the engine-equality pin alongside
  /// cycles — both engines replay the same traces.
  std::uint64_t lane_cycles = 0;
  std::uint64_t lane_mem_insts = 0;
  simt::DivCounters div;
  /// Scheduler-attribution counters (aggregated SmStats; surfaced in the
  /// CATT_PROFILE=1 report line, see DESIGN.md). Engine-dependent by
  /// design — excluded from the cycle-exactness pin in timing_test.
  std::uint64_t sm_steps = 0;
  std::uint64_t warps_scanned = 0;
  std::uint64_t queue_pops = 0;
  /// Scheduler-policy telemetry (all zero when SimOptions::sched is
  /// "none"): summed PolicyStats over SMs, except throttle_level which is
  /// the maximum final level across SMs.
  std::uint64_t sched_vetoes = 0;
  std::uint64_t sched_victim_tag_hits = 0;
  std::uint64_t sched_updates = 0;
  int sched_throttle_level = 0;
  int sched_paused_tbs = 0;
  int sched_max_paused_tbs = 0;
  /// The adaptive policy's decision log, merged over SMs and sorted by
  /// (cycle, sm). Empty for "none" and the hardware baselines. Exported as
  /// obs counters (sim.policy.*) and Chrome-trace instant events.
  std::vector<sched::Decision> sched_decisions;
  occupancy::Occupancy occ;
  /// Figure 2 series: mean coalesced requests per load instruction, over
  /// dynamic instruction sequence (bucketed).
  std::vector<SeriesAccum::Point> request_trace;

  double l1_hit_rate() const { return l1.hit_rate(); }
  /// Mean transactions per memory instruction (divergence measure).
  double requests_per_mem_inst() const {
    return mem_insts == 0 ? 0.0
                          : static_cast<double>(mem_requests) / static_cast<double>(mem_insts);
  }
  /// SIMD lane efficiency of memory instructions: mean active lanes per
  /// issued memory instruction over a full 32-lane warp. 1.0 for a
  /// convergent full-warp kernel; divergence and partial tail warps pull
  /// it below 1.
  double simd_mem_efficiency() const {
    return mem_insts == 0 ? 0.0
                          : static_cast<double>(lane_mem_insts) /
                                (32.0 * static_cast<double>(mem_insts));
  }
};

/// Simulates kernel launches against one device memory image. The L2
/// retains contents across launches of an application run; the L1Ds are
/// rebuilt per launch (their capacity depends on the kernel's carve-out).
class Gpu {
 public:
  Gpu(const arch::GpuArch& arch, DeviceMemory& mem);

  /// Runs one kernel launch to completion and returns its statistics.
  /// Functional effects are applied to the bound DeviceMemory.
  KernelStats run(const LaunchSpec& spec, const SimOptions& opts = {});

  const arch::GpuArch& gpu_arch() const { return arch_; }

  /// Frees the dedup traces cached under SimOptions::trace_key `key`; a
  /// later launch with that key regenerates them (bit-identically).
  void release_traces(std::uint64_t key) { dedup_.release(key); }

 private:
  arch::GpuArch arch_;
  DeviceMemory& mem_;
  MemorySystem memsys_;
  /// Block-parametric trace cache, keyed by SimOptions::trace_key. Lives
  /// as long as the Gpu so repeated launches of the same (kernel, config,
  /// params) reuse generated traces; sound because DeviceMemory base
  /// addresses are stable for the Gpu's lifetime.
  dedup::TraceDedup dedup_;
};

}  // namespace catt::sim
