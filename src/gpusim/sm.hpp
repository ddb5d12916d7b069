// Streaming-multiprocessor timing model: replays warp traces under a
// greedy-then-oldest scheduler with an LSU pipeline, a private L1D, and
// `__syncthreads()` barriers; misses go to the shared MemorySystem.
//
// Two engines share one datapath (SmDatapath — LSU pipeline, L1D probe,
// MSHR ring, request-series hook), so they can only diverge in scheduling:
//  * Sm (this header): event-driven — blocked-warp wake-ups live in a
//    min-heap and issuable warps in an admission-ordered ready heap, so a
//    scheduler pick is O(log warps) instead of an O(live warps) scan.
//  * SmRef (sm_ref.hpp): the retained cycle-stepped reference that scans
//    the live list every step; tests/timing_test.cpp pins the two engines'
//    KernelStats equal across every registered workload.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "arch/gpu_arch.hpp"
#include "gpusim/cache.hpp"
#include "gpusim/series.hpp"
#include "gpusim/trace.hpp"

namespace catt::obs {
struct SimTraceCtx;
}

namespace catt::sim::sched {
class SchedPolicy;
}

namespace catt::sim {

/// Shared L2 + DRAM with bandwidth cursors. One instance serves all SMs,
/// so heavy miss traffic from any SM delays everyone (the queueing that
/// makes cache thrashing expensive).
class MemorySystem {
 public:
  explicit MemorySystem(const arch::GpuArch& arch);

  /// Load of `line` observed at the L2 at cycle `t`, needing `sectors`
  /// 32 B sectors on a DRAM fill; returns data-ready time.
  std::int64_t load(std::uint64_t line, std::int64_t t, int sectors = 4);

  /// Write-through store traffic (bandwidth accounting only).
  void store(std::uint64_t line, std::int64_t t, int sectors = 4);

  const CacheStats& l2_stats() const { return l2_.stats(); }
  void reset_stats() { l2_.reset_stats(); dram_lines_ = 0; }
  void invalidate() { l2_.invalidate(); }
  std::uint64_t dram_lines() const { return dram_lines_; }

  /// Cycles of already-queued DRAM fill service still pending at `now`
  /// (0 when the DRAM cursor is idle) — the obs sampler's queue-depth
  /// proxy for the shared fill bandwidth.
  std::int64_t dram_backlog(std::int64_t now) const {
    return dram_next_free_ > now ? dram_next_free_ - now : 0;
  }

 private:
  const arch::MemoryTiming timing_;
  Cache l2_;
  std::int64_t l2_next_free_ = 0;
  std::int64_t dram_next_free_ = 0;
  std::uint64_t dram_lines_ = 0;
};

struct SmStats {
  std::uint64_t warp_insts = 0;
  std::uint64_t mem_insts = 0;
  std::uint64_t mem_requests = 0;  // coalesced line transactions
  std::uint64_t barriers = 0;
  // SIMT lane accounting (see WarpTrace::lane_work): cycles weighted by
  // active lanes for compute, pre-coalescing lane accesses for memory.
  // With the per-warp divergence counters these quantify how much issue
  // bandwidth divergence wastes (simd efficiency = lane_cycles /
  // (32 * busy compute cycles)).
  std::uint64_t lane_cycles = 0;
  std::uint64_t lane_mem_insts = 0;
  simt::DivCounters div;
  // Scheduler-attribution counters (CATT_PROFILE=1; see DESIGN.md). Not
  // part of the cycle-exactness contract — the two engines legitimately
  // differ here.
  std::uint64_t sm_steps = 0;       // step() calls on a due SM
  std::uint64_t warps_scanned = 0;  // scheduler pick candidates examined
  std::uint64_t queue_pops = 0;     // wake-heap pops (0 for the scan-based SmRef)
};

/// The per-SM memory datapath both engines share: LSU issue pipeline, L1D
/// probes/fills, the MSHR ring that caps miss throughput, and the Figure 2
/// request-series hook. Keeping this single-sourced guarantees the
/// engines' per-transaction timing is identical by construction.
class SmDatapath {
 public:
  /// `trace` enables fine-grained miss-lifetime events; pass null unless
  /// the obs trace level is >= 2 so the hot path gates on one pointer.
  SmDatapath(const arch::GpuArch& arch, MemorySystem& memsys, std::size_t l1_bytes,
             SeriesAccum* request_series, const obs::SimTraceCtx* trace = nullptr,
             int sm_index = 0)
      : arch_(arch),
        memsys_(memsys),
        l1_(l1_bytes, arch.line_bytes, arch.l1_assoc, Replacement::kRandom),
        request_series_(request_series),
        trace_(trace),
        sm_index_(sm_index) {
    mshr_ring_.assign(static_cast<std::size_t>(std::max(1, arch.l1_mshrs)), 0);
  }

  /// Executes the kMem trace event `pc` of `t` issued at cycle `now` by
  /// warp `warp` and returns the cycle the warp may proceed. The warp index
  /// only feeds the (optional) scheduling policy's L1 feedback.
  std::int64_t exec_mem(const WarpTrace& t, std::size_t pc, std::int64_t now, int warp = -1);

  /// Optional throttling policy fed by L1D access/eviction events. Null
  /// (the default) means no feedback calls at all on the hot path.
  void set_policy(sched::SchedPolicy* p) { policy_ = p; }

  const CacheStats& l1_stats() const { return l1_.stats(); }

  /// MSHRs whose in-flight miss has not completed by cycle `now` (the obs
  /// sampler's MSHR-occupancy probe; exact between events because
  /// completion times are assigned at issue).
  std::uint64_t mshr_in_flight(std::int64_t now) const {
    std::uint64_t n = 0;
    for (const std::int64_t done : mshr_ring_) n += done > now ? 1 : 0;
    return n;
  }

  SmStats stats;

 private:
  std::int64_t mshr_load(std::uint64_t line, std::int64_t t_issue, int sectors,
                         const Cache::SetHint& hint);

  const arch::GpuArch& arch_;
  MemorySystem& memsys_;
  Cache l1_;
  sched::SchedPolicy* policy_ = nullptr;
  SeriesAccum* request_series_;
  const obs::SimTraceCtx* trace_;
  int sm_index_;
  std::int64_t lsu_next_free_ = 0;
  /// Ring of in-flight miss completion times: a new miss must wait for the
  /// oldest MSHR to retire when all are busy. This caps the SM's miss
  /// throughput at mshrs/latency — the mechanism that makes thrashing
  /// expensive relative to the LSU-bound hit path.
  std::vector<std::int64_t> mshr_ring_;
  std::size_t mshr_next_ = 0;
};

/// Event-driven SM engine (see header comment).
class Sm {
 public:
  static constexpr std::int64_t kNever = std::numeric_limits<std::int64_t>::max();

  Sm(const arch::GpuArch& arch, MemorySystem& memsys, std::size_t l1_bytes, int max_resident_tbs,
     int warps_per_tb, SeriesAccum* request_series = nullptr,
     const obs::SimTraceCtx* trace = nullptr, int sm_index = 0,
     sched::SchedPolicy* policy = nullptr);

  bool has_free_slot() const { return free_slots_ > 0; }

  /// Makes a thread block resident; one trace per warp.
  void admit_tb(std::vector<WarpTrace> traces, std::int64_t now);

  /// Issues up to schedulers_per_sm ready warps at cycle `now`.
  /// Returns the number of warp instructions issued. When nothing issues
  /// and `next_ready` is non-null, it receives the earliest cycle a warp
  /// becomes issuable (kNever if none) — read off the wake heap, so
  /// callers avoid any scan.
  int step(std::int64_t now, std::int64_t* next_ready = nullptr);

  /// Any resident warp not yet done?
  bool busy() const { return active_warps_ > 0; }

  int completed_tbs() const { return completed_tbs_; }
  const CacheStats& l1_stats() const { return path_.l1_stats(); }
  const SmStats& stats() const { return path_.stats; }

  /// Instantaneous obs probes (exact between events; see SmDatapath).
  std::uint64_t mshr_in_flight(std::int64_t now) const { return path_.mshr_in_flight(now); }
  std::uint64_t issuable_warps(std::int64_t now) const;

 private:
  enum class WarpState : std::uint8_t { kReady, kBlocked, kAtBarrier, kDone };

  struct WarpCtx {
    WarpTrace trace;
    std::size_t pc = 0;
    WarpState state = WarpState::kReady;
    std::int64_t ready_at = 0;
    int tb = -1;
  };

  struct TbCtx {
    std::vector<int> warps;
    int live_warps = 0;
    /// Warps currently parked at a __syncthreads(); a TB with any is
    /// exempt from policy vetoes (a throttled warp must still be able to
    /// reach and release the barrier its siblings wait on).
    int at_barrier = 0;
    bool active = false;
  };

  /// Wake-heap entry; stale when the warp's ready_at moved past `at`
  /// (ready_at is strictly increasing per warp, so equality identifies
  /// the newest entry).
  struct WakeEv {
    std::int64_t at;
    int warp;
  };

  bool issuable(const WarpCtx& w, std::int64_t now) const {
    return (w.state == WarpState::kReady || w.state == WarpState::kBlocked) && w.ready_at <= now;
  }
  /// Veto check for an issuable warp: true when no policy is installed,
  /// the warp's TB holds a barrier exemption, or the policy allows it.
  bool policy_allows(const WarpCtx& w, int wi);
  void push_wake(int wi);
  void drain_wake(std::int64_t now);
  std::int64_t wake_min();
  void issue(WarpCtx& w, std::int64_t now);
  void maybe_release_barrier(int tb, std::int64_t now);

  const arch::GpuArch& arch_;
  SmDatapath path_;
  /// Fine trace context (null unless level >= 2); issue() emits per-pick
  /// scheduler events through it.
  const obs::SimTraceCtx* trace_;
  int sm_index_;

  std::vector<WarpCtx> warps_;
  std::vector<TbCtx> tbs_;
  /// Min-heap (by wake-up cycle) of blocked-warp wake-ups; lazily pruned.
  std::vector<WakeEv> wake_;
  /// Min-heap (by warp index == admission order) of warps whose wake-up
  /// already fired: popping yields the oldest ready warp. Entries go stale
  /// when the warp issues through the greedy path; staleness is checked
  /// against the warp's live state on pop, so stale entries are discarded,
  /// never retained.
  std::vector<int> ready_;
  /// Optional throttling policy (null = seamless pre-seam behaviour).
  sched::SchedPolicy* policy_;
  /// Scratch: warps popped off ready_ this step but vetoed by the policy;
  /// re-pushed after the pick loop so the ready cover invariant holds.
  std::vector<int> vetoed_;
  int free_slots_;
  int warps_per_tb_;
  int active_warps_ = 0;
  int completed_tbs_ = 0;
  int greedy_warp_ = -1;
};

}  // namespace catt::sim
