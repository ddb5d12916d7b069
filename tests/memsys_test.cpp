// Unit pins for the shared MemorySystem (L2 + DRAM bandwidth cursors) and
// the SmDatapath MSHR ring: L2 service-interval serialization, sectored
// DRAM fill cost, and miss stall when every MSHR is in flight.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "gpusim/sm.hpp"

namespace catt::sim {
namespace {

/// Round-number timing so the pinned arithmetic below is readable.
arch::GpuArch test_arch() {
  arch::GpuArch a = arch::GpuArch::titan_v(1);
  a.timing.l1_hit_latency = 10;
  a.timing.l2_hit_latency = 100;
  a.timing.dram_latency = 400;
  a.timing.lsu_issue_interval = 1;
  a.timing.l2_service_interval = 4;
  a.timing.dram_sector_interval = 3;
  return a;
}

/// Timing with the L2 pipeline zeroed out, so the DRAM bandwidth cursor
/// is the only serializer and sector costs pin cleanly.
arch::GpuArch dram_only_arch() {
  arch::GpuArch a = test_arch();
  a.timing.l2_hit_latency = 0;
  a.timing.l2_service_interval = 0;
  return a;
}

TEST(MemorySystem, L2ServiceIntervalSerializesRequests) {
  const arch::GpuArch a = test_arch();
  MemorySystem ms(a);
  // Both requests arrive at t=0; the L2 services one every 4 cycles, so
  // the second is observed at t=4. Both miss a cold L2; single-sector
  // fills (3 cycles of DRAM each) keep the DRAM cursor out of the way, so
  // the +4 below is purely the L2 service interval.
  EXPECT_EQ(ms.load(/*line=*/1, /*t=*/0, /*sectors=*/1), 0 + 100 + 400);
  EXPECT_EQ(ms.load(/*line=*/2, /*t=*/0, /*sectors=*/1), 4 + 100 + 400);
  // A re-access of line 1 at t=8 hits the in-flight fill: it completes no
  // earlier than the fill (t=500), plus the L2 hit latency for the lookup.
  EXPECT_EQ(ms.load(/*line=*/1, /*t=*/8, /*sectors=*/1), 500 + 100);
  EXPECT_EQ(ms.l2_stats().accesses, 3u);
  EXPECT_EQ(ms.l2_stats().hits, 1u);
  EXPECT_EQ(ms.l2_stats().misses, 2u);
  EXPECT_EQ(ms.dram_lines(), 2u);
}

TEST(MemorySystem, SectoredFillChargesDramPerSector) {
  const arch::GpuArch a = dram_only_arch();
  // Full 4-sector line: the first fill occupies DRAM for 4*3 cycles, so
  // the second miss's fill starts at 12.
  {
    MemorySystem ms(a);
    EXPECT_EQ(ms.load(1, 0, /*sectors=*/4), 0 + 400);
    EXPECT_EQ(ms.load(2, 0, /*sectors=*/4), 12 + 400);
  }
  // Single-sector (fully divergent) fills occupy DRAM for only 3 cycles:
  // a quarter of the bandwidth per line, as on Volta.
  {
    MemorySystem ms(a);
    EXPECT_EQ(ms.load(1, 0, /*sectors=*/1), 0 + 400);
    EXPECT_EQ(ms.load(2, 0, /*sectors=*/1), 3 + 400);
  }
}

TEST(MemorySystem, StoreMissConsumesDramBandwidth) {
  const arch::GpuArch a = dram_only_arch();
  MemorySystem ms(a);
  ms.store(/*line=*/7, /*t=*/0, /*sectors=*/4);  // cold L2: write-through to DRAM
  EXPECT_EQ(ms.dram_lines(), 1u);
  // The load miss's fill must wait out the store's 12 cycles of DRAM time.
  EXPECT_EQ(ms.load(1, 0, /*sectors=*/4), 12 + 400);
}

/// Builds a single-warp trace with one `n_lines`-transaction load.
WarpTrace divergent_load(int n_lines) {
  WarpTrace t;
  t.begin_mem(/*site=*/0, /*is_store=*/false, /*lanes=*/32);
  for (int i = 0; i < n_lines; ++i) {
    // Distinct lines far apart so every probe misses a small L1.
    t.mem_sector(static_cast<std::uint64_t>(i) * 1000);
  }
  t.push_end();
  return t;
}

TEST(SmDatapath, MshrExhaustionStallsMisses) {
  arch::GpuArch few = test_arch();
  few.l1_mshrs = 2;
  arch::GpuArch many = test_arch();
  many.l1_mshrs = 256;

  const WarpTrace trace = divergent_load(32);

  MemorySystem ms_few(few);
  SmDatapath dp_few(few, ms_few, /*l1_bytes=*/4096, nullptr);
  const std::int64_t done_few = dp_few.exec_mem(trace, /*pc=*/0, /*now=*/0);

  MemorySystem ms_many(many);
  SmDatapath dp_many(many, ms_many, /*l1_bytes=*/4096, nullptr);
  const std::int64_t done_many = dp_many.exec_mem(trace, /*pc=*/0, /*now=*/0);

  EXPECT_EQ(dp_few.l1_stats().misses, 32u);
  EXPECT_EQ(dp_many.l1_stats().misses, 32u);
  // With 2 MSHRs the 3rd..32nd misses each wait for an earlier fill to
  // retire before they can even reach the L2; with 256 MSHRs the misses
  // pipeline behind the LSU/L2/DRAM cursors only.
  EXPECT_GT(done_few, done_many);
  // Lower bound: the last miss waits for the 30th-previous completion,
  // which itself includes a full DRAM round trip.
  EXPECT_GT(done_few, done_many + few.timing.dram_latency);
}

TEST(SmDatapath, SingleTxnFastPathMatchesGeneralPath) {
  // The 1-transaction fully-coalesced load takes an inlined fast path;
  // running the same access as the first transaction of a 2-transaction
  // instruction goes through the general loop. Same line, same cold
  // caches => identical completion time for that line's fill.
  const arch::GpuArch a = test_arch();

  WarpTrace single;
  single.begin_mem(0, false, /*lanes=*/32);
  single.mem_sector(42);
  single.push_end();

  MemorySystem ms1(a);
  SmDatapath dp1(a, ms1, 4096, nullptr);
  const std::int64_t t_fast = dp1.exec_mem(single, 0, /*now=*/0);

  MemorySystem ms2(a);
  SmDatapath dp2(a, ms2, 4096, nullptr);
  const std::int64_t t_general = dp2.exec_mem(divergent_load(1), 0, /*now=*/0);

  EXPECT_EQ(t_fast, t_general);
  EXPECT_EQ(dp1.l1_stats().accesses, 1u);
  EXPECT_EQ(dp1.l1_stats().misses, 1u);
  EXPECT_EQ(dp1.stats.mem_insts, 1u);
  EXPECT_EQ(dp1.stats.mem_requests, 1u);
}

TEST(SmDatapath, MshrInFlightMatchesDirectCompletionCount) {
  // Eight divergent single-sector misses through the DRAM-only machine:
  // miss i issues at cycle i (LSU interval 1), reaches the L2 at i + 10
  // (L1 hit latency), and its fill starts when the DRAM cursor frees up
  // (10 + 3i) — so completion_i = 10 + 3i + 400. The datapath's
  // mshr_in_flight(t) probe must equal the directly counted number of
  // completions still in the future at every cycle.
  const arch::GpuArch a = dram_only_arch();
  MemorySystem ms(a);
  SmDatapath dp(a, ms, /*l1_bytes=*/4096, nullptr);
  const std::int64_t done = dp.exec_mem(divergent_load(8), /*pc=*/0, /*now=*/0);

  std::vector<std::int64_t> completions;
  for (int i = 0; i < 8; ++i) completions.push_back(410 + 3 * i);
  EXPECT_EQ(done, completions.back());

  for (std::int64_t t = 0; t <= completions.back() + 5; ++t) {
    std::uint64_t expect = 0;
    for (const std::int64_t c : completions) expect += c > t ? 1 : 0;
    ASSERT_EQ(dp.mshr_in_flight(t), expect) << "at cycle " << t;
  }
  EXPECT_EQ(dp.mshr_in_flight(409), 8u);
  EXPECT_EQ(dp.mshr_in_flight(410), 7u);   // oldest fill retires at 410
  EXPECT_EQ(dp.mshr_in_flight(431), 0u);
}

// A dedup view (block-0 template rows plus a per-block line offset, and
// re-rendered rows for patch events) must replay exactly like the same
// trace with every row written out. Block (3,4,2) shifts the multi-line
// load by 5*3 - 2*4 = 7 lines (a negative y delta, added with unsigned
// wrap), the single-transaction load (fast path) by 4 and the store by
// 7*3 + 3*2 = 27. The patch event reads lines the shifted loads filled,
// so it hits in L1 only if those were translated.
TEST(SmDatapath, ViewReplaysLikeMaterializedTrace) {
  const arch::GpuArch a = test_arch();
  WarpTrace templ(std::make_shared<TxnPool>());
  templ.make_template();
  templ.begin_mem(0, false, 32);
  templ.shift_mem({5, -2, 0, -1});
  for (const std::uint64_t line : {100, 100, 101, 102}) templ.mem_sector(line);
  templ.push_compute_raw(4, 128);
  templ.begin_mem(1, false, 32);
  templ.shift_mem({0, 1, 0, -1});
  templ.mem_sector(300);
  templ.begin_mem(2, true, 32);
  templ.shift_mem({7, 0, 3, -1});
  templ.mem_sector(500);
  templ.mem_sector(501);
  templ.begin_mem(3, false, 32);
  templ.shift_mem({0, 0, 0, /*patch=*/0});
  templ.push_end();
  auto patches = std::make_shared<PatchSpans>();
  patches->pool = std::make_shared<TxnPool>(TxnPool{{107, 1}, {304, 2}});
  patches->begin = {0, 2};
  const WarpTrace view = templ.view(3, 4, 2, patches);

  WarpTrace flat;
  flat.begin_mem(0, false, 32);
  for (const std::uint64_t line : {107, 107, 108, 109}) flat.mem_sector(line);
  flat.push_compute_raw(4, 128);
  flat.begin_mem(1, false, 32);
  flat.mem_sector(304);
  flat.begin_mem(2, true, 32);
  flat.mem_sector(527);
  flat.mem_sector(528);
  flat.begin_mem(3, false, 32);
  flat.mem_sector(107);
  flat.mem_sector(304);
  flat.mem_sector(304);
  flat.push_end();

  ASSERT_EQ(view.size(), flat.size());
  for (std::size_t i = 0; i < flat.size(); ++i) {
    ASSERT_EQ(view.txn_count(i), flat.txn_count(i)) << "event " << i;
    for (std::uint32_t k = 0; k < flat.txn_count(i); ++k) {
      EXPECT_EQ(view.txn(i, k).line, flat.txn(i, k).line) << "event " << i << " txn " << k;
      EXPECT_EQ(view.txn(i, k).sectors, flat.txn(i, k).sectors) << "event " << i << " txn " << k;
    }
  }

  MemorySystem ms_view(a);
  MemorySystem ms_flat(a);
  SmDatapath dp_view(a, ms_view, 4096, nullptr);
  SmDatapath dp_flat(a, ms_flat, 4096, nullptr);
  std::int64_t now_view = 0;
  std::int64_t now_flat = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (const std::size_t pc : {0, 2, 3, 4}) {
      now_view = dp_view.exec_mem(view, pc, now_view);
      now_flat = dp_flat.exec_mem(flat, pc, now_flat);
      ASSERT_EQ(now_view, now_flat) << "pass " << pass << " event " << pc;
    }
  }
  EXPECT_EQ(dp_view.l1_stats().accesses, dp_flat.l1_stats().accesses);
  EXPECT_EQ(dp_view.l1_stats().hits, dp_flat.l1_stats().hits);
  EXPECT_EQ(dp_view.l1_stats().misses, dp_flat.l1_stats().misses);
  EXPECT_EQ(dp_view.l1_stats().store_accesses, dp_flat.l1_stats().store_accesses);
  EXPECT_EQ(dp_view.stats.mem_requests, dp_flat.stats.mem_requests);
  EXPECT_EQ(ms_view.dram_lines(), ms_flat.dram_lines());
  EXPECT_EQ(ms_view.l2_stats().accesses, ms_flat.l2_stats().accesses);
  // First pass: the patch event's two lines hit (filled by events 0 and
  // 2); the second pass hits on every load line.
  EXPECT_EQ(dp_flat.l1_stats().hits, 2u + 6u);
}

}  // namespace
}  // namespace catt::sim

// Appended: obs interval-sampler cross-checks — the per-interval series
// and MSHR-occupancy histogram must agree with the directly counted
// KernelStats of the same launch.
#include "frontend/parser.hpp"
#include "gpusim/gpu.hpp"
#include "obs/obs.hpp"

namespace catt::sim {
namespace {

TEST(Gpu, IntervalSeriesMatchesKernelStats) {
  // A thrashing micro-kernel (working set >> L1D) so every rate the
  // sampler reports is non-trivial: L1 misses, L2 traffic, DRAM fills.
  const ir::Kernel k = frontend::parse_kernel(R"(
//@regs=16
__global__ void thrash(float *data, float *out, int N) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    float acc = 0.0f;
    for (int j = 0; j < 50; j++) {
        acc += data[i * 64];
    }
    out[i] = acc;
}
)");
  DeviceMemory mem;
  mem.alloc_f32("data", 2048u * 64u, 1.0f);
  mem.alloc_f32("out", 2048, 0.0f);
  Gpu gpu(arch::GpuArch::titan_v(2), mem);

  obs::Registry reg;
  std::vector<obs::LaunchSeries> collected;
  obs::SimObs ob;
  ob.metrics_interval = 512;
  ob.registry = &reg;
  ob.on_series = [&](const obs::LaunchSeries& s) { collected.push_back(s); };
  SimOptions opts;
  opts.obs = &ob;

  const KernelStats stats = gpu.run({&k, {{8}, {256}}, {{"N", 2048}}}, opts);

  ASSERT_EQ(collected.size(), 1u);
  const obs::LaunchSeries& series = collected[0];
  EXPECT_EQ(series.kernel, "thrash");
  EXPECT_EQ(series.interval, 512);
  ASSERT_GE(series.samples.size(), 3u) << "launch too short to sample";

  // Cumulative counters are non-decreasing at strictly increasing
  // interval boundaries, and the final sample — taken at the launch's
  // last cycle — must equal the directly counted KernelStats exactly.
  for (std::size_t i = 1; i < series.samples.size(); ++i) {
    const obs::IntervalSample& prev = series.samples[i - 1];
    const obs::IntervalSample& cur = series.samples[i];
    EXPECT_GT(cur.cycle, prev.cycle);
    EXPECT_GE(cur.warp_insts, prev.warp_insts);
    EXPECT_GE(cur.l1_accesses, prev.l1_accesses);
    EXPECT_GE(cur.l1_hits, prev.l1_hits);
    EXPECT_GE(cur.l2_accesses, prev.l2_accesses);
    EXPECT_GE(cur.l2_hits, prev.l2_hits);
    EXPECT_GE(cur.dram_lines, prev.dram_lines);
    if (i + 1 < series.samples.size()) {
      EXPECT_EQ(cur.cycle, static_cast<std::int64_t>(i + 1) * 512);
    }
  }
  const obs::IntervalSample& last = series.samples.back();
  EXPECT_EQ(last.cycle, stats.cycles);
  EXPECT_EQ(last.warp_insts, stats.warp_insts);
  EXPECT_EQ(last.l1_accesses, stats.l1.accesses);
  EXPECT_EQ(last.l1_hits, stats.l1.hits);
  EXPECT_EQ(last.l2_accesses, stats.l2.accesses);
  EXPECT_EQ(last.l2_hits, stats.l2.hits);
  EXPECT_EQ(last.dram_lines, stats.dram_lines);
  // At the final cycle every warp has retired: nothing in flight.
  EXPECT_EQ(last.mshr_in_flight, 0u);
  EXPECT_EQ(last.ready_warps, 0u);

  // The MSHR-occupancy histogram is fed one observation per sample;
  // re-bucket the series directly and require an exact match.
  const obs::Registry::Snapshot snap = reg.scrape();
  const obs::Registry::HistogramValue* hv = snap.histogram("sim.mshr_occupancy");
  ASSERT_NE(hv, nullptr);
  EXPECT_EQ(hv->count, series.samples.size());
  std::uint64_t sum = 0;
  std::vector<std::uint64_t> buckets(hv->bounds.size() + 1, 0);
  for (const obs::IntervalSample& s : series.samples) {
    sum += s.mshr_in_flight;
    std::size_t b = hv->bounds.size();
    for (std::size_t j = 0; j < hv->bounds.size(); ++j) {
      if (s.mshr_in_flight <= hv->bounds[j]) {
        b = j;
        break;
      }
    }
    ++buckets[b];
  }
  EXPECT_EQ(hv->sum, sum);
  EXPECT_EQ(hv->buckets, buckets);
}

}  // namespace
}  // namespace catt::sim
// Same-cycle multi-SM probe storms on an adversarial machine — four SMs,
// two MSHRs each, a near-degenerate L2 pipeline: homogeneous blocks issue
// their loads at identical cycles on every SM, fills are shared across
// SMs, and the tiny MSHR ring keeps warps stalling on busy slots. The
// event engine's calendar order must reproduce the stepped reference's
// ascending-SM memory-system call order exactly, so cycles and every
// cache, DRAM and instruction count are pinned equal.
namespace catt::sim {
namespace {

TEST(ParallelMerge, ProbeStormMatchesSerialAtAllThreadCounts) {
  // Divergent stride (i * 16 floats = one line per lane) so each memory
  // instruction fans out to many lines and exhausts the 2-slot MSHR ring;
  // a shared vector (data[j]) so the same lines are in flight on all SMs
  // at once and L2 arrival order decides hit-vs-miss.
  const ir::Kernel k = frontend::parse_kernel(R"(
//@regs=16
__global__ void storm(float *data, float *shared_v, float *out, int N) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    float acc = 0.0f;
    for (int j = 0; j < 24; j++) {
        acc += data[i * 16 + j];
        acc += shared_v[j * 16];
    }
    out[i] = acc;
}
)");
  arch::GpuArch storm_arch = arch::GpuArch::titan_v(4);
  storm_arch.l1_mshrs = 2;               // stall-on-full is the common case
  storm_arch.timing.l2_service_interval = 7;  // cross-SM arrivals contend hard

  const arch::LaunchConfig launch{{16}, {64}};
  const expr::ParamEnv params{{"N", 1024}};

  auto run = [&](bool stepped) {
    DeviceMemory mem;
    mem.alloc_f32("data", 1024u * 16u + 32u, 1.0f);
    mem.alloc_f32("shared_v", 24u * 16u, 2.0f);
    mem.alloc_f32("out", 1024, 0.0f);
    Gpu gpu(storm_arch, mem);
    SimOptions opts;
    opts.use_stepped_reference = stepped;
    return gpu.run({&k, launch, params}, opts);
  };

  const KernelStats ev = run(false);
  const KernelStats ref = run(true);
  EXPECT_GT(ev.l1.misses, 0u);
  EXPECT_GT(ev.l2.hits, 0u);  // cross-SM reuse actually happened

  EXPECT_EQ(ev.cycles, ref.cycles);
  EXPECT_EQ(ev.l1.accesses, ref.l1.accesses);
  EXPECT_EQ(ev.l1.hits, ref.l1.hits);
  EXPECT_EQ(ev.l1.misses, ref.l1.misses);
  EXPECT_EQ(ev.l1.store_accesses, ref.l1.store_accesses);
  EXPECT_EQ(ev.l2.accesses, ref.l2.accesses);
  EXPECT_EQ(ev.l2.hits, ref.l2.hits);
  EXPECT_EQ(ev.l2.misses, ref.l2.misses);
  EXPECT_EQ(ev.dram_lines, ref.dram_lines);
  EXPECT_EQ(ev.warp_insts, ref.warp_insts);
  EXPECT_EQ(ev.mem_insts, ref.mem_insts);
  EXPECT_EQ(ev.mem_requests, ref.mem_requests);
}

}  // namespace
}  // namespace catt::sim
