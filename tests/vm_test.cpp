// Golden-trace regression tests for the bytecode warp VM (bytecode.hpp)
// and the homogeneous-warp trace dedup (dedup.hpp): both must reproduce
// the reference tree-walk interpreter's traces bit for bit — same event
// sequence, compute cycles, lane work, site ids, and coalesced
// transactions — for every registered workload kernel.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "frontend/parser.hpp"
#include "gpusim/bytecode.hpp"
#include "gpusim/dedup.hpp"
#include "gpusim/gpu.hpp"
#include "gpusim/interp.hpp"
#include "gpusim/ref_interp.hpp"
#include "workloads/workload.hpp"

namespace catt::sim {
namespace {

constexpr int kLineBytes = 128;  // Titan V line size used by every bench

void expect_traces_equal(const std::vector<WarpTrace>& ref, const std::vector<WarpTrace>& got,
                         const std::string& label) {
  ASSERT_EQ(ref.size(), got.size()) << label;
  for (std::size_t w = 0; w < ref.size(); ++w) {
    const WarpTrace& re = ref[w];
    const WarpTrace& ge = got[w];
    ASSERT_EQ(re.size(), ge.size()) << label << " warp " << w;
    for (std::size_t i = 0; i < re.size(); ++i) {
      const std::string at = label + " warp " + std::to_string(w) + " event " + std::to_string(i);
      ASSERT_EQ(static_cast<int>(re.kind(i)), static_cast<int>(ge.kind(i))) << at;
      ASSERT_EQ(re.cycles(i), ge.cycles(i)) << at;
      ASSERT_EQ(re.lane_work(i), ge.lane_work(i)) << at;
      ASSERT_EQ(re.site(i), ge.site(i)) << at;
      ASSERT_EQ(re.is_store(i), ge.is_store(i)) << at;
      ASSERT_EQ(re.txn_count(i), ge.txn_count(i)) << at;
      for (std::uint32_t t = 0; t < re.txn_count(i); ++t) {
        ASSERT_EQ(re.txn(i, t).line, ge.txn(i, t).line) << at << " txn " << t;
        ASSERT_EQ(re.txn(i, t).sectors, ge.txn(i, t).sectors) << at << " txn " << t;
      }
    }
  }
}

void expect_sites_equal(const std::vector<MemSite>& ref, const std::vector<MemSite>& got,
                        const std::string& label) {
  ASSERT_EQ(ref.size(), got.size()) << label;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(ref[i].array, got[i].array) << label << " site " << i;
    EXPECT_EQ(ref[i].index_text, got[i].index_text) << label << " site " << i;
    EXPECT_EQ(ref[i].is_store, got[i].is_store) << label << " site " << i;
  }
}

/// Blocks worth sampling from a grid: first, middle, last (deduplicated).
std::vector<std::uint64_t> sample_blocks(std::uint64_t num_blocks) {
  std::set<std::uint64_t> s{0, num_blocks / 2, num_blocks - 1};
  return {s.begin(), s.end()};
}

// Every registered workload kernel, bytecode VM vs. tree-walk reference.
// Both interpreters execute the same sampled blocks on their own memory
// image, so functional state stays pairwise identical across the schedule
// even for data-dependent kernels.
TEST(VmGolden, AllWorkloadKernelsTraceIdentical) {
  for (const wl::Workload& w : wl::all_workloads(2)) {
    DeviceMemory mem_ref;
    DeviceMemory mem_vm;
    w.setup(mem_ref);
    w.setup(mem_vm);
    for (std::size_t e = 0; e < w.schedule.size(); ++e) {
      const wl::KernelRun& run = w.schedule[e];
      const ir::Kernel& k = w.kernel(run.kernel);
      const std::string label = w.name + "/" + run.kernel + "#" + std::to_string(e);
      RefKernelInterp ref(k, run.launch, run.params, mem_ref, kLineBytes);
      KernelInterp vm(k, run.launch, run.params, mem_vm, kLineBytes);
      for (std::uint64_t b : sample_blocks(run.launch.num_blocks())) {
        expect_traces_equal(ref.run_block(b), vm.run_block(b),
                            label + " block " + std::to_string(b));
      }
      expect_sites_equal(ref.sites(), vm.sites(), label);
    }
  }
}

// Dedup bit-identity on a pure multi-block kernel: rendered traces must
// equal the reference interpreter's output for every block (block 0
// included), and a second launch under the same key must re-render from
// the cached entry.
TEST(VmDedup, RenderedTracesBitIdenticalAcrossLaunches) {
  const wl::Workload w = wl::make_atax(2);
  const wl::KernelRun& run = w.schedule.front();
  const ir::Kernel& k = w.kernel(run.kernel);
  ASSERT_TRUE(bc::trace_data_independent(k)) << "atax should be trace-pure";

  DeviceMemory mem_ref;
  DeviceMemory mem_vm;
  w.setup(mem_ref);
  w.setup(mem_vm);

  dedup::TraceDedup cache;
  const std::uint64_t key = 0x1234;

  for (int launch = 0; launch < 2; ++launch) {
    const std::string label = run.kernel + " launch " + std::to_string(launch);
    RefKernelInterp ref(k, run.launch, run.params, mem_ref, kLineBytes);
    KernelInterp vm(k, run.launch, run.params, mem_vm, kLineBytes);
    vm.set_functional(false);
    vm.enable_dedup(cache, key);
    for (std::uint64_t b = 0; b < run.launch.num_blocks(); ++b) {
      expect_traces_equal(ref.run_block(b), vm.run_block(b),
                          label + " block " + std::to_string(b));
    }
    expect_sites_equal(ref.sites(), vm.sites(), label);
    EXPECT_GT(vm.warps_rendered(), 0u) << label;
    // Every warp is provably affine, so no warp runs on the VM: the first
    // launch renders its generation block too, and the second re-renders
    // from the cached entry.
    EXPECT_EQ(vm.warps_executed(), 0u) << label;
    EXPECT_EQ(vm.warps_rendered(),
              run.launch.num_blocks() * static_cast<std::uint64_t>(vm.warps_per_block()))
        << label;
  }
}

// CORR's shape on a 2-block grid: the bound `j2 < j1 + K && j2 < M`
// compares j2 (affine in blockIdx.x) against M, and for the upper warps of
// each block that comparison flips between the two blocks before the loop
// ends. Those warps must bail as block-dependent and run on the VM in
// every block (block 0 included); the others render. Traces and the site
// table must match the reference interpreter either way.
TEST(VmDedup, CorrShapedKernelRendersProvenWarpsAndExecutesBailingOnes) {
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
  const ir::Kernel& k = kernels.front();
  ASSERT_TRUE(bc::trace_data_independent(k));
  constexpr int kM = 256;
  constexpr int kN = 2;
  const arch::LaunchConfig launch{arch::Dim3{2}, arch::Dim3{128}};
  const expr::ParamEnv params{{"M", kM}, {"N", kN}, {"K", 64}};
  DeviceMemory mem_ref;
  DeviceMemory mem_vm;
  for (DeviceMemory* mem : {&mem_ref, &mem_vm}) {
    mem->alloc_f32("data", static_cast<std::size_t>(kM) * kN, 1.0f);
    mem->alloc_f32("symmat", static_cast<std::size_t>(kM) * kM, 0.0f);
  }

  dedup::TraceDedup cache;
  const std::uint64_t key = 0xC022;
  RefKernelInterp ref(k, launch, params, mem_ref, kLineBytes);
  KernelInterp vm(k, launch, params, mem_vm, kLineBytes);
  vm.set_functional(false);
  vm.enable_dedup(cache, key);
  ASSERT_EQ(vm.warps_per_block(), 4);

  // Lane j1 (block-local) meets `j2 < M` with a block-dependent answer once
  // j1 + k >= 128 for some k < K = 64: warps 2 and 3 (j1 >= 65) bail.
  for (std::uint64_t b = 0; b < launch.num_blocks(); ++b) {
    expect_traces_equal(ref.run_block(b), vm.run_block(b), "corr_like block " + std::to_string(b));
    EXPECT_EQ(vm.warps_executed(), 2 * (b + 1)) << "block " << b;
    EXPECT_EQ(vm.warps_rendered(), 2 * (b + 1)) << "block " << b;
  }
  expect_sites_equal(ref.sites(), vm.sites(), "corr_like");

  const dedup::DedupEntry& entry = cache.entry(key);
  ASSERT_EQ(entry.warps.size(), 4u);
  for (std::size_t w = 0; w < entry.warps.size(); ++w) {
    const bool bails = w >= 2;
    EXPECT_EQ(entry.warps[w].valid, !bails) << "warp " << w;
    EXPECT_EQ(entry.warps[w].bail,
              bails ? dedup::BailReason::kBlockDependent : dedup::BailReason::kNone)
        << "warp " << w;
  }
  for (int r = 1; r < dedup::kNumBailReasons; ++r) {
    const auto reason = static_cast<dedup::BailReason>(r);
    EXPECT_EQ(vm.bails(reason), reason == dedup::BailReason::kBlockDependent ? 2u : 0u)
        << dedup::bail_reason_name(reason);
  }
}

// Each bail site reports its own reason. One single-warp kernel per
// reason, on a 2-block grid; block 0 is always in bounds, so the VM
// fallback runs cleanly and must still match the reference.
TEST(VmDedup, BailReasonsNameTheFailedProof) {
  struct Case {
    const char* src;
    dedup::BailReason reason;
  };
  const Case cases[] = {
      // Block 1 reads past the end of `a`: not in bounds over the grid.
      {R"(__global__ void k(float *a, float *b) {
             b[threadIdx.x] = a[blockIdx.x * 64 + threadIdx.x];
           })",
       dedup::BailReason::kOutOfBounds},
      // Each lane's address moves by a different amount per block.
      {R"(__global__ void k(float *a, float *b) {
             b[threadIdx.x] = a[blockIdx.x * threadIdx.x];
           })",
       dedup::BailReason::kNonUniformDelta},
      // The branch is taken in block 0 only.
      {R"(__global__ void k(float *a, float *b) {
             if (blockIdx.x == 0) { b[threadIdx.x] = a[threadIdx.x]; }
           })",
       dedup::BailReason::kBlockDependent},
  };
  const arch::LaunchConfig launch{arch::Dim3{2}, arch::Dim3{32}};
  for (const Case& c : cases) {
    const std::vector<ir::Kernel> kernels = frontend::parse_program(c.src);
    const ir::Kernel& k = kernels.front();
    const std::string label = dedup::bail_reason_name(c.reason);
    ASSERT_TRUE(bc::trace_data_independent(k)) << label;
    DeviceMemory mem_ref;
    DeviceMemory mem_vm;
    for (DeviceMemory* mem : {&mem_ref, &mem_vm}) {
      mem->alloc_f32("a", 64, 1.0f);
      mem->alloc_f32("b", 64, 0.0f);
    }
    dedup::TraceDedup cache;
    RefKernelInterp ref(k, launch, {}, mem_ref, kLineBytes);
    KernelInterp vm(k, launch, {}, mem_vm, kLineBytes);
    vm.set_functional(false);
    vm.enable_dedup(cache, 1);
    expect_traces_equal(ref.run_block(0), vm.run_block(0), label);
    expect_sites_equal(ref.sites(), vm.sites(), label);
    EXPECT_EQ(vm.warps_executed(), 1u) << label;
    for (int r = 1; r < dedup::kNumBailReasons; ++r) {
      const auto reason = static_cast<dedup::BailReason>(r);
      EXPECT_EQ(vm.bails(reason), reason == c.reason ? 1u : 0u)
          << label << ": " << dedup::bail_reason_name(reason);
    }
  }
}

// Dedup must decide an integer comparison on the values the VM compares,
// not on the sign of their wrapped difference. threadIdx.x * 2^62 wraps
// to 0, 2^62, -2^63, -2^62 (lanes mod 4); only -2^63 is below -2^62 - 1,
// so 8 lanes take the branch. The wrapped difference 2^62 - (-2^62 - 1)
// is negative, which would also admit the lanes = 1 (mod 4): 16 lanes.
// The first case takes the block-invariant path, the second adds a
// block-dependent offset that keeps every value in int64 (decided over
// the grid box), and in the third block 1's value leaves int64 (the VM
// wraps it), so the warp must bail and run on the VM.
TEST(VmDedup, IntCompareUsesExactValuesNotWrappedDifference) {
  const std::int64_t x = std::int64_t{1} << 62;
  struct Case {
    const char* cond;
    std::int64_t X, Y;
    std::uint32_t lanes;  // lane accesses per memory event, block 0
    bool renders;
  };
  const Case cases[] = {
      {"threadIdx.x * X < Y", x, -x - 1, 8, true},
      {"blockIdx.x * 32 + threadIdx.x * X < Y", x, -x - 1, 8, true},
      {"blockIdx.x * X + threadIdx.x + 10 > Y", std::numeric_limits<std::int64_t>::max() - 7, 5,
       32, false},
  };
  const arch::LaunchConfig launch{arch::Dim3{2}, arch::Dim3{32}};
  for (const Case& c : cases) {
    const std::vector<ir::Kernel> kernels = frontend::parse_program(
        std::string("__global__ void k(float *a, float *b, int X, int Y) { if (") + c.cond +
        ") { b[threadIdx.x] = a[threadIdx.x]; } }");
    const ir::Kernel& k = kernels.front();
    ASSERT_TRUE(bc::trace_data_independent(k)) << c.cond;
    const expr::ParamEnv params{{"X", c.X}, {"Y", c.Y}};
    DeviceMemory mem_ref;
    DeviceMemory mem_vm;
    for (DeviceMemory* mem : {&mem_ref, &mem_vm}) {
      mem->alloc_f32("a", 32, 1.0f);
      mem->alloc_f32("b", 32, 0.0f);
    }
    dedup::TraceDedup cache;
    RefKernelInterp ref(k, launch, params, mem_ref, kLineBytes);
    KernelInterp vm(k, launch, params, mem_vm, kLineBytes);
    vm.set_functional(false);
    vm.enable_dedup(cache, 1);
    for (std::uint64_t b = 0; b < launch.num_blocks(); ++b) {
      const std::vector<WarpTrace> want = ref.run_block(b);
      if (b == 0) {
        int mem_events = 0;
        for (std::size_t i = 0; i < want[0].size(); ++i) {
          if (want[0].kind(i) != EventKind::kMem) continue;
          EXPECT_EQ(want[0].lane_work(i), c.lanes) << c.cond << " event " << i;
          ++mem_events;
        }
        EXPECT_EQ(mem_events, 2) << c.cond;
      }
      expect_traces_equal(want, vm.run_block(b), std::string(c.cond) + " block " + std::to_string(b));
    }
    EXPECT_EQ(vm.warps_rendered(), c.renders ? 2u : 0u) << c.cond;
    EXPECT_EQ(vm.bails(dedup::BailReason::kBlockDependent), c.renders ? 0u : 1u) << c.cond;
  }
}

// Every address encoding dedup stores must render each block exactly as
// the reference interpreter runs it. `stride` is the expected encoding of
// warp 0's first memory event (the load): a lane-progression stride in
// bytes, or kAddrStore for explicit addresses.
TEST(VmDedup, RenderEncodingsMatchReference) {
  constexpr std::uint64_t kAddrStore = ~std::uint64_t{0};
  struct Case {
    const char* name;
    const char* body;
    unsigned block;
    std::uint64_t stride;
  };
  const Case cases[] = {
      {"contiguous row", "b[blockIdx.x * 32 + threadIdx.x] = a[blockIdx.x * 32 + threadIdx.x];",
       32, 4},
      {"broadcast", "b[blockIdx.x * 32 + threadIdx.x] = a[blockIdx.x];", 32, 0},
      {"column", "b[threadIdx.x * 16 + blockIdx.x] = a[threadIdx.x * 16 + blockIdx.x];", 32, 64},
      {"descending", "b[blockIdx.x * 32 + threadIdx.x] = a[63 - threadIdx.x];", 32, 4},
      {"partial warp", "b[blockIdx.x * 48 + threadIdx.x] = a[blockIdx.x * 48 + threadIdx.x];", 48,
       4},
      {"divergent",
       "if (threadIdx.x % 3 == 0) {"
       "  b[blockIdx.x * 32 + threadIdx.x] = a[blockIdx.x + threadIdx.x * threadIdx.x];"
       "}",
       32, kAddrStore},
      {"unaligned delta", "b[blockIdx.x * 3 + threadIdx.x] = a[blockIdx.x * 5 + threadIdx.x];", 32,
       4},
      // Block-invariant and block-dependent operands meet in add, sub,
      // mul, min, compares and a loop stepped from a block-dependent start.
      {"mixed int expression",
       "int t = threadIdx.x * 2 + 1;"
       "int i = blockIdx.x * 64 + t;"
       "int c = i - blockIdx.x * 64;"
       "if (i < 1000 && c == t) {"
       "  for (int j = i; j < i + 2 * c - t; j += t) {"
       "    b[min(j, blockIdx.x * 64 + 70) * 2 - i] = a[(i - t) * 3 + c];"
       "  }"
       "}",
       32, 8},
  };
  const arch::Dim3 grid{4};
  for (const Case& c : cases) {
    const std::string src =
        std::string("__global__ void k(float *a, float *b) {") + c.body + "}";
    const std::vector<ir::Kernel> kernels = frontend::parse_program(src);
    const ir::Kernel& k = kernels.front();
    const arch::LaunchConfig launch{grid, arch::Dim3{c.block}};
    ASSERT_TRUE(bc::trace_data_independent(k)) << c.name;
    DeviceMemory mem_ref;
    DeviceMemory mem_vm;
    for (DeviceMemory* mem : {&mem_ref, &mem_vm}) {
      mem->alloc_f32("a", 1024, 1.0f);
      mem->alloc_f32("b", 1024, 0.0f);
    }
    dedup::TraceDedup cache;
    RefKernelInterp ref(k, launch, {}, mem_ref, kLineBytes);
    KernelInterp vm(k, launch, {}, mem_vm, kLineBytes);
    vm.set_functional(false);
    vm.enable_dedup(cache, 1);
    for (std::uint64_t b = 0; b < launch.num_blocks(); ++b) {
      expect_traces_equal(ref.run_block(b), vm.run_block(b),
                          std::string(c.name) + " block " + std::to_string(b));
    }
    expect_sites_equal(ref.sites(), vm.sites(), c.name);
    EXPECT_EQ(vm.warps_executed(), 0u) << c.name;

    const dedup::ParamWarpTrace& pt = cache.entry(1).warps.front();
    const auto first_mem = std::find_if(pt.events.begin(), pt.events.end(),
                                        [](const dedup::ParamEvent& e) {
                                          return e.kind == EventKind::kMem && e.lanes > 0;
                                        });
    ASSERT_NE(first_mem, pt.events.end()) << c.name;
    EXPECT_EQ(first_mem->progression ? first_mem->stride : kAddrStore, c.stride) << c.name;
  }
}

/// What one dedup-on interpreter did over a sampled set of blocks.
struct ViewCounts {
  std::uint64_t rendered = 0;
  std::uint64_t executed = 0;
  std::uint64_t patch_events = 0;
  std::uint64_t mem_events = 0;  // in the rendered warps' traces
};

/// Renders kernel `src` (float arrays `arrays`, each `floats` long) as
/// dedup views and checks them two ways: traces and site table against
/// RefKernelInterp over sampled blocks, and a whole-launch KernelStats on a
/// 2-SM Titan V against the same launch with dedup off.
ViewCounts check_views(const char* src, const arch::LaunchConfig& launch,
                       const expr::ParamEnv& params, const std::vector<const char*>& arrays,
                       std::size_t floats) {
  const std::vector<ir::Kernel> kernels = frontend::parse_program(src);
  const ir::Kernel& k = kernels.front();
  EXPECT_TRUE(bc::trace_data_independent(k));
  auto setup = [&](DeviceMemory& mem) {
    for (const char* name : arrays) mem.alloc_f32(name, floats, 1.0f);
  };
  DeviceMemory mem_ref;
  DeviceMemory mem_vm;
  setup(mem_ref);
  setup(mem_vm);
  dedup::TraceDedup cache;
  RefKernelInterp ref(k, launch, params, mem_ref, kLineBytes);
  KernelInterp vm(k, launch, params, mem_vm, kLineBytes);
  vm.set_functional(false);
  vm.enable_dedup(cache, 1);
  ViewCounts out;
  for (std::uint64_t b : sample_blocks(launch.num_blocks())) {
    const std::vector<WarpTrace> got = vm.run_block(b);
    expect_traces_equal(ref.run_block(b), got, k.name + " block " + std::to_string(b));
    for (const WarpTrace& t : got) {
      for (std::size_t i = 0; i < t.size(); ++i) out.mem_events += t.kind(i) == EventKind::kMem;
    }
  }
  expect_sites_equal(ref.sites(), vm.sites(), k.name);
  out.rendered = vm.warps_rendered();
  out.executed = vm.warps_executed();
  out.patch_events = vm.patch_events();

  const LaunchSpec spec{&k, launch, params};
  SimOptions on;
  on.skip_functional = true;
  on.trace_key = 1;
  on.collect_request_trace = true;
  SimOptions off;
  off.collect_request_trace = true;
  DeviceMemory mem_on;
  DeviceMemory mem_off;
  setup(mem_on);
  setup(mem_off);
  Gpu gpu_on(arch::GpuArch::titan_v(2), mem_on);
  Gpu gpu_off(arch::GpuArch::titan_v(2), mem_off);
  const KernelStats a = gpu_on.run(spec, on);
  const KernelStats b = gpu_off.run(spec, off);
  EXPECT_EQ(a.cycles, b.cycles) << k.name;
  EXPECT_EQ(a.l1.accesses, b.l1.accesses) << k.name;
  EXPECT_EQ(a.l1.hits, b.l1.hits) << k.name;
  EXPECT_EQ(a.l1.store_accesses, b.l1.store_accesses) << k.name;
  EXPECT_EQ(a.l2.accesses, b.l2.accesses) << k.name;
  EXPECT_EQ(a.l2.hits, b.l2.hits) << k.name;
  EXPECT_EQ(a.dram_lines, b.dram_lines) << k.name;
  EXPECT_EQ(a.warp_insts, b.warp_insts) << k.name;
  EXPECT_EQ(a.mem_requests, b.mem_requests) << k.name;
  EXPECT_EQ(a.lane_mem_insts, b.lane_mem_insts) << k.name;
  EXPECT_EQ(a.request_trace.size(), b.request_trace.size()) << k.name;
  for (std::size_t i = 0; i < std::min(a.request_trace.size(), b.request_trace.size()); ++i) {
    EXPECT_EQ(a.request_trace[i].mean, b.request_trace[i].mean) << k.name << " point " << i;
  }
  return out;
}

// A 64 B shift per block is half a line: every memory event is a patch
// event, re-rendered per block, and none reads template rows.
TEST(VmDedup, HalfLineBlockShiftRendersEveryEventAsPatch) {
  const ViewCounts c = check_views(R"(
__global__ void half_line(float *a, float *b) {
    b[blockIdx.x * 16 + threadIdx.x] = a[blockIdx.x * 16 + threadIdx.x] * 2.0f;
})",
                                   {arch::Dim3{8}, arch::Dim3{64}}, {}, {"a", "b"}, 1024);
  EXPECT_EQ(c.executed, 0u);
  EXPECT_GT(c.rendered, 0u);
  EXPECT_EQ(c.patch_events, c.mem_events);
  EXPECT_EQ(c.patch_events, 2 * c.rendered);
}

// syr2k's shape: 16x16 blocks, A and B rows shift by whole lines per
// block, while C moves 64 B per blockIdx.x. Each warp mixes template
// events (the k loop) with two patch events (the C load and store).
TEST(VmDedup, Syr2kShapedWarpMixesTemplateAndPatchEvents) {
  const ViewCounts c = check_views(R"(
__global__ void syr2k_like(float *A, float *B, float *C, int N, int M) {
    int j = blockIdx.x * 16 + threadIdx.x;
    int i = blockIdx.y * 16 + threadIdx.y;
    float acc = C[i * N + j];
    for (int k = 0; k < M; k++) {
        acc += A[i * M + k] * B[j * M + k] + B[i * M + k] * A[j * M + k];
    }
    C[i * N + j] = acc;
})",
                                   {arch::Dim3{4, 4}, arch::Dim3{16, 16}},
                                   {{"N", 64}, {"M", 8}}, {"A", "B", "C"}, 64 * 64);
  EXPECT_EQ(c.executed, 0u);
  EXPECT_EQ(c.patch_events, 2 * c.rendered);
  EXPECT_GT(c.mem_events, c.patch_events);
}

// Blocks walk the arrays backwards: `a` moves -128 B per block (a negative
// whole-line delta, added with unsigned wrap), `b` -64 B (a negative patch).
TEST(VmDedup, NegativeBlockDeltaRendersBackwards) {
  const ViewCounts c = check_views(R"(
__global__ void reversed(float *a, float *b) {
    int r = gridDim.x - 1 - blockIdx.x;
    b[r * 16 + threadIdx.x] = a[r * 32 + threadIdx.x];
})",
                                   {arch::Dim3{6}, arch::Dim3{32}}, {}, {"a", "b"}, 1024);
  EXPECT_EQ(c.executed, 0u);
  EXPECT_EQ(c.patch_events, c.rendered);
  EXPECT_GT(c.mem_events, c.patch_events);
}

// A 3-D grid: `a` shifts by whole lines along x, y and z; `b` by a
// non-line multiple along z only, so it is a patch event.
TEST(VmDedup, ThreeDimensionalGridShiftsAlongZ) {
  const ViewCounts c = check_views(R"(
__global__ void grid3d(float *a, float *b) {
    int x = blockIdx.x * 32 + threadIdx.x;
    b[blockIdx.z * 48 + blockIdx.y * 64 + x] =
        a[blockIdx.z * 512 + blockIdx.y * 128 + x];
})",
                                   {arch::Dim3{2, 2, 3}, arch::Dim3{32}}, {}, {"a", "b"}, 2048);
  EXPECT_EQ(c.executed, 0u);
  EXPECT_EQ(c.patch_events, c.rendered);
  EXPECT_GT(c.mem_events, c.patch_events);
}

TEST(VmPurity, AtaxIsTracePureBfsIsNot) {
  const wl::Workload atax = wl::make_atax(2);
  for (const ir::Kernel& k : atax.kernels) {
    EXPECT_TRUE(bc::trace_data_independent(k)) << k.name;
  }
  // BFS consumes loaded frontier/edge values in branches and indexes.
  const wl::Workload bfs = wl::make_bfs(2);
  bool any_impure = false;
  for (const ir::Kernel& k : bfs.kernels) {
    any_impure = any_impure || !bc::trace_data_independent(k);
  }
  EXPECT_TRUE(any_impure);
}

}  // namespace
}  // namespace catt::sim
