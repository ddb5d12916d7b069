// Differential fuzzing of the execution stack on randomly generated
// mini-CUDA affine kernels: every generated kernel is cross-checked three
// ways — bytecode VM vs. the tree-walk RefKernelInterp (traces and final
// functional memory), trace dedup on vs. off (for trace-pure kernels), and
// the event-driven engine vs. the cycle-stepped SmRef (KernelStats, on
// 1- and 2-SM machines). The generator covers ragged guards, nested
// loops, data-dependent indexing and value-dependent branches (which make
// kernels trace-impure), in-loop stores, and partial warps.
//
// A second stage fuzzes SIMT divergence: kernels whose control flow
// branches on loaded values (data-dependent while trip counts, if/else
// splits, early exits, a[b[i]] indirection), cross-checked through the
// same oracles plus the per-lane counters (WarpTrace lane_work and
// DivCounters) that the reconvergence stack produces.
//
// Deterministic by construction: the master seed is fixed (override with
// CATT_FUZZ_SEED) and every kernel's own seed + source is printed via
// SCOPED_TRACE together with a one-line repro command, so a failure
// reproduces with CATT_FUZZ_SEED=<seed> CATT_FUZZ_KERNELS=1.
// CATT_FUZZ_KERNELS overrides the kernel count (e.g. for sanitizer runs).
// Generation is table-driven: each stage owns a feature table (name +
// 1-in-denom fire rate) and the drawn feature set is part of the trace.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "frontend/parser.hpp"
#include "gpusim/bytecode.hpp"
#include "gpusim/dedup.hpp"
#include "gpusim/gpu.hpp"
#include "gpusim/interp.hpp"
#include "gpusim/ref_interp.hpp"

namespace catt::sim {
namespace {

constexpr int kLineBytes = 128;

struct Generated {
  std::uint64_t seed = 0;
  std::string source;
  std::string features;  // drawn feature names, for the failure trace
  arch::LaunchConfig launch;
  expr::ParamEnv params;
  bool data_dependent = false;  // uses loaded values in indexes/branches
};

/// One row of a stage's generator table: the feature fires with
/// probability 1/denom (denom 1 = always on).
struct Feature {
  const char* name;
  int denom;
};

/// Draws each table row in order from `rng`, records fired names in
/// `g.features`. Row order is the draw order, so tables are append-only
/// if existing seeds are to keep reproducing the same kernels.
template <std::size_t N>
std::array<bool, N> draw_features(Rng& rng, const Feature (&table)[N], Generated& g) {
  std::array<bool, N> on{};
  for (std::size_t i = 0; i < N; ++i) {
    on[i] = rng.next_below(static_cast<std::uint64_t>(table[i].denom)) == 0;
    if (on[i]) {
      if (!g.features.empty()) g.features += ",";
      g.features += table[i].name;
    }
  }
  return on;
}

void draw_launch(Rng& rng, Generated& g) {
  static const std::uint32_t kBlockX[] = {32, 48, 64, 96, 128};
  const std::uint32_t bx = kBlockX[rng.next_below(5)];
  const std::uint32_t blocks = 1 + static_cast<std::uint32_t>(rng.next_below(4));
  g.launch.block = arch::Dim3{bx};
  g.launch.grid = arch::Dim3{blocks};
}

// Stage 1 table: affine kernels with optional impurities.
constexpr Feature kAffineFeatures[] = {
    {"use_p", 4},        // data-dependent index A[p + j]
    {"value_branch", 4},  // value-dependent control
    {"second_load", 2},   //
    {"nested", 2},        // nested affine loop
    {"loop_store", 3},    // store inside the loop
};

/// Random affine mini-CUDA kernel. Index coefficients are bounded so every
/// access stays inside the fixed 8 KiB-element arrays regardless of the
/// drawn launch geometry (max 512 threads) and trip counts.
Generated generate_kernel(std::uint64_t seed) {
  Rng rng(seed);
  Generated g;
  g.seed = seed;
  draw_launch(rng, g);
  const int total = static_cast<int>(g.launch.total_threads());

  const int n = total - static_cast<int>(rng.next_below(32));  // ragged guard bound
  const int t = 1 + static_cast<int>(rng.next_below(8));
  const int f = 1 + static_cast<int>(rng.next_below(4));

  const auto on = draw_features(rng, kAffineFeatures, g);
  const bool use_p = on[0];
  const bool value_branch = on[1];
  const bool second_load = on[2];
  const bool nested = on[3];
  const bool loop_store = on[4];
  g.data_dependent = use_p || value_branch;

  const int ca1 = 1 + static_cast<int>(rng.next_below(8));
  const int ca2 = static_cast<int>(rng.next_below(8));
  const int ca3 = static_cast<int>(rng.next_below(16));
  const int cb1 = 1 + static_cast<int>(rng.next_below(8));
  static const char* kConsts[] = {"0.25f", "0.5f", "1.5f", "2.0f"};
  const char* fc = kConsts[rng.next_below(4)];

  std::string sig = "float *A, float *B, float *C, ";
  if (use_p) sig += "int *P, ";
  sig += "int N, int T";
  if (nested) sig += ", int F";

  std::string body;
  body += "    int i = blockIdx.x * blockDim.x + threadIdx.x;\n";
  body += "    if (i < N) {\n";
  body += "        float acc = " + std::string(fc) + ";\n";
  if (use_p) body += "        int p = P[i];\n";
  body += "        for (int j = 0; j < T; j++) {\n";
  body += "            acc += A[i * " + std::to_string(ca1) + " + j * " + std::to_string(ca2) +
          " + " + std::to_string(ca3) + "];\n";
  if (second_load) {
    body += "            acc += B[j * " + std::to_string(cb1) + " + " + std::to_string(ca3) +
            "] * " + fc + ";\n";
  }
  if (use_p) body += "            acc += A[p + j];\n";
  if (value_branch) {
    body += "            if (acc < 0.5f) {\n                acc += B[i + j];\n            }\n";
  }
  if (nested) {
    body += "            for (int q = 0; q < F; q++) {\n";
    body += "                acc += B[i * F + q];\n";
    body += "            }\n";
  }
  if (loop_store) body += "            C[i * 2 + j] = acc;\n";
  body += "        }\n";
  body += "        C[i] = acc;\n";
  body += "    }\n";

  g.source = "//@regs=" + std::string(rng.next_below(2) == 0 ? "16" : "32") +
             "\n__global__ void fz(" + sig + ") {\n" + body + "}\n";
  g.params = {{"N", n}, {"T", t}};
  if (nested) g.params["F"] = f;
  return g;
}

// Stage 2 table: SIMT-divergent kernels. Every kernel carries the
// data-dependent while (trip count loaded per lane), the rest is drawn.
constexpr Feature kDivergentFeatures[] = {
    {"indirect", 2},      // a[b[i]] indirection inside the walk
    {"val_if_else", 2},   // if/else split on a loaded value
    {"nested_branch", 2}, // branch nested inside the while body
    {"uniform_guard", 3}, // branch on a scalar param (uniform fast path)
    {"early_exit", 3},    // data-dependent loop exit (k = p)
};

/// Random divergence-heavy kernel: lanes in one warp take different while
/// trip counts (loaded from L, bounded 0..7) and split at value branches.
/// Always terminating — k increments unconditionally; the early exit only
/// shortens the walk. All indexes stay inside the 8192-element arrays:
/// i < 512, q < 2048, k <= 7.
Generated generate_divergent_kernel(std::uint64_t seed) {
  Rng rng(seed);
  Generated g;
  g.seed = seed;
  g.data_dependent = true;
  draw_launch(rng, g);
  const int total = static_cast<int>(g.launch.total_threads());

  const int n = total - static_cast<int>(rng.next_below(32));  // ragged guard bound
  const int t = 1 + static_cast<int>(rng.next_below(8));
  const int ca = 1 + static_cast<int>(rng.next_below(8));

  const auto on = draw_features(rng, kDivergentFeatures, g);
  const bool indirect = on[0];
  const bool val_if_else = on[1];
  const bool nested_branch = on[2];
  const bool uniform_guard = on[3];
  const bool early_exit = on[4];

  std::string sig = "float *A, float *B, float *C, int *L, ";
  if (indirect) sig += "int *Q, ";
  sig += "int N, int T";

  std::string body;
  body += "    int i = blockIdx.x * blockDim.x + threadIdx.x;\n";
  body += "    if (i < N) {\n";
  body += "        float acc = 0.5f;\n";
  body += "        int p = L[i];\n";
  if (indirect) body += "        int q = Q[i];\n";
  body += "        int k = 0;\n";
  body += "        while (k < p) {\n";
  body += "            acc += A[i + k * " + std::to_string(ca) + "];\n";
  if (indirect) body += "            acc += A[q + k];\n";
  if (nested_branch) {
    body += "            if (acc < 1.0f) {\n"
            "                acc += B[i + k];\n"
            "            } else {\n"
            "                acc += 0.25f;\n"
            "            }\n";
  }
  if (early_exit) {
    body += "            if (acc > 2.0f) {\n                k = p;\n            }\n";
  }
  body += "            k = k + 1;\n";
  body += "        }\n";
  if (val_if_else) {
    body += "        if (p > 3) {\n"
            "            C[i * 2] = acc;\n"
            "        } else {\n"
            "            acc += B[i];\n"
            "        }\n";
  }
  if (uniform_guard) {
    body += "        if (T > 2) {\n            acc += 1.5f;\n        }\n";
  }
  body += "        C[i] = acc;\n";
  body += "    }\n";

  g.source = "//@regs=" + std::string(rng.next_below(2) == 0 ? "16" : "32") +
             "\n__global__ void fz(" + sig + ") {\n" + body + "}\n";
  g.params = {{"N", n}, {"T", t}};
  return g;
}

/// Failure context: kernel index, drawn features, the exact source, and a
/// one-line repro command (single-kernel runs take the master seed
/// directly, so the command regenerates exactly this kernel).
std::string repro_note(std::uint64_t k, const Generated& g, const char* test_name) {
  char seed_hex[32];
  std::snprintf(seed_hex, sizeof seed_hex, "%llx", static_cast<unsigned long long>(g.seed));
  return "kernel " + std::to_string(k) + " seed 0x" + seed_hex + " [" + g.features +
         "]\nrepro: CATT_FUZZ_SEED=0x" + seed_hex +
         " CATT_FUZZ_KERNELS=1 ./tests/fuzz_kernel_test --gtest_filter=" + test_name + "\n" +
         g.source;
}

/// Allocates the fixed array set with seed-derived contents. Identical
/// seeds give bit-identical images, so every engine/interp pair in a
/// cross-check starts from the same functional state.
void setup_memory(DeviceMemory& mem, std::uint64_t seed, const Generated& g) {
  constexpr std::size_t kElems = 8192;
  Rng rng(seed ^ 0xA11A);
  std::vector<float> a(kElems), b(kElems);
  for (auto& x : a) x = rng.next_float(0.0f, 1.0f);
  for (auto& x : b) x = rng.next_float(0.0f, 1.0f);
  mem.alloc_f32("A", std::move(a));
  mem.alloc_f32("B", std::move(b));
  mem.alloc_f32("C", kElems, 0.0f);
  if (g.source.find("int *P") != std::string::npos) {
    std::vector<std::int32_t> p(g.launch.total_threads());
    for (auto& x : p) x = static_cast<std::int32_t>(rng.next_below(2048));
    mem.alloc_i32("P", std::move(p));
  }
  if (g.source.find("int *L") != std::string::npos) {
    // Per-lane while trip counts: small and skewed so warps diverge.
    std::vector<std::int32_t> l(g.launch.total_threads());
    for (auto& x : l) x = static_cast<std::int32_t>(rng.next_below(8));
    mem.alloc_i32("L", std::move(l));
  }
  if (g.source.find("int *Q") != std::string::npos) {
    std::vector<std::int32_t> q(g.launch.total_threads());
    for (auto& x : q) x = static_cast<std::int32_t>(rng.next_below(2048));
    mem.alloc_i32("Q", std::move(q));
  }
}

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
      ASSERT_EQ(re.site(i), ge.site(i)) << at;
      ASSERT_EQ(re.is_store(i), ge.is_store(i)) << at;
      ASSERT_EQ(re.lane_work(i), ge.lane_work(i)) << at;
      ASSERT_EQ(re.txn_count(i), ge.txn_count(i)) << at;
      for (std::uint32_t t = 0; t < re.txn_count(i); ++t) {
        ASSERT_EQ(re.txn(i, t).line, ge.txn(i, t).line) << at << " txn " << t;
        ASSERT_EQ(re.txn(i, t).sectors, ge.txn(i, t).sectors) << at << " txn " << t;
      }
    }
    ASSERT_TRUE(re.div() == ge.div()) << label << " warp " << w << " divergence counters";
  }
}

void expect_memory_equal(const DeviceMemory& ref, const DeviceMemory& got) {
  for (const char* name : {"A", "B", "C"}) {
    const auto r = ref.f32(name);
    const auto g = got.f32(name);
    ASSERT_EQ(r.size(), g.size()) << name;
    ASSERT_EQ(0, std::memcmp(r.data(), g.data(), r.size() * sizeof(float)))
        << "array " << name << " diverged";
  }
}

void expect_stats_equal(const KernelStats& ev, const KernelStats& ref) {
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
  EXPECT_EQ(ev.lane_cycles, ref.lane_cycles);
  EXPECT_EQ(ev.lane_mem_insts, ref.lane_mem_insts);
  EXPECT_TRUE(ev.div == ref.div) << "divergence counters";
  ASSERT_EQ(ev.request_trace.size(), ref.request_trace.size());
  for (std::size_t i = 0; i < ev.request_trace.size(); ++i) {
    EXPECT_EQ(ev.request_trace[i].index, ref.request_trace[i].index) << " point " << i;
    EXPECT_EQ(ev.request_trace[i].mean, ref.request_trace[i].mean) << " point " << i;
  }
}

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::strtoull(v, nullptr, 0);
}

TEST(FuzzKernel, DifferentialVmDedupAndEngines) {
  const std::uint64_t master_seed = env_u64("CATT_FUZZ_SEED", 0xC477F022ULL);
  const std::uint64_t count = env_u64("CATT_FUZZ_KERNELS", 200);
  Rng master(master_seed);

  int pure_seen = 0;
  int impure_seen = 0;
  for (std::uint64_t k = 0; k < count; ++k) {
    // A single-kernel run takes the master seed directly, so the printed
    // one-line repro regenerates exactly the failing kernel.
    const std::uint64_t seed = count == 1 ? master_seed : master.next_u64();
    const Generated g = generate_kernel(seed);
    SCOPED_TRACE(repro_note(k, g, "FuzzKernel.DifferentialVmDedupAndEngines"));
    std::vector<ir::Kernel> kernels;
    ASSERT_NO_THROW(kernels = frontend::parse_program(g.source));
    const ir::Kernel& kern = kernels.front();

    // 1. Bytecode VM vs. tree-walk reference: per-warp traces for every
    //    block, then the final functional memory image.
    DeviceMemory mem_ref, mem_vm;
    setup_memory(mem_ref, seed, g);
    setup_memory(mem_vm, seed, g);
    {
      RefKernelInterp ref(kern, g.launch, g.params, mem_ref, kLineBytes);
      KernelInterp vm(kern, g.launch, g.params, mem_vm, kLineBytes);
      for (std::uint64_t b = 0; b < g.launch.num_blocks(); ++b) {
        expect_traces_equal(ref.run_block(b), vm.run_block(b),
                            "vm-vs-ref block " + std::to_string(b));
        if (::testing::Test::HasFatalFailure()) return;
      }
      expect_memory_equal(mem_ref, mem_vm);
    }

    // 2. Dedup on vs. off (trace-pure kernels only): rendered traces must
    //    be bit-identical to concrete execution, including the cache-hit
    //    second launch.
    const bool pure = bc::trace_data_independent(kern);
    EXPECT_EQ(pure, !g.data_dependent);
    (pure ? pure_seen : impure_seen) += 1;
    if (pure) {
      DeviceMemory mem_plain, mem_dedup;
      setup_memory(mem_plain, seed, g);
      setup_memory(mem_dedup, seed, g);
      dedup::TraceDedup cache;
      KernelInterp plain(kern, g.launch, g.params, mem_plain, kLineBytes);
      for (int launch = 0; launch < 2; ++launch) {
        KernelInterp dd(kern, g.launch, g.params, mem_dedup, kLineBytes);
        dd.set_functional(false);
        dd.enable_dedup(cache, seed);
        for (std::uint64_t b = 0; b < g.launch.num_blocks(); ++b) {
          expect_traces_equal(plain.run_block(b), dd.run_block(b),
                              "dedup launch " + std::to_string(launch) + " block " +
                                  std::to_string(b));
          if (::testing::Test::HasFatalFailure()) return;
        }
      }
    }

    // 3. Event-driven engine vs. cycle-stepped SmRef, occasionally with a
    //    TB cap (refill/barrier interleavings) and the request series. The
    //    2-SM machine adds same-cycle multi-SM L2/DRAM ordering.
    SimOptions opts;
    Rng orng(seed ^ 0x0975);
    if (orng.next_below(4) == 0) opts.tb_cap = 1;
    opts.collect_request_trace = orng.next_below(4) == 0;
    SimOptions opts_ref = opts;
    opts_ref.use_stepped_reference = true;
    const LaunchSpec spec{&kern, g.launch, g.params};
    for (const int sms : {1, 2}) {
      SCOPED_TRACE("event-vs-stepped sms=" + std::to_string(sms));
      DeviceMemory mem_ev, mem_sr;
      setup_memory(mem_ev, seed, g);
      setup_memory(mem_sr, seed, g);
      Gpu gpu_ev(arch::GpuArch::titan_v(sms), mem_ev);
      Gpu gpu_sr(arch::GpuArch::titan_v(sms), mem_sr);
      expect_stats_equal(gpu_ev.run(spec, opts), gpu_sr.run(spec, opts_ref));
      if (::testing::Test::HasFatalFailure()) return;
    }
  }

  // Generator sanity: both the affine-pure path (dedup-eligible) and the
  // data-dependent path must actually have been exercised.
  if (count >= 50) {
    EXPECT_GT(pure_seen, 0);
    EXPECT_GT(impure_seen, 0);
  }
}

// SIMT-divergence stage: kernels branch on loaded values, so warps split
// and reconverge at runtime. Two oracle pairs per kernel, both including
// the per-lane counters the reconvergence stack produces (lane_work per
// event, DivCounters per warp, lane_cycles/lane_mem_insts/div per launch):
//   1. bytecode VM vs. tree-walk reference (traces + functional memory)
//   2. event-driven engine vs. cycle-stepped SmRef on 1- and 2-SM machines
TEST(FuzzKernel, DivergentDifferential) {
  const std::uint64_t master_seed = env_u64("CATT_FUZZ_SEED", 0xD177F022ULL);
  const std::uint64_t count = env_u64("CATT_FUZZ_KERNELS", 200);
  Rng master(master_seed);

  std::uint64_t divergent_warps = 0;
  for (std::uint64_t k = 0; k < count; ++k) {
    const std::uint64_t seed = count == 1 ? master_seed : master.next_u64();
    const Generated g = generate_divergent_kernel(seed);
    SCOPED_TRACE(repro_note(k, g, "FuzzKernel.DivergentDifferential"));
    std::vector<ir::Kernel> kernels;
    ASSERT_NO_THROW(kernels = frontend::parse_program(g.source));
    const ir::Kernel& kern = kernels.front();
    EXPECT_FALSE(bc::trace_data_independent(kern));

    // 1. Bytecode VM vs. tree-walk reference, including lane_work and the
    //    reconvergence-stack counters on every warp.
    DeviceMemory mem_ref, mem_vm;
    setup_memory(mem_ref, seed, g);
    setup_memory(mem_vm, seed, g);
    {
      RefKernelInterp ref(kern, g.launch, g.params, mem_ref, kLineBytes);
      KernelInterp vm(kern, g.launch, g.params, mem_vm, kLineBytes);
      for (std::uint64_t b = 0; b < g.launch.num_blocks(); ++b) {
        const std::vector<WarpTrace> rt = ref.run_block(b);
        for (const WarpTrace& w : rt) divergent_warps += w.div().divergent_branches > 0;
        expect_traces_equal(rt, vm.run_block(b), "vm-vs-ref block " + std::to_string(b));
        if (::testing::Test::HasFatalFailure()) return;
      }
      expect_memory_equal(mem_ref, mem_vm);
    }

    // 2. Event-driven engine vs. cycle-stepped SmRef.
    SimOptions opts;
    Rng orng(seed ^ 0x0975);
    if (orng.next_below(4) == 0) opts.tb_cap = 1;
    opts.collect_request_trace = orng.next_below(4) == 0;
    SimOptions opts_ref = opts;
    opts_ref.use_stepped_reference = true;
    const LaunchSpec spec{&kern, g.launch, g.params};
    for (const int sms : {1, 2}) {
      SCOPED_TRACE("event-vs-stepped sms=" + std::to_string(sms));
      DeviceMemory mem_ev, mem_sr;
      setup_memory(mem_ev, seed, g);
      setup_memory(mem_sr, seed, g);
      Gpu gpu_ev(arch::GpuArch::titan_v(sms), mem_ev);
      Gpu gpu_sr(arch::GpuArch::titan_v(sms), mem_sr);
      expect_stats_equal(gpu_ev.run(spec, opts), gpu_sr.run(spec, opts_ref));
      if (::testing::Test::HasFatalFailure()) return;
    }
  }

  // Generator sanity: the stage is about divergence, so a healthy fraction
  // of warps must actually have split somewhere.
  if (count >= 50) {
    EXPECT_GT(divergent_warps, count);
  }
}

}  // namespace
}  // namespace catt::sim
