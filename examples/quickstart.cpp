// Quickstart: the full CATT pipeline on the paper's running example
// (Figure 1's atax_kernel1).
//
//   1. Parse a mini-CUDA kernel.
//   2. Run the static analysis: occupancy, per-access C_tid / C_i,
//      footprint vs. L1D, throttling factor (N, M).
//   3. Apply the source-to-source transform and print the throttled kernel
//      (compare with the paper's Figure 4).
//   4. Simulate both versions and report the L1D hit rate and speedup.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>
#include <string>
#include <utility>

#include "arch/gpu_arch.hpp"
#include "catt/analysis.hpp"
#include "catt/report.hpp"
#include "common/rng.hpp"
#include "frontend/parser.hpp"
#include "gpusim/gpu.hpp"
#include "ir/codegen.hpp"
#include "transform/transform.hpp"

namespace {

constexpr const char* kAtaxSource = R"(
//@regs=32
__global__ void atax_kernel1(float *A, float *x, float *tmp, int NX) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < NX) {
        for (int j = 0; j < NX; j++) {
            tmp[i] += A[i * NX + j] * x[j];
        }
    }
}
)";

}  // namespace

int main() {
  using namespace catt;

  // A 2-SM Volta-like device (see DESIGN.md for the scaling rationale).
  const arch::GpuArch gpu_arch = arch::GpuArch::titan_v(2);
  const int nx = 2048;
  const arch::LaunchConfig launch{{static_cast<std::uint32_t>(nx / 256)}, {256}};
  const expr::ParamEnv params{{"NX", nx}};

  // 1. Parse.
  ir::Kernel kernel = frontend::parse_kernel(kAtaxSource);
  std::printf("=== original kernel ===\n%s\n",
              ir::to_cuda(kernel, {.launch = &launch}).c_str());

  // 2. Analyze.
  const analysis::KernelAnalysis ka = analysis::analyze(gpu_arch, kernel, launch, params);
  std::printf("=== CATT analysis ===\n%s\n", analysis::report(ka, gpu_arch).c_str());

  // 3. Transform.
  const xform::TransformResult tr = xform::apply_plan(gpu_arch, kernel, launch, ka.plan);
  std::printf("=== throttled kernel (N per loop, dummy shared if TB-limited) ===\n%s\n",
              ir::to_cuda(tr.kernel, {.launch = &launch}).c_str());

  // 4. Simulate original vs. throttled on identical inputs.
  auto make_memory = [&](sim::DeviceMemory& mem) {
    Rng rng(42);
    std::vector<float> a(static_cast<std::size_t>(nx) * nx);
    for (auto& v : a) v = rng.next_float(0.0f, 1.0f);
    std::vector<float> x(static_cast<std::size_t>(nx));
    for (auto& v : x) v = rng.next_float(0.0f, 1.0f);
    mem.alloc_f32("A", std::move(a));
    mem.alloc_f32("x", std::move(x));
    mem.alloc_f32("tmp", static_cast<std::size_t>(nx), 0.0f);
  };

  sim::KernelStats base_stats;
  {
    sim::DeviceMemory mem;
    make_memory(mem);
    sim::Gpu gpu(gpu_arch, mem);
    base_stats = gpu.run({&kernel, launch, params});
  }
  sim::KernelStats catt_stats;
  {
    sim::DeviceMemory mem;
    make_memory(mem);
    sim::Gpu gpu(gpu_arch, mem);
    catt_stats = gpu.run({&tr.kernel, launch, params});
  }

  std::printf("=== simulation ===\n");
  std::printf("baseline: %lld cycles, L1D hit rate %.1f%% (TLP %s)\n",
              static_cast<long long>(base_stats.cycles), 100.0 * base_stats.l1_hit_rate(),
              base_stats.occ.tlp_string().c_str());
  std::string catt_tlp = "?";
  if (!ka.loops.empty()) {
    // Built piecewise, then moved in: `"(" + std::to_string(...)` and
    // assigning a literal both trip GCC 12's -Wrestrict false positive
    // (GCC bug 105329) in Release builds.
    std::string tlp = "(";
    tlp += std::to_string(ka.occ.warps_per_tb / ka.loops[0].decision.n_divisor);
    tlp += ',';
    tlp += std::to_string(ka.occ.tbs_per_sm);
    tlp += ')';
    catt_tlp = std::move(tlp);
  }
  std::printf("CATT:     %lld cycles, L1D hit rate %.1f%% (TLP %s inside throttled loops)\n",
              static_cast<long long>(catt_stats.cycles), 100.0 * catt_stats.l1_hit_rate(),
              catt_tlp.c_str());
  std::printf("speedup:  %.2fx\n",
              static_cast<double>(base_stats.cycles) / static_cast<double>(catt_stats.cycles));
  return 0;
}
