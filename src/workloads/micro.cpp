// Figure 3 microbenchmarks: "L1D-full-with-N-warps". Every thread privately
// owns ~one cache line per stream array (stride 28 elements = 112 B, so a
// warp touches 28 distinct lines per stream) and re-touches it each
// iteration. The stream count is chosen so the working set of the target
// warp count lands at ~87% of the L1D — "full" in the paper's sense, while
// staying inside what a real (non-ideal-LRU) cache retains. Above the
// target the kernel thrashes, below it TLP is wasted — the U-curve.
#include "common/rng.hpp"
#include "common/units.hpp"
#include "frontend/parser.hpp"
#include "workloads/workload.hpp"

namespace catt::wl {

namespace {

std::string micro_source(int streams) {
  std::string body;
  std::string params;
  for (int s = 0; s < streams; ++s) {
    params += "float *D" + std::to_string(s) + ", ";
    body += "            acc += D" + std::to_string(s) + "[i * 28];\n";
  }
  return "//@regs=16\n__global__ void micro_kernel(" + params +
         "float *outv, int T) {\n"
         "    int i = blockIdx.x * blockDim.x + threadIdx.x;\n"
         "    float acc = 0.0f;\n"
         "    for (int j = 0; j < T; j++) {\n" +
         body +
         "    }\n"
         "    outv[i] = acc;\n"
         "}\n";
}

}  // namespace

Workload make_l1d_full_micro(int num_sms, int fill_warps) {
  // One 1024-thread TB (32 warps) per SM; footprint per warp per stream is
  // 28 lines (stride 112 B). streams = capacity_lines / (fill_warps * 32),
  // i.e. the target warp count occupies 28/32 = 87.5% of the L1D.
  const std::size_t capacity_lines = 128_KiB / 128;
  const int streams = static_cast<int>(capacity_lines) / (fill_warps * 32);
  const int trip = 192;

  Workload w;
  w.name = "l1dfull" + std::to_string(fill_warps) + "w";
  w.description =
      "Microbenchmark whose footprint fills the L1D with " + std::to_string(fill_warps) +
      " resident warps (Figure 3)";
  w.group = Group::kMicro;
  w.kernels = frontend::parse_program(micro_source(streams));
  const arch::Dim3 block{1024};
  const arch::Dim3 grid{static_cast<std::uint32_t>(num_sms)};
  w.schedule = {{"micro_kernel", {grid, block}, {{"T", trip}}}};
  const std::size_t elems = static_cast<std::size_t>(num_sms) * 1024 * 28;
  w.setup = [streams, elems](sim::DeviceMemory& mem) {
    for (int s = 0; s < streams; ++s) {
      Rng rng(0xD000 + static_cast<std::uint64_t>(s));
      std::vector<float> v(elems);
      for (auto& x : v) x = rng.next_float(0.0f, 1.0f);
      std::string name = "D";  // appended piecewise, see arch::to_string(Dim3)
      name += std::to_string(s);
      mem.alloc_f32(name, std::move(v));
    }
    mem.alloc_f32("outv", elems / 28, 0.0f);
  };
  return w;
}

}  // namespace catt::wl
