#include "occupancy/occupancy.hpp"

#include <algorithm>
#include <limits>

#include "common/error.hpp"
#include "common/units.hpp"

namespace catt::occupancy {

const char* to_string(Limiter l) {
  switch (l) {
    case Limiter::kSharedMem: return "shared-memory";
    case Limiter::kRegisters: return "registers";
    case Limiter::kWarpSlots: return "warp-slots";
    case Limiter::kTbSlots: return "tb-slots";
    case Limiter::kGridSize: return "grid-size";
  }
  return "?";
}

std::string Occupancy::tlp_string() const {
  std::string s = "(";  // appended piecewise, see arch::to_string(Dim3)
  s += std::to_string(warps_per_tb);
  s += ',';
  s += std::to_string(tbs_per_sm);
  s += ')';
  return s;
}

TbResources tb_resources(const ir::Kernel& kernel, const arch::LaunchConfig& launch) {
  TbResources r;
  r.shared_bytes_per_tb = kernel.static_shared_bytes() + launch.dyn_shared_bytes;
  r.regs_per_thread = kernel.regs_per_thread;
  return r;
}

namespace {

/// Maximum shared-memory capacity an SM can be configured to expose.
std::size_t max_shared_capacity(const arch::GpuArch& arch) {
  if (!arch.unified_l1_shared) return arch.fixed_shared_bytes;
  std::size_t m = 0;
  for (std::size_t c : arch.shared_carveouts) m = std::max(m, c);
  return m;
}

Occupancy compute_impl(const arch::GpuArch& arch, const ir::Kernel& kernel,
                       const arch::LaunchConfig& launch, int tb_cap) {
  if (launch.block.count() == 0 || launch.grid.count() == 0) {
    throw SimError("empty launch configuration");
  }
  if (launch.block.count() > static_cast<std::uint64_t>(arch.max_threads_per_tb)) {
    throw SimError("thread block of " + std::to_string(launch.block.count()) +
                   " exceeds the " + std::to_string(arch.max_threads_per_tb) + "-thread limit");
  }

  const TbResources res = tb_resources(kernel, launch);
  const int warps_per_tb = launch.warps_per_block(arch.warp_size);

  constexpr int kUnlimited = std::numeric_limits<int>::max();

  // Eq. 1: shared-memory limit, against the largest configurable capacity.
  int tb_shm = kUnlimited;
  const std::size_t shm_capacity = max_shared_capacity(arch);
  if (res.shared_bytes_per_tb > 0) {
    if (res.shared_bytes_per_tb > shm_capacity) {
      throw SimError("kernel '" + kernel.name + "' needs " +
                     std::to_string(res.shared_bytes_per_tb) +
                     " B shared per TB, capacity is " + std::to_string(shm_capacity));
    }
    tb_shm = static_cast<int>(shm_capacity / res.shared_bytes_per_tb);
  }

  // Eq. 2: register-file limit. Registers are 4 bytes, allocated for every
  // thread of the block (partial warps still reserve full warps).
  const std::size_t regs_bytes_per_tb =
      static_cast<std::size_t>(res.regs_per_thread) * 4 *
      static_cast<std::size_t>(warps_per_tb) * static_cast<std::size_t>(arch.warp_size);
  if (regs_bytes_per_tb > arch.register_file_bytes) {
    throw SimError("kernel '" + kernel.name + "': one TB exceeds the register file");
  }
  const int tb_reg = regs_bytes_per_tb == 0
                         ? kUnlimited
                         : static_cast<int>(arch.register_file_bytes / regs_bytes_per_tb);

  // Eq. 3's #TB_HW: warp slots and TB slots.
  const int tb_warp_slots = arch.max_warps_per_sm / warps_per_tb;
  if (tb_warp_slots == 0) {
    throw SimError("kernel '" + kernel.name + "': one TB exceeds the warp slots of an SM");
  }
  const int tb_tb_slots = arch.max_tbs_per_sm;

  // An SM can never hold more TBs than its share of the grid provides.
  const int tb_grid = static_cast<int>(std::min<std::uint64_t>(
      std::numeric_limits<int>::max(),
      ceil_div<std::uint64_t>(launch.num_blocks(), static_cast<std::uint64_t>(arch.num_sms))));

  Occupancy occ;
  occ.warps_per_tb = warps_per_tb;
  occ.tbs_per_sm = tb_shm;
  occ.limiter = Limiter::kSharedMem;
  auto consider = [&](int limit, Limiter why) {
    if (limit < occ.tbs_per_sm) {
      occ.tbs_per_sm = limit;
      occ.limiter = why;
    }
  };
  consider(tb_reg, Limiter::kRegisters);
  consider(tb_warp_slots, Limiter::kWarpSlots);
  consider(tb_tb_slots, Limiter::kTbSlots);
  consider(tb_grid, Limiter::kGridSize);
  if (tb_cap > 0) consider(tb_cap, Limiter::kTbSlots);

  if (occ.tbs_per_sm <= 0) {
    throw SimError("kernel '" + kernel.name + "' achieves zero occupancy");
  }

  occ.warps_per_sm = occ.warps_per_tb * occ.tbs_per_sm;

  // Eq. 4 + carve-out choice.
  occ.shm_use_per_sm = res.shared_bytes_per_tb * static_cast<std::size_t>(occ.tbs_per_sm);
  occ.shm_carveout = arch.smallest_carveout_for(occ.shm_use_per_sm);
  occ.l1d_bytes = arch.l1d_bytes_for_carveout(occ.shm_carveout);
  return occ;
}

}  // namespace

Occupancy compute(const arch::GpuArch& arch, const ir::Kernel& kernel,
                  const arch::LaunchConfig& launch) {
  return compute_impl(arch, kernel, launch, 0);
}

Occupancy compute_with_tb_cap(const arch::GpuArch& arch, const ir::Kernel& kernel,
                              const arch::LaunchConfig& launch, int max_tbs) {
  if (max_tbs <= 0) throw SimError("TB cap must be positive");
  return compute_impl(arch, kernel, launch, max_tbs);
}

std::size_t dummy_shared_bytes_for_tb_limit(const arch::GpuArch& arch, const ir::Kernel& kernel,
                                            const arch::LaunchConfig& launch, int target_tbs) {
  if (target_tbs <= 0) throw SimError("target TB count must be positive");
  const Occupancy base = compute(arch, kernel, launch);
  if (base.tbs_per_sm <= target_tbs) return 0;

  const std::size_t capacity = max_shared_capacity(arch);
  const std::size_t use = tb_resources(kernel, launch).shared_bytes_per_tb;

  // Smallest per-TB shared footprint with floor(capacity / per_tb) <= target.
  std::size_t per_tb = capacity / static_cast<std::size_t>(target_tbs);
  while (per_tb > 0 && capacity / per_tb > static_cast<std::size_t>(target_tbs)) ++per_tb;
  if (per_tb <= use) return 0;
  return per_tb - use;
}

}  // namespace catt::occupancy
