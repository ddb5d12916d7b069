#include "arch/launch.hpp"

#include "common/units.hpp"

namespace catt::arch {

std::string to_string(const Dim3& d) {
  // Appended piecewise: `"(" + std::to_string(...)` trips GCC 12's
  // -Wrestrict false positive (GCC bug 105329) in Release builds.
  std::string s = "(";
  s += std::to_string(d.x);
  s += ',';
  s += std::to_string(d.y);
  s += ',';
  s += std::to_string(d.z);
  s += ')';
  return s;
}

int LaunchConfig::warps_per_block(int warp_size) const {
  return static_cast<int>(ceil_div<std::uint64_t>(block.count(), static_cast<std::uint64_t>(warp_size)));
}

std::string to_string(const LaunchConfig& cfg) {
  std::string s = "<<<" + to_string(cfg.grid) + ", " + to_string(cfg.block);
  if (cfg.dyn_shared_bytes > 0) s += ", " + std::to_string(cfg.dyn_shared_bytes);
  s += ">>>";
  return s;
}

}  // namespace catt::arch
