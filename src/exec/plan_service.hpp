// PlanService: the CATT analysis memo. It answers "what does CATT decide
// for this kernel launch" from static analysis alone — occupancy and
// footprint estimation — and by contract never invokes the timing engine
// (service_test pins this with the sim.gpu.launches obs counter).
//
// Results are memoized in memory only, as full KernelAnalysis objects
// (per-loop decisions, occupancy, footprints), under a CacheKey that
// covers the architecture, the kernel IR, the launch geometry, the
// parameter bindings, and every AnalysisOptions knob, salted with "plan"
// so plan keys can never collide with launch stats keys. There is no disk
// half: the analysis is cheap next to one simulation, and the disk cache
// stores only the launch stats a rerun actually reads.
#pragma once

#include <cstdint>
#include <mutex>
#include <unordered_map>

#include "arch/gpu_arch.hpp"
#include "arch/launch.hpp"
#include "catt/analysis.hpp"

namespace catt::exec {

class PlanService {
 public:
  explicit PlanService(arch::GpuArch gpu_arch) : arch_(std::move(gpu_arch)) {}

  /// Content-addressed identity of one analysis query.
  std::uint64_t plan_key(const ir::Kernel& kernel, const arch::LaunchConfig& launch,
                         const expr::ParamEnv& params,
                         const analysis::AnalysisOptions& opts = {}) const;

  /// The full analysis (per-loop decisions, occupancy, footprints, and the
  /// ThrottlePlan a transform applies), memoized. Never runs a simulation.
  /// The reference stays valid for the service's lifetime: memo entries
  /// are never erased and unordered_map nodes do not move.
  const analysis::KernelAnalysis& analysis_for(const ir::Kernel& kernel,
                                               const arch::LaunchConfig& launch,
                                               const expr::ParamEnv& params,
                                               const analysis::AnalysisOptions& opts = {});

 private:
  arch::GpuArch arch_;
  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, analysis::KernelAnalysis> memo_;
};

}  // namespace catt::exec
