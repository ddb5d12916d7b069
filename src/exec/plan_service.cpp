#include "exec/plan_service.hpp"

#include "exec/cache_key.hpp"
#include "obs/obs.hpp"

namespace catt::exec {

std::uint64_t PlanService::plan_key(const ir::Kernel& kernel, const arch::LaunchConfig& launch,
                                    const expr::ParamEnv& params,
                                    const analysis::AnalysisOptions& opts) const {
  // Every input the analysis reads, plus a "plan" salt separating this key
  // space from the chained launch-stats keys.
  return CacheKey{}
      .gpu_arch(arch_)
      .kernel(kernel)
      .launch(launch)
      .params(params)
      .b(opts.conservative_irregular)
      .b(opts.warp_level_first)
      .b(opts.enable_tb_level)
      .b(opts.dedupe_tb_footprint)
      .i32(opts.min_active_warps)
      .str("plan")
      .value();
}

const analysis::KernelAnalysis& PlanService::analysis_for(const ir::Kernel& kernel,
                                                          const arch::LaunchConfig& launch,
                                                          const expr::ParamEnv& params,
                                                          const analysis::AnalysisOptions& opts) {
  const std::uint64_t key = plan_key(kernel, launch, params, opts);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = memo_.find(key);
  if (it != memo_.end()) {
    obs::count("exec.planservice.mem_hits");
    return it->second;
  }
  obs::count("exec.planservice.computes");
  analysis::KernelAnalysis ka = analysis::analyze(arch_, kernel, launch, params, opts);
  return memo_.emplace(key, std::move(ka)).first->second;
}

}  // namespace catt::exec
