// Ablation of CATT's design choices (DESIGN.md, "Key design decisions"):
//   1. warp-level-first vs. TB-level-only throttling;
//   2. conservative C_tid := 1 for irregular accesses vs. treating them as
//      fully divergent (over-throttling risk on BFS/CFD).
// Runs the CS group at max L1D under each variant and reports speedups.
#include <cstdio>
#include <vector>

#include "common/stats.hpp"
#include "common/table.hpp"
#include "harness/harness.hpp"

int main(int argc, char** argv) {
  using namespace catt;
  const bench::ObsSession obs_session(argc, argv, "ablation_throttle_modes");

  throttle::Runner runner(bench::max_l1d_arch());
  runner.sim_options.sched = bench::sched_from_args(argc, argv);
  const auto disk_cache = bench::cache_from_args(argc, argv);
  runner.set_disk_cache(disk_cache.get());

  analysis::AnalysisOptions defaults;  // warp-first, conservative
  analysis::AnalysisOptions tb_only;
  tb_only.warp_level_first = false;
  analysis::AnalysisOptions warp_only;
  warp_only.enable_tb_level = false;
  analysis::AnalysisOptions aggressive;
  aggressive.conservative_irregular = false;

  TextTable table({"app", "CATT", "warp-only", "TB-only", "aggressive-irregular"});
  std::vector<double> s_def, s_warp, s_tb, s_aggr;

  for (const wl::Workload* w : wl::workloads_in_group(wl::Group::kCS, bench::kNumSms)) {
    const throttle::AppResult base = runner.run(*w, throttle::Baseline{});
    auto speedup_of = [&](const analysis::AnalysisOptions& o) {
      const throttle::AppResult r = runner.run(*w, throttle::Catt{o});
      return bench::speedup(base.total_cycles, r.total_cycles);
    };
    const double d = speedup_of(defaults);
    const double wo = speedup_of(warp_only);
    const double tb = speedup_of(tb_only);
    const double ag = speedup_of(aggressive);
    s_def.push_back(d);
    s_warp.push_back(wo);
    s_tb.push_back(tb);
    s_aggr.push_back(ag);
    table.row()
        .cell(w->name)
        .cell(format_speedup(d))
        .cell(format_speedup(wo))
        .cell(format_speedup(tb))
        .cell(format_speedup(ag));
    std::fprintf(stderr, "[ablation] %s done\n", w->name.c_str());
  }

  table.row()
      .cell("geomean")
      .cell(format_speedup(stats::geomean(s_def)))
      .cell(format_speedup(stats::geomean(s_warp)))
      .cell(format_speedup(stats::geomean(s_tb)))
      .cell(format_speedup(stats::geomean(s_aggr)));

  std::printf("Ablation — CATT variants on the CS group, maximum L1D\n\n%s\n",
              table.str().c_str());
  std::printf(
      "expected: full CATT >= warp-only (TB-level rescues the rare deep-throttle case);\n"
      "TB-only loses on kernels where per-loop warp splitting suffices (it throttles the\n"
      "whole kernel and can shrink the L1D via the carve-out); aggressive-irregular\n"
      "over-throttles BFS/CFD and loses there.\n");
  return 0;
}
