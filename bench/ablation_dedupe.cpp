// Ablation of the dedupe-footprint extension (DESIGN.md, decision #5).
//
// The paper's Eq. 8 sums each access's per-warp request count over every
// resident warp, which double-counts broadcast operands and the lines the
// warps of a 2-D thread block share. The extension instead counts
// *distinct* lines via per-thread address enumeration. Expected effects:
//   * SYR2K (2-D TBs with heavy intra-TB sharing) is no longer throttled
//     at max L1D — matching the simulator, where its true working set fits;
//   * the 1-D divergent apps' decisions are unchanged (their lines are
//     per-thread private, so dedupe equals the additive count);
//   * CORR's per-group working set shrinks enough to become "resolvable"
//     at max L1D (the paper's model calls it unresolvable).
#include <cstdio>
#include <vector>

#include "common/stats.hpp"
#include "common/table.hpp"
#include "harness/harness.hpp"

namespace {

std::string choice_string(const std::vector<catt::throttle::KernelChoice>& choices) {
  std::string out;
  for (const auto& c : choices) {
    for (const auto& l : c.loops) {
      if (!out.empty()) out += " ";
      out += '(';
      out += std::to_string(l.warps);
      out += ',';
      out += std::to_string(l.tbs);
      out += ')';
      if (l.unresolvable) out += "*";
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace catt;
  const bench::ObsSession obs_session(argc, argv, "ablation_dedupe");

  throttle::Runner runner(bench::max_l1d_arch());
  runner.sim_options.sched = bench::sched_from_args(argc, argv);
  const auto disk_cache = bench::cache_from_args(argc, argv);
  runner.set_disk_cache(disk_cache.get());
  analysis::AnalysisOptions eq8;  // paper default
  analysis::AnalysisOptions dedupe;
  dedupe.dedupe_tb_footprint = true;

  TextTable table(
      {"app", "Eq.8 decisions", "dedupe decisions", "Eq.8 speedup", "dedupe speedup"});
  std::vector<double> s_eq8, s_dedupe;

  for (const wl::Workload* w : wl::workloads_in_group(wl::Group::kCS, bench::kNumSms)) {
    const throttle::AppResult base = runner.run(*w, throttle::Baseline{});
    const throttle::AppResult r8 = runner.run(*w, throttle::Catt{eq8});
    const throttle::AppResult rd = runner.run(*w, throttle::Catt{dedupe});
    const double sp8 = bench::speedup(base.total_cycles, r8.total_cycles);
    const double spd = bench::speedup(base.total_cycles, rd.total_cycles);
    s_eq8.push_back(sp8);
    s_dedupe.push_back(spd);
    table.row()
        .cell(w->name)
        .cell(choice_string(r8.choices))
        .cell(choice_string(rd.choices))
        .cell(format_speedup(sp8))
        .cell(format_speedup(spd));
    std::fprintf(stderr, "[dedupe] %s done\n", w->name.c_str());
  }
  table.row()
      .cell("geomean")
      .cell("")
      .cell("")
      .cell(format_speedup(stats::geomean(s_eq8)))
      .cell(format_speedup(stats::geomean(s_dedupe)));

  std::printf("Ablation — Eq. 8 (paper) vs dedupe-footprint extension, CS group, max L1D\n\n%s\n",
              table.str().c_str());
  std::printf(
      "'*' = contended but unresolvable. Dedupe should stop throttling SYR2K (whose\n"
      "intra-TB sharing Eq. 8 overcounts) while leaving the 1-D apps' decisions intact.\n");
  return 0;
}
