// Comparison against a DYNCTA-style *dynamic* thread-throttling scheme
// (Section 2.2's related work): the TB cap is adjusted reactively between
// launches from the previous launch's L1D hit rate. The dynamic scheme
// needs warm-up and reacts one phase late, so it loses to CATT on
// multi-phase and single-launch applications — the paper's motivating
// argument for compile-time decisions.
#include <cstdio>
#include <vector>

#include "common/stats.hpp"
#include "common/table.hpp"
#include "harness/harness.hpp"

int main(int argc, char** argv) {
  using namespace catt;
  const bench::ObsSession obs_session(argc, argv, "ablation_dynamic");

  throttle::Runner runner(bench::max_l1d_arch());
  runner.sim_options.sched = bench::sched_from_args(argc, argv);
  const auto disk_cache = bench::cache_from_args(argc, argv);
  runner.set_disk_cache(disk_cache.get());
  TextTable table({"app", "baseline(cyc)", "DYNCTA-like", "CATT"});
  std::vector<double> s_dyn, s_catt;

  for (const wl::Workload* w : wl::workloads_in_group(wl::Group::kCS, bench::kNumSms)) {
    const throttle::AppResult base = runner.run(*w, throttle::Baseline{});
    const throttle::AppResult dyn = runner.run(*w, throttle::Dyncta{});
    const throttle::AppResult catt = runner.run(*w, throttle::Catt{});
    const double sd = bench::speedup(base.total_cycles, dyn.total_cycles);
    const double sc = bench::speedup(base.total_cycles, catt.total_cycles);
    s_dyn.push_back(sd);
    s_catt.push_back(sc);
    table.row()
        .cell(w->name)
        .cell(static_cast<long long>(base.total_cycles))
        .cell(format_speedup(sd))
        .cell(format_speedup(sc));
    std::fprintf(stderr, "[dynamic] %s done\n", w->name.c_str());
  }
  table.row()
      .cell("geomean")
      .cell("")
      .cell(format_speedup(stats::geomean(s_dyn)))
      .cell(format_speedup(stats::geomean(s_catt)));

  std::printf("Ablation — reactive (DYNCTA-style) vs compile-time (CATT) throttling,\n"
              "CS group, max L1D\n\n%s\n",
              table.str().c_str());
  std::printf(
      "expected: the dynamic scheme helps only apps with many repeated launches of the\n"
      "same contended kernel (it learns after the first); single-launch and multi-phase\n"
      "apps get little or nothing, and warp-level granularity is unavailable to it.\n");
  return 0;
}
