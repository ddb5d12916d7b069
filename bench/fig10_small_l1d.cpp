// Figure 10: CS-group speedups with the L1D capped at 32 KB. Contention is
// worse on a small cache, so throttling gains grow relative to Figure 7.
//
// Paper result: CATT +89.23% geomean, BFTT +68.17% geomean.
#include <cstdio>
#include <vector>

#include "common/csv.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "harness/harness.hpp"

int main(int argc, char** argv) {
  using namespace catt;
  const bench::ObsSession obs_session(argc, argv, "fig10_small_l1d");

  throttle::Runner runner(bench::small_l1d_arch());
  runner.sim_options.sched = bench::sched_from_args(argc, argv);
  const auto disk_cache = bench::cache_from_args(argc, argv);
  runner.set_disk_cache(disk_cache.get());
  TextTable table({"app", "baseline(cyc)", "BFTT", "CATT", "BFTT speedup", "CATT speedup"});
  CsvWriter csv({"app", "baseline_cycles", "bftt_cycles", "catt_cycles", "bftt_speedup",
                 "catt_speedup"});

  std::vector<double> bftt_speedups;
  std::vector<double> catt_speedups;

  for (const wl::Workload* w : wl::workloads_in_group(wl::Group::kCS, bench::kNumSms)) {
    const bench::Comparison c = bench::compare(runner, *w);
    bftt_speedups.push_back(c.bftt_speedup());
    catt_speedups.push_back(c.catt_speedup());
    table.row()
        .cell(w->name)
        .cell(static_cast<long long>(c.baseline.total_cycles))
        .cell(static_cast<long long>(c.bftt.best.total_cycles))
        .cell(static_cast<long long>(c.catt.total_cycles))
        .cell(format_speedup(c.bftt_speedup()))
        .cell(format_speedup(c.catt_speedup()));
    csv.add_row({w->name, std::to_string(c.baseline.total_cycles),
                 std::to_string(c.bftt.best.total_cycles), std::to_string(c.catt.total_cycles),
                 std::to_string(c.bftt_speedup()), std::to_string(c.catt_speedup())});
    std::fprintf(stderr, "[fig10] %s done\n", w->name.c_str());
  }

  const double bftt_geo = stats::geomean(bftt_speedups);
  const double catt_geo = stats::geomean(catt_speedups);
  table.row().cell("geomean").cell("").cell("").cell("").cell(format_speedup(bftt_geo)).cell(
      format_speedup(catt_geo));

  std::printf("Figure 10 — CS-group performance on a 32 KB L1D (normalized to baseline)\n\n%s\n",
              table.str().c_str());
  std::printf("paper:   CATT +89.23%% geomean, BFTT +68.17%% geomean\n");
  std::printf("this run: CATT %+.2f%% geomean, BFTT %+.2f%% geomean\n",
              (catt_geo - 1.0) * 100.0, (bftt_geo - 1.0) * 100.0);
  return bench::exit_status(bench::write_result_file("fig10_small_l1d.csv", csv.str()));
}
