// Figure 8: execution time of CATT and BFTT on the cache-insensitive
// group (maximum L1D). The right answer is ~1.00x everywhere: CATT's
// static analysis must not mistake CI apps for contended ones, and BFTT's
// search must land on the unthrottled configuration.
#include <cstdio>
#include <vector>

#include "common/csv.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "harness/harness.hpp"

int main(int argc, char** argv) {
  using namespace catt;
  const bench::ObsSession obs_session(argc, argv, "fig8_ci_speedup");

  throttle::Runner runner(bench::max_l1d_arch());
  runner.sim_options.sched = bench::sched_from_args(argc, argv);
  const auto disk_cache = bench::cache_from_args(argc, argv);
  runner.set_disk_cache(disk_cache.get());
  TextTable table({"app", "baseline(cyc)", "BFTT speedup", "CATT speedup", "CATT throttled?"});
  CsvWriter csv({"app", "baseline_cycles", "bftt_speedup", "catt_speedup", "catt_throttled"});

  std::vector<double> bftt_speedups;
  std::vector<double> catt_speedups;

  for (const wl::Workload* w : wl::workloads_in_group(wl::Group::kCI, bench::kNumSms)) {
    const bench::Comparison c = bench::compare(runner, *w);
    bool throttled = false;
    for (const auto& choice : c.catt.choices) {
      for (const auto& l : choice.loops) {
        if (l.warps != choice.baseline_occ.warps_per_tb ||
            l.tbs != choice.baseline_occ.tbs_per_sm) {
          throttled = true;
        }
      }
    }
    bftt_speedups.push_back(c.bftt_speedup());
    catt_speedups.push_back(c.catt_speedup());
    table.row()
        .cell(w->name)
        .cell(static_cast<long long>(c.baseline.total_cycles))
        .cell(format_speedup(c.bftt_speedup()))
        .cell(format_speedup(c.catt_speedup()))
        .cell(throttled ? "YES (unexpected)" : "no");
    csv.add_row({w->name, std::to_string(c.baseline.total_cycles),
                 std::to_string(c.bftt_speedup()), std::to_string(c.catt_speedup()),
                 throttled ? "1" : "0"});
    std::fprintf(stderr, "[fig8] %s done\n", w->name.c_str());
  }

  table.row()
      .cell("geomean")
      .cell("")
      .cell(format_speedup(stats::geomean(bftt_speedups)))
      .cell(format_speedup(stats::geomean(catt_speedups)))
      .cell("");

  std::printf("Figure 8 — CI-group performance, maximum L1D (normalized to baseline)\n\n%s\n",
              table.str().c_str());
  std::printf("paper: CATT and BFTT both keep the baseline TLP on every CI app (~1.00x)\n");
  return bench::exit_status(bench::write_result_file("fig8_ci_speedup.csv", csv.str()));
}
