// Figure 6: per-kernel L1D hit rates for baseline, BFTT, and CATT on the
// cache-sensitive group (maximum L1D). Throttled kernels' hit rates must
// rise; untouched kernels' must match the baseline.
#include <cstdio>

#include <set>

#include "common/csv.hpp"
#include "common/table.hpp"
#include "harness/harness.hpp"

int main(int argc, char** argv) {
  using namespace catt;
  const bench::ObsSession obs_session(argc, argv, "fig6_hit_rates");

  throttle::Runner runner(bench::max_l1d_arch());
  runner.sim_options.sched = bench::sched_from_args(argc, argv);
  const auto disk_cache = bench::cache_from_args(argc, argv);
  runner.set_disk_cache(disk_cache.get());
  TextTable table({"kernel", "baseline", "BFTT", "CATT"});
  CsvWriter csv({"kernel", "baseline_hit_rate", "bftt_hit_rate", "catt_hit_rate"});

  for (const wl::Workload* w : wl::workloads_in_group(wl::Group::kCS, bench::kNumSms)) {
    const bench::Comparison c = bench::compare(runner, *w);
    // One bar per *distinct kernel* (first schedule occurrence), as in the
    // paper's ATAX#1 / ATAX#2 labeling.
    std::set<std::string> seen;
    for (std::size_t i = 0; i < w->schedule.size(); ++i) {
      if (!seen.insert(w->schedule[i].kernel).second) continue;
      table.row()
          .cell(bench::kernel_label(*w, i))
          .cell(format_percent(c.baseline.launches[i].l1_hit_rate()))
          .cell(format_percent(c.bftt.best.launches[i].l1_hit_rate()))
          .cell(format_percent(c.catt.launches[i].l1_hit_rate()));
      csv.add_row({bench::kernel_label(*w, i),
                   std::to_string(c.baseline.launches[i].l1_hit_rate()),
                   std::to_string(c.bftt.best.launches[i].l1_hit_rate()),
                   std::to_string(c.catt.launches[i].l1_hit_rate())});
    }
    std::fprintf(stderr, "[fig6] %s done\n", w->name.c_str());
  }

  std::printf("Figure 6 — L1D hit rates per CS kernel, maximum L1D\n\n%s\n",
              table.str().c_str());
  std::printf(
      "paper shape: CATT raises the hit rate on contended kernels (ATAX#1, BICG#2, MVT#1,\n"
      "GSMV, SYR2K, KM, PF#1) and matches the baseline on irregular/untouched ones.\n");
  return bench::exit_status(bench::write_result_file("fig6_hit_rates.csv", csv.str()));
}
