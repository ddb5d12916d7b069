// Divergence study: what CATT's conservative C_tid := 1 fallback leaves on
// the table for irregular workloads. The analysis cannot bound reuse for
// data-dependent accesses, so it never throttles these apps — but an
// oracle sweep of fixed factors shows whether throttling would in fact
// have helped (reuse the conservatism forfeits). Alongside the sweep the
// bench reports the SIMT divergence counters (branches, divergent
// branches, reconvergences, max stack depth) and the SIMD memory-lane
// efficiency that motivate the "irregular" label.
#include <cstdio>

#include "common/csv.hpp"
#include "harness/harness.hpp"

int main(int argc, char** argv) {
  using namespace catt;
  const bench::ObsSession obs_session(argc, argv, "fig_divergence");

  throttle::Runner runner(bench::max_l1d_arch());
  runner.sim_options.sched = bench::sched_from_args(argc, argv);
  const auto disk_cache = bench::cache_from_args(argc, argv);
  runner.set_disk_cache(disk_cache.get());
  CsvWriter csv({"app", "kernel", "factor", "cycles", "normalized_time", "branches",
                 "divergent_branches", "reconvergences", "max_depth", "simd_mem_eff",
                 "is_catt_pick", "is_best"});

  const auto simd_eff = [](std::uint64_t lane_mem, std::uint64_t mem) {
    return mem == 0 ? 0.0 : static_cast<double>(lane_mem) / (32.0 * static_cast<double>(mem));
  };

  for (const wl::Workload* w : wl::workloads_in_group(wl::Group::kIrregular, bench::kNumSms)) {
    const throttle::AppResult base = runner.run(*w, throttle::Baseline{});
    const throttle::AppResult catt = runner.run(*w, throttle::Catt{});
    const double catt_norm =
        static_cast<double>(catt.total_cycles) / static_cast<double>(base.total_cycles);

    // Per-kernel divergence profile of the baseline run: the counters that
    // make these workloads irregular, one row per launch.
    for (std::size_t i = 0; i < base.launches.size(); ++i) {
      const sim::KernelStats& s = base.launches[i];
      csv.add_row({w->name, s.kernel_name + "#" + std::to_string(i), "base",
                   std::to_string(s.cycles), "1.000000", std::to_string(s.div.branches),
                   std::to_string(s.div.divergent_branches),
                   std::to_string(s.div.reconvergences), std::to_string(s.div.max_depth),
                   std::to_string(s.simd_mem_efficiency()), "0", "0"});
    }

    // Oracle sweep over every fixed factor — warp divisors and TB caps.
    // The warp axis often no-ops here (the hot loops sit under data-
    // dependent ifs, which the splitter cannot touch), so the TB axis is
    // where an oracle could still trade TLP for locality. The best point
    // bounds the reuse an unconstrained throttler could get.
    struct Point {
      throttle::FixedFactor f;
      double norm;
      const throttle::AppResult* r;
    };
    std::vector<throttle::AppResult> sweep_results;
    std::vector<Point> pts;
    for (const throttle::FixedFactor& f : runner.candidate_factors(*w)) {
      sweep_results.push_back(f.n_divisor == 1 && f.tb_limit == 0
                                  ? runner.run(*w, throttle::Baseline{})
                                  : runner.run(*w, throttle::Fixed{f}));
      pts.push_back({f,
                     static_cast<double>(sweep_results.back().total_cycles) /
                         static_cast<double>(base.total_cycles),
                     nullptr});
    }
    for (std::size_t i = 0; i < pts.size(); ++i) pts[i].r = &sweep_results[i];

    double best = pts.front().norm;
    for (const auto& p : pts) best = std::min(best, p.norm);

    std::printf("%s (1.0 = baseline; lower is better)\n", w->name.c_str());
    for (const auto& p : pts) {
      std::uint64_t branches = 0, div_branches = 0, reconv = 0, lane_mem = 0, mem = 0;
      std::uint32_t depth = 0;
      for (const auto& s : p.r->launches) {
        branches += s.div.branches;
        div_branches += s.div.divergent_branches;
        reconv += s.div.reconvergences;
        depth = std::max(depth, s.div.max_depth);
        lane_mem += s.lane_mem_insts;
        mem += s.mem_insts;
      }
      // CATT's pick for irregular apps is the untouched baseline point.
      const bool is_pick = p.f.n_divisor == 1 && p.f.tb_limit == 0;
      std::string bar(static_cast<std::size_t>(std::min(60.0, p.norm * 30.0)), '#');
      std::printf("  %-10s %-62s %.3f%s\n", p.f.str().c_str(), bar.c_str(), p.norm,
                  p.norm == best ? "  (best)" : "");
      csv.add_row({w->name, "-", p.f.str(), std::to_string(p.r->total_cycles),
                   std::to_string(p.norm), std::to_string(branches),
                   std::to_string(div_branches), std::to_string(reconv),
                   std::to_string(depth), std::to_string(simd_eff(lane_mem, mem)),
                   is_pick ? "1" : "0", p.norm == best ? "1" : "0"});
    }
    // CATT's decision (expected: no throttle, norm == 1.0 — pinned by
    // workloads_test's IrregularCsAppsKeepBaseline) and the gap to the
    // oracle: reuse the conservative fallback leaves on the table.
    csv.add_row({w->name, "-", "catt", std::to_string(catt.total_cycles),
                 std::to_string(catt_norm), "0", "0", "0", "0", "0", "1",
                 catt_norm <= best ? "1" : "0"});
    std::printf("  CATT pick: %.3f; oracle best: %.3f; left on the table: %.1f%%\n\n",
                catt_norm, best, (catt_norm - best) * 100.0);
    std::fprintf(stderr, "[fig_divergence] %s done\n", w->name.c_str());
  }

  std::printf(
      "paper shape: CATT's analysis proves nothing about data-dependent reuse, so it\n"
      "falls back to C_tid := 1 (no throttling) on irregular apps; the oracle sweep\n"
      "bounds the reuse that conservatism forfeits (Section 5.1.2 discussion).\n");
  return bench::exit_status(bench::write_result_file("fig_divergence.csv", csv.str()));
}
