// Figure 3: performance vs. TLP for microbenchmarks whose footprint fills
// the L1D at 4, 8, or 16 resident warps. Sweeping the active warp count
// via warp-level throttling must produce the paper's U-curve: fastest at
// the filling warp count, slower below (underutilization) and above
// (thrashing). CATT's static pick for each microbenchmark is marked.
#include <cstdio>
#include <map>
#include <vector>

#include "common/csv.hpp"
#include "common/table.hpp"
#include "harness/harness.hpp"

int main(int argc, char** argv) {
  using namespace catt;
  const bench::ObsSession obs_session(argc, argv, "fig3_tlp_tradeoff");

  throttle::Runner runner(bench::max_l1d_arch());
  runner.sim_options.sched = bench::sched_from_args(argc, argv);
  const auto disk_cache = bench::cache_from_args(argc, argv);
  runner.set_disk_cache(disk_cache.get());
  const std::vector<int> divisors = {32, 16, 8, 4, 2, 1};  // TLP = 32/divisor warps

  TextTable table({"TLP (warps)", "L1D-full-4w", "L1D-full-8w", "L1D-full-16w"});
  CsvWriter csv({"micro", "active_warps", "cycles", "normalized", "catt_pick"});

  std::map<int, std::map<int, double>> normalized;  // fill_warps -> tlp -> norm time
  std::map<int, int> catt_pick;                     // fill_warps -> chosen warps

  for (int fill : {4, 8, 16}) {
    const wl::Workload& w =
        wl::find_workload("l1dfull" + std::to_string(fill) + "w", bench::kNumSms);
    const throttle::AppResult base = runner.run(w, throttle::Baseline{});
    const auto choices = runner.catt_choices(w);
    catt_pick[fill] = choices[0].loops.empty() ? 32 : choices[0].loops[0].warps;

    for (int n : divisors) {
      const throttle::AppResult r =
          n == 1 ? runner.run(w, throttle::Baseline{}) : runner.run(w, throttle::Fixed{{n, 0}});
      const double norm = static_cast<double>(r.total_cycles) /
                          static_cast<double>(base.total_cycles);
      normalized[fill][32 / n] = norm;
      csv.add_row({w.name, std::to_string(32 / n), std::to_string(r.total_cycles),
                   std::to_string(norm),
                   (32 / n == catt_pick[fill]) ? "1" : "0"});
    }
    std::fprintf(stderr, "[fig3] %s done\n", w.name.c_str());
  }

  for (int n : divisors) {
    const int warps = 32 / n;
    auto cell_for = [&](int fill) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.3f%s", normalized[fill][warps],
                    warps == catt_pick[fill] ? "  <- CATT" : "");
      return std::string(buf);
    };
    table.row()
        .cell(std::to_string(warps))
        .cell(cell_for(4))
        .cell(cell_for(8))
        .cell(cell_for(16));
  }

  std::printf(
      "Figure 3 — normalized execution time vs. TLP for L1D-filling microbenchmarks\n"
      "(1.0 = full-TLP baseline; lower is better)\n\n%s\n",
      table.str().c_str());
  std::printf(
      "paper shape: each curve bottoms out at its filling warp count (4/8/16) — more\n"
      "warps thrash the L1D, fewer underutilize the SM. CATT should pick the knee.\n");
  return bench::exit_status(bench::write_result_file("fig3_tlp_tradeoff.csv", csv.str()));
}
