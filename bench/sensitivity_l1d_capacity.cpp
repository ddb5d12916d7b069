// Section 5.1.3 extended: sensitivity of thread throttling to the L1D
// capacity. The paper evaluates two points (max and 32 KB, Figures 7/10)
// and argues the scheme is more effective on small caches ("GPUs in
// previous generations or ones in mobile systems"); this bench sweeps the
// capacity and adds the split-cache (Pascal-like, 24 KB) machine.
#include <cstdio>
#include <vector>

#include "common/csv.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "harness/harness.hpp"

int main(int argc, char** argv) {
  using namespace catt;
  const bench::ObsSession obs_session(argc, argv, "sensitivity_l1d_capacity");

  // A representative contended subset (full sweeps are Figures 7/10).
  const std::vector<std::string> apps = {"atax", "gsmv", "km", "mvt"};
  const std::vector<std::size_t> caps_kib = {16, 32, 48, 64, 96, 128};

  TextTable table({"L1D", "atax", "gsmv", "km", "mvt", "geomean"});
  CsvWriter csv({"l1d_kib", "app", "baseline_cycles", "catt_cycles", "catt_speedup"});

  // One shared disk tier across the per-capacity Runners: each capacity
  // changes the arch fingerprint, so entries never collide.
  const auto disk_cache = bench::cache_from_args(argc, argv);

  auto run_row = [&](const std::string& label, const arch::GpuArch& gpu_arch,
                     std::size_t cap_kib) {
    throttle::Runner runner(gpu_arch);
    runner.sim_options.sched = bench::sched_from_args(argc, argv);
    runner.set_disk_cache(disk_cache.get());
    std::vector<double> speedups;
    auto& r = table.row().cell(label);
    for (const auto& name : apps) {
      const wl::Workload& w = wl::find_workload(name, bench::kNumSms);
      const throttle::AppResult base = runner.run(w, throttle::Baseline{});
      const throttle::AppResult catt = runner.run(w, throttle::Catt{});
      const double sp = bench::speedup(base.total_cycles, catt.total_cycles);
      speedups.push_back(sp);
      r.cell(format_speedup(sp));
      csv.add_row({std::to_string(cap_kib), name, std::to_string(base.total_cycles),
                   std::to_string(catt.total_cycles), std::to_string(sp)});
    }
    r.cell(format_speedup(stats::geomean(speedups)));
    std::fprintf(stderr, "[l1d-sweep] %s done\n", label.c_str());
  };

  for (std::size_t cap : caps_kib) {
    arch::GpuArch gpu_arch = bench::max_l1d_arch();
    gpu_arch.l1d_cap_bytes = cap * 1024;
    run_row(std::to_string(cap) + " KB", gpu_arch, cap);
  }
  run_row("pascal 24 KB (split)", arch::GpuArch::pascal_like(bench::kNumSms), 24);

  std::printf(
      "L1D capacity sensitivity — CATT speedup over baseline per capacity\n"
      "(Section 5.1.3: throttling should matter more as the L1D shrinks)\n\n%s\n",
      table.str().c_str());
  return bench::exit_status(bench::write_result_file("sensitivity_l1d_capacity.csv", csv.str()));
}
