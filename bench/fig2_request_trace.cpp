// Figure 2: number of off-chip memory requests per load instruction (after
// coalescing) over the dynamic instruction sequence, for the CS group at
// baseline TLP. High values = divergent phases (cache contention), low
// values = coalesced phases; apps like ATAX/BICG/MVT show two contrasting
// phases, which is the motivation for per-loop (not per-app) throttling.
#include <cstdio>

#include "common/csv.hpp"
#include "gpusim/gpu.hpp"
#include "harness/harness.hpp"

namespace {

/// Renders a bucketed series as a small ASCII sparkline + values.
void print_series(const std::vector<catt::sim::SeriesAccum::Point>& pts) {
  static const char* kLevels[] = {" ", ".", ":", "-", "=", "+", "*", "#"};
  std::string bar;
  for (const auto& p : pts) {
    const int level = static_cast<int>(std::min(7.0, p.mean / 32.0 * 7.0 + 0.5));
    bar += kLevels[level];
  }
  std::printf("  |%s|\n  values (mean req/inst per bucket):", bar.c_str());
  for (std::size_t i = 0; i < pts.size(); i += std::max<std::size_t>(1, pts.size() / 16)) {
    std::printf(" %.1f", pts[i].mean);
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace catt;
  const bench::ObsSession obs_session(argc, argv, "fig2_request_trace");

  CsvWriter csv({"app", "launch", "instr_index", "mean_requests"});
  const sim::sched::PolicyConfig sched = bench::sched_from_args(argc, argv);

  for (const wl::Workload* w : wl::workloads_in_group(wl::Group::kCS, bench::kNumSms)) {
    sim::DeviceMemory mem;
    w->setup(mem);
    sim::Gpu gpu(bench::max_l1d_arch(), mem);
    std::printf("%s\n", w->name.c_str());

    for (std::size_t i = 0; i < w->schedule.size(); ++i) {
      const auto& entry = w->schedule[i];
      sim::SimOptions opts;
      opts.collect_request_trace = true;
      opts.sched = sched;
      sim::LaunchSpec spec{&w->kernel(entry.kernel), entry.launch, entry.params};
      for (int r = 0; r < entry.repeats; ++r) {
        const sim::KernelStats s = gpu.run(spec, opts);
        if (r > 0) continue;  // plot the first instance of each launch
        std::printf(" %s (%s): %llu load insts, mean %.2f req/inst\n",
                    bench::kernel_label(*w, i).c_str(), entry.kernel.c_str(),
                    static_cast<unsigned long long>(s.l1.accesses),
                    s.requests_per_mem_inst());
        print_series(s.request_trace);
        for (const auto& p : s.request_trace) {
          csv.add_row({w->name, bench::kernel_label(*w, i), std::to_string(p.index),
                       std::to_string(p.mean)});
        }
      }
    }
    std::printf("\n");
  }

  std::printf(
      "paper shape: ATAX/BICG/MVT show one high-divergence phase (32 req/inst) and one\n"
      "coalesced phase (~1); PF alternates within kernel 1; BFS/CFD fluctuate; CI-style\n"
      "phases are flat.\n");
  return bench::exit_status(bench::write_result_file("fig2_request_trace.csv", csv.str()));
}
