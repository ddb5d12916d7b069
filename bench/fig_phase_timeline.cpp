// Phase timeline: per-interval L1D hit rate and IPC for a cache-sensitive
// multi-phase workload (ATAX), baseline occupancy vs. the CATT-selected
// (N, M). The paper argues per-loop phase behaviour is why a single fixed
// factor loses to compile-time per-loop throttling (Section 5.1); this
// bench draws that claim from the obs interval sampler: ATAX#1 thrashes at
// full TLP and recovers under throttling, while ATAX#2's phase is already
// cache-friendly and must look identical under both policies.
#include <cstdio>
#include <vector>

#include "common/csv.hpp"
#include "harness/harness.hpp"
#include "obs/obs.hpp"

namespace {

/// One policy's run with the interval sampler attached. A fresh Runner per
/// policy keeps the SimCache cold so every launch actually simulates (a
/// cache-assembled launch produces no samples, by design) — which is also
/// why this bench never attaches the --cache= disk tier.
std::vector<catt::obs::LaunchSeries> run_sampled(const catt::wl::Workload& w,
                                                 const catt::throttle::Policy& policy,
                                                 std::int64_t interval,
                                                 catt::throttle::AppResult& result) {
  using namespace catt;
  std::vector<obs::LaunchSeries> collected;
  obs::Registry registry;  // local: keeps the process registry bench-clean
  obs::SimObs so;
  so.metrics_interval = interval;
  so.trace_level = obs::env_trace_level();  // CATT_TRACE/--trace-out still honoured
  so.registry = &registry;
  // Launches of a single policy run execute serially on this thread, so
  // the callback needs no lock and arrives in schedule order.
  so.on_series = [&](const obs::LaunchSeries& s) { collected.push_back(s); };

  throttle::Runner runner(bench::max_l1d_arch());
  runner.sim_options.obs = &so;
  result = runner.run(w, policy);
  return collected;
}

void print_timeline(const std::string& label, const catt::obs::LaunchSeries& s) {
  std::printf("  %-26s |", label.c_str());
  const auto rows = s.csv_rows();
  // Downsample to at most 48 columns; each glyph bins the mean hit rate.
  const std::size_t n = rows.size();
  const std::size_t cols = n < 48 ? n : 48;
  for (std::size_t c = 0; c < cols; ++c) {
    const std::size_t lo = c * n / cols;
    const std::size_t hi = (c + 1) * n / cols;
    double sum = 0.0;
    for (std::size_t i = lo; i < hi; ++i) sum += std::atof(rows[i][3].c_str());
    const double hit = sum / static_cast<double>(hi - lo);
    static const char* kGlyphs = " .:-=+*#%@";
    int g = static_cast<int>(hit * 10.0);
    if (g < 0) g = 0;
    if (g > 9) g = 9;
    std::putchar(kGlyphs[g]);
  }
  std::printf("| %zu samples\n", n);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace catt;
  const bench::ObsSession obs_session(argc, argv, "fig_phase_timeline");

  const std::int64_t interval =
      obs::env_metrics_interval() > 0 ? obs::env_metrics_interval() : 2048;
  const wl::Workload& w = wl::find_workload("atax", bench::kNumSms);

  throttle::AppResult base_res, catt_res;
  const auto base_series = run_sampled(w, throttle::Baseline{}, interval, base_res);
  const auto catt_series = run_sampled(w, throttle::Catt{}, interval, catt_res);

  std::printf("phase timeline: %s, interval=%lld cycles (L1D hit rate; ' '=0 .. '@'=1)\n\n",
              w.name.c_str(), static_cast<long long>(interval));
  for (const auto& choice : catt_res.choices) {
    for (const auto& l : choice.loops) {
      std::printf("  catt choice %s loop %d: (N=%d, M=%d)\n", choice.kernel.c_str(),
                  l.loop_id, l.warps, l.tbs);
    }
  }
  std::printf("\n");

  std::vector<std::string> header = {"app", "policy", "launch", "kernel"};
  for (const std::string& c : obs::LaunchSeries::csv_columns()) header.push_back(c);
  CsvWriter csv(header);

  struct Source {
    const char* policy;
    const std::vector<obs::LaunchSeries>* series;
  };
  for (const Source& src : {Source{"baseline", &base_series}, Source{"catt", &catt_series}}) {
    for (std::size_t launch = 0; launch < src.series->size(); ++launch) {
      const obs::LaunchSeries& s = (*src.series)[launch];
      const std::string label = bench::kernel_label(w, launch) + " " + src.policy;
      print_timeline(label, s);
      for (auto& row : s.csv_rows()) {
        std::vector<std::string> full = {w.name, src.policy, std::to_string(launch), s.kernel};
        for (auto& cell : row) full.push_back(std::move(cell));
        csv.add_row(std::move(full));
      }
    }
  }

  std::printf(
      "\npaper shape: ATAX#1 at baseline sits near the low glyphs (thrashing) and rises\n"
      "under catt's throttled (N, M); ATAX#2 is cache-friendly either way, so its two\n"
      "timelines match (catt leaves it at baseline occupancy).\n");
  std::printf("baseline=%lld cycles catt=%lld cycles speedup=%.3f\n",
              static_cast<long long>(base_res.total_cycles),
              static_cast<long long>(catt_res.total_cycles),
              bench::speedup(base_res.total_cycles, catt_res.total_cycles));

  return bench::exit_status(bench::write_result_file("fig_phase_timeline.csv", csv.str()));
}
