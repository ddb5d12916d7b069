// CATT vs dynamic throttling (the paper's central comparison, Section
// 2.2): the compile-time static (N, M) choices against a CCWS-style
// lost-locality warp scheduler and a DYNCTA-style TB-pausing controller,
// both running *inside* the simulator via the SchedPolicy seam
// (SimOptions::sched) — plus the hybrid: CATT's static plan with the
// adaptive policy engine correcting it at runtime (src/policy). The pure
// dynamic schemes pay reaction latency — they must observe contention
// before they can throttle, and they re-learn on every phase change —
// while CATT bakes the right TLP into the code. Adaptive keeps CATT's
// head start and spends its runtime budget only where the static analysis
// was too optimistic (irregular loops the transform left alone).
//
// Expected trend: CATT matches or beats both dynamic baselines on the
// majority of the cache-sensitive group, adaptive >= CATT on the CS
// geomean, and on the cache-insensitive group everything stays near 1x.
//
// The policy columns are driven by `--policies=a+b+...` (default
// "ccws+dyncta+catt+adaptive"; see bench::policies_from_args for the
// token grammar), so CI can trim the sweep and experiments can add
// adaptive knob variants without recompiling.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "common/csv.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "harness/harness.hpp"

namespace {

struct GroupSummary {
  /// One speedup vector per policy column, indexed like the column list.
  std::vector<std::vector<double>> s;
  int catt_wins = 0;  // workloads where CATT >= every dynamic column
  int total = 0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace catt;
  const bench::ObsSession obs_session(argc, argv, "fig_dynamic_compare");

  throttle::Runner runner(bench::max_l1d_arch());
  const auto disk_cache = bench::cache_from_args(argc, argv);
  runner.set_disk_cache(disk_cache.get());

  // Each configuration has its own SimOptions fingerprint, so the shared
  // SimCache never mixes columns up — and the baseline runs are reused
  // across groups and columns.
  const std::vector<bench::PolicyColumn> cols =
      bench::policies_from_args(argc, argv, "ccws+dyncta+catt+adaptive");
  const sim::sched::PolicyConfig none{};

  std::vector<std::string> table_header = {"app", "group", "baseline(cyc)"};
  std::vector<std::string> csv_header = {"app", "group", "baseline_cycles"};
  for (const auto& col : cols) table_header.push_back(col.label);
  table_header.push_back("best");
  for (const auto& col : cols) csv_header.push_back(col.label + "_cycles");
  for (const auto& col : cols) csv_header.push_back(col.label + "_speedup");
  csv_header.push_back("best");
  TextTable table(table_header);
  CsvWriter csv(csv_header);

  GroupSummary cs, ci;
  cs.s.resize(cols.size());
  ci.s.resize(cols.size());
  std::size_t catt_i = cols.size();  // first catt column, if any
  for (std::size_t i = 0; i < cols.size(); ++i) {
    if (cols[i].policy.get_if<throttle::Catt>() != nullptr) {
      catt_i = i;
      break;
    }
  }

  for (const wl::Group g : {wl::Group::kCS, wl::Group::kCI}) {
    GroupSummary& sum = g == wl::Group::kCS ? cs : ci;
    const char* gname = g == wl::Group::kCS ? "CS" : "CI";
    for (const wl::Workload* w : wl::workloads_in_group(g, bench::kNumSms)) {
      runner.sim_options.sched = none;
      const throttle::AppResult base = runner.run(*w, throttle::Baseline{});

      std::vector<std::int64_t> cycles(cols.size(), 0);
      std::vector<double> sp(cols.size(), 0.0);
      for (std::size_t i = 0; i < cols.size(); ++i) {
        runner.sim_options.sched = cols[i].sched;
        const throttle::AppResult r = runner.run(*w, cols[i].policy);
        cycles[i] = r.total_cycles;
        sp[i] = bench::speedup(base.total_cycles, r.total_cycles);
      }
      runner.sim_options.sched = none;

      // CATT's win criterion is against the *runtime-only* columns
      // (baseline-code schemes — the paper's claim); the hybrid adaptive
      // column competes only for "best".
      std::size_t best_i = 0;
      bool catt_best = catt_i < cols.size();
      for (std::size_t i = 0; i < cols.size(); ++i) {
        if (cycles[i] < cycles[best_i]) best_i = i;
        if (catt_i < cols.size() &&
            cols[i].policy.get_if<throttle::Baseline>() != nullptr &&
            cycles[catt_i] > cycles[i]) {
          catt_best = false;
        }
        sum.s[i].push_back(sp[i]);
      }
      sum.catt_wins += catt_best ? 1 : 0;
      ++sum.total;

      table.row().cell(w->name).cell(gname).cell(static_cast<long long>(base.total_cycles));
      for (std::size_t i = 0; i < cols.size(); ++i) table.cell(format_speedup(sp[i]));
      table.cell(cols[best_i].label);

      std::vector<std::string> csv_row = {w->name, gname,
                                          std::to_string(base.total_cycles)};
      for (std::size_t i = 0; i < cols.size(); ++i) {
        csv_row.push_back(std::to_string(cycles[i]));
      }
      for (std::size_t i = 0; i < cols.size(); ++i) {
        csv_row.push_back(std::to_string(sp[i]));
      }
      csv_row.push_back(cols[best_i].label);
      csv.add_row(std::move(csv_row));
      std::fprintf(stderr, "[dynamic-compare] %s done\n", w->name.c_str());
    }
  }

  for (const auto* sum : {&cs, &ci}) {
    table.row().cell(sum == &cs ? "geomean CS" : "geomean CI").cell("").cell("");
    for (std::size_t i = 0; i < cols.size(); ++i) {
      table.cell(format_speedup(stats::geomean(sum->s[i])));
    }
    table.cell("");
  }

  std::printf("CATT (compile-time static TLP) vs dynamic throttling baselines\n"
              "and the adaptive hybrid (static plan + runtime policy engine),\n"
              "max L1D\n\n%s\n",
              table.str().c_str());
  std::printf("CATT matches/beats the dynamic schemes on %d/%d CS workloads "
              "(paper trend: majority)\n",
              cs.catt_wins, cs.total);
  std::printf("CI group sanity: %d/%d total (every column should sit near 1x)\n", ci.total,
              ci.total);
  for (std::size_t i = 0; i < cols.size(); ++i) {
    std::printf("CS geomean %-28s %s\n", cols[i].label.c_str(),
                format_speedup(stats::geomean(cs.s[i])).c_str());
  }
  return bench::exit_status(bench::write_result_file("fig_dynamic_compare.csv", csv.str()));
}
