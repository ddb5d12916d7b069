// Table 3: the TLP "(#warps_TB, #TBs)" selected per kernel/loop by the
// Baseline, BFTT (one fixed factor per application, found by exhaustive
// search), and CATT (static analysis, per loop) — on both the 32 KB and
// the maximum L1D configurations.
#include <cstdio>

#include "common/csv.hpp"
#include "common/table.hpp"
#include "harness/harness.hpp"

namespace {

using namespace catt;

std::string tlp(int warps, int tbs) {
  std::string s = "(";
  s += std::to_string(warps);
  s += ',';
  s += std::to_string(tbs);
  s += ')';
  return s;
}

std::string bftt_tlp_for(const throttle::FixedFactor& f, const occupancy::Occupancy& occ) {
  int n = std::min(f.n_divisor, occ.warps_per_tb);
  while (n > 1 && occ.warps_per_tb % n != 0) --n;
  const int tbs = (f.tb_limit > 0 && f.tb_limit < occ.tbs_per_sm) ? f.tb_limit : occ.tbs_per_sm;
  return tlp(occ.warps_per_tb / n, tbs);
}

}  // namespace

int main(int argc, char** argv) {
  const bench::ObsSession obs_session(argc, argv, "table3_tlp_selection");
  throttle::Runner r32(bench::small_l1d_arch());
  throttle::Runner rmax(bench::max_l1d_arch());
  r32.sim_options.sched = bench::sched_from_args(argc, argv);
  rmax.sim_options.sched = r32.sim_options.sched;
  const auto disk_cache = bench::cache_from_args(argc, argv);
  r32.set_disk_cache(disk_cache.get());
  rmax.set_disk_cache(disk_cache.get());

  TextTable table({"app", "kernel", "loop", "baseline", "32K BFTT", "32K CATT", "max BFTT",
                   "max CATT"});
  CsvWriter csv({"app", "kernel", "loop", "baseline", "bftt32", "catt32", "bftt_max",
                 "catt_max"});

  for (const wl::Workload* w : wl::workloads_in_group(wl::Group::kCS, bench::kNumSms)) {
    const auto catt32 = r32.catt_choices(*w);
    const auto cattmax = rmax.catt_choices(*w);
    const auto bftt32 = r32.bftt_sweep(*w);
    const auto bfttmax = rmax.bftt_sweep(*w);
    std::fprintf(stderr, "[table3] %s: BFTT32=%s BFTTmax=%s\n", w->name.c_str(),
                 bftt32.factor.str().c_str(), bfttmax.factor.str().c_str());

    std::set<std::string> seen;
    for (std::size_t i = 0; i < w->schedule.size(); ++i) {
      if (!seen.insert(w->schedule[i].kernel).second) continue;
      const auto& c32 = catt32[i];
      const auto& cmax = cattmax[i];
      const std::string base = cmax.baseline_occ.tlp_string();
      const std::string b32 = bftt_tlp_for(bftt32.factor, c32.baseline_occ);
      const std::string bmax = bftt_tlp_for(bfttmax.factor, cmax.baseline_occ);

      if (c32.loops.empty()) {
        table.row()
            .cell(w->name)
            .cell(bench::kernel_label(*w, i))
            .cell("-")
            .cell(base)
            .cell(b32)
            .cell(base)
            .cell(bmax)
            .cell(base);
        csv.add_row({w->name, bench::kernel_label(*w, i), "-", base, b32, base, bmax, base});
        continue;
      }
      for (std::size_t li = 0; li < c32.loops.size(); ++li) {
        const auto& l32 = c32.loops[li];
        const auto& lmax = cmax.loops[li];
        table.row()
            .cell(w->name)
            .cell(li == 0 ? bench::kernel_label(*w, i) : "")
            .cell(std::to_string(l32.loop_id) + (l32.unresolvable ? "*" : ""))
            .cell(base)
            .cell(b32)
            .cell(tlp(l32.warps, l32.tbs))
            .cell(bmax)
            .cell(tlp(lmax.warps, lmax.tbs));
        csv.add_row({w->name, bench::kernel_label(*w, i), std::to_string(l32.loop_id), base,
                     b32, tlp(l32.warps, l32.tbs), bmax, tlp(lmax.warps, lmax.tbs)});
      }
    }
  }

  std::printf("Table 3 — TLP (#warps_TB, #TBs) per kernel/loop, for 32 KB and max L1D\n");
  std::printf("('*' marks loops CATT found contended but unresolvable, the CORR case)\n\n%s\n",
              table.str().c_str());
  std::printf(
      "paper shape: BFTT picks one pair per app; CATT differs per loop — e.g. ATAX#1's\n"
      "divergent loop is throttled while ATAX#2 keeps the baseline; irregular apps (BFS,\n"
      "CFD) and CORR stay at baseline everywhere.\n");
  return bench::exit_status(bench::write_result_file("table3_tlp_selection.csv", csv.str()));
}
