// Golden-CSV regression suite: reduced-scale replicas of the bench
// configurations (Figures 2/3/6/7/8/9/10, Table 3, phase timeline, the
// dynamic and divergence studies), run
// through the same Runner/compare paths the benches use and byte-diffed
// against checked-in CSVs under tests/golden/. This replaces the manual
// "CSVs verified byte-identical" review step: any change to the timing
// engines, the memoizing executor, the static analysis, or the CSV schema
// shows up as a golden diff.
//
// The whole suite is one TEST so every configuration shares two memoizing
// Runners (max and 32 KB L1D): the BFTT sweep simulated for fig6-mini is
// the same one table3/fig7/fig9-mini read back from the SimCache. The
// scheduler policy is pinned to an explicit `none` spec, which must be
// byte-identical to a default-constructed SimOptions (the pre-seam world).
//
// Regenerating after an intentional behaviour change:
//   scripts/update_goldens.sh        (or CATT_UPDATE_GOLDENS=1 ctest -R Golden)
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/csv.hpp"
#include "gpusim/gpu.hpp"
#include "harness/harness.hpp"
#include "obs/obs.hpp"

namespace {

using namespace catt;

bool update_mode() {
  const char* v = std::getenv("CATT_UPDATE_GOLDENS");
  return v != nullptr && *v != '\0' && std::string(v) != "0";
}

std::string golden_path(const std::string& name) {
  return std::string(CATT_GOLDEN_DIR) + "/" + name;
}

/// Byte-compares `content` against tests/golden/<name>; in update mode,
/// rewrites the golden instead. Diffs are reported by first mismatching
/// line so a schema change is distinguishable from a value drift.
void check_golden(const std::string& name, const std::string& content) {
  SCOPED_TRACE("golden CSV: " + name);
  const std::string path = golden_path(name);
  if (update_mode()) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << content;
    ASSERT_TRUE(out.good()) << "short write to " << path;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " — run scripts/update_goldens.sh to create it";
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string expected = buf.str();
  if (expected == content) return;

  // Locate the first differing line for the failure message.
  std::istringstream a(expected), b(content);
  std::string la, lb;
  int line = 0;
  while (true) {
    ++line;
    const bool ha = static_cast<bool>(std::getline(a, la));
    const bool hb = static_cast<bool>(std::getline(b, lb));
    if (!ha && !hb) break;
    if (la != lb || ha != hb) {
      ADD_FAILURE() << name << " differs from golden at line " << line << "\n  golden: "
                    << (ha ? la : std::string("<eof>")) << "\n  actual: "
                    << (hb ? lb : std::string("<eof>"))
                    << "\nIf the change is intentional, regenerate with "
                       "scripts/update_goldens.sh and review the diff.";
      return;
    }
  }
  ADD_FAILURE() << name << " differs from golden (no line-level diff found)";
}

std::string tlp(int warps, int tbs) {
  std::string s = "(";
  s += std::to_string(warps);
  s += ',';
  s += std::to_string(tbs);
  s += ')';
  return s;
}

// Mirrors the bench-local helper in table3_tlp_selection.cpp.
std::string bftt_tlp_for(const throttle::FixedFactor& f, const occupancy::Occupancy& occ) {
  int n = std::min(f.n_divisor, occ.warps_per_tb);
  while (n > 1 && occ.warps_per_tb % n != 0) --n;
  const int tbs = (f.tb_limit > 0 && f.tb_limit < occ.tbs_per_sm) ? f.tb_limit : occ.tbs_per_sm;
  return tlp(occ.warps_per_tb / n, tbs);
}

// Reduced-scale workload subsets. The compare-based configurations share
// these so the baseline/BFTT/CATT simulations are paid for once per arch:
// gsmv is the cheapest CS app CATT actually throttles, bfs/cfd are the
// cheap irregular ones that must stay at baseline.
const std::vector<std::string> kCsMini = {"gsmv", "bfs", "cfd"};
const std::vector<std::string> kTable3Mini = {"gsmv", "bfs"};
const std::vector<std::string> kCiMini = {"lud", "nw", "hm"};

std::string fig2_mini() {
  CsvWriter csv({"app", "launch", "instr_index", "mean_requests"});
  const wl::Workload& w = wl::find_workload("bfs", bench::kNumSms);
  sim::DeviceMemory mem;
  w.setup(mem);
  sim::Gpu gpu(bench::max_l1d_arch(), mem);
  for (std::size_t i = 0; i < w.schedule.size(); ++i) {
    const auto& entry = w.schedule[i];
    sim::SimOptions opts;
    opts.collect_request_trace = true;
    opts.sched = sim::sched::PolicyConfig::parse("none");
    sim::LaunchSpec spec{&w.kernel(entry.kernel), entry.launch, entry.params};
    for (int r = 0; r < entry.repeats; ++r) {
      const sim::KernelStats s = gpu.run(spec, opts);
      if (r > 0) continue;
      for (const auto& p : s.request_trace) {
        csv.add_row({w.name, bench::kernel_label(w, i), std::to_string(p.index),
                     std::to_string(p.mean)});
      }
    }
  }
  return csv.str();
}

std::string fig3_mini(throttle::Runner& runner) {
  CsvWriter csv({"micro", "active_warps", "cycles", "normalized", "catt_pick"});
  const std::vector<int> divisors = {32, 16, 8, 4, 2, 1};
  for (int fill : {4, 8, 16}) {
    const wl::Workload& w =
        wl::find_workload("l1dfull" + std::to_string(fill) + "w", bench::kNumSms);
    const throttle::AppResult base = runner.run(w, throttle::Baseline{});
    const auto choices = runner.catt_choices(w);
    const int pick = choices[0].loops.empty() ? 32 : choices[0].loops[0].warps;
    for (int n : divisors) {
      const throttle::AppResult r =
          n == 1 ? runner.run(w, throttle::Baseline{}) : runner.run(w, throttle::Fixed{{n, 0}});
      const double norm =
          static_cast<double>(r.total_cycles) / static_cast<double>(base.total_cycles);
      csv.add_row({w.name, std::to_string(32 / n), std::to_string(r.total_cycles),
                   std::to_string(norm), (32 / n == pick) ? "1" : "0"});
    }
  }
  return csv.str();
}

std::string table3_mini(throttle::Runner& r32, throttle::Runner& rmax) {
  CsvWriter csv({"app", "kernel", "loop", "baseline", "bftt32", "catt32", "bftt_max",
                 "catt_max"});
  for (const std::string& name : kTable3Mini) {
    const wl::Workload& w = wl::find_workload(name, bench::kNumSms);
    const auto catt32 = r32.catt_choices(w);
    const auto cattmax = rmax.catt_choices(w);
    const auto bftt32 = r32.bftt_sweep(w);
    const auto bfttmax = rmax.bftt_sweep(w);
    std::set<std::string> seen;
    for (std::size_t i = 0; i < w.schedule.size(); ++i) {
      if (!seen.insert(w.schedule[i].kernel).second) continue;
      const auto& c32 = catt32[i];
      const auto& cmax = cattmax[i];
      const std::string base = cmax.baseline_occ.tlp_string();
      const std::string b32 = bftt_tlp_for(bftt32.factor, c32.baseline_occ);
      const std::string bmax = bftt_tlp_for(bfttmax.factor, cmax.baseline_occ);
      if (c32.loops.empty()) {
        csv.add_row({w.name, bench::kernel_label(w, i), "-", base, b32, base, bmax, base});
        continue;
      }
      for (std::size_t li = 0; li < c32.loops.size(); ++li) {
        const auto& l32 = c32.loops[li];
        const auto& lmax = cmax.loops[li];
        csv.add_row({w.name, bench::kernel_label(w, i), std::to_string(l32.loop_id), base,
                     b32, tlp(l32.warps, l32.tbs), bmax, tlp(lmax.warps, lmax.tbs)});
      }
    }
  }
  return csv.str();
}

std::string fig6_mini(throttle::Runner& runner) {
  CsvWriter csv({"kernel", "baseline_hit_rate", "bftt_hit_rate", "catt_hit_rate"});
  for (const std::string& name : kCsMini) {
    const wl::Workload& w = wl::find_workload(name, bench::kNumSms);
    const bench::Comparison c = bench::compare(runner, w);
    std::set<std::string> seen;
    for (std::size_t i = 0; i < w.schedule.size(); ++i) {
      if (!seen.insert(w.schedule[i].kernel).second) continue;
      csv.add_row({bench::kernel_label(w, i),
                   std::to_string(c.baseline.launches[i].l1_hit_rate()),
                   std::to_string(c.bftt.best.launches[i].l1_hit_rate()),
                   std::to_string(c.catt.launches[i].l1_hit_rate())});
    }
  }
  return csv.str();
}

std::string fig7_mini(throttle::Runner& runner) {
  CsvWriter csv({"app", "baseline_cycles", "bftt_cycles", "catt_cycles", "bftt_speedup",
                 "catt_speedup", "bftt_factor"});
  for (const std::string& name : kCsMini) {
    const wl::Workload& w = wl::find_workload(name, bench::kNumSms);
    const bench::Comparison c = bench::compare(runner, w);
    csv.add_row({w.name, std::to_string(c.baseline.total_cycles),
                 std::to_string(c.bftt.best.total_cycles), std::to_string(c.catt.total_cycles),
                 std::to_string(c.bftt_speedup()), std::to_string(c.catt_speedup()),
                 c.bftt.factor.str()});
  }
  return csv.str();
}

std::string fig8_mini(throttle::Runner& runner) {
  CsvWriter csv({"app", "baseline_cycles", "bftt_speedup", "catt_speedup", "catt_throttled"});
  for (const std::string& name : kCiMini) {
    const wl::Workload& w = wl::find_workload(name, bench::kNumSms);
    const bench::Comparison c = bench::compare(runner, w);
    bool throttled = false;
    for (const auto& choice : c.catt.choices) {
      for (const auto& l : choice.loops) {
        if (l.warps != choice.baseline_occ.warps_per_tb ||
            l.tbs != choice.baseline_occ.tbs_per_sm) {
          throttled = true;
        }
      }
    }
    csv.add_row({w.name, std::to_string(c.baseline.total_cycles),
                 std::to_string(c.bftt_speedup()), std::to_string(c.catt_speedup()),
                 throttled ? "1" : "0"});
  }
  return csv.str();
}

std::string fig9_mini(throttle::Runner& runner) {
  CsvWriter csv({"app", "factor", "active_warps_frac", "normalized_time", "is_catt_pick",
                 "is_best"});
  const wl::Workload& w = wl::find_workload("gsmv", bench::kNumSms);
  const throttle::AppResult base = runner.run(w, throttle::Baseline{});
  const throttle::AppResult catt = runner.run(w, throttle::Catt{});
  const double catt_norm =
      static_cast<double>(catt.total_cycles) / static_cast<double>(base.total_cycles);
  int catt_n = 1;
  for (const auto& choice : catt.choices) {
    for (const auto& l : choice.loops) {
      if (l.warps > 0 && choice.baseline_occ.warps_per_tb / l.warps > catt_n) {
        catt_n = choice.baseline_occ.warps_per_tb / l.warps;
      }
    }
  }
  struct Point {
    throttle::FixedFactor f;
    double norm;
  };
  std::vector<Point> pts;
  for (const throttle::FixedFactor& f : runner.candidate_factors(w)) {
    if (f.tb_limit != 0) continue;
    const throttle::AppResult r =
        f.n_divisor == 1 ? runner.run(w, throttle::Baseline{}) : runner.run(w, throttle::Fixed{f});
    pts.push_back(
        {f, static_cast<double>(r.total_cycles) / static_cast<double>(base.total_cycles)});
  }
  double best = pts.front().norm;
  for (const auto& p : pts) best = std::min(best, p.norm);
  for (const auto& p : pts) {
    csv.add_row({w.name, p.f.str(), std::to_string(1.0 / p.f.n_divisor),
                 std::to_string(p.norm), p.f.n_divisor == catt_n ? "1" : "0",
                 p.norm == best ? "1" : "0"});
  }
  csv.add_row({w.name, "catt", "-", std::to_string(catt_norm), "1",
               catt_norm <= best ? "1" : "0"});
  return csv.str();
}

std::string fig10_mini(throttle::Runner& r32) {
  CsvWriter csv({"app", "baseline_cycles", "bftt_cycles", "catt_cycles", "bftt_speedup",
                 "catt_speedup"});
  for (const std::string& name : kTable3Mini) {
    const wl::Workload& w = wl::find_workload(name, bench::kNumSms);
    const bench::Comparison c = bench::compare(r32, w);
    csv.add_row({w.name, std::to_string(c.baseline.total_cycles),
                 std::to_string(c.bftt.best.total_cycles), std::to_string(c.catt.total_cycles),
                 std::to_string(c.bftt_speedup()), std::to_string(c.catt_speedup())});
  }
  return csv.str();
}

std::string fig_dynamic_mini(throttle::Runner& runner) {
  // Reduced-scale fig_dynamic_compare: static CATT vs. the adaptive
  // controller riding on it, over the same CS subset the other compare
  // minis use. The decision count pins the controller's entire trajectory
  // (every decision changes machine state, so drift shows in the cycle
  // columns too — the count just names the culprit).
  CsvWriter csv({"app", "baseline_cycles", "catt_cycles", "adaptive_cycles",
                 "adaptive_decisions", "adaptive_vetoes"});
  for (const std::string& name : kCsMini) {
    const wl::Workload& w = wl::find_workload(name, bench::kNumSms);
    const throttle::AppResult base = runner.run(w, throttle::Baseline{});
    const throttle::AppResult catt = runner.run(w, throttle::Catt{});
    const throttle::AppResult adp = runner.run(w, throttle::Adaptive{});
    std::uint64_t decisions = 0, vetoes = 0;
    for (const auto& l : adp.launches) {
      decisions += l.sched_decisions.size();
      vetoes += l.sched_vetoes;
    }
    csv.add_row({w.name, std::to_string(base.total_cycles), std::to_string(catt.total_cycles),
                 std::to_string(adp.total_cycles), std::to_string(decisions),
                 std::to_string(vetoes)});
  }
  return csv.str();
}

std::string fig_divergence_mini(throttle::Runner& runner) {
  // Reduced-scale fig_divergence over the irregular group (bfs_wf,
  // stencil_div): per-launch divergence counters of the baseline run,
  // then the TB-axis oracle sweep (the warp axis no-ops on these kernels
  // — the hot loops sit under data-dependent control — so its rows are
  // redundant at golden scale) and CATT's pick. Pins the reconvergence
  // stack's counters, the per-lane stats plumbing, and the conservative
  // C_tid := 1 classification end-to-end through the Runner.
  CsvWriter csv({"app", "kernel", "factor", "cycles", "normalized_time", "branches",
                 "divergent_branches", "reconvergences", "max_depth", "simd_mem_eff",
                 "is_catt_pick", "is_best"});
  for (const wl::Workload* w : wl::workloads_in_group(wl::Group::kIrregular, bench::kNumSms)) {
    const throttle::AppResult base = runner.run(*w, throttle::Baseline{});
    const throttle::AppResult catt = runner.run(*w, throttle::Catt{});
    const double catt_norm =
        static_cast<double>(catt.total_cycles) / static_cast<double>(base.total_cycles);
    for (std::size_t i = 0; i < base.launches.size(); ++i) {
      const sim::KernelStats& s = base.launches[i];
      csv.add_row({w->name, s.kernel_name + "#" + std::to_string(i), "base",
                   std::to_string(s.cycles), "1.000000", std::to_string(s.div.branches),
                   std::to_string(s.div.divergent_branches),
                   std::to_string(s.div.reconvergences), std::to_string(s.div.max_depth),
                   std::to_string(s.simd_mem_efficiency()), "0", "0"});
    }
    struct Point {
      throttle::FixedFactor f;
      double norm;
    };
    std::vector<Point> pts;
    for (const throttle::FixedFactor& f : runner.candidate_factors(*w)) {
      if (f.n_divisor != 1) continue;  // TB axis only at golden scale
      const throttle::AppResult r = f.tb_limit == 0 ? runner.run(*w, throttle::Baseline{})
                                                    : runner.run(*w, throttle::Fixed{f});
      pts.push_back(
          {f, static_cast<double>(r.total_cycles) / static_cast<double>(base.total_cycles)});
    }
    double best = pts.front().norm;
    for (const auto& p : pts) best = std::min(best, p.norm);
    for (const auto& p : pts) {
      csv.add_row({w->name, "-", p.f.str(), "-", std::to_string(p.norm), "-", "-", "-", "-",
                   "-", (p.f.n_divisor == 1 && p.f.tb_limit == 0) ? "1" : "0",
                   p.norm == best ? "1" : "0"});
    }
    csv.add_row({w->name, "-", "catt", std::to_string(catt.total_cycles),
                 std::to_string(catt_norm), "-", "-", "-", "-", "-", "1",
                 catt_norm <= best ? "1" : "0"});
  }
  return csv.str();
}

std::string phase_timeline_mini() {
  const std::int64_t interval = 1024;
  const wl::Workload& w = wl::find_workload("gsmv", bench::kNumSms);
  std::vector<std::string> header = {"app", "policy", "launch", "kernel"};
  for (const std::string& c : obs::LaunchSeries::csv_columns()) header.push_back(c);
  CsvWriter csv(header);

  // As in the bench: a fresh Runner per policy keeps the SimCache cold so
  // every launch actually simulates and produces samples.
  auto run_sampled = [&](const throttle::Policy& policy) {
    std::vector<obs::LaunchSeries> collected;
    obs::Registry registry;
    obs::SimObs so;
    so.metrics_interval = interval;
    so.registry = &registry;
    so.on_series = [&](const obs::LaunchSeries& s) { collected.push_back(s); };
    throttle::Runner runner(bench::max_l1d_arch());
    runner.sim_options.sched = sim::sched::PolicyConfig::parse("none");
    runner.sim_options.obs = &so;
    runner.run(w, policy);
    return collected;
  };
  const auto base_series = run_sampled(throttle::Baseline{});
  const auto catt_series = run_sampled(throttle::Catt{});

  struct Source {
    const char* policy;
    const std::vector<obs::LaunchSeries>* series;
  };
  for (const Source& src : {Source{"baseline", &base_series}, Source{"catt", &catt_series}}) {
    for (std::size_t launch = 0; launch < src.series->size(); ++launch) {
      const obs::LaunchSeries& s = (*src.series)[launch];
      for (auto& row : s.csv_rows()) {
        std::vector<std::string> full = {w.name, src.policy, std::to_string(launch), s.kernel};
        for (auto& cell : row) full.push_back(std::move(cell));
        csv.add_row(std::move(full));
      }
    }
  }
  return csv.str();
}

TEST(GoldenCsv, BenchConfigsReducedScale) {
  // Two shared memoizing Runners, scheduler pinned to an explicit
  // `none` spec: the goldens prove --sched=none stays byte-identical to
  // the default (pre-seam) configuration.
  const sim::sched::PolicyConfig none = sim::sched::PolicyConfig::parse("none");
  ASSERT_EQ(sim::SimOptions{}.fingerprint(),
            [&] { sim::SimOptions o; o.sched = none; return o.fingerprint(); }());

  throttle::Runner rmax(bench::max_l1d_arch());
  throttle::Runner r32(bench::small_l1d_arch());
  rmax.sim_options.sched = none;
  r32.sim_options.sched = none;

  check_golden("fig2_request_trace.csv", fig2_mini());
  check_golden("fig3_tlp_tradeoff.csv", fig3_mini(rmax));
  // fig6 runs the CS compares first; fig7/fig9/table3 then hit the cache.
  check_golden("fig6_hit_rates.csv", fig6_mini(rmax));
  check_golden("fig7_cs_speedup.csv", fig7_mini(rmax));
  check_golden("fig8_ci_speedup.csv", fig8_mini(rmax));
  check_golden("fig9_factor_sweep.csv", fig9_mini(rmax));
  check_golden("fig10_small_l1d.csv", fig10_mini(r32));
  check_golden("table3_tlp_selection.csv", table3_mini(r32, rmax));
  check_golden("fig_dynamic_compare.csv", fig_dynamic_mini(rmax));
  check_golden("fig_divergence.csv", fig_divergence_mini(rmax));
  check_golden("fig_phase_timeline.csv", phase_timeline_mini());
}

}  // namespace
