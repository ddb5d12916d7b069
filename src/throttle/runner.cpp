#include "throttle/runner.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <set>
#include <unordered_map>
#include <utility>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/log.hpp"
#include "exec/cache_key.hpp"
#include "exec/sweep.hpp"
#include "gpusim/bytecode.hpp"
#include "transform/transform.hpp"

namespace catt::throttle {

double AppResult::l1_hit_rate() const {
  std::uint64_t hits = 0;
  std::uint64_t accesses = 0;
  for (const auto& k : launches) {
    hits += k.l1.hits;
    accesses += k.l1.accesses;
  }
  return accesses == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(accesses);
}

std::string FixedFactor::str() const {
  return "N=" + std::to_string(n_divisor) +
         (tb_limit > 0 ? ",TB<=" + std::to_string(tb_limit) : "");
}

std::string Policy::label() const {
  struct Visitor {
    std::string operator()(const Baseline&) const { return "baseline"; }
    std::string operator()(const Catt&) const { return "catt"; }
    std::string operator()(const Fixed& p) const { return "fixed[" + p.factor.str() + "]"; }
    std::string operator()(const Dyncta&) const { return "dyncta"; }
    std::string operator()(const Bftt&) const { return "bftt"; }
    std::string operator()(const Adaptive&) const { return "catt+adaptive"; }
  };
  return std::visit(Visitor{}, v_);
}

Runner::Runner(arch::GpuArch gpu_arch, exec::Pool* pool)
    : arch_(std::move(gpu_arch)), pool_(pool != nullptr ? pool : &exec::Pool::shared()) {}

namespace {

/// Largest divisor of `warps` that is <= n (so a requested factor stays
/// legal for kernels with fewer warps per TB).
int clamp_divisor(int warps, int n) {
  n = std::min(n, warps);
  while (n > 1 && warps % n != 0) --n;
  return std::max(1, n);
}

/// One schedule entry of a fully-resolved execution plan: the transformed
/// kernel, the recorded TLP choice, and the entry's chained cache key.
struct PlanEntry {
  ir::Kernel kernel;
  const wl::KernelRun* run = nullptr;
  KernelChoice choice;
  std::uint64_t key = 0;
  /// Trace-dedup cache key: (kernel, launch, params) fingerprints, without
  /// the chain prefix — repeats and identical re-launches share it.
  std::uint64_t trace_key = 0;
};

/// What a policy resolves a workload to before any simulation happens.
/// `chain` (the last entry's key) identifies the whole plan: two plans with
/// equal chains simulate identically (see exec/sim_cache.hpp).
struct RunPlan {
  std::vector<PlanEntry> entries;
  std::uint64_t chain = 0;
  /// True when every entry's kernel is trace-data-independent — the
  /// soundness condition for simulating the whole app without functional
  /// memory effects (one impure kernel anywhere makes every earlier
  /// write observable, so the flag is all-or-nothing per plan).
  bool all_pure = true;
};

/// Stats of one executed plan; launches are in schedule order.
struct RunOutput {
  std::vector<sim::KernelStats> launches;
  std::int64_t total_cycles = 0;
};

/// Builds the plan for `w` by applying `fn` to every schedule entry.
/// fn(original, entry, choice) returns the (possibly transformed) kernel
/// and fills `choice`, exactly like the old Runner::run_with callback.
template <typename TransformFn>
RunPlan make_plan(const arch::GpuArch& arch, const sim::SimOptions& sim_options,
                  const wl::Workload& w, TransformFn&& fn) {
  RunPlan plan;
  plan.entries.reserve(w.schedule.size());
  // Chain seed: everything launch-independent a simulation depends on —
  // the engine version (via CacheKey's salt), the architecture, the sim
  // options, and the workload's initial memory image (identified by the
  // workload name; inputs are deterministic).
  std::uint64_t chain =
      exec::CacheKey{}.gpu_arch(arch).sim_options(sim_options).str(w.name).value();
  for (const auto& entry : w.schedule) {
    const ir::Kernel& original = w.kernel(entry.kernel);
    PlanEntry pe;
    pe.run = &entry;
    pe.choice.kernel = entry.kernel;
    pe.choice.baseline_occ = occupancy::compute(arch, original, entry.launch);
    pe.kernel = fn(original, entry, pe.choice);
    const std::uint64_t kfp = exec::CacheKey{}.kernel(pe.kernel).value();
    const std::uint64_t lfp = exec::CacheKey{}.launch(entry.launch).value();
    const std::uint64_t pfp = exec::CacheKey{}.params(entry.params).value();
    chain = exec::CacheKey{}.chain(chain).u64(kfp).u64(lfp).u64(pfp).i32(entry.repeats).value();
    pe.key = chain;
    pe.trace_key = exec::CacheKey{}.u64(kfp).u64(lfp).u64(pfp).value();
    if (pe.trace_key == 0) pe.trace_key = 1;  // 0 means "dedup off" in SimOptions
    plan.all_pure = plan.all_pure && sim::bc::trace_data_independent(pe.kernel);
    plan.entries.push_back(std::move(pe));
  }
  plan.chain = chain;
  return plan;
}

/// Folds one repeat launch `s` of a schedule entry into the entry's stats
/// `agg`; the first launch is taken whole. Counters sum, divergence
/// merges, the scheduler's levels take the max and its decisions append in
/// launch order; occupancy and the request trace stay the first launch's
/// (Figure 2's convention).
void accumulate(sim::KernelStats& agg, sim::KernelStats&& s, bool first) {
  if (first) {
    agg = std::move(s);
    return;
  }
  agg.cycles += s.cycles;
  agg.l1 += s.l1;
  agg.l2 += s.l2;
  agg.dram_lines += s.dram_lines;
  agg.warp_insts += s.warp_insts;
  agg.mem_insts += s.mem_insts;
  agg.mem_requests += s.mem_requests;
  agg.lane_cycles += s.lane_cycles;
  agg.lane_mem_insts += s.lane_mem_insts;
  agg.div.merge(s.div);
  agg.sm_steps += s.sm_steps;
  agg.warps_scanned += s.warps_scanned;
  agg.queue_pops += s.queue_pops;
  agg.sched_vetoes += s.sched_vetoes;
  agg.sched_victim_tag_hits += s.sched_victim_tag_hits;
  agg.sched_updates += s.sched_updates;
  agg.sched_throttle_level = std::max(agg.sched_throttle_level, s.sched_throttle_level);
  agg.sched_paused_tbs = std::max(agg.sched_paused_tbs, s.sched_paused_tbs);
  agg.sched_max_paused_tbs = std::max(agg.sched_max_paused_tbs, s.sched_max_paused_tbs);
  agg.sched_decisions.insert(agg.sched_decisions.end(), s.sched_decisions.begin(),
                             s.sched_decisions.end());
}

/// Simulates one schedule entry (all repeats) and aggregates its stats.
sim::KernelStats simulate_entry(sim::Gpu& gpu, const PlanEntry& pe,
                                const sim::SimOptions& opts) {
  const wl::KernelRun& entry = *pe.run;
  sim::KernelStats agg;
  for (int r = 0; r < entry.repeats; ++r) {
    sim::LaunchSpec spec;
    spec.kernel = &pe.kernel;
    spec.launch = entry.launch;
    spec.params = entry.params;
    accumulate(agg, gpu.run(spec, opts), r == 0);
  }
  agg.kernel_name = entry.kernel;
  return agg;
}

/// Executes a plan through the cache tiers: if every chained key resolves
/// (from the in-process SimCache or the attached disk tier, whose hits are
/// promoted into the SimCache) the run is assembled without simulating
/// (one hit per launch, atomically — see SimCache::lookup_run); otherwise
/// the whole application is simulated from a fresh memory image and each
/// launch's stats are published to every tier (one miss per launch).
/// Thread-safe: callers on different pool threads each build their own
/// Gpu + DeviceMemory.
RunOutput run_plan_cached(const arch::GpuArch& arch, const sim::SimOptions& sim_options,
                          exec::SimCache& cache, exec::DiskCache* disk,
                          const wl::Workload& w, const RunPlan& plan) {
  RunOutput out;
  std::vector<std::uint64_t> keys;
  keys.reserve(plan.entries.size());
  for (const auto& pe : plan.entries) keys.push_back(pe.key);
  exec::SimCache::FetchFn fetch;
  if (disk != nullptr) fetch = [disk](std::uint64_t k) { return disk->get_stats(k); };
  if (auto cached = cache.lookup_run(keys, fetch); cached.has_value()) {
    out.launches = std::move(*cached);
    for (const auto& launch : out.launches) out.total_cycles += launch.cycles;
    return out;
  }

  sim::DeviceMemory mem;
  w.setup(mem);
  sim::Gpu gpu(arch, mem);
  // Plan index of each trace key's last use: its dedup traces are freed
  // right after it, so the cache only ever holds keys still to come.
  std::map<std::uint64_t, std::size_t> last_use;
  for (std::size_t i = 0; i < plan.entries.size(); ++i) last_use[plan.entries[i].trace_key] = i;
  out.launches.reserve(plan.entries.size());
  for (std::size_t i = 0; i < plan.entries.size(); ++i) {
    const PlanEntry& pe = plan.entries[i];
    sim::SimOptions entry_opts = sim_options;
    if (plan.all_pure) {
      // No kernel's trace depends on loaded values and nothing downstream
      // reads the memory image, so functional execution is skipped and
      // repeated launches replay block-parametric traces. These switches
      // are excluded from SimOptions::fingerprint(): outputs are
      // bit-identical either way.
      entry_opts.skip_functional = true;
      entry_opts.trace_key = pe.trace_key;
    }
    sim::KernelStats agg = simulate_entry(gpu, pe, entry_opts);
    if (last_use[pe.trace_key] == i) gpu.release_traces(pe.trace_key);
    cache.insert(pe.key, agg);
    if (disk != nullptr) disk->put_stats(pe.key, agg);
    out.total_cycles += agg.cycles;
    out.launches.push_back(std::move(agg));
  }
  return out;
}

AppResult assemble(const wl::Workload& w, const RunPlan& plan, RunOutput output,
                   std::string policy_label) {
  AppResult res;
  res.workload = w.name;
  res.policy = std::move(policy_label);
  res.launches = std::move(output.launches);
  res.total_cycles = output.total_cycles;
  res.choices.reserve(plan.entries.size());
  for (const auto& pe : plan.entries) res.choices.push_back(pe.choice);
  return res;
}

RunPlan make_baseline_plan(const arch::GpuArch& arch, const sim::SimOptions& sim_options,
                           const wl::Workload& w) {
  return make_plan(arch, sim_options, w,
                   [&](const ir::Kernel& k, const wl::KernelRun& entry, KernelChoice& choice) {
                     (void)entry;
                     for (const ir::Stmt* loop : ir::collect_loops(k)) {
                       choice.loops.push_back({loop->loop_id, choice.baseline_occ.warps_per_tb,
                                               choice.baseline_occ.tbs_per_sm, false});
                     }
                     return k.clone();
                   });
}

/// CATT's per-loop TLP for one analysed kernel: every top-level loop runs
/// warps_per_tb / n_divisor warps under the plan's TB limit (the baseline
/// TB count when the plan sets none, or when the loop is unresolvable).
std::vector<LoopTlp> catt_loop_tlp(const analysis::KernelAnalysis& ka) {
  const int tbs = ka.plan.tb_limit > 0 ? ka.plan.tb_limit : ka.occ.tbs_per_sm;
  std::vector<LoopTlp> out;
  for (const auto& loop : ka.loops) {
    if (!loop.top_level) continue;
    out.push_back({loop.loop_id, ka.occ.warps_per_tb / loop.decision.n_divisor,
                   loop.decision.unresolvable ? ka.occ.tbs_per_sm : tbs,
                   loop.decision.unresolvable});
  }
  return out;
}

RunPlan make_catt_plan(const arch::GpuArch& arch, const sim::SimOptions& sim_options,
                       exec::PlanService& plans, const wl::Workload& w,
                       const analysis::AnalysisOptions& opts) {
  return make_plan(
      arch, sim_options, w,
      [&](const ir::Kernel& k, const wl::KernelRun& entry, KernelChoice& choice) {
        const analysis::KernelAnalysis& ka =
            plans.analysis_for(k, entry.launch, entry.params, opts);
        choice.loops = catt_loop_tlp(ka);
        xform::TransformResult tr = xform::apply_plan(arch, k, entry.launch, ka.plan);
        return std::move(tr.kernel);
      });
}

RunPlan make_fixed_plan(const arch::GpuArch& arch, const sim::SimOptions& sim_options,
                        exec::PlanService& plans, const wl::Workload& w,
                        const FixedFactor& f) {
  return make_plan(
      arch, sim_options, w,
      [&](const ir::Kernel& k, const wl::KernelRun& entry, KernelChoice& choice) {
        const int warps = choice.baseline_occ.warps_per_tb;
        const int n = clamp_divisor(warps, f.n_divisor);
        ir::Kernel out = k.clone();
        if (n > 1) {
          // Split every top-level loop; descending ids keep earlier ids valid.
          std::vector<int> ids;
          {
            analysis::AnalysisOptions aopts;
            const analysis::KernelAnalysis& ka =
                plans.analysis_for(k, entry.launch, entry.params, aopts);
            const auto loops = ir::collect_loops(k);
            for (const auto& loop : ka.loops) {
              if (!loop.top_level) continue;
              // Warp-splitting a loop that contains a barrier is illegal.
              if (ir::contains_sync(*loops[static_cast<std::size_t>(loop.loop_id)])) continue;
              ids.push_back(loop.loop_id);
            }
          }
          std::sort(ids.rbegin(), ids.rend());
          for (int id : ids) {
            out = xform::apply_warp_throttle(out, entry.launch, id, n, arch.warp_size);
          }
        }
        int tbs = choice.baseline_occ.tbs_per_sm;
        if (f.tb_limit > 0 && f.tb_limit < tbs) {
          out = xform::apply_tb_throttle(arch, out, entry.launch, f.tb_limit);
          tbs = f.tb_limit;
        }
        for (const ir::Stmt* loop : ir::collect_loops(k)) {
          choice.loops.push_back({loop->loop_id, warps / n, tbs, false});
        }
        return out;
      });
}

}  // namespace

std::vector<KernelChoice> Runner::catt_choices(const wl::Workload& w,
                                               const analysis::AnalysisOptions& opts) const {
  std::vector<KernelChoice> out;
  for (const auto& entry : w.schedule) {
    const ir::Kernel& k = w.kernel(entry.kernel);
    const analysis::KernelAnalysis& ka = plans_.analysis_for(k, entry.launch, entry.params, opts);
    KernelChoice choice;
    choice.kernel = entry.kernel;
    choice.baseline_occ = ka.occ;
    choice.loops = catt_loop_tlp(ka);
    out.push_back(std::move(choice));
  }
  return out;
}

std::vector<FixedFactor> Runner::candidate_factors(const wl::Workload& w) const {
  // Union of legal warp divisors and TB counts across the app's kernels.
  std::set<int> divisors;
  int max_tbs = 1;
  for (const auto& entry : w.schedule) {
    const occupancy::Occupancy occ =
        occupancy::compute(arch_, w.kernel(entry.kernel), entry.launch);
    for (int n = 1; n <= occ.warps_per_tb; ++n) {
      if (occ.warps_per_tb % n == 0) divisors.insert(n);
    }
    max_tbs = std::max(max_tbs, occ.tbs_per_sm);
  }

  // TB caps: geometric ladder plus TBs-1 (covers every Table 3 BFTT pick
  // while keeping the search affordable).
  std::set<int> tb_caps;
  if (max_tbs > 1) tb_caps.insert(max_tbs - 1);
  for (int tb = max_tbs / 2; tb >= 1; tb /= 2) tb_caps.insert(tb);

  std::vector<FixedFactor> out;
  for (int n : divisors) {
    out.push_back({n, 0});  // TB count unchanged
    for (auto it = tb_caps.rbegin(); it != tb_caps.rend(); ++it) out.push_back({n, *it});
  }
  return out;
}

AppResult Runner::run(const wl::Workload& w, const Policy& policy) {
  struct Visitor {
    Runner& self;
    const wl::Workload& w;
    const Policy& policy;

    AppResult cached(const RunPlan& plan) const { return cached(plan, self.sim_options); }
    AppResult cached(const RunPlan& plan, const sim::SimOptions& opts) const {
      RunOutput out = run_plan_cached(self.arch_, opts, self.cache_, self.disk_, w, plan);
      return assemble(w, plan, std::move(out), policy.label());
    }

    AppResult operator()(const Baseline&) const {
      return cached(make_baseline_plan(self.arch_, self.sim_options, w));
    }
    AppResult operator()(const Catt& p) const {
      return cached(make_catt_plan(self.arch_, self.sim_options, self.plans_, w, p.opts));
    }
    AppResult operator()(const Fixed& p) const {
      return cached(make_fixed_plan(self.arch_, self.sim_options, self.plans_, w, p.factor));
    }
    AppResult operator()(const Dyncta& p) const { return self.run_dyncta_impl(w, p); }
    AppResult operator()(const Bftt&) const { return self.bftt_sweep(w).best; }
    AppResult operator()(const Adaptive& p) const {
      // Same transformed kernels as Catt, simulated under the adaptive
      // scheduler policy. The per-policy SimOptions copy flows into the
      // plan's chain seed, so adaptive runs get their own cache identity.
      sim::SimOptions o = self.sim_options;
      o.sched = p.sched;
      return cached(make_catt_plan(self.arch_, o, self.plans_, w, p.opts), o);
    }
  };
  return std::visit(Visitor{*this, w, policy}, policy.variant());
}

Runner::BfttOutcome Runner::bftt_sweep(const wl::Workload& w) {
  const std::vector<FixedFactor> cands = candidate_factors(w);

  // Resolve every candidate to its plan (analysis + transform only; no
  // simulation) and group candidates whose plans are identical — factors
  // that clamp to the same per-kernel transforms simulate identically.
  std::vector<RunPlan> plans;
  plans.reserve(cands.size());
  for (const FixedFactor& f : cands) {
    plans.push_back(make_fixed_plan(arch_, sim_options, plans_, w, f));
  }
  std::vector<std::size_t> group_of(cands.size());
  std::vector<std::size_t> rep;  // group -> representative candidate index
  {
    std::unordered_map<std::uint64_t, std::size_t> by_chain;
    for (std::size_t i = 0; i < plans.size(); ++i) {
      auto [it, fresh] = by_chain.try_emplace(plans[i].chain, rep.size());
      if (fresh) rep.push_back(i);
      group_of[i] = it->second;
    }
  }

  // Fan the distinct plans out across the pool. Results land in a vector
  // keyed by group index, so collection order is independent of thread
  // scheduling and the outcome is bit-identical to a serial sweep.
  std::vector<RunOutput> outputs(rep.size());
  exec::SweepEngine engine(*pool_);
  engine.for_each(rep.size(), [&](std::size_t g) {
    outputs[g] = run_plan_cached(arch_, sim_options, cache_, disk_, w, plans[rep[g]]);
  });

  BfttOutcome outcome;
  outcome.unique_runs = rep.size();
  outcome.sweep.reserve(cands.size());
  std::int64_t best_cycles = std::numeric_limits<std::int64_t>::max();
  std::size_t best_i = 0;
  for (std::size_t i = 0; i < cands.size(); ++i) {
    const std::int64_t cycles = outputs[group_of[i]].total_cycles;
    outcome.sweep.emplace_back(cands[i], cycles);
    log::debug("bftt ", w.name, " ", cands[i].str(), " -> ", cycles, " cycles");
    // Strict '<' keeps the first minimum in candidate order — the same
    // winner a serial sweep picks.
    if (cycles < best_cycles) {
      best_cycles = cycles;
      best_i = i;
    }
  }
  outcome.factor = cands[best_i];
  outcome.best = assemble(w, plans[best_i], std::move(outputs[group_of[best_i]]),
                          "bftt[" + outcome.factor.str() + "]");
  return outcome;
}

AppResult Runner::run_dyncta_impl(const wl::Workload& w, const Dyncta& p) {
  AppResult res;
  res.workload = w.name;
  res.policy = Policy(p).label();

  sim::DeviceMemory mem;
  w.setup(mem);
  sim::Gpu gpu(arch_, mem);

  int tb_cap = 0;  // 0 = uncapped (start at full TLP, like DYNCTA's "all CTAs")
  // Hill-climbing memory per kernel: if the last adjustment made the same
  // kernel slower, revert it instead of following the hit-rate rule again.
  struct KernelState {
    int cap = 0;
    std::int64_t cycles = 0;
  };
  std::map<std::string, KernelState> history;
  for (const auto& entry : w.schedule) {
    const ir::Kernel& kernel = w.kernel(entry.kernel);
    KernelChoice choice;
    choice.kernel = entry.kernel;
    choice.baseline_occ = occupancy::compute(arch_, kernel, entry.launch);

    sim::KernelStats agg;
    for (int r = 0; r < entry.repeats; ++r) {
      sim::SimOptions opts = sim_options;
      opts.tb_cap = std::min(tb_cap > 0 ? tb_cap : choice.baseline_occ.tbs_per_sm,
                             choice.baseline_occ.tbs_per_sm);
      sim::LaunchSpec spec{&kernel, entry.launch, entry.params};
      sim::KernelStats s = gpu.run(spec, opts);

      // Reactive adjustment for the *next* launch (one phase late).
      const double hit = s.l1_hit_rate();
      const int current = s.occ.tbs_per_sm;
      KernelState& st = history[entry.kernel];
      if (st.cycles > 0 && current != st.cap && s.cycles > st.cycles) {
        // The last change regressed this kernel: undo it.
        tb_cap = st.cap;
      } else if (hit < p.low_hit && current > 1) {
        tb_cap = std::max(1, current / 2);
      } else if (hit > p.high_hit) {
        tb_cap = std::min(choice.baseline_occ.tbs_per_sm, current * 2);
      } else {
        tb_cap = current;
      }
      st = {current, s.cycles};

      choice.loops.push_back({r, s.occ.warps_per_tb, s.occ.tbs_per_sm, false});
      accumulate(agg, std::move(s), r == 0);
    }
    agg.kernel_name = entry.kernel;
    res.total_cycles += agg.cycles;
    res.launches.push_back(std::move(agg));
    res.choices.push_back(std::move(choice));
  }
  return res;
}

}  // namespace catt::throttle
