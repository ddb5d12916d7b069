#include "gpusim/gpu.hpp"

#include <algorithm>
#include <memory>
#include <string>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/profile.hpp"
#include "gpusim/engine.hpp"
#include "gpusim/interp.hpp"
#include "gpusim/sm.hpp"
#include "gpusim/sm_ref.hpp"
#include "obs/obs.hpp"

namespace catt::sim {

std::uint64_t SimOptions::fingerprint() const {
  hash::Fnv1a h;
  h.b(collect_request_trace).i32(tb_cap);
  // Folded only when a policy is active: a "none" config must hash
  // identically to a pre-seam SimOptions (memoized results stay valid).
  if (sched.enabled()) h.u64(sched.fingerprint());
  return h.value();
}

Gpu::Gpu(const arch::GpuArch& arch, DeviceMemory& mem)
    : arch_(arch), mem_(mem), memsys_(arch) {}

namespace {

template <typename SmT>
void aggregate_sm_stats(KernelStats& stats, const std::vector<SmT>& sms) {
  for (const auto& sm : sms) {
    stats.l1 += sm.l1_stats();
    stats.warp_insts += sm.stats().warp_insts;
    stats.mem_insts += sm.stats().mem_insts;
    stats.mem_requests += sm.stats().mem_requests;
    stats.lane_cycles += sm.stats().lane_cycles;
    stats.lane_mem_insts += sm.stats().lane_mem_insts;
    stats.div.merge(sm.stats().div);
    stats.sm_steps += sm.stats().sm_steps;
    stats.warps_scanned += sm.stats().warps_scanned;
    stats.queue_pops += sm.stats().queue_pops;
  }
}

template <typename SmT>
std::vector<SmT> make_sms(const arch::GpuArch& arch, MemorySystem& memsys,
                          const occupancy::Occupancy& occ, bool collect_request_trace,
                          SeriesAccum& series, const obs::SimTraceCtx* trace,
                          const std::vector<std::unique_ptr<sched::SchedPolicy>>& policies) {
  // Fine-grained events (per-issue, miss lifetimes) only exist at trace
  // level >= 2; passing null otherwise keeps the per-issue gate a single
  // pointer test.
  const obs::SimTraceCtx* fine = (trace != nullptr && trace->fine()) ? trace : nullptr;
  std::vector<SmT> sms;
  sms.reserve(static_cast<std::size_t>(arch.num_sms));
  for (int i = 0; i < arch.num_sms; ++i) {
    sched::SchedPolicy* policy =
        policies.empty() ? nullptr : policies[static_cast<std::size_t>(i)].get();
    sms.emplace_back(arch, memsys, occ.l1d_bytes, occ.tbs_per_sm, occ.warps_per_tb,
                     (collect_request_trace && i == 0) ? &series : nullptr, fine, i, policy);
  }
  return sms;
}

/// Sums per-SM PolicyStats into KernelStats (throttle_level takes the max
/// final level — a per-SM gauge, not an additive counter) and merges the
/// per-SM decision logs, stamped with their SM index and sorted by
/// (cycle, sm) so the merged sequence is independent of aggregation order.
void aggregate_policy_stats(KernelStats& stats,
                            const std::vector<std::unique_ptr<sched::SchedPolicy>>& policies) {
  for (std::size_t i = 0; i < policies.size(); ++i) {
    const auto& p = policies[i];
    const sched::PolicyStats& ps = p->stats();
    stats.sched_vetoes += ps.vetoes;
    stats.sched_victim_tag_hits += ps.victim_tag_hits;
    stats.sched_updates += ps.updates;
    stats.sched_throttle_level = std::max(stats.sched_throttle_level, ps.throttle_level);
    stats.sched_paused_tbs += ps.paused_tbs;
    stats.sched_max_paused_tbs += ps.max_paused_tbs;
    if (const std::vector<sched::Decision>* log = p->decisions(); log != nullptr) {
      for (sched::Decision d : *log) {
        d.sm = static_cast<int>(i);
        stats.sched_decisions.push_back(d);
      }
    }
  }
  std::stable_sort(stats.sched_decisions.begin(), stats.sched_decisions.end(),
                   [](const sched::Decision& a, const sched::Decision& b) {
                     return a.cycle != b.cycle ? a.cycle < b.cycle : a.sm < b.sm;
                   });
}

}  // namespace

KernelStats Gpu::run(const LaunchSpec& spec, const SimOptions& opts) {
  if (spec.kernel == nullptr) throw SimError("LaunchSpec without kernel");

  occupancy::Occupancy occ =
      opts.tb_cap > 0
          ? occupancy::compute_with_tb_cap(arch_, *spec.kernel, spec.launch, opts.tb_cap)
          : occupancy::compute(arch_, *spec.kernel, spec.launch);

  KernelInterp interp(*spec.kernel, spec.launch, spec.params, mem_, arch_.line_bytes);
  if (opts.skip_functional && interp.trace_pure()) {
    interp.set_functional(false);
    if (opts.trace_key != 0) interp.enable_dedup(dedup_, opts.trace_key);
  }

  // Observability: resolved once per launch; null means every hook below
  // is skipped.
  const obs::SimObs* ob = obs::resolve(opts.obs);
  // Every timing-engine invocation is visible here; PlanService's
  // no-simulation contract is asserted against this counter.
  obs::count("sim.gpu.launches", 1, opts.obs);
  obs::SimTraceCtx trace_ctx;
  const obs::SimTraceCtx* trace = nullptr;
  if (ob != nullptr && ob->trace_level > 0) {
    trace_ctx = obs::SimTraceCtx::for_launch(ob->tracer_or_global(), ob->trace_level,
                                             spec.kernel->name);
    trace = &trace_ctx;
  }

  obs::Accum trace_gen;
  obs::Accum total;
  if (ob != nullptr) {
    obs::Registry& reg = ob->registry_or_global();
    trace_gen = obs::Accum(&reg, reg.counter("sim.trace_gen_us"));
    total = obs::Accum(&reg, reg.counter("sim.total_us"));
  }
  total.start();

  memsys_.reset_stats();
  SeriesAccum series;

  const std::uint64_t num_blocks = spec.launch.num_blocks();
  KernelStats stats;
  stats.kernel_name = spec.kernel->name;
  stats.occ = occ;

  // One policy instance per SM (per-SM state: victim tags, TB pause
  // bits); empty when disabled so the engines get null pointers.
  std::vector<std::unique_ptr<sched::SchedPolicy>> policies;
  if (opts.sched.enabled()) {
    policies.reserve(static_cast<std::size_t>(arch_.num_sms));
    for (int i = 0; i < arch_.num_sms; ++i) policies.push_back(sched::make_policy(opts.sched));
  }

  InterpSource source(interp, trace_gen);
  if (opts.use_stepped_reference) {
    std::vector<SmRef> sms = make_sms<SmRef>(arch_, memsys_, occ, opts.collect_request_trace,
                                             series, trace, policies);
    stats.cycles = run_stepped_loop(sms, source, spec, num_blocks, trace);
    aggregate_sm_stats(stats, sms);
  } else {
    std::vector<Sm> sms =
        make_sms<Sm>(arch_, memsys_, occ, opts.collect_request_trace, series, trace, policies);
    // The interval sampler only exists for the event-driven engine: it
    // piggybacks on calendar pops, and the stepped reference is a
    // test-only oracle whose results must stay untouched by hooks.
    IntervalSampler* sampler = nullptr;
    std::unique_ptr<IntervalSampler> sampler_storage;
    if (ob != nullptr && ob->metrics_interval > 0) {
      sampler_storage =
          std::make_unique<IntervalSampler>(*ob, sms, memsys_, spec.kernel->name);
      sampler = sampler_storage.get();
    }
    stats.cycles = run_event_loop(sms, source, spec, num_blocks, trace, sampler);
    if (sampler != nullptr) sampler->finish(stats.cycles);
    aggregate_sm_stats(stats, sms);
  }

  aggregate_policy_stats(stats, policies);
  stats.l2 = memsys_.l2_stats();
  stats.dram_lines = memsys_.dram_lines();
  if (opts.collect_request_trace) stats.request_trace = series.points();

  total.stop();
  if (trace != nullptr) {
    trace->complete(trace->id_launch, 0, 0, stats.cycles, trace->arg_block,
                    static_cast<std::int64_t>(num_blocks));
    // Every adaptive N-transition as an instant on its SM's track; the arg
    // is the new drop-from-static level, so the timeline shows the
    // controller's staircase directly.
    for (const sched::Decision& d : stats.sched_decisions) {
      trace->instant(trace->id_policy, static_cast<std::uint32_t>(d.sm), d.cycle,
                     trace->arg_level, d.to_level);
    }
  }
  if (ob != nullptr) {
    obs::Registry& reg = ob->registry_or_global();
    reg.add(reg.counter("sim.launches"), 1);
    reg.add(reg.counter("sim.cycles"), static_cast<std::uint64_t>(stats.cycles));
    reg.add(reg.counter("sim.sm_steps"), stats.sm_steps);
    reg.add(reg.counter("sim.warps_scanned"), stats.warps_scanned);
    reg.add(reg.counter("sim.warps_issued"), stats.warp_insts);
    reg.add(reg.counter("sim.queue_pops"), stats.queue_pops);
    // Trace-generation attribution: how blocks were produced (rendered
    // vs concretely executed warps).
    reg.add(reg.counter("sim.tracegen.warps_rendered"), interp.warps_rendered());
    reg.add(reg.counter("sim.tracegen.warps_executed"), interp.warps_executed());
    // Dedup attribution: why symbolized warps fell back to the VM and what
    // symbolization cost (both zero when the launch reused traces), and
    // what rendering cost.
    reg.add(reg.counter("sim.dedup.symbolize_us"), interp.symbolize_us());
    reg.add(reg.counter("sim.dedup.render_us"), interp.render_us());
    reg.add(reg.counter("sim.dedup.patch_events"), interp.patch_events());
    for (int r = 1; r < dedup::kNumBailReasons; ++r) {
      const auto reason = static_cast<dedup::BailReason>(r);
      reg.add(reg.counter(std::string("sim.dedup.bail.") + dedup::bail_reason_name(reason)),
              interp.bails(reason));
    }
    if (opts.sched.enabled()) {
      reg.add(reg.counter("sim.sched.vetoes"), stats.sched_vetoes);
      reg.add(reg.counter("sim.sched.victim_tag_hits"), stats.sched_victim_tag_hits);
      reg.add(reg.counter("sim.sched.updates"), stats.sched_updates);
      reg.set(reg.gauge("sim.sched.throttle_level"),
              static_cast<std::uint64_t>(stats.sched_throttle_level));
      reg.set(reg.gauge("sim.sched.paused_tbs"),
              static_cast<std::uint64_t>(stats.sched_paused_tbs));
    }
    if (!stats.sched_decisions.empty()) {
      std::uint64_t throttles = 0;
      std::uint64_t relaxes = 0;
      std::uint64_t phase_resets = 0;
      for (const sched::Decision& d : stats.sched_decisions) {
        switch (d.reason) {
          case sched::DecisionReason::kThrottle: ++throttles; break;
          case sched::DecisionReason::kRelax: ++relaxes; break;
          case sched::DecisionReason::kPhaseReset: ++phase_resets; break;
        }
      }
      reg.add(reg.counter("sim.policy.decisions"),
              static_cast<std::uint64_t>(stats.sched_decisions.size()));
      reg.add(reg.counter("sim.policy.throttles"), throttles);
      reg.add(reg.counter("sim.policy.relaxes"), relaxes);
      reg.add(reg.counter("sim.policy.phase_resets"), phase_resets);
    }
  }

  if (prof::enabled()) {
    const double total_ms = total.ms();
    const double gen_ms = trace_gen.ms();
    const double timing_ms = total_ms - gen_ms;
    std::string line =
        "kernel=" + spec.kernel->name + " blocks=" + std::to_string(num_blocks) +
        " cycles=" + std::to_string(stats.cycles) +
        " trace_gen_ms=" + std::to_string(gen_ms) +
        " timing_ms=" + std::to_string(timing_ms) +
        " total_ms=" + std::to_string(total_ms) +
        " warps_rendered=" + std::to_string(interp.warps_rendered()) +
        " warps_executed=" + std::to_string(interp.warps_executed()) +
        " symbolize_us=" + std::to_string(interp.symbolize_us()) +
        " render_us=" + std::to_string(interp.render_us()) +
        " patch_events=" + std::to_string(interp.patch_events()) +
        " sm_steps=" + std::to_string(stats.sm_steps) +
        " warps_scanned=" + std::to_string(stats.warps_scanned) +
        " warps_issued=" + std::to_string(stats.warp_insts) +
        " queue_pops=" + std::to_string(stats.queue_pops);
    for (int r = 1; r < dedup::kNumBailReasons; ++r) {
      const auto reason = static_cast<dedup::BailReason>(r);
      line += std::string(" bail_") + dedup::bail_reason_name(reason) + "=" +
              std::to_string(interp.bails(reason));
    }
    prof::report(line);
  }
  return stats;
}

}  // namespace catt::sim
