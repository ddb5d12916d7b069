// Internal timing-engine building blocks of gpu.cpp: the trace source,
// the round-robin TB dispatcher, the interval sampler, and the
// event/stepped loops. Not part of the public simulator surface —
// include gpu.hpp for that.
#pragma once

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "gpusim/calendar.hpp"
#include "gpusim/gpu.hpp"
#include "gpusim/interp.hpp"
#include "gpusim/sm.hpp"
#include "gpusim/sm_ref.hpp"
#include "obs/obs.hpp"

namespace catt::sim {

/// Source of per-block warp traces for TB admission: runs the
/// interpreter inline, attributing the time to the launch's
/// trace-generation accumulator. Blocks MUST be requested in ascending
/// linear order — functional memory effects and dedup site-id assignment
/// are order-dependent.
class InterpSource {
 public:
  InterpSource(KernelInterp& interp, obs::Accum& trace_gen)
      : interp_(interp), trace_gen_(trace_gen) {}

  std::vector<WarpTrace> run_block(std::uint64_t block_linear) {
    trace_gen_.start();
    std::vector<WarpTrace> traces = interp_.run_block(block_linear);
    trace_gen_.stop();
    return traces;
  }

 private:
  KernelInterp& interp_;
  obs::Accum& trace_gen_;
};

/// Dispatch: fill SMs round-robin; refill whichever SM frees a slot.
/// Shared verbatim by both engines — TB admission order is observable
/// through the functional interpreter's memory effects, so it must not
/// depend on the engine.
template <typename SmT, typename OnAdmit>
class Dispatcher {
 public:
  Dispatcher(std::vector<SmT>& sms, InterpSource& source, std::uint64_t num_blocks,
             const obs::SimTraceCtx* trace, OnAdmit on_admit)
      : sms_(sms), source_(source), num_blocks_(num_blocks), trace_(trace),
        on_admit_(on_admit) {}

  void admit_where_possible(std::int64_t now) {
    bool progress = true;
    while (progress && next_block_ < num_blocks_) {
      progress = false;
      for (std::size_t i = 0; i < sms_.size(); ++i) {
        if (next_block_ >= num_blocks_) break;
        if (sms_[i].has_free_slot()) {
          std::vector<WarpTrace> traces = source_.run_block(next_block_);
          sms_[i].admit_tb(std::move(traces), now);
          if (trace_ != nullptr) {
            trace_->instant(trace_->id_tb_dispatch, static_cast<std::uint32_t>(i), now,
                            trace_->arg_block, static_cast<std::int64_t>(next_block_));
          }
          on_admit_(i, now);
          ++next_block_;
          progress = true;
        }
      }
    }
  }

  bool blocks_pending() const { return next_block_ < num_blocks_; }

 private:
  std::vector<SmT>& sms_;
  InterpSource& source_;
  std::uint64_t num_blocks_;
  std::uint64_t next_block_ = 0;
  const obs::SimTraceCtx* trace_;
  OnAdmit on_admit_;
};

[[noreturn]] inline void throw_deadlock(const LaunchSpec& spec) {
  throw SimError("simulation deadlock in kernel '" + spec.kernel->name + "'");
}

/// Interval sampler for the event-driven engine: at each multiple of the
/// configured interval it snapshots cumulative counters plus the
/// instantaneous MSHR/ready-warp/DRAM-queue state. Sampling is exact even
/// though simulated time jumps between calendar pops: all state is
/// constant on the open interval between consecutive event times, so a
/// boundary b is sampled when the first event time beyond it is popped
/// (every event at cycles <= b has then been applied, none later).
class IntervalSampler {
 public:
  IntervalSampler(const obs::SimObs& ob, const std::vector<Sm>& sms,
                  const MemorySystem& memsys, std::string kernel_name)
      : ob_(ob), sms_(sms), memsys_(memsys), next_(ob.metrics_interval) {
    series_.kernel = std::move(kernel_name);
    series_.interval = ob.metrics_interval;
  }

  /// Samples every boundary strictly before the event time being popped.
  void advance(std::int64_t now) {
    while (next_ < now) {
      sample(next_);
      next_ += series_.interval;
    }
  }

  /// Samples remaining boundaries plus a final sample at `end`, so the
  /// last cumulative row always equals the launch's KernelStats; then
  /// feeds the MSHR-occupancy histogram and hands off the series.
  void finish(std::int64_t end) {
    while (next_ < end) {
      sample(next_);
      next_ += series_.interval;
    }
    sample(end);
    obs::Registry& reg = ob_.registry_or_global();
    const obs::HistogramDesc* mshr_hist =
        reg.histogram("sim.mshr_occupancy", {0, 1, 2, 4, 8, 16, 32, 64, 128});
    for (const obs::IntervalSample& s : series_.samples) {
      reg.observe(*mshr_hist, s.mshr_in_flight);
    }
    if (ob_.on_series) ob_.on_series(series_);
  }

 private:
  void sample(std::int64_t cycle) {
    obs::IntervalSample s;
    s.cycle = cycle;
    for (const Sm& sm : sms_) {
      s.warp_insts += sm.stats().warp_insts;
      s.l1_accesses += sm.l1_stats().accesses;
      s.l1_hits += sm.l1_stats().hits;
      s.mshr_in_flight += sm.mshr_in_flight(cycle);
      s.ready_warps += sm.issuable_warps(cycle);
    }
    s.l2_accesses = memsys_.l2_stats().accesses;
    s.l2_hits = memsys_.l2_stats().hits;
    s.dram_lines = memsys_.dram_lines();
    s.dram_backlog = memsys_.dram_backlog(cycle);
    series_.samples.push_back(s);
  }

  const obs::SimObs& ob_;
  const std::vector<Sm>& sms_;
  const MemorySystem& memsys_;
  obs::LaunchSeries series_;
  std::int64_t next_;
};

/// Event-driven loop: simulated time advances by popping the calendar
/// queue of SM wake-ups; only SMs due at the popped cycle are stepped.
/// Equivalence with the stepped reference loop below:
///  * step() reports the SM's exact next issuable cycle (now+1 while its
///    ready heap is non-empty, else its earliest warp wake-up) -> due
///    then. The reference re-steps an SM every cycle from now+1 until
///    that same time; those intermediate steps issue nothing and touch
///    no shared state, so skipping them is exact;
///  * admission makes warps ready at now+1 -> due now+1 (the reference
///    resets its cache to now+1);
///  * same-cycle SM steps run in ascending index order (pop_due sorts),
///    matching the reference's 0..N-1 sweep — observable through the
///    shared MemorySystem bandwidth cursors.
inline std::int64_t run_event_loop(std::vector<Sm>& sms, InterpSource& source,
                                   const LaunchSpec& spec, std::uint64_t num_blocks,
                                   const obs::SimTraceCtx* trace,
                                   IntervalSampler* sampler) {
  CalendarQueue cal(sms.size());
  Dispatcher dispatch(sms, source, num_blocks, trace,
                      [&](std::size_t i, std::int64_t now) {
                        cal.schedule(static_cast<int>(i), now + 1);
                      });

  std::int64_t now = 0;
  dispatch.admit_where_possible(now);
  std::vector<int> due;
  while (true) {
    bool busy = dispatch.blocks_pending();
    for (const auto& sm : sms) busy = busy || sm.busy();
    if (!busy) break;

    const std::int64_t next = cal.next_time();
    if (next == CalendarQueue::kNever) throw_deadlock(spec);
    now = next;
    if (sampler != nullptr) sampler->advance(now);
    cal.pop_due(now, due);
    for (const int i : due) {
      std::int64_t wake = Sm::kNever;
      sms[static_cast<std::size_t>(i)].step(now, &wake);
      if (wake != Sm::kNever) cal.schedule(i, wake);
    }
    dispatch.admit_where_possible(now);
  }
  return now;
}

/// The retained cycle-stepped loop (SimOptions::use_stepped_reference):
/// advances the clock cycle by cycle, scanning every SM whose cached
/// wake-up is due.
inline std::int64_t run_stepped_loop(std::vector<SmRef>& sms, InterpSource& source,
                                     const LaunchSpec& spec, std::uint64_t num_blocks,
                                     const obs::SimTraceCtx* trace) {
  // Per-SM wake-up cache: an SM that issued nothing cannot issue again
  // before its earliest warp wake-up (stepping it earlier is a no-op, so
  // skipping those calls is behavior-preserving). Admission resets the
  // cache: newly admitted warps become ready at now + 1.
  std::vector<std::int64_t> next_try(sms.size(), 0);
  Dispatcher dispatch(sms, source, num_blocks, trace,
                      [&](std::size_t i, std::int64_t now) { next_try[i] = now + 1; });

  std::int64_t now = 0;
  dispatch.admit_where_possible(now);
  while (true) {
    int issued = 0;
    for (std::size_t i = 0; i < sms.size(); ++i) {
      if (next_try[i] > now) continue;
      std::int64_t wake = SmRef::kNever;
      const int k = sms[i].step(now, &wake);
      if (k == 0) next_try[i] = wake;
      issued += k;
    }
    dispatch.admit_where_possible(now);

    bool busy = dispatch.blocks_pending();
    for (const auto& sm : sms) busy = busy || sm.busy();
    if (!busy) break;

    if (issued > 0) {
      ++now;
      continue;
    }
    // Nothing issuable this cycle: jump to the earliest wake-up. With
    // zero warps issued, every SM was either skipped (wake-up cached in
    // next_try) or stepped and refreshed its cache, so the minimum over
    // next_try is exact.
    std::int64_t next = SmRef::kNever;
    for (const std::int64_t t : next_try) next = std::min(next, t);
    if (next == SmRef::kNever) throw_deadlock(spec);
    now = std::max(now + 1, next);
  }
  return now;
}

}  // namespace catt::sim
