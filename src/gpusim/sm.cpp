#include "gpusim/sm.hpp"

#include <algorithm>
#include <functional>

#include "common/error.hpp"
#include "gpusim/sched/policy.hpp"
#include "obs/trace.hpp"

namespace catt::sim {

// ---------------------------------------------------------------------------
// MemorySystem
// ---------------------------------------------------------------------------

MemorySystem::MemorySystem(const arch::GpuArch& arch)
    : timing_(arch.timing), l2_(arch.l2_bytes, arch.line_bytes, arch.l2_assoc) {}

std::int64_t MemorySystem::load(std::uint64_t line, std::int64_t t, int sectors) {
  // L2 bandwidth: every request reaching the L2 occupies a service slot.
  t = std::max(t, l2_next_free_);
  l2_next_free_ = t + timing_.l2_service_interval;

  Cache::SetHint hint;
  const std::int64_t hit_ready = l2_.probe_load_fast(line, t, hint);
  if (hit_ready != Cache::kProbeMiss) {
    return hit_ready + timing_.l2_hit_latency;
  }
  // Miss: DRAM fills only the touched sectors (Volta's sectored L1/L2),
  // serialized by the bandwidth cursor.
  const std::int64_t fill_start = std::max(t + timing_.l2_hit_latency, dram_next_free_);
  dram_next_free_ = fill_start + static_cast<std::int64_t>(timing_.dram_sector_interval) * sectors;
  ++dram_lines_;
  const std::int64_t ready = fill_start + timing_.dram_latency;
  l2_.insert(line, ready, hint);
  return ready;
}

void MemorySystem::store(std::uint64_t line, std::int64_t t, int sectors) {
  if (!l2_.note_store(line)) {
    // Write miss flows through to DRAM; consumes fill bandwidth.
    dram_next_free_ = std::max(dram_next_free_, t) +
                      static_cast<std::int64_t>(timing_.dram_sector_interval) * sectors;
    ++dram_lines_;
  }
}

// ---------------------------------------------------------------------------
// SmDatapath
// ---------------------------------------------------------------------------

std::int64_t SmDatapath::mshr_load(std::uint64_t line, std::int64_t t_issue, int sectors,
                                   const Cache::SetHint& hint) {
  // Allocate an MSHR; when all are in flight the miss stalls until the
  // oldest retires.
  const std::int64_t t_mshr = std::max(t_issue, mshr_ring_[mshr_next_]);
  const std::int64_t line_done = memsys_.load(line, t_mshr + arch_.timing.l1_hit_latency, sectors);
  mshr_ring_[mshr_next_] = line_done;
  if (++mshr_next_ == mshr_ring_.size()) mshr_next_ = 0;
  const std::uint64_t victim = l1_.insert(line, line_done, hint);
  if (policy_ != nullptr && victim != Cache::kNoVictim) policy_->on_l1_evict(victim);
  if (trace_ != nullptr) {
    // Miss lifetime: issue through fill completion, one span per L1 miss.
    trace_->complete(trace_->id_miss, static_cast<std::uint32_t>(sm_index_), t_issue,
                     line_done - t_issue, trace_->arg_line, static_cast<std::int64_t>(line));
  }
  return line_done;
}

std::int64_t SmDatapath::exec_mem(const WarpTrace& t, std::size_t pc, std::int64_t now,
                                  int warp) {
  // Explicit rows carry offset 0; a dedup view's rows are its template's
  // (or its patch rows) and every line is shifted by the span's offset.
  const TxnSpan span = t.mem_span(pc);
  const std::uint32_t n = span.count;
  const bool is_store = t.is_store(pc);
  ++stats.mem_insts;
  stats.mem_requests += n;
  stats.lane_mem_insts += t.lane_work(pc);
  if (request_series_ != nullptr && !is_store) {
    request_series_->add(static_cast<double>(n));
  }

  // Fast path: one fully coalesced load — the case that dominates the CS
  // workloads. Same LSU/probe/MSHR sequence as the loop below, minus the
  // divergence bookkeeping.
  if (n == 1 && !is_store) {
    const Txn txn = span[0];
    const std::int64_t t_issue = std::max(now, lsu_next_free_);
    lsu_next_free_ = t_issue + arch_.timing.lsu_issue_interval;
    Cache::SetHint hint;
    const std::int64_t hit = l1_.probe_load_fast(txn.line, t_issue, hint);
    if (policy_ != nullptr) policy_->on_l1_access(warp, txn.line, hit != Cache::kProbeMiss);
    const std::int64_t line_done =
        hit != Cache::kProbeMiss ? hit + arch_.timing.l1_hit_latency
                                 : mshr_load(txn.line, t_issue, txn.sectors, hint);
    return std::max(now + 1, line_done);
  }

  std::int64_t done = now + 1;
  for (std::uint32_t i = 0; i < n; ++i) {
    const Txn txn = span[i];
    // LSU pipeline: one transaction per issue interval. Divergent
    // instructions (many lines) serialize here.
    const std::int64_t t_issue = std::max(now, lsu_next_free_);
    lsu_next_free_ = t_issue + arch_.timing.lsu_issue_interval;

    if (is_store) {
      l1_.note_store(txn.line);
      memsys_.store(txn.line, t_issue, txn.sectors);
      done = std::max(done, t_issue + 1);
      continue;
    }
    Cache::SetHint hint;
    const std::int64_t hit = l1_.probe_load_fast(txn.line, t_issue, hint);
    if (policy_ != nullptr) policy_->on_l1_access(warp, txn.line, hit != Cache::kProbeMiss);
    const std::int64_t line_done = hit != Cache::kProbeMiss
                                       ? hit + arch_.timing.l1_hit_latency
                                       : mshr_load(txn.line, t_issue, txn.sectors, hint);
    done = std::max(done, line_done);
  }
  // Stores are fire-and-forget: the warp proceeds once transactions are
  // handed to the LSU.
  return is_store ? std::max(now + 1, lsu_next_free_) : done;
}

// ---------------------------------------------------------------------------
// Sm (event-driven)
// ---------------------------------------------------------------------------

namespace {
/// Min-heap order for wake-up events.
struct WakeLater {
  bool operator()(const auto& a, const auto& b) const { return a.at > b.at; }
};
}  // namespace

Sm::Sm(const arch::GpuArch& arch, MemorySystem& memsys, std::size_t l1_bytes,
       int max_resident_tbs, int warps_per_tb, SeriesAccum* request_series,
       const obs::SimTraceCtx* trace, int sm_index, sched::SchedPolicy* policy)
    : arch_(arch),
      path_(arch, memsys, l1_bytes, request_series, trace, sm_index),
      trace_(trace),
      sm_index_(sm_index),
      policy_(policy),
      free_slots_(max_resident_tbs),
      warps_per_tb_(warps_per_tb) {
  path_.set_policy(policy);
  if (policy_ != nullptr) policy_->on_bind(arch.l1_mshrs);
}

bool Sm::policy_allows(const WarpCtx& w, int wi) {
  if (policy_ == nullptr) return true;
  if (tbs_[static_cast<std::size_t>(w.tb)].at_barrier > 0) return true;
  return policy_->may_issue(wi, w.tb);
}

void Sm::push_wake(int wi) {
  wake_.push_back({warps_[static_cast<std::size_t>(wi)].ready_at, wi});
  std::push_heap(wake_.begin(), wake_.end(), WakeLater{});
}

void Sm::admit_tb(std::vector<WarpTrace> traces, std::int64_t now) {
  if (free_slots_ <= 0) throw SimError("admit_tb with no free slot");
  if (static_cast<int>(traces.size()) != warps_per_tb_) {
    throw SimError("trace count does not match warps per TB");
  }
  --free_slots_;
  TbCtx tb;
  tb.active = true;
  tb.live_warps = warps_per_tb_;
  const int tb_id = static_cast<int>(tbs_.size());
  for (auto& t : traces) {
    WarpCtx w;
    w.trace = std::move(t);
    w.state = WarpState::kBlocked;
    w.ready_at = now + 1;  // launch latency
    w.tb = tb_id;
    const int wi = static_cast<int>(warps_.size());
    tb.warps.push_back(wi);
    warps_.push_back(std::move(w));
    push_wake(wi);
    ++active_warps_;
    if (policy_ != nullptr) policy_->on_warp_admitted(wi, tb_id);
  }
  tbs_.push_back(std::move(tb));
}

void Sm::drain_wake(std::int64_t now) {
  while (!wake_.empty() && wake_.front().at <= now) {
    const WakeEv e = wake_.front();
    std::pop_heap(wake_.begin(), wake_.end(), WakeLater{});
    wake_.pop_back();
    ++path_.stats.queue_pops;
    const WarpCtx& w = warps_[static_cast<std::size_t>(e.warp)];
    if (w.ready_at != e.at ||
        (w.state != WarpState::kReady && w.state != WarpState::kBlocked)) {
      continue;  // stale: the warp moved on since this wake-up was queued
    }
    ready_.push_back(e.warp);
    std::push_heap(ready_.begin(), ready_.end(), std::greater<int>{});
  }
}

std::int64_t Sm::wake_min() {
  while (!wake_.empty()) {
    const WakeEv e = wake_.front();
    const WarpCtx& w = warps_[static_cast<std::size_t>(e.warp)];
    if (w.ready_at == e.at &&
        (w.state == WarpState::kReady || w.state == WarpState::kBlocked)) {
      return e.at;
    }
    std::pop_heap(wake_.begin(), wake_.end(), WakeLater{});
    wake_.pop_back();
  }
  return kNever;
}

std::uint64_t Sm::issuable_warps(std::int64_t now) const {
  std::uint64_t n = 0;
  for (const WarpCtx& w : warps_) n += issuable(w, now) ? 1 : 0;
  return n;
}

int Sm::step(std::int64_t now, std::int64_t* next_ready) {
  ++path_.stats.sm_steps;
  if (policy_ != nullptr && now >= policy_->next_update_time()) {
    policy_->update(now, path_.l1_stats(), issuable_warps(now), path_.mshr_in_flight(now),
                    path_.stats.warp_insts);
  }
  drain_wake(now);
  int issued = 0;
  for (int slot = 0; slot < arch_.schedulers_per_sm; ++slot) {
    // Greedy-then-oldest: keep the last issued warp as long as it is
    // ready; otherwise the oldest ready warp. Warp indices are assigned in
    // admission order, so the ready heap's minimum IS the oldest.
    int pick = -1;
    if (greedy_warp_ >= 0) {
      ++path_.stats.warps_scanned;
      if (issuable(warps_[static_cast<std::size_t>(greedy_warp_)], now) &&
          policy_allows(warps_[static_cast<std::size_t>(greedy_warp_)], greedy_warp_)) {
        pick = greedy_warp_;
      }
    }
    if (pick < 0) {
      while (!ready_.empty()) {
        const int wi = ready_.front();
        std::pop_heap(ready_.begin(), ready_.end(), std::greater<int>{});
        ready_.pop_back();
        ++path_.stats.warps_scanned;
        // Entries go stale when the warp issued through the greedy path
        // since its wake-up fired; pops either consume or discard, so
        // stale entries never linger.
        if (!issuable(warps_[static_cast<std::size_t>(wi)], now)) continue;
        if (!policy_allows(warps_[static_cast<std::size_t>(wi)], wi)) {
          // Vetoed, not stale: park it and restore it to ready_ below so
          // the cover invariant (every future-issuable warp is findable)
          // survives throttling.
          vetoed_.push_back(wi);
          continue;
        }
        pick = wi;
        break;
      }
    }
    if (pick < 0) break;
    greedy_warp_ = pick;
    issue(warps_[static_cast<std::size_t>(pick)], now);
    ++issued;
  }
  const bool had_vetoes = !vetoed_.empty();
  for (const int wi : vetoed_) {
    ready_.push_back(wi);
    std::push_heap(ready_.begin(), ready_.end(), std::greater<int>{});
  }
  vetoed_.clear();
  // Next cycle this SM can issue: every warp that will ever be issuable
  // again sits in ready_ (issuable now, so again at now+1 — entries may
  // be stale, which only costs one no-op step) or in wake_ (blocked, and
  // barrier releases push wakes synchronously with the issue that
  // completes the barrier). Idle cycles in between have no side effects,
  // so the caller can jump straight to this time. A fully-vetoed step
  // instead sleeps until the policy's next re-evaluation (or an earlier
  // wake-up), so a throttled SM is not re-stepped every cycle.
  if (next_ready != nullptr) {
    if (issued == 0 && had_vetoes) {
      *next_ready = std::min(wake_min(), policy_->next_update_time());
    } else {
      *next_ready = ready_.empty() ? wake_min() : now + 1;
    }
  }
  return issued;
}

void Sm::issue(WarpCtx& w, std::int64_t now) {
  const std::size_t pc = w.pc;
  ++w.pc;
  ++path_.stats.warp_insts;
  if (trace_ != nullptr) {
    trace_->instant(trace_->id_issue, static_cast<std::uint32_t>(sm_index_), now,
                    trace_->arg_warp, static_cast<std::int64_t>(&w - warps_.data()));
  }

  switch (w.trace.kind(pc)) {
    case EventKind::kCompute: {
      path_.stats.lane_cycles += w.trace.lane_work(pc);
      w.state = WarpState::kBlocked;
      w.ready_at = now + std::max<std::uint32_t>(1, w.trace.cycles(pc));
      push_wake(static_cast<int>(&w - warps_.data()));
      return;
    }
    case EventKind::kMem: {
      const int wi = static_cast<int>(&w - warps_.data());
      w.state = WarpState::kBlocked;
      w.ready_at = path_.exec_mem(w.trace, pc, now, wi);
      push_wake(wi);
      return;
    }
    case EventKind::kBarrier: {
      ++path_.stats.barriers;
      w.state = WarpState::kAtBarrier;
      ++tbs_[static_cast<std::size_t>(w.tb)].at_barrier;
      maybe_release_barrier(w.tb, now);
      return;
    }
    case EventKind::kEnd: {
      path_.stats.div.merge(w.trace.div());
      w.state = WarpState::kDone;
      if (policy_ != nullptr) policy_->on_warp_done(static_cast<int>(&w - warps_.data()), w.tb);
      --active_warps_;
      // Release the trace storage; finished warps are never replayed (the
      // block's shared txn pool dies with its last warp).
      w.trace.release();
      TbCtx& tb = tbs_[static_cast<std::size_t>(w.tb)];
      --tb.live_warps;
      if (tb.live_warps == 0) {
        tb.active = false;
        ++free_slots_;
        ++completed_tbs_;
      } else {
        // A warp ending may complete a barrier the rest are waiting on.
        maybe_release_barrier(w.tb, now);
      }
      return;
    }
  }
}

void Sm::maybe_release_barrier(int tb_id, std::int64_t now) {
  TbCtx& tb = tbs_[static_cast<std::size_t>(tb_id)];
  for (int wi : tb.warps) {
    const WarpState s = warps_[static_cast<std::size_t>(wi)].state;
    if (s != WarpState::kAtBarrier && s != WarpState::kDone) return;
  }
  int released = 0;
  for (int wi : tb.warps) {
    WarpCtx& w = warps_[static_cast<std::size_t>(wi)];
    if (w.state == WarpState::kAtBarrier) {
      w.state = WarpState::kBlocked;
      w.ready_at = now + 2;
      --tb.at_barrier;
      push_wake(wi);
      ++released;
    }
  }
  if (released > 0 && policy_ != nullptr) policy_->on_barrier(tb_id);
}

}  // namespace catt::sim
