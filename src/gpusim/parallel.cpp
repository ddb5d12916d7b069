#include "gpusim/parallel.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <functional>

#include "common/error.hpp"

namespace catt::sim {

// ---------------------------------------------------------------------------
// TracePipeline
// ---------------------------------------------------------------------------

TracePipeline::TracePipeline(KernelInterp& interp, std::uint64_t num_blocks,
                             std::size_t depth, int workers, obs::Registry* reg,
                             const obs::SimObs* ob)
    : interp_(interp),
      num_blocks_(num_blocks),
      depth_(std::max<std::size_t>(1, depth)),
      workers_req_(std::max(1, workers)),
      reg_(reg),
      ob_(ob) {
  start_ = std::chrono::steady_clock::now();
  last_offer_ = start_;
  thread_ = std::thread([this] { leader_loop(); });
}

TracePipeline::~TracePipeline() { finish(); }

/// Claims the next unproduced block id. Blocks while the reorder buffer
/// is full (claimed blocks count as in-flight, so live traces stay
/// bounded by depth_); returns false once every block is claimed, the
/// pipeline is cancelled, or another producer failed.
bool TracePipeline::claim(std::uint64_t& b) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] {
    return cancel_ || error_ != nullptr || next_claim_ >= num_blocks_ ||
           next_claim_ < next_pop_ + depth_;
  });
  if (cancel_ || error_ != nullptr || next_claim_ >= num_blocks_) return false;
  b = next_claim_++;
  return true;
}

void TracePipeline::offer(std::uint64_t b, std::vector<WarpTrace> traces) {
  std::lock_guard<std::mutex> lock(mu_);
  ready_.emplace(b, std::move(traces));
  last_offer_ = std::chrono::steady_clock::now();
  cv_.notify_all();
}

/// Shared body of the leader and every extra trace worker: claim, run
/// the interpreter outside the lock, deposit into the reorder buffer.
/// The first recorded error wins and stops all claims; with sharding the
/// winning error may belong to a later block than the serial engine
/// would have hit first, but sharded launches are pure renders, which
/// cannot fail validation (only allocation can throw here).
void TracePipeline::produce_loop(obs::Registry* reg) {
  obs::Accum gen;
  if (reg != nullptr) gen = obs::Accum(reg, reg->counter("sim.trace_gen_us"));
  try {
    std::uint64_t b = 0;
    while (claim(b)) {
      gen.start();
      std::vector<WarpTrace> traces = interp_.run_block(b);
      gen.stop();
      offer(b, std::move(traces));
    }
  } catch (...) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (error_ == nullptr) error_ = std::current_exception();
    }
    cv_.notify_all();
  }
}

void TracePipeline::leader_loop() {
  // Leader lifetime span on the host timeline, pool_job-style, so the
  // Chrome trace shows trace generation overlapping the timing loop.
  obs::Tracer* tr = nullptr;
  std::uint32_t span_name = 0;
  std::int64_t span_t0 = 0;
  if (ob_ != nullptr && ob_->trace_level >= 1) {
    tr = &ob_->tracer_or_global();
    span_name = tr->intern("trace_producer");
    span_t0 = tr->host_now_us();
  }
  std::vector<std::thread> extra;
  if (num_blocks_ > 0) {
    // Block 0 first, serially: symbolization derives the parametric warps
    // and producing the block assigns the dedup site ids — the only
    // order-sensitive generation work in the launch.
    {
      obs::Accum gen;
      if (reg_ != nullptr) gen = obs::Accum(reg_, reg_->counter("sim.trace_gen_us"));
      try {
        gen.start();
        std::vector<WarpTrace> traces = interp_.run_block(0);
        gen.stop();
        {
          std::lock_guard<std::mutex> lock(mu_);
          next_claim_ = 1;
        }
        offer(0, std::move(traces));
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(mu_);
          if (error_ == nullptr) error_ = std::current_exception();
          next_claim_ = num_blocks_;
        }
        cv_.notify_all();
      }
    }
    // Shard the rest only when every remaining block is a pure render
    // (order-independent by construction); otherwise this leader is the
    // single serial producer, preserving the VM's block-order execution.
    bool failed;
    {
      std::lock_guard<std::mutex> lock(mu_);
      failed = error_ != nullptr;
    }
    if (!failed) {
      int shard = 1;
      if (workers_req_ > 1 && num_blocks_ > 1 && interp_.parallel_renderable()) {
        shard = static_cast<int>(
            std::min<std::uint64_t>(static_cast<std::uint64_t>(workers_req_), num_blocks_ - 1));
      }
      workers_used_ = shard;
      extra.reserve(static_cast<std::size_t>(shard - 1));
      for (int w = 1; w < shard; ++w) {
        extra.emplace_back([this] { produce_loop(reg_); });
      }
      produce_loop(reg_);
    }
  }
  for (std::thread& t : extra) t.join();
  {
    std::lock_guard<std::mutex> lock(mu_);
    producer_done_ = true;
    gen_ms_ =
        std::chrono::duration<double, std::milli>(last_offer_ - start_).count();
  }
  cv_.notify_all();
  if (tr != nullptr) {
    tr->record(obs::TraceEvent{span_name, 0, obs::Phase::kComplete, 0, tr->host_tid(),
                               span_t0, tr->host_now_us() - span_t0, 0});
  }
}

std::vector<WarpTrace> TracePipeline::run_block(std::uint64_t block_linear) {
  std::unique_lock<std::mutex> lock(mu_);
  if (block_linear != next_pop_) {
    throw SimError("trace pipeline: out-of-order block request");
  }
  auto it = ready_.find(next_pop_);
  if (it == ready_.end()) {
    ++stalls_;
    const auto t0 = std::chrono::steady_clock::now();
    cv_.wait(lock, [this] {
      return ready_.count(next_pop_) != 0 || error_ != nullptr || producer_done_;
    });
    wait_ms_ += std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    it = ready_.find(next_pop_);
    if (it == ready_.end()) {
      // The block this pop is waiting for was never produced: surface the
      // producer's failure exactly where the serial path would have hit it.
      if (error_ != nullptr) std::rethrow_exception(error_);
      throw SimError("trace pipeline: producer ended early");
    }
  }
  std::vector<WarpTrace> traces = std::move(it->second);
  ready_.erase(it);
  ++next_pop_;
  cv_.notify_all();
  return traces;
}

void TracePipeline::finish() {
  if (finished_) return;
  finished_ = true;
  {
    std::lock_guard<std::mutex> lock(mu_);
    cancel_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  if (reg_ != nullptr) {
    reg_->add(reg_->counter("sim.pipeline.wait_us"),
              static_cast<std::uint64_t>(wait_ms_ * 1000.0));
    reg_->add(reg_->counter("sim.pipeline.stalls"), stalls_);
    reg_->add(reg_->counter("sim.pipeline.blocks"), next_pop_);
  }
}

// ---------------------------------------------------------------------------
// Worker gang + parallel loop
// ---------------------------------------------------------------------------

namespace {

/// Persistent worker gang for the window loop: run(job) executes job(w)
/// on every worker (the caller participates as worker 0) and returns once
/// all are done, reporting the coordinator's stall time. Plain mutex/cv
/// handshakes — TSan-clean, and one round trip per window phase is noise
/// next to the thousands of SM steps a window contains.
class Gang {
 public:
  explicit Gang(int workers) {
    threads_.reserve(workers > 0 ? static_cast<std::size_t>(workers - 1) : 0);
    for (int w = 1; w < workers; ++w) {
      threads_.emplace_back([this, w] { worker_loop(w); });
    }
  }

  ~Gang() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
      ++gen_;
    }
    cv_.notify_all();
    for (auto& t : threads_) t.join();
  }

  /// Returns microseconds worker 0 spent waiting for the others after
  /// finishing its own share (the per-epoch barrier stall).
  std::int64_t run(const std::function<void(int)>& job) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      job_ = &job;
      done_ = 0;
      ++gen_;
    }
    cv_.notify_all();
    job(0);
    const auto t0 = std::chrono::steady_clock::now();
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [this] { return done_ == static_cast<int>(threads_.size()); });
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - t0)
        .count();
  }

 private:
  void worker_loop(int w) {
    std::uint64_t seen = 0;
    while (true) {
      const std::function<void(int)>* job = nullptr;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return gen_ != seen; });
        seen = gen_;
        if (stop_) return;
        job = job_;
      }
      (*job)(w);
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++done_;
      }
      done_cv_.notify_one();
    }
  }

  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable done_cv_;
  const std::function<void(int)>* job_ = nullptr;
  std::uint64_t gen_ = 0;
  int done_ = 0;
  bool stop_ = false;
};

/// Per-SM engine state. `due` mirrors the serial calendar's single
/// authoritative wake-up per SM (admission overwrites it to now + 1,
/// exactly like CalendarQueue::schedule).
struct Lane {
  MemDefer defer;
  std::vector<std::int64_t> resp;
  std::int64_t due = Sm::kNever;
  std::int64_t completion = Sm::kNever;
  std::int64_t last_step = 0;
  bool paused = false;
};

/// Advances one SM through its private event sequence until its next due
/// time reaches the window end — or until it completes a thread block
/// while blocks remain undispatched, in which case it pauses (with the
/// admission hold raised) so the coordinator can replay the serial
/// completion -> admission interleaving.
void advance_lane(Sm& sm, Lane& lane, std::int64_t window_end, bool blocks_pending) {
  while (!lane.paused && lane.due < window_end) {
    const std::int64_t now = lane.due;
    const int before = sm.completed_tbs();
    std::int64_t wake = Sm::kNever;
    const int issued = sm.step(now, &wake);
    // Only issuing steps count toward the launch's final cycle: the
    // serial loop exits at the pop holding the last warp completion (an
    // issue), never processing later no-op wake-ups — which this lane may
    // still execute before the window ends.
    if (issued > 0) lane.last_step = now;
    lane.due = wake;
    if (blocks_pending && sm.completed_tbs() != before) {
      sm.set_admit_hold(true);
      lane.paused = true;
      lane.completion = now;
    }
  }
}

}  // namespace

std::int64_t run_parallel_loop(std::vector<Sm>& sms, BlockSource& source,
                               const LaunchSpec& spec, std::uint64_t num_blocks,
                               MemorySystem& memsys, const arch::GpuArch& arch,
                               int threads, const obs::SimTraceCtx* trace,
                               IntervalSampler* sampler, const obs::SimObs* ob) {
  const int workers = std::max(1, std::min<int>(threads, static_cast<int>(sms.size())));
  std::vector<Lane> lanes(sms.size());
  for (std::size_t i = 0; i < sms.size(); ++i) sms[i].set_defer(&lanes[i].defer);

  Dispatcher dispatch(sms, source, num_blocks, trace,
                      [&](std::size_t i, std::int64_t now) { lanes[i].due = now + 1; });

  // Window width: the smallest latency any deferred response can carry
  // (L1-hit + L2-hit). Every response resolves at or beyond the window
  // end, so nothing inside a window can consume one concretely — the
  // invariant the bit-exactness argument rests on (DESIGN.md).
  const std::int64_t window = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(arch.timing.l1_hit_latency) + arch.timing.l2_hit_latency);

  Gang gang(workers);
  std::uint64_t windows = 0;
  std::int64_t barrier_wait_us = 0;

  dispatch.admit_where_possible(0);

  struct Ref {
    std::int64_t cycle;
    std::uint32_t sm;
    std::uint32_t seq;
  };
  std::vector<Ref> order;

  std::int64_t last = 0;
  while (true) {
    bool busy = dispatch.blocks_pending();
    for (const auto& sm : sms) busy = busy || sm.busy();
    if (!busy) break;

    std::int64_t t_min = Sm::kNever;
    for (const Lane& l : lanes) t_min = std::min(t_min, l.due);
    if (t_min == Sm::kNever) throw_deadlock(spec);
    // Window-start state equals the serial state after all events < t_min:
    // advancing the sampler here reproduces its pop-time sampling exactly
    // (windows never cross an unsampled boundary, see the clip below).
    if (sampler != nullptr) sampler->advance(t_min);

    std::int64_t end = t_min + window;
    if (sampler != nullptr) end = std::min(end, sampler->next_boundary() + 1);
    ++windows;

    // Phase A: every SM advances privately; cross-SM traffic lands in the
    // per-SM defer records.
    const bool pending = dispatch.blocks_pending();
    barrier_wait_us += gang.run([&](int w) {
      for (std::size_t i = static_cast<std::size_t>(w); i < sms.size();
           i += static_cast<std::size_t>(workers)) {
        advance_lane(sms[i], lanes[i], end, pending);
      }
    });

    // Admission replay: completions processed one global-minimum cycle at
    // a time — clear that cycle's holds, run the (serial, deterministic)
    // dispatcher, resume exactly those SMs, and repeat, since a resumed SM
    // can complete another block later in the same window.
    while (true) {
      std::int64_t c = Sm::kNever;
      for (const Lane& l : lanes) {
        if (l.paused) c = std::min(c, l.completion);
      }
      if (c == Sm::kNever) break;
      for (std::size_t i = 0; i < sms.size(); ++i) {
        if (lanes[i].paused && lanes[i].completion == c) sms[i].set_admit_hold(false);
      }
      dispatch.admit_where_possible(c);
      for (std::size_t i = 0; i < sms.size(); ++i) {
        if (lanes[i].paused && lanes[i].completion == c) {
          lanes[i].paused = false;
          lanes[i].completion = Sm::kNever;
          advance_lane(sms[i], lanes[i], end, dispatch.blocks_pending());
        }
      }
    }

    // Deterministic merge: replay every deferred MemorySystem touch in
    // (event cycle, sm, seq) order — the serial engine's call order
    // (ascending pop cycle, ascending SM index per pop, program order per
    // step). Arrival-time dependences always name an earlier txn of the
    // same SM, so responses resolve in one pass.
    order.clear();
    for (std::size_t i = 0; i < sms.size(); ++i) {
      Lane& lane = lanes[i];
      lane.resp.assign(lane.defer.txns.size(), 0);
      for (std::uint32_t k = 0; k < lane.defer.txns.size(); ++k) {
        order.push_back({lane.defer.txns[k].cycle, static_cast<std::uint32_t>(i), k});
      }
    }
    std::sort(order.begin(), order.end(), [](const Ref& a, const Ref& b) {
      if (a.cycle != b.cycle) return a.cycle < b.cycle;
      if (a.sm != b.sm) return a.sm < b.sm;
      return a.seq < b.seq;
    });
    for (const Ref& r : order) {
      Lane& lane = lanes[r.sm];
      const MemDefer::Txn& t = lane.defer.txns[r.seq];
      if (t.is_store) {
        memsys.store(t.line, t.t_arr, t.sectors);
        continue;
      }
      std::int64_t arr = t.t_arr;
      if (t.arr_dep >= 0) {
        arr = std::max(arr, lane.resp[static_cast<std::size_t>(t.arr_dep)] + t.arr_add);
      }
      lane.resp[r.seq] = memsys.load(t.line, arr, t.sectors);
    }

    // Phase C: resolve parked warps and patch datapaths before the next
    // window's sampling sees the state.
    for (std::size_t i = 0; i < sms.size(); ++i) {
      Lane& lane = lanes[i];
      if (!lane.defer.txns.empty()) {
        lane.due = std::min(lane.due, sms[i].resolve_deferred(lane.defer, lane.resp));
        lane.defer.clear();
      }
      last = std::max(last, lane.last_step);
    }
  }

  for (auto& sm : sms) sm.set_defer(nullptr);
  if (ob != nullptr) {
    obs::Registry& reg = ob->registry_or_global();
    reg.add(reg.counter("sim.parallel.windows"), windows);
    reg.add(reg.counter("sim.parallel.barrier_wait_us"),
            static_cast<std::uint64_t>(barrier_wait_us));
  }
  return last;
}

int resolve_sim_threads(int requested) {
  if (requested > 0) return requested;
  if (const char* env = std::getenv("CATT_SIM_THREADS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 1;
}

int resolve_trace_threads(int requested) {
  if (requested > 0) return requested;
  if (const char* env = std::getenv("CATT_TRACE_THREADS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 1;
}

}  // namespace catt::sim
