// Parallel multi-SM timing engine and trace/timing pipeline overlap.
//
// A single launch is parallelized two ways, both bit-identical to the
// serial event engine (see DESIGN.md "Parallel timing engine"):
//
//  * TracePipeline runs the functional interpreter on producer threads,
//    feeding the dispatcher through a bounded in-order reorder buffer, so
//    trace generation overlaps timing simulation instead of serializing
//    with it. Block 0 is always produced serially by the leader — it is
//    the launch's only order-sensitive generation step (symbolization,
//    then the renders and VM runs that assign dedup site ids). After
//    it, if every warp of a block renders from the block-parametric
//    traces (KernelInterp::parallel_renderable), the remaining blocks are
//    sharded across N trace workers: rendering only reads shared state,
//    so blocks are order-independent and the consumer re-imposes
//    ascending order at the pop. Any launch that still needs the
//    concrete VM past block 0 keeps the single serial producer, so
//    functional memory effects and dedup site-id assignment are
//    unchanged in every case.
//
//  * run_parallel_loop partitions SMs across worker threads and advances
//    them in windows of W = max(1, l1_hit + l2_hit) cycles. Within a
//    window, SMs interact with nothing shared: every MemorySystem touch
//    is recorded into a per-SM MemDefer and replayed at the window
//    boundary in (event cycle, sm, seq) order — exactly the serial
//    engine's call order — after which dependent warp wake-ups, MSHR
//    slots, and L1 fill times resolve from the responses. No deferred
//    response can be consumed concretely inside the window that created
//    it (its value is >= window end by construction), which is what makes
//    the in-window schedules independent of thread count.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "gpusim/engine.hpp"

namespace catt::sim {

/// Producer/consumer overlap of trace generation and timing. One leader
/// thread produces block 0 serially, then — for launches whose remaining
/// blocks are pure renders (see the file comment) — shards blocks
/// 1..N-1 across trace workers; the consumer (the dispatcher) pops
/// blocks in ascending order from a bounded reorder buffer. The claim
/// bound (claimed < popped + depth) keeps live trace memory proportional
/// to occupancy, matching the serial engine's lazy-generation contract.
/// Destruction cancels and joins, so a timing-loop exception cannot leak
/// the threads.
class TracePipeline final : public BlockSource {
 public:
  /// `workers` is the requested trace-worker count (>= 1; the sharding
  /// decision may still fall back to 1). `reg` may be null (obs off).
  /// With a registry, per-worker interpreter time lands on
  /// "sim.trace_gen_us" (the same counter the serial path uses) and
  /// consumer stall time on "sim.pipeline.wait_us".
  TracePipeline(KernelInterp& interp, std::uint64_t num_blocks, std::size_t depth,
                int workers, obs::Registry* reg, const obs::SimObs* ob);
  ~TracePipeline() override;

  /// Blocking in-order pop; throws if a producer failed (rethrows its
  /// exception) or if blocks are requested out of order.
  std::vector<WarpTrace> run_block(std::uint64_t block_linear) override;

  /// Joins the producers and flushes counters. Idempotent; called by the
  /// destructor if not already done. After finish(), gen_ms()/wait_ms()/
  /// workers_used() are stable reads.
  void finish();

  /// Wall time from pipeline start until the last block was produced
  /// (the trace-generation critical path; includes producer backpressure
  /// stalls when timing is the bottleneck) / consumer-side stall wall
  /// time, for the CATT_PROFILE report line. Valid after finish().
  double gen_ms() const { return gen_ms_; }
  double wait_ms() const { return wait_ms_; }

  /// Trace workers actually used after the sharding decision (1 when the
  /// launch fell back to the serial producer). Valid after finish().
  int workers_used() const { return workers_used_; }

 private:
  void leader_loop();
  void produce_loop(obs::Registry* reg);
  bool claim(std::uint64_t& b);
  void offer(std::uint64_t b, std::vector<WarpTrace> traces);

  KernelInterp& interp_;
  const std::uint64_t num_blocks_;
  const std::size_t depth_;
  const int workers_req_;
  obs::Registry* reg_;
  const obs::SimObs* ob_;

  std::mutex mu_;
  std::condition_variable cv_;
  /// Reorder buffer: blocks land keyed by id (workers finish out of
  /// order); the consumer pops next_pop_ in ascending order.
  std::map<std::uint64_t, std::vector<WarpTrace>> ready_;
  std::uint64_t next_claim_ = 0;
  std::uint64_t next_pop_ = 0;
  bool cancel_ = false;
  bool producer_done_ = false;
  std::exception_ptr error_;
  std::uint64_t stalls_ = 0;
  std::chrono::steady_clock::time_point start_;
  std::chrono::steady_clock::time_point last_offer_;
  double gen_ms_ = 0.0;
  double wait_ms_ = 0.0;
  int workers_used_ = 1;
  bool finished_ = false;
  std::thread thread_;
};

/// Runs one launch on `threads` worker threads (the calling thread is
/// worker 0) with deterministic cross-SM merging; drop-in replacement for
/// run_event_loop with identical KernelStats, interval samples, and
/// functional effects. `threads` must be >= 2 and is clamped to the SM
/// count by the caller. `ob` (nullable) receives the per-epoch barrier
/// counters sim.parallel.windows / sim.parallel.barrier_wait_us.
std::int64_t run_parallel_loop(std::vector<Sm>& sms, BlockSource& source,
                               const LaunchSpec& spec, std::uint64_t num_blocks,
                               MemorySystem& memsys, const arch::GpuArch& arch,
                               int threads, const obs::SimTraceCtx* trace,
                               IntervalSampler* sampler, const obs::SimObs* ob);

/// Effective launch-level thread count: `requested` when positive, else
/// the CATT_SIM_THREADS environment variable (read fresh — tests toggle
/// it), else 1. Exposed so exec::Pool can divide the CATT_JOBS budget by
/// the per-launch parallelism and the two levels compose instead of
/// multiplying.
int resolve_sim_threads(int requested);

/// Same resolution for trace workers: `requested` when positive, else
/// CATT_TRACE_THREADS, else 1. A purely-performance knob: traces are
/// bit-identical for every worker count (see TracePipeline).
int resolve_trace_threads(int requested);

}  // namespace catt::sim
