// Per-warp execution traces. The functional interpreter (interp.hpp) turns
// a kernel + thread block into one trace per warp: the timed events the SM
// model replays. Traces are generated lazily per resident thread block, so
// memory stays bounded by occupancy rather than grid size.
//
// Events are stored structure-of-arrays: the replay loop in the SM model
// touches kind/payload/txn-span as parallel flat vectors instead of chasing
// a per-event heap vector, and all coalesced transactions of a thread
// block live in one shared pool (TxnPool) the block's warps index into.
//
// A trace is either explicit (the VM and the reference interpreter write
// every transaction row) or a view (dedup.hpp): one block-0 template
// shared by every block, plus the block's coordinates. A view's memory
// event reads the template's rows and shifts every line by the event's
// LineShift applied to the block; events whose block delta is not
// line-aligned ("patch" events) read rows re-rendered for the block
// instead. mem_span() is the one read path, so no caller can
// see a template line without its offset.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "gpusim/simt.hpp"

namespace catt::sim {

enum class EventKind : std::uint8_t {
  kCompute,  // ALU/SFU work: warp busy for `cycles`
  kMem,      // one global-memory instruction, post-coalescing
  kBarrier,  // __syncthreads()
  kEnd,      // warp finished the kernel
};

/// One coalesced memory transaction: a cache line plus how many of its
/// 32 B sectors the warp actually touches (1..4). Misses are charged DRAM
/// bandwidth per sector (Volta's sectored fills), so divergent accesses
/// cost less bandwidth per line than coalesced ones.
struct Txn {
  std::uint64_t line = 0;
  std::uint8_t sectors = 1;
};

/// Transaction storage shared by all warps of one thread block. Spans
/// recorded in a WarpTrace index into the block's pool; the pool dies when
/// the last warp of the block releases its trace.
using TxnPool = std::vector<Txn>;

/// The transactions of one kMem event as replay sees them: `count` rows
/// at `txns`, each line shifted by `line_offset` (0 for explicit rows).
/// The offset is added with unsigned wrap, like the byte deltas a dedup
/// render adds.
struct TxnSpan {
  const Txn* txns = nullptr;
  std::uint32_t count = 0;
  std::uint64_t line_offset = 0;

  Txn operator[](std::uint32_t k) const { return {txns[k].line + line_offset, txns[k].sectors}; }
};

/// Per-block line delta of one template memory event: a view of block
/// (bx,by,bz) shifts the event's lines by dx*bx + dy*by + dz*bz. `patch`
/// >= 0 marks a patch event (its byte delta is not line-aligned): its rows
/// are the view's patch span with that ordinal, not the template's.
struct LineShift {
  std::int64_t dx = 0, dy = 0, dz = 0;
  std::int32_t patch = -1;
};

/// One view's re-rendered patch events: patch k's rows are
/// pool[begin[k], begin[k+1]).
struct PatchSpans {
  std::shared_ptr<TxnPool> pool;
  std::vector<std::uint32_t> begin;
};

/// One warp's timed event sequence in structure-of-arrays layout. For kMem
/// events the txn span holds the distinct cache-line transactions the
/// coalescer produced for the instruction — the paper's "off-chip memory
/// requests (after coalescing)" (Figure 2's Y value).
///
/// Build protocol: events are appended in order; at most one kMem event is
/// open at a time (begin_mem, then mem_sector per touched 32 B sector in
/// line-sorted order).
///
/// Storage is a shared handle: the SoA arrays (and the pool reference)
/// live in one refcounted Data block, so a copy of a finished trace is a
/// refcount bump, not a deep copy, and a view shares its template's Data.
/// The replay side only reads; emission must only ever target a freshly
/// built trace (every construction site does).
class WarpTrace {
 public:
  WarpTrace() = default;
  explicit WarpTrace(std::shared_ptr<TxnPool> pool)
      : data_(std::make_shared<Data>()) {
    data_->pool = std::move(pool);
  }

  std::size_t size() const { return data_ ? data_->kind.size() : 0; }
  bool empty() const { return size() == 0; }
  EventKind kind(std::size_t i) const { return static_cast<EventKind>(data_->kind[i]); }
  std::uint32_t cycles(std::size_t i) const { return data_->cycles[i]; }
  std::uint16_t site(std::size_t i) const { return data_->site[i]; }
  bool is_store(std::size_t i) const { return data_->store[i] != 0; }
  std::uint32_t txn_count(std::size_t i) const {
    if (view_ && data_->shift[i].patch >= 0) return patch_span(data_->shift[i].patch).count;
    return data_->txn_count[i];
  }

  /// The transactions of kMem event `i`, translated to this trace's block.
  TxnSpan mem_span(std::size_t i) const {
    const Data& d = *data_;
    if (!view_) return {d.pool->data() + d.txn_begin[i], d.txn_count[i], 0};
    return view_span(i);
  }
  /// Transaction `k` of event `i` (k < txn_count(i)), translated.
  Txn txn(std::size_t i, std::uint32_t k) const { return mem_span(i)[k]; }

  /// Per-lane work of event `i`: for kCompute, cycles x active lanes
  /// summed over the merged ops; for kMem, the lane accesses the
  /// instruction(s) issued before coalescing. Zero for barriers/end.
  std::uint32_t lane_work(std::size_t i) const { return data_->lanes[i]; }

  /// Divergence counters accumulated while this warp's trace was built
  /// (identical whether the trace came from the VM, the reference
  /// interpreter, or a dedup render).
  const simt::DivCounters& div() const { return data_->div; }
  void set_div(const simt::DivCounters& d) { ensure().div = d; }

  // ---- views ----

  /// Turns a freshly built, still empty trace into a template: every
  /// event gets a LineShift (zero until shift_mem() sets it).
  void make_template() { ensure().templ = true; }

  /// Sets the open kMem event's per-block line delta (templates only).
  void shift_mem(const LineShift& s) { data_->shift.back() = s; }

  /// A view of this template for block (bx,by,bz); `patches` holds the
  /// block's re-rendered patch events (null when the template has none).
  WarpTrace view(std::uint32_t bx, std::uint32_t by, std::uint32_t bz,
                 std::shared_ptr<const PatchSpans> patches) const {
    WarpTrace v;
    v.data_ = data_;
    v.patches_ = std::move(patches);
    v.block_[0] = bx;
    v.block_[1] = by;
    v.block_[2] = bz;
    v.view_ = true;
    return v;
  }

  // ---- emission ----

  /// Appends compute work under `active` lanes, merging into a directly
  /// preceding kCompute event (the interpreters' event-merge rule). The
  /// lane-work column merges additively, so the merged event's lane work
  /// stays the exact sum of cycles x active over the ops it covers even
  /// when the active mask changed between them.
  void push_compute(std::uint32_t cycles, std::uint32_t active) {
    Data& d = ensure();
    if (!d.kind.empty() && d.kind.back() == static_cast<std::uint8_t>(EventKind::kCompute)) {
      d.cycles.back() += cycles;
      d.lanes.back() += cycles * active;
      return;
    }
    push_row(EventKind::kCompute, cycles, 0, false, cycles * active);
  }

  /// Appends a kCompute event without merging (dedup render replays
  /// already-merged symbolic events one-for-one; `lane_work` is the
  /// already-summed cycles x active of the symbolic event).
  void push_compute_raw(std::uint32_t cycles, std::uint32_t lane_work) {
    push_row(EventKind::kCompute, cycles, 0, false, lane_work);
  }

  /// Opens a kMem event; transactions follow via mem_sector(). `lanes`
  /// is the pre-coalescing lane-access count of the instruction(s).
  void begin_mem(std::uint16_t site, bool is_store, std::uint32_t lanes) {
    Data& d = ensure();
    if (!d.pool) d.pool = std::make_shared<TxnPool>();
    push_row(EventKind::kMem, 0, site, is_store, lanes);
  }

  /// Records one touched 32 B sector of `line` for the open kMem event.
  /// Call sites present sectors line-sorted, so consecutive sectors of the
  /// same line merge into one transaction with a higher sector count.
  void mem_sector(std::uint64_t line) {
    Data& d = *data_;
    TxnPool& p = *d.pool;
    if (d.txn_count.back() != 0 && p.back().line == line) {
      ++p.back().sectors;
      return;
    }
    p.push_back({line, 1});
    ++d.txn_count.back();
  }

  void push_barrier() { push_row(EventKind::kBarrier, 0, 0, false, 0); }
  void push_end() { push_row(EventKind::kEnd, 0, 0, false, 0); }

  /// Drops this handle's reference (finished warps are never replayed).
  /// Shared storage — and the block's pool — dies with the last holder.
  void release() {
    data_.reset();
    patches_.reset();
  }

  void reserve(std::size_t events) {
    Data& d = ensure();
    d.kind.reserve(events);
    d.cycles.reserve(events);
    d.site.reserve(events);
    d.store.reserve(events);
    d.txn_begin.reserve(events);
    d.txn_count.reserve(events);
    d.lanes.reserve(events);
    if (d.templ) d.shift.reserve(events);
  }

 private:
  struct Data {
    std::vector<std::uint8_t> kind;
    std::vector<std::uint32_t> cycles;
    std::vector<std::uint16_t> site;
    std::vector<std::uint8_t> store;
    std::vector<std::uint32_t> txn_begin;
    std::vector<std::uint32_t> txn_count;
    std::vector<std::uint32_t> lanes;
    std::vector<LineShift> shift;  // templates only: one per event
    bool templ = false;
    simt::DivCounters div;
    std::shared_ptr<TxnPool> pool;
  };

  Data& ensure() {
    if (!data_) data_ = std::make_shared<Data>();
    return *data_;
  }

  void push_row(EventKind k, std::uint32_t cycles, std::uint16_t site, bool store,
                std::uint32_t lanes) {
    Data& d = ensure();
    d.kind.push_back(static_cast<std::uint8_t>(k));
    d.cycles.push_back(cycles);
    d.site.push_back(site);
    d.store.push_back(store ? 1 : 0);
    d.txn_begin.push_back(d.pool ? static_cast<std::uint32_t>(d.pool->size()) : 0);
    d.txn_count.push_back(0);
    d.lanes.push_back(lanes);
    if (d.templ) d.shift.emplace_back();
  }

  TxnSpan patch_span(std::int32_t k) const {
    const std::uint32_t b = patches_->begin[static_cast<std::size_t>(k)];
    return {patches_->pool->data() + b, patches_->begin[static_cast<std::size_t>(k) + 1] - b, 0};
  }

  TxnSpan view_span(std::size_t i) const {
    const Data& d = *data_;
    const LineShift& s = d.shift[i];
    if (s.patch >= 0) return patch_span(s.patch);
    return {d.pool->data() + d.txn_begin[i], d.txn_count[i],
            static_cast<std::uint64_t>(s.dx) * block_[0] +
                static_cast<std::uint64_t>(s.dy) * block_[1] +
                static_cast<std::uint64_t>(s.dz) * block_[2]};
  }

  std::shared_ptr<Data> data_;
  // View state (view_ false: explicit rows, the fields below unused).
  std::shared_ptr<const PatchSpans> patches_;
  std::uint64_t block_[3] = {0, 0, 0};
  bool view_ = false;
};

/// Recycles TxnPool allocations across thread blocks. Trace generation
/// allocates one pool per block and frees it when the block's last warp
/// releases its trace — tens of thousands of heap round-trips per launch
/// for large grids. The arena hands back cleared pools with their
/// capacity intact, so steady state allocates nothing.
///
/// A pool returns to the freelist wherever its last trace reference dies,
/// so the freelist is mutex-guarded; the custom deleter shares ownership
/// of the state, making returns safe even after the arena itself is gone.
class TxnArena {
 public:
  std::shared_ptr<TxnPool> acquire() {
    std::shared_ptr<State> st = state_;
    std::unique_ptr<TxnPool> pool;
    {
      std::lock_guard<std::mutex> lock(st->mu);
      if (!st->free.empty()) {
        pool = std::move(st->free.back());
        st->free.pop_back();
      }
    }
    if (!pool) pool = std::make_unique<TxnPool>();
    TxnPool* raw = pool.release();
    return std::shared_ptr<TxnPool>(raw, [st](TxnPool* p) {
      p->clear();
      std::lock_guard<std::mutex> lock(st->mu);
      st->free.emplace_back(p);
    });
  }

 private:
  struct State {
    std::mutex mu;
    std::vector<std::unique_ptr<TxnPool>> free;
  };
  std::shared_ptr<State> state_ = std::make_shared<State>();
};

/// Static memory-instruction site (for reports and Figure 2 labels).
struct MemSite {
  std::string array;
  std::string index_text;
  bool is_store = false;
};

}  // namespace catt::sim
