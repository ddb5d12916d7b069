// Homogeneous-warp trace dedup: block-parametric symbolic execution of a
// compiled bytecode program (bytecode.hpp).
//
// The paper's evaluated kernels are affine and warp-homogeneous, so warp w
// of block (bx,by,bz) usually generates the same event sequence as warp w
// of block (0,0,0) with every address shifted by a constant per-site
// delta. This module proves that property per warp instead of assuming
// it: each warp is executed once symbolically with blockIdx kept as a
// variable, every lane value an affine form b + cx*bx + cy*by + cz*bz.
// The attempt succeeds only if every branch/loop decision is uniform over
// the whole grid, every address is affine with lane-uniform coefficients,
// and every bounds check holds over the whole grid box. Warps that fail
// any condition (or touch anything non-affine) fall back to the concrete
// VM per block, so the result is bit-identical by construction, never
// heuristic.
//
// The cache is keyed by (kernel fingerprint, launch config, block-
// invariant params) — see PlanEntry::trace_key in the runner — and lives
// inside one Gpu (device-array base addresses are stable for its
// lifetime), so launches repeated within a plan run re-use both the site
// table and the parametric traces; the runner releases an entry after
// the last plan entry that uses its key.
//
// Cost model: the first block of a key symbolizes every warp once and is
// then rendered (or, for warps that bail, executed) exactly like every
// later block, so no block is paid for twice. Symbolizing costs less than
// a VM run of the warp. Measured on corr_kernel (Release, 4-vCPU x86-64
// host, median of 8 launches): symbolize 40 ms per warp, render 16 ms
// per rendered warp, VM 55 ms per executed warp; before the two paths
// below, symbolize took 97 ms and render 24 ms (VM 50 ms).
//
// - Block-invariant fast path: a register whose lanes carry no block
//   coefficient (SInt::blk false) computes only its 32 base values, as
//   the VM does, and compares them exactly.
// - Lane-progression addresses: an access whose sorted addresses are
//   first + i*stride stores that pair, not the addresses; the render
//   walks the sector range (stride <= 32 B) or one sector per lane.
//
// Render builds no transaction rows per block. A warp's first render
// builds its template: block (0,0,0) rendered once, with each memory
// event's byte deltas recorded in lines. Every block then gets a view of
// that template (WarpTrace::view), and replay adds the block's line
// offset at issue time. Only patch events, whose byte delta is not a
// whole number of lines (syr2k's C[i*N+j] moves 64 B per blockIdx.x),
// are re-rendered per block into the block's TxnPool, through the
// progression/AddrStore walk above. fig7 at CATT_JOBS=1 (Release, 4-core
// x86-64 host, median of 3 runs): summed render 7.5 s -> 1.1 s.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "arch/launch.hpp"
#include "gpusim/bytecode.hpp"
#include "gpusim/trace.hpp"

namespace catt::sim::dedup {

/// Why a warp could not be proven block-affine. Exported per launch as
/// sim.dedup.bail.<bail_reason_name> (counted once per symbolized warp,
/// i.e. when a trace key is first generated, not once per block).
enum class BailReason : std::uint8_t {
  kNone,
  /// An unknown lane value (loaded data, or a non-affine result that does
  /// not stem from the block coordinates) reaches a decision or address.
  kPoisoned,
  /// A branch, loop bound, divisor or shared-memory index varies with the
  /// block (an affine value whose truth changes over the grid, or a value
  /// derived from such a comparison).
  kBlockDependent,
  /// A global or shared access is not in bounds over the whole grid box.
  kOutOfBounds,
  /// The lanes of one site disagree on the per-block byte delta.
  kNonUniformDelta,
  /// The warp itself was proven, but another warp of a shared-memory
  /// kernel bailed (see symbolize()).
  kSharedInvalidated,
  /// A deferred runtime error or a zero divisor: the VM raises it.
  kError,
};
inline constexpr int kNumBailReasons = 7;

/// Counter suffix for a reason ("poisoned", "block_dependent", ...).
const char* bail_reason_name(BailReason r);

/// Append-only address storage of one parametric warp trace. Addresses
/// live in fixed-size chunks, so growth never copies what is stored, and
/// shrink_to_fit() trims the last chunk to its used length. An append
/// that does not fit the rest of the current chunk starts a new one, so
/// every event's addresses are contiguous.
class AddrStore {
 public:
  // 32 KB: below glibc's mmap threshold, so chunks come from the heap.
  static constexpr std::uint64_t kChunk = std::uint64_t{1} << 12;  // addresses

  /// Copies `n` addresses in and returns the offset of the first.
  std::uint64_t append(const std::uint64_t* src, std::size_t n);
  /// The addresses starting at `offset` (an append's result, n > 0).
  const std::uint64_t* at(std::uint64_t offset) const {
    return index_[offset / kChunk] + offset % kChunk;
  }
  void shrink_to_fit();

 private:
  std::vector<std::unique_ptr<std::uint64_t[]>> owned_;
  std::vector<std::uint64_t*> index_;  // one entry per kChunk offsets
  std::uint64_t size_ = 0;             // next free offset
  std::uint64_t last_len_ = 0;         // allocated length of owned_.back()
};

/// One event of a block-parametric warp trace. kMem events hold the
/// per-block-coordinate byte deltas and the `lanes` byte addresses of
/// block (0,0,0), sorted. When those form a lane progression
/// addr + i*stride (i < lanes) — every lane-affine access does — the pair
/// is all that is stored; otherwise the addresses sit at `addr` in the
/// warp's AddrStore. Rendering adds the delta and redoes the sector/line
/// coalescing (the delta need not be sector-aligned).
struct ParamEvent {
  EventKind kind = EventKind::kCompute;
  bool is_store = false;                // kMem
  bool progression = false;             // kMem: addr/stride, not the AddrStore
  std::uint32_t cycles = 0;             // kCompute
  std::uint32_t lanes = 0;              // lane work (see WarpTrace::lane_work)
  std::int32_t slot = -1;               // kMem: Program site slot
  std::uint64_t addr = 0;               // kMem: first address, or AddrStore offset
  std::uint64_t stride = 0;             // kMem: progression byte stride
  std::int64_t dx = 0, dy = 0, dz = 0;  // kMem: byte delta per block coord
};

struct ParamWarpTrace {
  bool valid = false;  // false => render impossible, use the concrete VM
  BailReason bail = BailReason::kNone;  // why, when !valid
  std::vector<ParamEvent> events;
  AddrStore addrs;
  // Divergence counters are block-invariant for a provably-affine warp:
  // cond_mask() bails unless every branch decision is uniform over the
  // grid, so the mask history (and thus these counters and every event's
  // lane work) is identical in all rendered blocks.
  simt::DivCounters div;
  // Block (0,0,0) rendered once, at the warp's first render() (so site ids
  // are assigned in the concrete first-encounter order, interleaved with
  // VM-fallback warps); every rendered block is a view of it.
  WarpTrace templ;
  // Indices into `events` of the patch events (memory events whose block
  // delta is not line-aligned), in event order.
  std::vector<std::uint32_t> patch_events;
};

/// Cached state for one (kernel, launch, params) fingerprint. The site
/// table is shared by renders and VM fallbacks so id assignment keeps the
/// interpreter's first-dynamic-encounter order across launches. The warps'
/// templates live here too; views share them, so a view still being
/// replayed keeps its template alive after release().
struct DedupEntry {
  bool generated = false;
  std::vector<ParamWarpTrace> warps;  // indexed by warp id within a block
  bc::SiteTable table;
};

/// Per-Gpu cache of dedup entries, keyed by the runner's trace key.
class TraceDedup {
 public:
  DedupEntry& entry(std::uint64_t key) { return entries_[key]; }
  /// Drops the entry (no-op when absent); its next use regenerates it.
  void release(std::uint64_t key) { entries_.erase(key); }

 private:
  std::map<std::uint64_t, DedupEntry> entries_;
};

/// Attempts block-parametric symbolic execution of every warp of a block.
/// Always returns one ParamWarpTrace per warp; a warp that cannot be
/// proven block-affine comes back invalid, with its BailReason. If the
/// kernel uses shared memory and any warp fails, all warps are
/// invalidated (warps read
/// shared data written by earlier warps of the same block, so a concrete
/// fallback warp would invalidate the symbolic shared state behind it);
/// such warps report BailReason::kSharedInvalidated.
std::vector<ParamWarpTrace> symbolize(const bc::Program& prog, const arch::LaunchConfig& launch);

/// Renders one parametric warp trace for a concrete block, as a view of
/// the warp's block-0 template (built on the first call: `table` then
/// resolves site slots to ids, assigning unseen ones in event order — the
/// concrete VM's first-encounter order). Only the patch events'
/// transactions are built per block; they land in `pool` (shared by the
/// block's warps).
WarpTrace render(ParamWarpTrace& pt, const bc::Program& prog, bc::SiteTable& table,
                 const arch::Dim3& block_idx, int line_bytes,
                 const std::shared_ptr<TxnPool>& pool);

}  // namespace catt::sim::dedup
