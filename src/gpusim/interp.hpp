// Functional SIMT interpreter: executes a kernel IR thread block with full
// memory effects and produces per-warp traces for the timing model.
//
// Execution is a two-stage pipeline (see DESIGN.md "Bytecode warp VM"):
// the kernel IR is flattened once per launch into a linear bytecode
// program (bytecode.hpp) and warps run as a tight dispatch loop over
// 32-wide lane vectors. Optionally, block-parametric trace dedup
// (dedup.hpp) proves most warps' traces are affine translates across
// blocks and renders them — the first block included — instead of
// executing them. Both stages are trace-exact: the original tree-walk
// implementation survives as RefKernelInterp (ref_interp.hpp) and
// vm_test.cpp pins equality.
//
// Modeling notes (documented limitations):
//  * Warps of a block execute sequentially at trace-generation time, so
//    cross-warp shared-memory communication resolves in warp order rather
//    than barrier order. None of the evaluated workloads' metrics depend
//    on cross-warp shared data (see DESIGN.md).
//  * Blocks execute functionally in dispatch order; the evaluated kernels
//    have no inter-block data dependences within a launch.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "arch/launch.hpp"
#include "expr/affine.hpp"
#include "gpusim/bytecode.hpp"
#include "gpusim/dedup.hpp"
#include "gpusim/memory.hpp"
#include "gpusim/trace.hpp"
#include "ir/ir.hpp"

namespace catt::sim {

class KernelInterp {
 public:
  /// Binds a kernel to memory and launch parameters. `params` supplies the
  /// scalar arguments; every array parameter must already be allocated in
  /// `mem`. Throws catt::SimError on missing arrays.
  KernelInterp(const ir::Kernel& kernel, const arch::LaunchConfig& launch,
               const expr::ParamEnv& params, DeviceMemory& mem, int line_bytes);

  /// Executes block `block_linear` (row-major over the grid) functionally
  /// and returns one trace per warp of the block.
  std::vector<WarpTrace> run_block(std::uint64_t block_linear);

  const std::vector<MemSite>& sites() const { return table_->sites; }
  const arch::LaunchConfig& launch() const { return launch_; }
  int warps_per_block() const;

  /// True when every trace the kernel can generate is independent of the
  /// values loaded from memory (bc::trace_data_independent).
  bool trace_pure() const { return pure_; }

  /// Disables functional global-memory effects (addresses are still
  /// computed and recorded). Sound only for trace-pure kernels whose
  /// memory contents nobody observes; the runner decides.
  void set_functional(bool on);

  /// Attaches the block-parametric trace cache under `key`. Requires a
  /// trace-pure kernel; renders affine warps instead of executing them.
  void enable_dedup(dedup::TraceDedup& cache, std::uint64_t key);

  /// Toggles the per-launch delta-keyed render cache (on by default).
  /// Purely a speed knob: traces are bit-identical either way.
  void set_render_cache(bool on) { render_cache_on_ = on; }

  /// True once every warp of a block can be rendered from the parametric
  /// traces with no VM fallback — the condition under which run_block is
  /// safe to call from concurrent trace workers for distinct blocks:
  /// renders only read the program, the symbolic warps and the site table
  /// (all ids were assigned while the generation block was produced; grid-
  /// uniform control flow means no rendered warp can reference a site the
  /// generation block did not encounter). Any invalid warp means later
  /// blocks run the concrete VM, which assigns site ids in block order
  /// and mutates lane state — strictly serial.
  bool parallel_renderable() const;

  /// Dedup counters (for CATT_PROFILE attribution). Relaxed atomics:
  /// trace workers bump them concurrently; totals are read after join.
  std::uint64_t warps_rendered() const { return rendered_.load(std::memory_order_relaxed); }
  std::uint64_t warps_executed() const { return executed_.load(std::memory_order_relaxed); }

  /// Dedup attribution (sim.dedup.*): warps of this launch's symbolized
  /// block that failed, by reason, and the time symbolization took. Zero
  /// when the launch reused an entry generated earlier. Written by the
  /// thread that produces block 0; read after trace generation joins.
  std::uint64_t bails(dedup::BailReason r) const {
    return bails_[static_cast<std::size_t>(r)];
  }
  std::uint64_t symbolize_us() const { return symbolize_us_; }

  /// Render-cache counters (sim.tracegen.* observability).
  std::uint64_t render_cache_hits() const {
    return cache_hits_.load(std::memory_order_relaxed);
  }
  std::uint64_t render_cache_bytes_saved() const {
    return cache_bytes_saved_.load(std::memory_order_relaxed);
  }

 private:
  void ensure_compiled();
  std::vector<WarpTrace> run_block_vm(std::uint64_t block_linear);
  std::vector<WarpTrace> run_block_dedup(std::uint64_t block_linear);
  WarpTrace render_warp(std::size_t w, const arch::Dim3& bid,
                        const std::shared_ptr<TxnPool>& pool);

  const ir::Kernel& kernel_;
  arch::LaunchConfig launch_;
  expr::ParamEnv params_;
  DeviceMemory& mem_;
  int line_bytes_;
  bool pure_ = false;
  bool functional_ = true;

  /// Static per-statement compute cost, keyed by Stmt pointer.
  std::map<const void*, std::uint32_t> stmt_cost_;
  /// Per-iteration overhead (condition + increment) for loops.
  std::map<const void*, std::uint32_t> loop_iter_cost_;

  std::optional<bc::Program> prog_;  // compiled lazily on first run_block
  std::optional<bc::Vm> vm_;
  bc::SiteTable own_table_;
  bc::SiteTable* table_ = &own_table_;  // entry's table when dedup is on
  dedup::DedupEntry* entry_ = nullptr;

  std::atomic<std::uint64_t> rendered_{0};
  std::atomic<std::uint64_t> executed_{0};
  std::array<std::uint64_t, dedup::kNumBailReasons> bails_{};
  std::uint64_t symbolize_us_ = 0;

  /// Delta-keyed render cache. Warp w of block (bx,by,bz) renders a trace
  /// fully determined by the per-mem-event byte deltas dx*bx+dy*by+dz*bz
  /// (the base addresses, cycle counts and site ids are block-invariant),
  /// so blocks whose delta vectors coincide — every kernel that ignores
  /// one or more block coordinates in its addressing — share one
  /// immutable rendered trace. A hit is a map lookup plus a WarpTrace
  /// refcount bump. A cached trace pins its block's TxnPool for the
  /// launch, so only warps whose addresses ignore a block axis the grid
  /// spans are cached (cacheable_). Mutex-guarded: trace workers render
  /// concurrently; on a racing miss both render (identical bytes) and
  /// first insert wins.
  bool render_cache_on_ = true;
  std::vector<bool> cacheable_;  // per warp; see delta_repeats in interp.cpp
  std::mutex cache_mu_;
  std::vector<std::map<std::vector<std::uint64_t>, WarpTrace>> render_cache_;
  std::atomic<std::uint64_t> cache_hits_{0};
  std::atomic<std::uint64_t> cache_bytes_saved_{0};

  /// Recycles per-block TxnPool allocations (safe against the pipeline's
  /// cross-thread release of finished traces).
  TxnArena arena_;
};

}  // namespace catt::sim
