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
#include <cstdint>
#include <map>
#include <memory>
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

  /// Dedup counters (for CATT_PROFILE attribution).
  std::uint64_t warps_rendered() const { return rendered_; }
  std::uint64_t warps_executed() const { return executed_; }

  /// Dedup attribution (sim.dedup.*): warps of this launch's symbolized
  /// block that failed, by reason, and the time symbolization took. Zero
  /// when the launch reused an entry generated earlier.
  std::uint64_t bails(dedup::BailReason r) const {
    return bails_[static_cast<std::size_t>(r)];
  }
  std::uint64_t symbolize_us() const { return symbolize_us_; }
  /// Time spent rendering this launch's rendered warps. Trace generation
  /// minus symbolize_us() minus render_us() is VM time.
  std::uint64_t render_us() const { return render_ns_ / 1000; }
  /// Memory events re-rendered per block because their block delta is not
  /// line-aligned (summed over this launch's rendered warps).
  std::uint64_t patch_events() const { return patch_events_; }

 private:
  void ensure_compiled();
  std::vector<WarpTrace> run_block_vm(std::uint64_t block_linear);
  std::vector<WarpTrace> run_block_dedup(std::uint64_t block_linear);

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

  std::uint64_t rendered_ = 0;
  std::uint64_t executed_ = 0;
  std::array<std::uint64_t, dedup::kNumBailReasons> bails_{};
  std::uint64_t symbolize_us_ = 0;
  std::uint64_t render_ns_ = 0;  // one clock pair per rendered warp
  std::uint64_t patch_events_ = 0;

  /// Recycles per-block TxnPool allocations.
  TxnArena arena_;
};

}  // namespace catt::sim
