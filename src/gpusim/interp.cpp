#include "gpusim/interp.hpp"

#include <chrono>
#include <utility>

#include "common/error.hpp"

namespace catt::sim {

namespace {

constexpr int kWarp = 32;

using expr::Expr;
using expr::ExprKind;
using ir::Stmt;
using ir::StmtKind;

/// Static compute-cost model for one statement's expressions: one cycle per
/// AST node, plus surcharges for SFU intrinsics and shared-memory traffic.
struct CostModel {
  const ir::Kernel& kernel;

  std::uint32_t expr_cost(const Expr& e) const {
    std::uint32_t c = 1;
    if (e.kind == ExprKind::kCall) c += 8;
    if (e.kind == ExprKind::kLoad && kernel.find_shared(e.name) != nullptr) c += 4;
    for (const auto& a : e.args) c += expr_cost(*a);
    return c;
  }
};

}  // namespace

KernelInterp::KernelInterp(const ir::Kernel& kernel, const arch::LaunchConfig& launch,
                           const expr::ParamEnv& params, DeviceMemory& mem, int line_bytes)
    : kernel_(kernel), launch_(launch), params_(params), mem_(mem), line_bytes_(line_bytes) {
  for (const auto& a : kernel_.arrays) {
    if (!mem_.has(a.name)) {
      throw SimError("kernel '" + kernel_.name + "': array '" + a.name + "' not allocated");
    }
  }
  for (const auto& s : kernel_.scalars) {
    if (!params_.contains(s.name)) {
      throw SimError("kernel '" + kernel_.name + "': scalar '" + s.name + "' not bound");
    }
  }

  // Precompute per-statement costs.
  const CostModel cm{kernel_};
  struct Walk {
    const CostModel& cm;
    std::map<const void*, std::uint32_t>& cost;
    std::map<const void*, std::uint32_t>& iter_cost;
    void body(const std::vector<ir::StmtPtr>& b) {
      for (const auto& s : b) stmt(*s);
    }
    void stmt(const Stmt& s) {
      std::uint32_t c = 2;
      if (s.value) c += cm.expr_cost(*s.value);
      if (s.index) c += cm.expr_cost(*s.index);
      if (s.kind == StmtKind::kIf) c += cm.expr_cost(*s.cond);
      if (s.kind == StmtKind::kFor) {
        iter_cost[&s] = 2 + cm.expr_cost(*s.cond) + cm.expr_cost(*s.step);
      }
      if (s.kind == StmtKind::kWhile) {
        iter_cost[&s] = 2 + cm.expr_cost(*s.cond);
      }
      cost[&s] = c;
      body(s.body);
      body(s.else_body);
    }
  };
  Walk w{cm, stmt_cost_, loop_iter_cost_};
  w.body(kernel_.body);

  pure_ = bc::trace_data_independent(kernel_);
}

int KernelInterp::warps_per_block() const { return launch_.warps_per_block(kWarp); }

void KernelInterp::set_functional(bool on) {
  functional_ = on;
  if (vm_) vm_->set_functional(on);
}

void KernelInterp::enable_dedup(dedup::TraceDedup& cache, std::uint64_t key) {
  entry_ = &cache.entry(key);
  table_ = &entry_->table;
}

void KernelInterp::ensure_compiled() {
  if (prog_) return;
  prog_.emplace(bc::compile(kernel_, launch_, params_, mem_,
                            bc::CostTables{&stmt_cost_, &loop_iter_cost_}));
  vm_.emplace(*prog_, launch_, line_bytes_, functional_);
}

std::vector<WarpTrace> KernelInterp::run_block_vm(std::uint64_t block_linear) {
  vm_->set_block(block_linear);
  const int warps = warps_per_block();
  std::vector<WarpTrace> out;
  out.reserve(static_cast<std::size_t>(warps));
  auto pool = arena_.acquire();
  for (int w = 0; w < warps; ++w) {
    out.push_back(vm_->run_warp(w, *table_, pool));
    ++executed_;
  }
  return out;
}

std::vector<WarpTrace> KernelInterp::run_block_dedup(std::uint64_t block_linear) {
  if (!entry_->generated) {
    // First block under this key: derive the block-parametric traces, then
    // produce this block like every later one. Renders and VM fallbacks
    // both assign site ids as they meet sites, in warp order, so ids keep
    // the concrete first-dynamic-encounter order.
    const auto t0 = std::chrono::steady_clock::now();
    entry_->warps = dedup::symbolize(*prog_, launch_);
    symbolize_us_ += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(std::chrono::steady_clock::now() -
                                                              t0)
            .count());
    for (const dedup::ParamWarpTrace& pt : entry_->warps) {
      if (!pt.valid) ++bails_[static_cast<std::size_t>(pt.bail)];
    }
    entry_->generated = true;
  }
  const arch::Dim3 bid = arch::delinearize(block_linear, launch_.grid);
  const int warps = warps_per_block();
  std::vector<WarpTrace> out;
  out.reserve(static_cast<std::size_t>(warps));
  auto pool = arena_.acquire();
  bool vm_block_set = false;
  for (int w = 0; w < warps; ++w) {
    const bool affine = static_cast<std::size_t>(w) < entry_->warps.size() &&
                        entry_->warps[static_cast<std::size_t>(w)].valid;
    if (affine) {
      const auto t0 = std::chrono::steady_clock::now();
      dedup::ParamWarpTrace& pt = entry_->warps[static_cast<std::size_t>(w)];
      out.push_back(dedup::render(pt, *prog_, entry_->table, bid, line_bytes_, pool));
      patch_events_ += pt.patch_events.size();
      render_ns_ += static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                               t0)
              .count());
      ++rendered_;
    } else {
      if (!vm_block_set) {
        vm_->set_block(block_linear);
        vm_block_set = true;
      }
      out.push_back(vm_->run_warp(w, *table_, pool));
      ++executed_;
    }
  }
  return out;
}

std::vector<WarpTrace> KernelInterp::run_block(std::uint64_t block_linear) {
  if (block_linear >= launch_.num_blocks()) {
    throw SimError("block " + std::to_string(block_linear) + " outside grid");
  }
  ensure_compiled();
  if (entry_ != nullptr) return run_block_dedup(block_linear);
  return run_block_vm(block_linear);
}

}  // namespace catt::sim
