#include "gpusim/ref_interp.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/error.hpp"
#include "gpusim/simt.hpp"

namespace catt::sim {

namespace {

using expr::Expr;
using expr::ExprKind;
using expr::ScalarType;
using ir::Stmt;
using ir::StmtKind;

// Integer add/sub/mul/neg wrap in two's complement, as the bytecode VM
// computes them; plain signed arithmetic would be undefined on overflow.
std::int64_t wrap(std::uint64_t v) { return static_cast<std::int64_t>(v); }
std::uint64_t bits(std::int64_t v) { return static_cast<std::uint64_t>(v); }

constexpr int kWarp = 32;
using Mask = std::uint32_t;

/// 32-lane value vector (int and float planes; `type` selects).
struct WVal {
  ScalarType type = ScalarType::kInt;
  std::array<std::int64_t, kWarp> i{};
  std::array<double, kWarp> f{};

  std::int64_t as_int(int lane) const {
    return type == ScalarType::kInt ? i[lane] : static_cast<std::int64_t>(f[lane]);
  }
  double as_float(int lane) const {
    return type == ScalarType::kFloat ? f[lane] : static_cast<double>(i[lane]);
  }
  bool truthy(int lane) const {
    return type == ScalarType::kInt ? i[lane] != 0 : f[lane] != 0.0;
  }
};

WVal broadcast_int(std::int64_t v) {
  WVal w;
  w.type = ScalarType::kInt;
  w.i.fill(v);
  return w;
}

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

// ---------------------------------------------------------------------------
// Construction: site/cost tables.
// ---------------------------------------------------------------------------

std::uint16_t RefKernelInterp::site_id(const void* key, const std::string& array,
                                    const std::string& index_text, bool is_store) {
  auto it = site_ids_.find(key);
  if (it != site_ids_.end()) return it->second;
  const auto id = static_cast<std::uint16_t>(sites_.size());
  site_ids_[key] = id;
  sites_.push_back({array, index_text, is_store});
  return id;
}

RefKernelInterp::RefKernelInterp(const ir::Kernel& kernel, const arch::LaunchConfig& launch,
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
}

int RefKernelInterp::warps_per_block() const { return launch_.warps_per_block(kWarp); }

// ---------------------------------------------------------------------------
// Execution.
// ---------------------------------------------------------------------------

struct RefKernelInterp::Impl {
  RefKernelInterp& I;
  std::uint64_t block_linear;
  arch::Dim3 block_idx;

  // Per-block shared-memory buffers.
  std::map<std::string, std::vector<float>> shared_f;
  std::map<std::string, std::vector<std::int32_t>> shared_i;

  // Per-warp state.
  int warp_id = 0;
  Mask full_mask = 0;
  std::array<std::int64_t, kWarp> tid_x{}, tid_y{}, tid_z{};
  std::map<std::string, WVal> vars;
  WarpTrace* trace = nullptr;
  // Reconvergence stack driven in lockstep with the explicit mask
  // threading below; the VM drives the same type from its control ops,
  // which keeps the divergence counters bit-identical across executors.
  simt::ReconvStack rs{0};

  struct SiteRec {
    std::uint16_t site;
    bool is_store;
    std::vector<std::uint64_t> byte_addrs;
  };
  std::vector<SiteRec> recs;

  explicit Impl(RefKernelInterp& interp, std::uint64_t blk) : I(interp), block_linear(blk) {
    block_idx = arch::delinearize(blk, I.launch_.grid);
    for (const auto& sh : I.kernel_.shared) {
      if (sh.type == ir::ElemType::kF32) {
        shared_f[sh.name].assign(static_cast<std::size_t>(sh.count), 0.0f);
      } else {
        shared_i[sh.name].assign(static_cast<std::size_t>(sh.count), 0);
      }
    }
  }

  // ---- event emission ----

  void emit_compute(std::uint32_t cycles, Mask m) {
    trace->push_compute(cycles, simt::active_count(m));
  }

  SiteRec& rec_for(std::uint16_t site, bool is_store) {
    for (auto& r : recs) {
      if (r.site == site && r.is_store == is_store) return r;
    }
    recs.push_back({site, is_store, {}});
    return recs.back();
  }

  /// Converts accumulated per-lane byte addresses into coalesced Mem
  /// events: distinct lines, each with its touched 32 B sector count.
  void flush_mem() {
    for (auto& r : recs) {
      trace->begin_mem(r.site, r.is_store, static_cast<std::uint32_t>(r.byte_addrs.size()));
      auto& addrs = r.byte_addrs;
      // Sector address = byte / 32; line = sector / (line/32).
      const std::uint64_t sectors_per_line =
          static_cast<std::uint64_t>(I.line_bytes_) / 32;
      for (auto& a : addrs) a /= 32;
      std::sort(addrs.begin(), addrs.end());
      addrs.erase(std::unique(addrs.begin(), addrs.end()), addrs.end());
      for (std::uint64_t sector : addrs) {
        trace->mem_sector(sector / sectors_per_line);
      }
    }
    recs.clear();
  }

  // ---- memory access helpers ----

  [[noreturn]] void oob(const std::string& array, std::int64_t idx, std::size_t size) const {
    throw SimError("kernel '" + I.kernel_.name + "' block " + std::to_string(block_linear) +
                   ": index " + std::to_string(idx) + " out of bounds for '" + array + "' (" +
                   std::to_string(size) + " elements)");
  }

  // ---- expression evaluation (warp-vectorized) ----

  WVal eval(const Expr& e, Mask mask) {
    switch (e.kind) {
      case ExprKind::kConst: {
        WVal w;
        w.type = e.type;
        if (e.type == ScalarType::kInt) {
          w.i.fill(e.ival);
        } else {
          w.f.fill(e.fval);
        }
        return w;
      }
      case ExprKind::kVar: {
        auto it = vars.find(e.name);
        if (it != vars.end()) return it->second;
        auto p = I.params_.find(e.name);
        if (p != I.params_.end()) return broadcast_int(p->second);
        throw SimError("kernel '" + I.kernel_.name + "': unbound variable '" + e.name + "'");
      }
      case ExprKind::kBuiltin:
        return eval_builtin(e.builtin);
      case ExprKind::kUnary: {
        WVal a = eval(*e.args[0], mask);
        WVal w;
        if (e.un == expr::UnOp::kNot) {
          w.type = ScalarType::kInt;
          for (int l = 0; l < kWarp; ++l) {
            if (mask & (1u << l)) w.i[l] = a.truthy(l) ? 0 : 1;
          }
        } else {
          w.type = a.type;
          for (int l = 0; l < kWarp; ++l) {
            if (!(mask & (1u << l))) continue;
            if (w.type == ScalarType::kFloat) {
              w.f[l] = -a.as_float(l);
            } else {
              w.i[l] = wrap(0u - bits(a.as_int(l)));
            }
          }
        }
        return w;
      }
      case ExprKind::kBinary:
        return eval_binary(e, mask);
      case ExprKind::kLoad:
        return eval_load(e, mask);
      case ExprKind::kCast: {
        WVal a = eval(*e.args[0], mask);
        WVal w;
        w.type = e.type;
        for (int l = 0; l < kWarp; ++l) {
          if (!(mask & (1u << l))) continue;
          if (e.type == ScalarType::kFloat) {
            // Round-trip through float to model 32-bit device precision.
            w.f[l] = static_cast<float>(a.as_float(l));
          } else {
            w.i[l] = a.as_int(l);
          }
        }
        return w;
      }
      case ExprKind::kCall:
        return eval_call(e, mask);
    }
    throw SimError("unreachable expr kind");
  }

  WVal eval_builtin(expr::Builtin b) {
    WVal w;
    w.type = ScalarType::kInt;
    switch (b) {
      case expr::Builtin::kThreadIdxX: w.i = tid_x; break;
      case expr::Builtin::kThreadIdxY: w.i = tid_y; break;
      case expr::Builtin::kThreadIdxZ: w.i = tid_z; break;
      case expr::Builtin::kBlockIdxX: w.i.fill(block_idx.x); break;
      case expr::Builtin::kBlockIdxY: w.i.fill(block_idx.y); break;
      case expr::Builtin::kBlockIdxZ: w.i.fill(block_idx.z); break;
      case expr::Builtin::kBlockDimX: w.i.fill(I.launch_.block.x); break;
      case expr::Builtin::kBlockDimY: w.i.fill(I.launch_.block.y); break;
      case expr::Builtin::kBlockDimZ: w.i.fill(I.launch_.block.z); break;
      case expr::Builtin::kGridDimX: w.i.fill(I.launch_.grid.x); break;
      case expr::Builtin::kGridDimY: w.i.fill(I.launch_.grid.y); break;
      case expr::Builtin::kGridDimZ: w.i.fill(I.launch_.grid.z); break;
    }
    return w;
  }

  WVal eval_binary(const Expr& e, Mask mask) {
    using expr::BinOp;
    // Short-circuit logical ops refine the mask for the right operand so
    // masked-off lanes cannot fault (division, out-of-bounds loads).
    if (e.bin == BinOp::kAnd || e.bin == BinOp::kOr) {
      WVal a = eval(*e.args[0], mask);
      Mask rhs_mask = 0;
      for (int l = 0; l < kWarp; ++l) {
        if (!(mask & (1u << l))) continue;
        const bool t = a.truthy(l);
        if ((e.bin == BinOp::kAnd && t) || (e.bin == BinOp::kOr && !t)) rhs_mask |= 1u << l;
      }
      WVal w;
      w.type = ScalarType::kInt;
      if (rhs_mask != 0) {
        WVal b = eval(*e.args[1], rhs_mask);
        for (int l = 0; l < kWarp; ++l) {
          if (!(mask & (1u << l))) continue;
          const bool at = a.truthy(l);
          const bool bt = (rhs_mask & (1u << l)) != 0 && b.truthy(l);
          w.i[l] = (e.bin == BinOp::kAnd) ? (at && bt) : (at || bt);
        }
      } else {
        for (int l = 0; l < kWarp; ++l) {
          if (mask & (1u << l)) w.i[l] = (e.bin == BinOp::kAnd) ? 0 : 1;
        }
      }
      return w;
    }

    WVal a = eval(*e.args[0], mask);
    WVal b = eval(*e.args[1], mask);
    WVal w;
    if (expr::is_relational(e.bin)) {
      w.type = ScalarType::kInt;
      const bool fc = a.type == ScalarType::kFloat || b.type == ScalarType::kFloat;
      for (int l = 0; l < kWarp; ++l) {
        if (!(mask & (1u << l))) continue;
        bool r = false;
        if (fc) {
          const double x = a.as_float(l);
          const double y = b.as_float(l);
          switch (e.bin) {
            case BinOp::kLt: r = x < y; break;
            case BinOp::kLe: r = x <= y; break;
            case BinOp::kGt: r = x > y; break;
            case BinOp::kGe: r = x >= y; break;
            case BinOp::kEq: r = x == y; break;
            case BinOp::kNe: r = x != y; break;
            default: break;
          }
        } else {
          const std::int64_t x = a.as_int(l);
          const std::int64_t y = b.as_int(l);
          switch (e.bin) {
            case BinOp::kLt: r = x < y; break;
            case BinOp::kLe: r = x <= y; break;
            case BinOp::kGt: r = x > y; break;
            case BinOp::kGe: r = x >= y; break;
            case BinOp::kEq: r = x == y; break;
            case BinOp::kNe: r = x != y; break;
            default: break;
          }
        }
        w.i[l] = r ? 1 : 0;
      }
      return w;
    }

    w.type = e.type;
    for (int l = 0; l < kWarp; ++l) {
      if (!(mask & (1u << l))) continue;
      if (e.type == ScalarType::kFloat) {
        const double x = a.as_float(l);
        const double y = b.as_float(l);
        double r = 0.0;
        switch (e.bin) {
          case BinOp::kAdd: r = x + y; break;
          case BinOp::kSub: r = x - y; break;
          case BinOp::kMul: r = x * y; break;
          case BinOp::kDiv: r = x / y; break;
          case BinOp::kMin: r = std::min(x, y); break;
          case BinOp::kMax: r = std::max(x, y); break;
          default: throw SimError("bad float op");
        }
        // 32-bit device arithmetic.
        w.f[l] = static_cast<float>(r);
      } else {
        const std::int64_t x = a.as_int(l);
        const std::int64_t y = b.as_int(l);
        std::int64_t r = 0;
        switch (e.bin) {
          case BinOp::kAdd: r = wrap(bits(x) + bits(y)); break;
          case BinOp::kSub: r = wrap(bits(x) - bits(y)); break;
          case BinOp::kMul: r = wrap(bits(x) * bits(y)); break;
          case BinOp::kDiv:
            if (y == 0) throw SimError("division by zero in '" + e.str() + "'");
            r = x / y;
            break;
          case BinOp::kMod:
            if (y == 0) throw SimError("modulo by zero in '" + e.str() + "'");
            r = x % y;
            break;
          case BinOp::kMin: r = std::min(x, y); break;
          case BinOp::kMax: r = std::max(x, y); break;
          default: throw SimError("bad int op");
        }
        w.i[l] = r;
      }
    }
    return w;
  }

  WVal eval_load(const Expr& e, Mask mask) {
    WVal idx = eval(*e.args[0], mask);
    WVal w;

    // Shared-memory load: functional only (does not touch the L1D).
    if (const ir::SharedArray* sh = I.kernel_.find_shared(e.name)) {
      w.type = ir::scalar_type(sh->type);
      for (int l = 0; l < kWarp; ++l) {
        if (!(mask & (1u << l))) continue;
        const std::int64_t x = idx.as_int(l);
        if (sh->type == ir::ElemType::kF32) {
          auto& buf = shared_f[e.name];
          if (x < 0 || static_cast<std::size_t>(x) >= buf.size()) oob(e.name, x, buf.size());
          w.f[l] = buf[static_cast<std::size_t>(x)];
        } else {
          auto& buf = shared_i[e.name];
          if (x < 0 || static_cast<std::size_t>(x) >= buf.size()) oob(e.name, x, buf.size());
          w.i[l] = buf[static_cast<std::size_t>(x)];
        }
      }
      return w;
    }

    DeviceArray& arr = I.mem_.array(e.name);
    w.type = ir::scalar_type(arr.type);
    const std::uint16_t site = I.site_id(&e, e.name, e.args[0]->str(), /*is_store=*/false);
    SiteRec& rec = rec_for(site, false);
    const std::size_t elem = ir::elem_size(arr.type);
    for (int l = 0; l < kWarp; ++l) {
      if (!(mask & (1u << l))) continue;
      const std::int64_t x = idx.as_int(l);
      if (x < 0 || static_cast<std::size_t>(x) >= arr.count()) oob(e.name, x, arr.count());
      rec.byte_addrs.push_back(arr.base + static_cast<std::uint64_t>(x) * elem);
      if (arr.type == ir::ElemType::kF32) {
        w.f[l] = arr.f[static_cast<std::size_t>(x)];
      } else {
        w.i[l] = arr.i[static_cast<std::size_t>(x)];
      }
    }
    return w;
  }

  WVal eval_call(const Expr& e, Mask mask) {
    WVal w;
    w.type = ScalarType::kFloat;
    std::vector<WVal> args;
    args.reserve(e.args.size());
    for (const auto& a : e.args) args.push_back(eval(*a, mask));
    for (int l = 0; l < kWarp; ++l) {
      if (!(mask & (1u << l))) continue;
      auto a0 = [&] { return args[0].as_float(l); };
      auto a1 = [&] { return args[1].as_float(l); };
      double r = 0.0;
      if (e.name == "sqrtf") {
        r = std::sqrt(a0());
      } else if (e.name == "fabsf") {
        r = std::fabs(a0());
      } else if (e.name == "expf") {
        r = std::exp(a0());
      } else if (e.name == "logf") {
        r = std::log(a0());
      } else if (e.name == "powf") {
        r = std::pow(a0(), a1());
      } else if (e.name == "floorf") {
        r = std::floor(a0());
      } else if (e.name == "fminf") {
        r = std::fmin(a0(), a1());
      } else if (e.name == "fmaxf") {
        r = std::fmax(a0(), a1());
      } else {
        throw SimError("unknown intrinsic " + e.name);
      }
      w.f[l] = static_cast<float>(r);
    }
    return w;
  }

  // ---- statements ----

  std::uint32_t cost_of(const Stmt& s) const {
    auto it = I.stmt_cost_.find(&s);
    return it == I.stmt_cost_.end() ? 2 : it->second;
  }

  void write_var(const std::string& name, const WVal& v, Mask mask, ScalarType ty) {
    auto it = vars.find(name);
    if (it == vars.end()) {
      WVal fresh;
      fresh.type = ty;
      it = vars.emplace(name, std::move(fresh)).first;
    }
    WVal& slot = it->second;
    slot.type = ty;
    for (int l = 0; l < kWarp; ++l) {
      if (!(mask & (1u << l))) continue;
      if (ty == ScalarType::kFloat) {
        slot.f[l] = static_cast<float>(v.as_float(l));
      } else {
        slot.i[l] = v.as_int(l);
      }
    }
  }

  void exec_store(const Stmt& s, Mask mask) {
    WVal idx = eval(*s.index, mask);
    WVal val = eval(*s.value, mask);
    flush_mem();  // loads feeding the store issue first

    if (const ir::SharedArray* sh = I.kernel_.find_shared(s.name)) {
      for (int l = 0; l < kWarp; ++l) {
        if (!(mask & (1u << l))) continue;
        const std::int64_t x = idx.as_int(l);
        if (sh->type == ir::ElemType::kF32) {
          auto& buf = shared_f[s.name];
          if (x < 0 || static_cast<std::size_t>(x) >= buf.size()) oob(s.name, x, buf.size());
          buf[static_cast<std::size_t>(x)] = static_cast<float>(val.as_float(l));
        } else {
          auto& buf = shared_i[s.name];
          if (x < 0 || static_cast<std::size_t>(x) >= buf.size()) oob(s.name, x, buf.size());
          buf[static_cast<std::size_t>(x)] = static_cast<std::int32_t>(val.as_int(l));
        }
      }
      return;
    }

    DeviceArray& arr = I.mem_.array(s.name);
    const std::uint16_t site = I.site_id(&s, s.name, s.index->str(), /*is_store=*/true);
    SiteRec& rec = rec_for(site, true);
    const std::size_t elem = ir::elem_size(arr.type);
    for (int l = 0; l < kWarp; ++l) {
      if (!(mask & (1u << l))) continue;
      const std::int64_t x = idx.as_int(l);
      if (x < 0 || static_cast<std::size_t>(x) >= arr.count()) oob(s.name, x, arr.count());
      rec.byte_addrs.push_back(arr.base + static_cast<std::uint64_t>(x) * elem);
      if (arr.type == ir::ElemType::kF32) {
        arr.f[static_cast<std::size_t>(x)] = static_cast<float>(val.as_float(l));
      } else {
        arr.i[static_cast<std::size_t>(x)] = static_cast<std::int32_t>(val.as_int(l));
      }
    }
    flush_mem();
  }

  void exec_body(const std::vector<ir::StmtPtr>& body, Mask mask) {
    for (const auto& sp : body) {
      if (mask == 0) return;
      const Stmt& s = *sp;
      switch (s.kind) {
        case StmtKind::kDeclInt:
        case StmtKind::kAssign: {
          emit_compute(cost_of(s), mask);
          WVal v = eval(*s.value, mask);
          flush_mem();
          // kAssign may target a float local; keep the declared type.
          ScalarType ty = s.kind == StmtKind::kDeclInt ? ScalarType::kInt : v.type;
          if (s.kind == StmtKind::kAssign) {
            auto it = vars.find(s.name);
            if (it != vars.end()) ty = it->second.type;
          }
          write_var(s.name, v, mask, ty);
          break;
        }
        case StmtKind::kDeclFloat: {
          emit_compute(cost_of(s), mask);
          WVal v = eval(*s.value, mask);
          flush_mem();
          write_var(s.name, v, mask, ScalarType::kFloat);
          break;
        }
        case StmtKind::kStore:
          emit_compute(cost_of(s), mask);
          exec_store(s, mask);
          break;
        case StmtKind::kFor: {
          emit_compute(cost_of(s), mask);
          WVal init = eval(*s.value, mask);
          flush_mem();
          write_var(s.name, init, mask, ScalarType::kInt);
          const auto ic = I.loop_iter_cost_.find(&s);
          const std::uint32_t iter_cost = ic == I.loop_iter_cost_.end() ? 3 : ic->second;
          rs.enter_loop();
          Mask m = mask;
          while (m != 0) {
            emit_compute(iter_cost, m);
            WVal c = eval(*s.cond, m);
            flush_mem();
            Mask next = 0;
            for (int l = 0; l < kWarp; ++l) {
              if ((m & (1u << l)) && c.truthy(l)) next |= 1u << l;
            }
            rs.loop_branch(next);
            m = next;
            if (m == 0) break;
            exec_body(s.body, m);
            WVal step = eval(*s.step, m);
            flush_mem();
            auto& slot = vars[s.name];
            for (int l = 0; l < kWarp; ++l) {
              if (m & (1u << l)) slot.i[l] = wrap(bits(slot.i[l]) + bits(step.as_int(l)));
            }
          }
          rs.exit_loop();
          vars.erase(s.name);
          break;
        }
        case StmtKind::kWhile: {
          emit_compute(cost_of(s), mask);
          const auto ic = I.loop_iter_cost_.find(&s);
          const std::uint32_t iter_cost = ic == I.loop_iter_cost_.end() ? 3 : ic->second;
          rs.enter_loop();
          Mask m = mask;
          while (m != 0) {
            emit_compute(iter_cost, m);
            WVal c = eval(*s.cond, m);
            flush_mem();
            Mask next = 0;
            for (int l = 0; l < kWarp; ++l) {
              if ((m & (1u << l)) && c.truthy(l)) next |= 1u << l;
            }
            rs.loop_branch(next);
            m = next;
            if (m == 0) break;
            exec_body(s.body, m);
          }
          rs.exit_loop();
          break;
        }
        case StmtKind::kIf: {
          emit_compute(cost_of(s), mask);
          WVal c = eval(*s.cond, mask);
          flush_mem();
          Mask m1 = 0;
          for (int l = 0; l < kWarp; ++l) {
            if ((mask & (1u << l)) && c.truthy(l)) m1 |= 1u << l;
          }
          const Mask m2 = mask & ~m1;
          rs.begin_if(m1);
          if (m1 != 0) exec_body(s.body, m1);
          rs.to_else();
          if (m2 != 0 && !s.else_body.empty()) exec_body(s.else_body, m2);
          rs.end_if();
          break;
        }
        case StmtKind::kSync:
          trace->push_barrier();
          break;
      }
    }
  }

  WarpTrace run_warp(int wid, const std::shared_ptr<TxnPool>& pool) {
    warp_id = wid;
    vars.clear();
    recs.clear();
    WarpTrace t(pool);
    trace = &t;

    const std::uint64_t threads = I.launch_.block.count();
    full_mask = 0;
    for (int l = 0; l < kWarp; ++l) {
      const std::uint64_t linear = static_cast<std::uint64_t>(wid) * kWarp + l;
      if (linear < threads) {
        full_mask |= 1u << l;
        const arch::Dim3 t3 = arch::delinearize(linear, I.launch_.block);
        tid_x[l] = t3.x;
        tid_y[l] = t3.y;
        tid_z[l] = t3.z;
      } else {
        tid_x[l] = tid_y[l] = tid_z[l] = 0;
      }
    }

    rs = simt::ReconvStack(full_mask);
    exec_body(I.kernel_.body, full_mask);
    t.set_div(rs.counters());
    t.push_end();
    trace = nullptr;
    return t;
  }
};

std::vector<WarpTrace> RefKernelInterp::run_block(std::uint64_t block_linear) {
  if (block_linear >= launch_.num_blocks()) {
    throw SimError("block " + std::to_string(block_linear) + " outside grid");
  }
  Impl impl(*this, block_linear);
  std::vector<WarpTrace> out;
  const int warps = warps_per_block();
  out.reserve(static_cast<std::size_t>(warps));
  auto pool = std::make_shared<TxnPool>();
  for (int w = 0; w < warps; ++w) out.push_back(impl.run_warp(w, pool));
  return out;
}

}  // namespace catt::sim
