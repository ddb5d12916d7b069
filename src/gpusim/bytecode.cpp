#include "gpusim/bytecode.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <set>

#include "common/error.hpp"
#include "gpusim/simd.hpp"
#include "gpusim/simt.hpp"

namespace catt::sim::bc {

namespace {

using expr::Expr;
using expr::ExprKind;
using expr::ScalarType;
using ir::Stmt;
using ir::StmtKind;

std::int64_t wrap_add(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) + static_cast<std::uint64_t>(b));
}
std::int64_t wrap_sub(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) - static_cast<std::uint64_t>(b));
}
std::int64_t wrap_mul(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) * static_cast<std::uint64_t>(b));
}
std::int64_t wrap_neg(std::int64_t a) {
  return static_cast<std::int64_t>(0u - static_cast<std::uint64_t>(a));
}

// ---------------------------------------------------------------------------
// Constant folding scalar: mirrors one lane of the interpreter's WVal.
// ---------------------------------------------------------------------------

struct FoldVal {
  ScalarType type = ScalarType::kInt;
  std::int64_t i = 0;
  double f = 0.0;

  std::int64_t as_int() const {
    return type == ScalarType::kInt ? i : static_cast<std::int64_t>(f);
  }
  double as_float() const {
    return type == ScalarType::kFloat ? f : static_cast<double>(i);
  }
  bool truthy() const { return type == ScalarType::kInt ? i != 0 : f != 0.0; }
};

FoldVal fold_int(std::int64_t v) { return {ScalarType::kInt, v, 0.0}; }
FoldVal fold_float(double v) { return {ScalarType::kFloat, 0, v}; }

std::optional<Intrinsic> intrinsic_for(const std::string& name) {
  if (name == "sqrtf") return Intrinsic::kSqrtf;
  if (name == "fabsf") return Intrinsic::kFabsf;
  if (name == "expf") return Intrinsic::kExpf;
  if (name == "logf") return Intrinsic::kLogf;
  if (name == "powf") return Intrinsic::kPowf;
  if (name == "floorf") return Intrinsic::kFloorf;
  if (name == "fminf") return Intrinsic::kFminf;
  if (name == "fmaxf") return Intrinsic::kFmaxf;
  return std::nullopt;
}

double call_intrinsic(Intrinsic id, double a0, double a1) {
  switch (id) {
    case Intrinsic::kSqrtf: return std::sqrt(a0);
    case Intrinsic::kFabsf: return std::fabs(a0);
    case Intrinsic::kExpf: return std::exp(a0);
    case Intrinsic::kLogf: return std::log(a0);
    case Intrinsic::kPowf: return std::pow(a0, a1);
    case Intrinsic::kFloorf: return std::floor(a0);
    case Intrinsic::kFminf: return std::fmin(a0, a1);
    case Intrinsic::kFmaxf: return std::fmax(a0, a1);
  }
  return 0.0;
}

bool compare(expr::BinOp op, double x, double y) {
  switch (op) {
    case expr::BinOp::kLt: return x < y;
    case expr::BinOp::kLe: return x <= y;
    case expr::BinOp::kGt: return x > y;
    case expr::BinOp::kGe: return x >= y;
    case expr::BinOp::kEq: return x == y;
    case expr::BinOp::kNe: return x != y;
    default: return false;
  }
}
bool compare(expr::BinOp op, std::int64_t x, std::int64_t y) {
  switch (op) {
    case expr::BinOp::kLt: return x < y;
    case expr::BinOp::kLe: return x <= y;
    case expr::BinOp::kGt: return x > y;
    case expr::BinOp::kGe: return x >= y;
    case expr::BinOp::kEq: return x == y;
    case expr::BinOp::kNe: return x != y;
    default: return false;
  }
}

// ---------------------------------------------------------------------------
// Compiler.
// ---------------------------------------------------------------------------

/// A typed register handle produced by expression compilation.
struct RV {
  std::uint16_t reg = 0;
  ScalarType type = ScalarType::kInt;
};

/// Assembly item: either one instruction or a label binding point.
struct Item {
  Ins ins;
  std::int32_t label = -1;  // >= 0: binds this label at the next pc
};

bool uses_label(Op op) {
  switch (op) {
    case Op::kJump:
    case Op::kIfBegin:
    case Op::kElse:
    case Op::kLoopBranch:
    case Op::kLogicalCut:
      return true;
    default:
      return false;
  }
}

class Compiler {
 public:
  Compiler(const ir::Kernel& kernel, const arch::LaunchConfig& launch,
           const expr::ParamEnv& params, DeviceMemory& mem, const CostTables& costs)
      : k_(kernel), launch_(launch), params_(params), mem_(mem), costs_(costs) {
    p_.kernel_name = k_.name;
    next_ireg_ = 6;  // 0..5 reserved for threadIdx / blockIdx
    for (const auto& sh : k_.shared) {
      shared_slot_[sh.name] = static_cast<std::int32_t>(p_.shared.size());
      p_.shared.push_back({sh.name, sh.type, sh.count});
    }
    out_ = &top_;
    emit_level_ = 0;
  }

  Program run() {
    compile_body(k_.body);
    emit({Op::kEnd});
    assemble();
    p_.n_iregs = next_ireg_;
    p_.n_fregs = next_freg_;
    return std::move(p_);
  }

 private:
  // ---- emission / registers / labels ----

  void emit(Ins ins) { out_->push_back({ins, -1}); }
  std::int32_t new_label() { return next_label_++; }
  void bind(std::int32_t label) { out_->push_back({Ins{}, label}); }

  std::uint16_t new_ireg() { return static_cast<std::uint16_t>(next_ireg_++); }
  std::uint16_t new_freg() { return static_cast<std::uint16_t>(next_freg_++); }
  std::uint16_t new_reg(ScalarType t) {
    return t == ScalarType::kFloat ? new_freg() : new_ireg();
  }

  std::int32_t intern(std::string s) {
    p_.strings.push_back(std::move(s));
    return static_cast<std::int32_t>(p_.strings.size() - 1);
  }

  RV error_rv(std::string msg, ScalarType type) {
    Ins e{Op::kError};
    e.y = intern(std::move(msg));
    emit(e);
    return {new_reg(type), type};
  }

  RV const_rv(const FoldVal& v) {
    if (v.type == ScalarType::kInt) {
      auto it = cpool_i_.find(v.i);
      if (it != cpool_i_.end()) return {it->second, ScalarType::kInt};
      const std::uint16_t r = new_ireg();
      cpool_i_[v.i] = r;
      p_.const_i.push_back({r, v.i});
      return {r, ScalarType::kInt};
    }
    std::uint64_t bits;
    std::memcpy(&bits, &v.f, sizeof bits);
    auto it = cpool_f_.find(bits);
    if (it != cpool_f_.end()) return {it->second, ScalarType::kFloat};
    const std::uint16_t r = new_freg();
    cpool_f_[bits] = r;
    p_.const_f.push_back({r, v.f});
    return {r, ScalarType::kFloat};
  }

  // ---- constant folding ----

  std::optional<FoldVal> fold(const Expr& e) {
    switch (e.kind) {
      case ExprKind::kConst:
        return e.type == ScalarType::kInt ? fold_int(e.ival) : fold_float(e.fval);
      case ExprKind::kVar: {
        if (vars_.contains(e.name)) return std::nullopt;  // locals shadow params
        auto p = params_.find(e.name);
        if (p != params_.end()) return fold_int(p->second);
        return std::nullopt;
      }
      case ExprKind::kBuiltin:
        switch (e.builtin) {
          case expr::Builtin::kBlockDimX: return fold_int(launch_.block.x);
          case expr::Builtin::kBlockDimY: return fold_int(launch_.block.y);
          case expr::Builtin::kBlockDimZ: return fold_int(launch_.block.z);
          case expr::Builtin::kGridDimX: return fold_int(launch_.grid.x);
          case expr::Builtin::kGridDimY: return fold_int(launch_.grid.y);
          case expr::Builtin::kGridDimZ: return fold_int(launch_.grid.z);
          default: return std::nullopt;
        }
      case ExprKind::kUnary: {
        auto a = fold(*e.args[0]);
        if (!a) return std::nullopt;
        if (e.un == expr::UnOp::kNot) return fold_int(a->truthy() ? 0 : 1);
        return a->type == ScalarType::kFloat ? fold_float(-a->as_float())
                                             : fold_int(wrap_neg(a->as_int()));
      }
      case ExprKind::kBinary: return fold_binary(e);
      case ExprKind::kCast: {
        auto a = fold(*e.args[0]);
        if (!a) return std::nullopt;
        if (e.type == ScalarType::kFloat) {
          return fold_float(static_cast<float>(a->as_float()));
        }
        if (a->type == ScalarType::kInt) return fold_int(a->i);
        // Guard the compile-time double->int cast against UB on huge values;
        // such casts stay as (masked) runtime instructions.
        if (!(std::fabs(a->f) < 9.0e18)) return std::nullopt;
        return fold_int(static_cast<std::int64_t>(a->f));
      }
      case ExprKind::kCall: {
        auto id = intrinsic_for(e.name);
        if (!id || e.args.empty()) return std::nullopt;
        std::array<double, 2> av{0.0, 0.0};
        for (std::size_t i = 0; i < e.args.size() && i < 2; ++i) {
          auto a = fold(*e.args[i]);
          if (!a) return std::nullopt;
          av[i] = a->as_float();
        }
        if ((id == Intrinsic::kPowf || id == Intrinsic::kFminf || id == Intrinsic::kFmaxf) &&
            e.args.size() < 2) {
          return std::nullopt;
        }
        // Remaining (ignored) args must still be side-effect free to fold.
        for (std::size_t i = 2; i < e.args.size(); ++i) {
          if (!fold(*e.args[i])) return std::nullopt;
        }
        return fold_float(static_cast<float>(call_intrinsic(*id, av[0], av[1])));
      }
      case ExprKind::kLoad:
        return std::nullopt;
    }
    return std::nullopt;
  }

  std::optional<FoldVal> fold_binary(const Expr& e) {
    using expr::BinOp;
    if (e.bin == BinOp::kAnd || e.bin == BinOp::kOr) {
      auto a = fold(*e.args[0]);
      if (!a) return std::nullopt;
      // The interpreter never evaluates the right side when the left
      // decides, so these fold even when the right side would fault.
      if (e.bin == BinOp::kAnd && !a->truthy()) return fold_int(0);
      if (e.bin == BinOp::kOr && a->truthy()) return fold_int(1);
      auto b = fold(*e.args[1]);
      if (!b) return std::nullopt;
      return fold_int(b->truthy() ? 1 : 0);
    }
    auto a = fold(*e.args[0]);
    if (!a) return std::nullopt;
    auto b = fold(*e.args[1]);
    if (!b) return std::nullopt;
    if (expr::is_relational(e.bin)) {
      const bool fc = a->type == ScalarType::kFloat || b->type == ScalarType::kFloat;
      const bool r = fc ? compare(e.bin, a->as_float(), b->as_float())
                        : compare(e.bin, a->as_int(), b->as_int());
      return fold_int(r ? 1 : 0);
    }
    if (e.type == ScalarType::kFloat) {
      const double x = a->as_float();
      const double y = b->as_float();
      double r = 0.0;
      switch (e.bin) {
        case BinOp::kAdd: r = x + y; break;
        case BinOp::kSub: r = x - y; break;
        case BinOp::kMul: r = x * y; break;
        case BinOp::kDiv: r = x / y; break;
        case BinOp::kMin: r = std::min(x, y); break;
        case BinOp::kMax: r = std::max(x, y); break;
        default: return std::nullopt;  // kMod on float: runtime error path
      }
      return fold_float(static_cast<float>(r));
    }
    const std::int64_t x = a->as_int();
    const std::int64_t y = b->as_int();
    switch (e.bin) {
      case BinOp::kAdd: return fold_int(wrap_add(x, y));
      case BinOp::kSub: return fold_int(wrap_sub(x, y));
      case BinOp::kMul: return fold_int(wrap_mul(x, y));
      case BinOp::kDiv:
        if (y == 0 || (y == -1 && x == std::numeric_limits<std::int64_t>::min())) {
          return std::nullopt;  // keep the faulting division at runtime
        }
        return fold_int(x / y);
      case BinOp::kMod:
        if (y == 0 || (y == -1 && x == std::numeric_limits<std::int64_t>::min())) {
          return std::nullopt;
        }
        return fold_int(x % y);
      case BinOp::kMin: return fold_int(std::min(x, y));
      case BinOp::kMax: return fold_int(std::max(x, y));
      default: return std::nullopt;
    }
  }

  // ---- hoisting support ----

  struct Frame {
    std::set<std::string> assigned;  // vars written anywhere in the loop
    std::vector<Item> preheader;
    std::map<std::string, RV> memo;  // hoisted expr text -> register
  };

  static void collect_assigned(const std::vector<ir::StmtPtr>& body, std::set<std::string>& out) {
    for (const auto& sp : body) {
      const Stmt& s = *sp;
      switch (s.kind) {
        case StmtKind::kDeclInt:
        case StmtKind::kDeclFloat:
        case StmtKind::kAssign:
          out.insert(s.name);
          break;
        case StmtKind::kFor:
          out.insert(s.name);
          collect_assigned(s.body, out);
          break;
        case StmtKind::kWhile:
          collect_assigned(s.body, out);
          break;
        case StmtKind::kIf:
          collect_assigned(s.body, out);
          collect_assigned(s.else_body, out);
          break;
        default:
          break;
      }
    }
  }

  /// Pure, never-faulting, value-only subtrees are safe to evaluate early
  /// in a loop preheader: no loads (they emit trace events), no unbound
  /// names or unknown intrinsics (deferred errors must keep their timing),
  /// no int division unless the divisor folds to a nonzero constant (a
  /// zero-trip loop must not fault on a hoisted divide), no float->int
  /// casts (masked, UB-prone on lanes the body mask would exclude).
  bool hoistable(const Expr& e) {
    switch (e.kind) {
      case ExprKind::kConst:
      case ExprKind::kBuiltin:
        return true;
      case ExprKind::kVar:
        return vars_.contains(e.name) || params_.find(e.name) != params_.end();
      case ExprKind::kLoad:
        return false;
      case ExprKind::kCast:
        if (e.type == ScalarType::kInt) return false;
        return hoistable(*e.args[0]);
      case ExprKind::kUnary:
        return hoistable(*e.args[0]);
      case ExprKind::kCall: {
        auto id = intrinsic_for(e.name);
        if (!id || e.args.empty()) return false;
        for (const auto& a : e.args) {
          if (!hoistable(*a)) return false;
        }
        return e.args.size() >= 2 ||
               (id != Intrinsic::kPowf && id != Intrinsic::kFminf && id != Intrinsic::kFmaxf);
      }
      case ExprKind::kBinary: {
        using expr::BinOp;
        if (e.bin == BinOp::kAnd || e.bin == BinOp::kOr) return false;  // short-circuit
        if (e.bin == BinOp::kMod && e.type == ScalarType::kFloat) return false;
        if ((e.bin == BinOp::kDiv || e.bin == BinOp::kMod) && e.type == ScalarType::kInt) {
          auto d = fold(*e.args[1]);
          if (!d || d->as_int() == 0) return false;
        }
        for (const auto& a : e.args) {
          if (!hoistable(*a)) return false;
        }
        return true;
      }
    }
    return false;
  }

  static void collect_vars(const Expr& e, std::set<std::string>& out) {
    if (e.kind == ExprKind::kVar) out.insert(e.name);
    for (const auto& a : e.args) collect_vars(*a, out);
  }

  /// Innermost-to-outermost scan: returns the shallowest frame index t such
  /// that no frame in [t, emit_level_) writes any variable of `e`, or
  /// emit_level_ when the innermost frame does (no hoist possible).
  int hoist_target(const Expr& e) {
    std::set<std::string> names;
    collect_vars(e, names);
    int t = emit_level_;
    for (int f = emit_level_ - 1; f >= 0; --f) {
      bool clean = true;
      for (const auto& n : names) {
        if (frames_[static_cast<std::size_t>(f)].assigned.contains(n)) {
          clean = false;
          break;
        }
      }
      if (!clean) break;
      t = f;
    }
    return t;
  }

  // ---- expression compilation ----

  RV compile_expr(const Expr& e) {
    if (auto c = fold(e)) return const_rv(*c);
    // Leaves compile to bare register reads; only operator nodes are worth
    // hoisting out of loops.
    if (emit_level_ > 0 && e.kind != ExprKind::kConst && e.kind != ExprKind::kVar &&
        e.kind != ExprKind::kBuiltin && hoistable(e)) {
      const int t = hoist_target(e);
      if (t < emit_level_) {
        Frame& fr = frames_[static_cast<std::size_t>(t)];
        const std::string key = e.str();
        if (auto it = fr.memo.find(key); it != fr.memo.end()) return it->second;
        std::vector<Item>* saved_out = out_;
        const int saved_level = emit_level_;
        out_ = &fr.preheader;
        emit_level_ = t;
        RV rv = compile_raw(e);
        out_ = saved_out;
        emit_level_ = saved_level;
        fr.memo[key] = rv;
        return rv;
      }
    }
    return compile_raw(e);
  }

  RV to_float(RV v) {
    if (v.type == ScalarType::kFloat) return v;
    Ins c{Op::kCvtIF};
    c.a = v.reg;
    c.dst = new_freg();
    emit(c);
    return {c.dst, ScalarType::kFloat};
  }

  RV to_int(RV v) {
    if (v.type == ScalarType::kInt) return v;
    Ins c{Op::kCvtFI};
    c.a = v.reg;
    c.dst = new_ireg();
    emit(c);
    return {c.dst, ScalarType::kInt};
  }

  RV to_bool(RV v) {
    Ins c{v.type == ScalarType::kFloat ? Op::kBoolF : Op::kBoolI};
    c.a = v.reg;
    c.dst = new_ireg();
    emit(c);
    return {c.dst, ScalarType::kInt};
  }

  /// True when evaluating `e` under too wide a mask could fault, emit a
  /// trace event, or raise a deferred error — i.e. the interpreter's
  /// refined right-operand mask for short-circuit &&/|| is observable.
  bool rhs_needs_mask(const Expr& e) {
    switch (e.kind) {
      case ExprKind::kLoad:
        return true;
      case ExprKind::kVar:
        return !vars_.contains(e.name) && params_.find(e.name) == params_.end();
      case ExprKind::kCall:
        if (!intrinsic_for(e.name)) return true;
        break;
      case ExprKind::kCast:
        if (e.type == ScalarType::kInt && e.args[0]->type != ScalarType::kInt &&
            !fold(*e.args[0])) {
          return true;
        }
        break;
      case ExprKind::kBinary: {
        using expr::BinOp;
        if (e.bin == BinOp::kMod && e.type == ScalarType::kFloat) return true;
        if ((e.bin == BinOp::kDiv || e.bin == BinOp::kMod) && e.type == ScalarType::kInt) {
          auto d = fold(*e.args[1]);
          if (!d || d->as_int() == 0) return true;
        }
        break;
      }
      default:
        break;
    }
    for (const auto& a : e.args) {
      if (rhs_needs_mask(*a)) return true;
    }
    return false;
  }

  RV compile_logical(const Expr& e) {
    using expr::BinOp;
    const bool is_or = e.bin == BinOp::kOr;
    if (auto a = fold(*e.args[0])) {
      // Left side decides uniformly; otherwise the right side runs under
      // the unrefined mask, exactly as the interpreter would.
      if (!is_or && !a->truthy()) return const_rv(fold_int(0));
      if (is_or && a->truthy()) return const_rv(fold_int(1));
      return to_bool(compile_expr(*e.args[1]));
    }
    RV lhs = compile_expr(*e.args[0]);
    if (!rhs_needs_mask(*e.args[1])) {
      RV a = to_bool(lhs);
      RV b = to_bool(compile_expr(*e.args[1]));
      Ins c{is_or ? Op::kOrB : Op::kAndB};
      c.a = a.reg;
      c.b = b.reg;
      c.dst = new_ireg();
      emit(c);
      return {c.dst, ScalarType::kInt};
    }
    const std::int32_t done = new_label();
    Ins cut{Op::kLogicalCut};
    cut.a = lhs.reg;
    cut.t = static_cast<std::uint8_t>((is_or ? 1 : 0) |
                                      (lhs.type == ScalarType::kFloat ? 2 : 0));
    cut.x = done;
    emit(cut);
    RV rhs = compile_expr(*e.args[1]);
    bind(done);
    Ins end{Op::kLogicalEnd};
    end.a = lhs.reg;
    end.b = rhs.reg;
    end.t = static_cast<std::uint8_t>((is_or ? 1 : 0) |
                                      (lhs.type == ScalarType::kFloat ? 2 : 0) |
                                      (rhs.type == ScalarType::kFloat ? 4 : 0));
    end.dst = new_ireg();
    emit(end);
    return {end.dst, ScalarType::kInt};
  }

  RV compile_binary(const Expr& e) {
    using expr::BinOp;
    if (e.bin == BinOp::kAnd || e.bin == BinOp::kOr) return compile_logical(e);
    RV a = compile_expr(*e.args[0]);
    RV b = compile_expr(*e.args[1]);
    if (expr::is_relational(e.bin)) {
      const bool fc = a.type == ScalarType::kFloat || b.type == ScalarType::kFloat;
      Ins c{fc ? Op::kCmpF : Op::kCmpI};
      if (fc) {
        a = to_float(a);
        b = to_float(b);
      }
      c.t = static_cast<std::uint8_t>(e.bin);
      c.a = a.reg;
      c.b = b.reg;
      c.dst = new_ireg();
      emit(c);
      return {c.dst, ScalarType::kInt};
    }
    if (e.type == ScalarType::kFloat) {
      a = to_float(a);
      b = to_float(b);
      Op op;
      switch (e.bin) {
        case BinOp::kAdd: op = Op::kAddF; break;
        case BinOp::kSub: op = Op::kSubF; break;
        case BinOp::kMul: op = Op::kMulF; break;
        case BinOp::kDiv: op = Op::kDivF; break;
        case BinOp::kMin: op = Op::kMinF; break;
        case BinOp::kMax: op = Op::kMaxF; break;
        default: return error_rv("bad float op", ScalarType::kFloat);
      }
      Ins c{op};
      c.a = a.reg;
      c.b = b.reg;
      c.dst = new_freg();
      emit(c);
      return {c.dst, ScalarType::kFloat};
    }
    a = to_int(a);
    b = to_int(b);
    Op op;
    Ins c;
    switch (e.bin) {
      case BinOp::kAdd: op = Op::kAddI; break;
      case BinOp::kSub: op = Op::kSubI; break;
      case BinOp::kMul: op = Op::kMulI; break;
      case BinOp::kMin: op = Op::kMinI; break;
      case BinOp::kMax: op = Op::kMaxI; break;
      case BinOp::kDiv:
        op = Op::kDivI;
        c.y = intern("division by zero in '" + e.str() + "'");
        break;
      case BinOp::kMod:
        op = Op::kModI;
        c.y = intern("modulo by zero in '" + e.str() + "'");
        break;
      default: return error_rv("bad int op", ScalarType::kInt);
    }
    c.op = op;
    c.a = a.reg;
    c.b = b.reg;
    c.dst = new_ireg();
    emit(c);
    return {c.dst, ScalarType::kInt};
  }

  RV compile_load(const Expr& e) {
    RV idx = to_int(compile_expr(*e.args[0]));
    if (const ir::SharedArray* sh = k_.find_shared(e.name)) {
      Ins c{Op::kLoadSh};
      c.a = idx.reg;
      c.x = shared_slot_.at(e.name);
      const ScalarType t = ir::scalar_type(sh->type);
      c.t = t == ScalarType::kFloat ? 1 : 0;
      c.dst = new_reg(t);
      emit(c);
      return {c.dst, t};
    }
    DeviceArray& arr = mem_.array(e.name);
    Ins c{Op::kLoadG};
    c.a = idx.reg;
    c.x = static_cast<std::int32_t>(p_.sites.size());
    p_.sites.push_back({&arr, e.name, e.args[0]->str(), /*is_store=*/false});
    const ScalarType t = ir::scalar_type(arr.type);
    c.t = t == ScalarType::kFloat ? 1 : 0;
    c.dst = new_reg(t);
    emit(c);
    return {c.dst, t};
  }

  RV compile_raw(const Expr& e) {
    switch (e.kind) {
      case ExprKind::kConst:
        return const_rv(e.type == ScalarType::kInt ? fold_int(e.ival) : fold_float(e.fval));
      case ExprKind::kVar: {
        auto it = vars_.find(e.name);
        if (it != vars_.end()) return it->second;
        // Params fold; anything else is the interpreter's runtime error.
        return error_rv("kernel '" + k_.name + "': unbound variable '" + e.name + "'",
                        ScalarType::kInt);
      }
      case ExprKind::kBuiltin:
        switch (e.builtin) {
          case expr::Builtin::kThreadIdxX: return {Program::kTidX, ScalarType::kInt};
          case expr::Builtin::kThreadIdxY: return {Program::kTidY, ScalarType::kInt};
          case expr::Builtin::kThreadIdxZ: return {Program::kTidZ, ScalarType::kInt};
          case expr::Builtin::kBlockIdxX: return {Program::kBidX, ScalarType::kInt};
          case expr::Builtin::kBlockIdxY: return {Program::kBidY, ScalarType::kInt};
          case expr::Builtin::kBlockIdxZ: return {Program::kBidZ, ScalarType::kInt};
          default: break;  // dims fold; unreachable here
        }
        return const_rv(fold_int(0));
      case ExprKind::kUnary: {
        RV a = compile_expr(*e.args[0]);
        Ins c;
        if (e.un == expr::UnOp::kNot) {
          c.op = a.type == ScalarType::kFloat ? Op::kNotF : Op::kNotI;
          c.a = a.reg;
          c.dst = new_ireg();
          emit(c);
          return {c.dst, ScalarType::kInt};
        }
        c.op = a.type == ScalarType::kFloat ? Op::kNegF : Op::kNegI;
        c.a = a.reg;
        c.dst = new_reg(a.type);
        emit(c);
        return {c.dst, a.type};
      }
      case ExprKind::kBinary:
        return compile_binary(e);
      case ExprKind::kLoad:
        return compile_load(e);
      case ExprKind::kCast: {
        RV a = compile_expr(*e.args[0]);
        if (e.type == ScalarType::kInt) return to_int(a);  // int->int is identity
        a = to_float(a);
        Ins c{Op::kCastF};
        c.a = a.reg;
        c.dst = new_freg();
        emit(c);
        return {c.dst, ScalarType::kFloat};
      }
      case ExprKind::kCall: {
        auto id = intrinsic_for(e.name);
        std::vector<RV> args;
        args.reserve(e.args.size());
        for (const auto& a : e.args) args.push_back(compile_expr(*a));
        if (!id) return error_rv("unknown intrinsic " + e.name, ScalarType::kFloat);
        Ins c{Op::kCall};
        c.t = static_cast<std::uint8_t>(*id);
        c.a = to_float(args[0]).reg;
        c.b = args.size() > 1 ? to_float(args[1]).reg : c.a;
        c.dst = new_freg();
        emit(c);
        return {c.dst, ScalarType::kFloat};
      }
    }
    throw SimError("unreachable expr kind");
  }

  // ---- statements ----

  std::uint32_t cost_of(const Stmt& s) const {
    auto it = costs_.stmt_cost->find(&s);
    return it == costs_.stmt_cost->end() ? 2 : it->second;
  }
  std::uint32_t iter_cost_of(const Stmt& s) const {
    auto it = costs_.loop_iter_cost->find(&s);
    return it == costs_.loop_iter_cost->end() ? 3 : it->second;
  }

  void emit_compute(std::uint32_t cycles) {
    Ins c{Op::kCompute};
    c.x = static_cast<std::int32_t>(cycles);
    emit(c);
  }

  /// Masked write of `v` into the variable register with the interpreter's
  /// write_var conversion rules. The interpreter mutates the slot's type on
  /// every write, so a type change moves the binding to a fresh register of
  /// the right plane; later reads go through vars_ and see the new binding.
  void write_var(const std::string& name, RV v, ScalarType ty) {
    auto it = vars_.find(name);
    if (it == vars_.end() || it->second.type != ty) {
      const RV nb{new_reg(ty), ty};
      (ty == ScalarType::kFloat ? p_.var_fregs : p_.var_iregs).push_back(nb.reg);
      if (it == vars_.end()) {
        it = vars_.emplace(name, nb).first;
      } else {
        it->second = nb;
      }
    }
    const RV slot = it->second;
    Ins c;
    if (ty == ScalarType::kFloat) {
      c.op = v.type == ScalarType::kFloat ? Op::kWVarFF : Op::kWVarIF;
    } else {
      c.op = v.type == ScalarType::kFloat ? Op::kWVarFI : Op::kWVarII;
    }
    c.dst = slot.reg;
    c.a = v.reg;
    emit(c);
  }

  void compile_store(const Stmt& s) {
    RV idx = to_int(compile_expr(*s.index));
    RV val = compile_expr(*s.value);
    emit({Op::kFlush});  // loads feeding the store issue first
    if (const ir::SharedArray* sh = k_.find_shared(s.name)) {
      Ins c{Op::kStoreSh};
      c.a = idx.reg;
      c.b = val.reg;
      c.x = shared_slot_.at(s.name);
      c.t = static_cast<std::uint8_t>((ir::scalar_type(sh->type) == ScalarType::kFloat ? 1 : 0) |
                                      (val.type == ScalarType::kFloat ? 2 : 0));
      emit(c);
      return;
    }
    DeviceArray& arr = mem_.array(s.name);
    Ins c{Op::kStoreG};
    c.a = idx.reg;
    c.b = val.reg;
    c.x = static_cast<std::int32_t>(p_.sites.size());
    p_.sites.push_back({&arr, s.name, s.index->str(), /*is_store=*/true});
    c.t = static_cast<std::uint8_t>((ir::scalar_type(arr.type) == ScalarType::kFloat ? 1 : 0) |
                                    (val.type == ScalarType::kFloat ? 2 : 0));
    emit(c);
    emit({Op::kFlush});
  }

  void compile_for(const Stmt& s) {
    emit_compute(cost_of(s));
    RV init = compile_expr(*s.value);
    emit({Op::kFlush});
    write_var(s.name, init, ScalarType::kInt);
    const RV loop_var = vars_.at(s.name);

    Frame frame;
    frame.assigned.insert(s.name);
    collect_assigned(s.body, frame.assigned);
    frames_.push_back(std::move(frame));
    ++emit_level_;

    // Loop code goes to a scratch stream so the preheader (filled while
    // compiling the body) can be spliced in front of it.
    std::vector<Item> scratch;
    std::vector<Item>* saved_out = out_;
    out_ = &scratch;

    const std::int32_t top = new_label();
    const std::int32_t exit = new_label();
    bind(top);
    emit_compute(iter_cost_of(s));
    RV cond = compile_expr(*s.cond);
    emit({Op::kFlush});
    Ins br{Op::kLoopBranch};
    br.a = cond.reg;
    br.t = cond.type == ScalarType::kFloat ? 2 : 0;
    br.x = exit;
    emit(br);
    compile_body(s.body);
    RV step = to_int(compile_expr(*s.step));
    emit({Op::kFlush});
    Ins sv{Op::kStepVar};
    sv.dst = loop_var.reg;
    sv.a = step.reg;
    emit(sv);
    Ins j{Op::kJump};
    j.x = top;
    emit(j);
    bind(exit);
    emit({Op::kLoopExit});

    out_ = saved_out;
    --emit_level_;
    Frame done = std::move(frames_.back());
    frames_.pop_back();
    for (auto& it : done.preheader) out_->push_back(std::move(it));
    emit({Op::kLoopEnter});
    for (auto& it : scratch) out_->push_back(std::move(it));

    vars_.erase(s.name);  // the loop variable's scope ends with the loop
  }

  /// `while (cond) body` shares the kFor control scheme (kLoopEnter /
  /// kLoopBranch / kLoopExit) minus the loop variable and step. Lanes whose
  /// condition goes false retire at the branch; the rest keep iterating
  /// until the active set empties, then every lane reconverges at kLoopExit.
  void compile_while(const Stmt& s) {
    emit_compute(cost_of(s));

    Frame frame;
    collect_assigned(s.body, frame.assigned);
    frames_.push_back(std::move(frame));
    ++emit_level_;

    std::vector<Item> scratch;
    std::vector<Item>* saved_out = out_;
    out_ = &scratch;

    const std::int32_t top = new_label();
    const std::int32_t exit = new_label();
    bind(top);
    emit_compute(iter_cost_of(s));
    RV cond = compile_expr(*s.cond);
    emit({Op::kFlush});
    Ins br{Op::kLoopBranch};
    br.a = cond.reg;
    br.t = cond.type == ScalarType::kFloat ? 2 : 0;
    br.x = exit;
    emit(br);
    compile_body(s.body);
    Ins j{Op::kJump};
    j.x = top;
    emit(j);
    bind(exit);
    emit({Op::kLoopExit});

    out_ = saved_out;
    --emit_level_;
    Frame done = std::move(frames_.back());
    frames_.pop_back();
    for (auto& it : done.preheader) out_->push_back(std::move(it));
    emit({Op::kLoopEnter});
    for (auto& it : scratch) out_->push_back(std::move(it));
  }

  void compile_if(const Stmt& s) {
    emit_compute(cost_of(s));
    RV cond = compile_expr(*s.cond);
    emit({Op::kFlush});
    const std::int32_t els = new_label();
    Ins begin{Op::kIfBegin};
    begin.a = cond.reg;
    begin.t = cond.type == ScalarType::kFloat ? 2 : 0;
    begin.x = els;
    emit(begin);
    compile_body(s.body);
    bind(els);
    const std::int32_t end = new_label();
    Ins mid{Op::kElse};
    mid.x = end;
    emit(mid);
    compile_body(s.else_body);
    bind(end);
    emit({Op::kIfEnd});
  }

  void compile_body(const std::vector<ir::StmtPtr>& body) {
    for (const auto& sp : body) {
      const Stmt& s = *sp;
      switch (s.kind) {
        case StmtKind::kDeclInt:
        case StmtKind::kAssign: {
          emit_compute(cost_of(s));
          RV v = compile_expr(*s.value);
          emit({Op::kFlush});
          ScalarType ty = s.kind == StmtKind::kDeclInt ? ScalarType::kInt : v.type;
          if (s.kind == StmtKind::kAssign) {
            auto it = vars_.find(s.name);
            if (it != vars_.end()) ty = it->second.type;
          }
          write_var(s.name, v, ty);
          break;
        }
        case StmtKind::kDeclFloat: {
          emit_compute(cost_of(s));
          RV v = compile_expr(*s.value);
          emit({Op::kFlush});
          write_var(s.name, v, ScalarType::kFloat);
          break;
        }
        case StmtKind::kStore:
          emit_compute(cost_of(s));
          compile_store(s);
          break;
        case StmtKind::kFor:
          compile_for(s);
          break;
        case StmtKind::kWhile:
          compile_while(s);
          break;
        case StmtKind::kIf:
          compile_if(s);
          break;
        case StmtKind::kSync:
          emit({Op::kBarrier});
          break;
      }
    }
  }

  void assemble() {
    std::vector<std::int32_t> label_pc(static_cast<std::size_t>(next_label_), -1);
    std::int32_t pc = 0;
    for (const auto& it : top_) {
      if (it.label >= 0) {
        label_pc[static_cast<std::size_t>(it.label)] = pc;
      } else {
        ++pc;
      }
    }
    p_.code.reserve(static_cast<std::size_t>(pc));
    for (const auto& it : top_) {
      if (it.label >= 0) continue;
      Ins ins = it.ins;
      if (uses_label(ins.op)) ins.x = label_pc[static_cast<std::size_t>(ins.x)];
      p_.code.push_back(ins);
    }
    if (next_ireg_ > 0xFFFF || next_freg_ > 0xFFFF) {
      throw SimError("kernel '" + k_.name + "' exceeds bytecode register budget");
    }
  }

  const ir::Kernel& k_;
  const arch::LaunchConfig& launch_;
  const expr::ParamEnv& params_;
  DeviceMemory& mem_;
  CostTables costs_;
  Program p_;

  std::vector<Item> top_;
  std::vector<Item>* out_;
  int emit_level_ = 0;
  std::vector<Frame> frames_;
  std::map<std::string, RV> vars_;
  std::map<std::string, std::int32_t> shared_slot_;
  std::map<std::int64_t, std::uint16_t> cpool_i_;
  std::map<std::uint64_t, std::uint16_t> cpool_f_;
  int next_ireg_ = 6;
  int next_freg_ = 0;
  std::int32_t next_label_ = 0;
};

}  // namespace

Program compile(const ir::Kernel& kernel, const arch::LaunchConfig& launch,
                const expr::ParamEnv& params, DeviceMemory& mem, const CostTables& costs) {
  return Compiler(kernel, launch, params, mem, costs).run();
}

// ---------------------------------------------------------------------------
// VM execution.
// ---------------------------------------------------------------------------

namespace {

// ---- 32-lane ALU helpers -------------------------------------------------
//
// The hot full-width dispatch loops (affine index arithmetic, float math,
// comparisons and truthiness ops) are extracted into flat lane functions
// so each can carry an AVX2 clone: the body is written once, the macro
// compiles it twice (baseline ISA and target("avx2")) and dispatches on
// the simd.hpp startup probe. The clones compute the identical function —
// only 64-bit adds/muls/compares and double<->float rounding, all exact —
// so traces are bit-identical on every path. Masked ops stay in the
// switch below: their per-lane bit tests do not vectorize profitably.

// Register reuse is legal bytecode (dst may equal a or b, e.g. x = x + 1),
// so the pointers carry no restrict qualifier; the loops are elementwise
// over a fixed 32-lane trip count, which the vectorizer versions cheaply.
#if defined(CATT_SIMD_AVX2_DISPATCH)
#define CATT_LANE_OP(NAME, DT, ST, ...)                                    \
  void NAME##_base(DT* d, const ST* a, const ST* b) { __VA_ARGS__ }        \
  __attribute__((target("avx2"))) void NAME##_avx2(DT* d, const ST* a,     \
                                                   const ST* b) {          \
    __VA_ARGS__                                                            \
  }                                                                        \
  inline void NAME(DT* d, const ST* a, const ST* b) {                      \
    if (kSimdHasAvx2) {                                                    \
      NAME##_avx2(d, a, b);                                                \
    } else {                                                               \
      NAME##_base(d, a, b);                                                \
    }                                                                      \
  }
#else
#define CATT_LANE_OP(NAME, DT, ST, ...) \
  inline void NAME(DT* d, const ST* a, const ST* b) { __VA_ARGS__ }
#endif

// Integer ALU (wrapping, full-width).
CATT_LANE_OP(lanes_add_i, std::int64_t, std::int64_t,
             for (int l = 0; l < kWarp; ++l) d[l] = wrap_add(a[l], b[l]);)
CATT_LANE_OP(lanes_sub_i, std::int64_t, std::int64_t,
             for (int l = 0; l < kWarp; ++l) d[l] = wrap_sub(a[l], b[l]);)
CATT_LANE_OP(lanes_mul_i, std::int64_t, std::int64_t,
             for (int l = 0; l < kWarp; ++l) d[l] = wrap_mul(a[l], b[l]);)
CATT_LANE_OP(lanes_neg_i, std::int64_t, std::int64_t, (void)b;
             for (int l = 0; l < kWarp; ++l) d[l] = wrap_neg(a[l]);)
CATT_LANE_OP(lanes_min_i, std::int64_t, std::int64_t,
             for (int l = 0; l < kWarp; ++l) d[l] = std::min(a[l], b[l]);)
CATT_LANE_OP(lanes_max_i, std::int64_t, std::int64_t,
             for (int l = 0; l < kWarp; ++l) d[l] = std::max(a[l], b[l]);)

// Float ALU (double math rounded through float every op).
CATT_LANE_OP(lanes_add_f, double, double,
             for (int l = 0; l < kWarp; ++l) d[l] = static_cast<float>(a[l] + b[l]);)
CATT_LANE_OP(lanes_sub_f, double, double,
             for (int l = 0; l < kWarp; ++l) d[l] = static_cast<float>(a[l] - b[l]);)
CATT_LANE_OP(lanes_mul_f, double, double,
             for (int l = 0; l < kWarp; ++l) d[l] = static_cast<float>(a[l] * b[l]);)
CATT_LANE_OP(lanes_div_f, double, double,
             for (int l = 0; l < kWarp; ++l) d[l] = static_cast<float>(a[l] / b[l]);)
CATT_LANE_OP(lanes_min_f, double, double,
             for (int l = 0; l < kWarp; ++l) d[l] = static_cast<float>(std::min(a[l], b[l]));)
CATT_LANE_OP(lanes_max_f, double, double,
             for (int l = 0; l < kWarp; ++l) d[l] = static_cast<float>(std::max(a[l], b[l]));)
CATT_LANE_OP(lanes_neg_f, double, double, (void)b;
             for (int l = 0; l < kWarp; ++l) d[l] = -a[l];)

// Comparisons, unswitched per BinOp so the loops stay branch-free.
#define CATT_LANE_CMP(SUFFIX, ST, CMP)                         \
  CATT_LANE_OP(lanes_cmp_##SUFFIX, std::int64_t, ST,           \
               for (int l = 0; l < kWarp; ++l) d[l] = (a[l] CMP b[l]) ? 1 : 0;)
CATT_LANE_CMP(lt_i, std::int64_t, <)
CATT_LANE_CMP(le_i, std::int64_t, <=)
CATT_LANE_CMP(gt_i, std::int64_t, >)
CATT_LANE_CMP(ge_i, std::int64_t, >=)
CATT_LANE_CMP(eq_i, std::int64_t, ==)
CATT_LANE_CMP(ne_i, std::int64_t, !=)
CATT_LANE_CMP(lt_f, double, <)
CATT_LANE_CMP(le_f, double, <=)
CATT_LANE_CMP(gt_f, double, >)
CATT_LANE_CMP(ge_f, double, >=)
CATT_LANE_CMP(eq_f, double, ==)
CATT_LANE_CMP(ne_f, double, !=)
#undef CATT_LANE_CMP

/// Vectorized kCmpI/kCmpF bodies; returns false for operators the
/// unswitched loops do not cover (none reach kCmp today, but compare()
/// defines the arithmetic BinOps as false and the caller's scalar
/// fallback must keep matching that).
bool lanes_compare(expr::BinOp op, std::int64_t* d, const std::int64_t* a,
                   const std::int64_t* b) {
  switch (op) {
    case expr::BinOp::kLt: lanes_cmp_lt_i(d, a, b); return true;
    case expr::BinOp::kLe: lanes_cmp_le_i(d, a, b); return true;
    case expr::BinOp::kGt: lanes_cmp_gt_i(d, a, b); return true;
    case expr::BinOp::kGe: lanes_cmp_ge_i(d, a, b); return true;
    case expr::BinOp::kEq: lanes_cmp_eq_i(d, a, b); return true;
    case expr::BinOp::kNe: lanes_cmp_ne_i(d, a, b); return true;
    default: return false;
  }
}

bool lanes_compare(expr::BinOp op, std::int64_t* d, const double* a, const double* b) {
  switch (op) {
    case expr::BinOp::kLt: lanes_cmp_lt_f(d, a, b); return true;
    case expr::BinOp::kLe: lanes_cmp_le_f(d, a, b); return true;
    case expr::BinOp::kGt: lanes_cmp_gt_f(d, a, b); return true;
    case expr::BinOp::kGe: lanes_cmp_ge_f(d, a, b); return true;
    case expr::BinOp::kEq: lanes_cmp_eq_f(d, a, b); return true;
    case expr::BinOp::kNe: lanes_cmp_ne_f(d, a, b); return true;
    default: return false;
  }
}

// Truthiness ops (int 0/1 results, full-width).
CATT_LANE_OP(lanes_not_i, std::int64_t, std::int64_t, (void)b;
             for (int l = 0; l < kWarp; ++l) d[l] = a[l] != 0 ? 0 : 1;)
CATT_LANE_OP(lanes_bool_i, std::int64_t, std::int64_t, (void)b;
             for (int l = 0; l < kWarp; ++l) d[l] = a[l] != 0 ? 1 : 0;)
CATT_LANE_OP(lanes_not_f, std::int64_t, double, (void)b;
             for (int l = 0; l < kWarp; ++l) d[l] = a[l] != 0.0 ? 0 : 1;)
CATT_LANE_OP(lanes_bool_f, std::int64_t, double, (void)b;
             for (int l = 0; l < kWarp; ++l) d[l] = a[l] != 0.0 ? 1 : 0;)
CATT_LANE_OP(lanes_and_b, std::int64_t, std::int64_t,
             for (int l = 0; l < kWarp; ++l) d[l] = (a[l] != 0 && b[l] != 0) ? 1 : 0;)
CATT_LANE_OP(lanes_or_b, std::int64_t, std::int64_t,
             for (int l = 0; l < kWarp; ++l) d[l] = (a[l] != 0 || b[l] != 0) ? 1 : 0;)

// Conversions (full-width; kCvtIF is exact, kCastF rounds through float).
CATT_LANE_OP(lanes_cvt_if, double, std::int64_t, (void)b;
             for (int l = 0; l < kWarp; ++l) d[l] = static_cast<double>(a[l]);)
CATT_LANE_OP(lanes_cast_f, double, double, (void)b;
             for (int l = 0; l < kWarp; ++l) d[l] = static_cast<float>(a[l]);)

#undef CATT_LANE_OP

/// Accumulates per-site lane addresses between flush points and converts
/// them into coalesced Mem events — the exact algorithm (and event order)
/// of the tree-walk interpreter.
struct TraceBuilder {
  WarpTrace& t;
  int line_bytes;

  struct Rec {
    std::uint16_t site;
    bool is_store;
    std::vector<std::uint64_t> byte_addrs;
  };
  /// The first `live` records belong to the current flush group; the rest
  /// keep their buffers for reuse, so steady state allocates nothing.
  std::vector<Rec> recs;
  std::size_t live = 0;

  void compute(std::uint32_t cycles, std::uint32_t active) { t.push_compute(cycles, active); }

  Rec& rec_for(std::uint16_t site, bool is_store) {
    for (std::size_t i = 0; i < live; ++i) {
      Rec& r = recs[i];
      if (r.site == site && r.is_store == is_store) return r;
    }
    if (live == recs.size()) recs.emplace_back();
    Rec& r = recs[live++];
    r.site = site;
    r.is_store = is_store;
    r.byte_addrs.clear();
    return r;
  }

  void flush() {
    const std::uint64_t sectors_per_line = static_cast<std::uint64_t>(line_bytes) / 32;
    for (std::size_t i = 0; i < live; ++i) {
      Rec& r = recs[i];
      // Lane work = per-lane accesses before coalescing (recorded while
      // the addresses are still one-per-active-lane).
      t.begin_mem(r.site, r.is_store, static_cast<std::uint32_t>(r.byte_addrs.size()));
      auto& addrs = r.byte_addrs;
      for (auto& a : addrs) a /= 32;
      if (!std::is_sorted(addrs.begin(), addrs.end())) std::sort(addrs.begin(), addrs.end());
      addrs.erase(std::unique(addrs.begin(), addrs.end()), addrs.end());
      for (std::uint64_t sector : addrs) {
        t.mem_sector(sector / sectors_per_line);
      }
    }
    live = 0;
  }
};

}  // namespace

Vm::Vm(const Program& prog, const arch::LaunchConfig& launch, int line_bytes, bool functional)
    : p_(prog), launch_(launch), line_bytes_(line_bytes), functional_(functional) {
  ir_.assign(static_cast<std::size_t>(p_.n_iregs), {});
  fr_.assign(static_cast<std::size_t>(p_.n_fregs), {});
  for (const auto& [reg, v] : p_.const_i) ir_[reg].fill(v);
  for (const auto& [reg, v] : p_.const_f) fr_[reg].fill(v);
  shf_.resize(p_.shared.size());
  shi_.resize(p_.shared.size());
}

void Vm::set_block(std::uint64_t block_linear) {
  block_linear_ = block_linear;
  const arch::Dim3 b = arch::delinearize(block_linear, launch_.grid);
  ir_[Program::kBidX].fill(b.x);
  ir_[Program::kBidY].fill(b.y);
  ir_[Program::kBidZ].fill(b.z);
  for (std::size_t s = 0; s < p_.shared.size(); ++s) {
    const SharedSlot& sh = p_.shared[s];
    if (sh.type == ir::ElemType::kF32) {
      shf_[s].assign(static_cast<std::size_t>(sh.count), 0.0f);
    } else {
      shi_[s].assign(static_cast<std::size_t>(sh.count), 0);
    }
  }
}

WarpTrace Vm::run_warp(int wid, SiteTable& sites, const std::shared_ptr<TxnPool>& pool) {
  WarpTrace t(pool);
  TraceBuilder tb{t, line_bytes_, {}, 0};

  for (const std::uint16_t r : p_.var_iregs) ir_[r].fill(0);
  for (const std::uint16_t r : p_.var_fregs) fr_[r].fill(0.0);

  const std::uint64_t threads = launch_.block.count();
  Mask full = 0;
  auto& tx = ir_[Program::kTidX];
  auto& ty = ir_[Program::kTidY];
  auto& tz = ir_[Program::kTidZ];
  for (int l = 0; l < kWarp; ++l) {
    const std::uint64_t linear = static_cast<std::uint64_t>(wid) * kWarp + l;
    if (linear < threads) {
      full |= 1u << l;
      const arch::Dim3 t3 = arch::delinearize(linear, launch_.block);
      tx[l] = t3.x;
      ty[l] = t3.y;
      tz[l] = t3.z;
    } else {
      tx[l] = ty[l] = tz[l] = 0;
    }
  }

  auto oob = [&](const std::string& array, std::int64_t idx, std::size_t size) {
    throw SimError("kernel '" + p_.kernel_name + "' block " + std::to_string(block_linear_) +
                   ": index " + std::to_string(idx) + " out of bounds for '" + array + "' (" +
                   std::to_string(size) + " elements)");
  };

  simt::ReconvStack rs(full);

  std::size_t pc = 0;
  for (;;) {
    const Ins& ins = p_.code[pc];
    // Control ops refine the stack and then `continue`, so within one
    // instruction the active mask is a constant.
    const Mask cur = rs.active();
    switch (ins.op) {
      case Op::kAddI:
        lanes_add_i(ir_[ins.dst].data(), ir_[ins.a].data(), ir_[ins.b].data());
        break;
      case Op::kSubI:
        lanes_sub_i(ir_[ins.dst].data(), ir_[ins.a].data(), ir_[ins.b].data());
        break;
      case Op::kMulI:
        lanes_mul_i(ir_[ins.dst].data(), ir_[ins.a].data(), ir_[ins.b].data());
        break;
      case Op::kNegI:
        lanes_neg_i(ir_[ins.dst].data(), ir_[ins.a].data(), ir_[ins.a].data());
        break;
      case Op::kMinI:
        lanes_min_i(ir_[ins.dst].data(), ir_[ins.a].data(), ir_[ins.b].data());
        break;
      case Op::kMaxI:
        lanes_max_i(ir_[ins.dst].data(), ir_[ins.a].data(), ir_[ins.b].data());
        break;
      case Op::kDivI:
      case Op::kModI: {
        auto& d = ir_[ins.dst];
        const auto& a = ir_[ins.a];
        const auto& b = ir_[ins.b];
        for (Mask m = cur; m != 0; m &= m - 1) {
          const int l = std::countr_zero(m);
          if (b[l] == 0) throw SimError(p_.strings[static_cast<std::size_t>(ins.y)]);
          d[l] = ins.op == Op::kDivI ? a[l] / b[l] : a[l] % b[l];
        }
        break;
      }
      case Op::kAddF:
        lanes_add_f(fr_[ins.dst].data(), fr_[ins.a].data(), fr_[ins.b].data());
        break;
      case Op::kSubF:
        lanes_sub_f(fr_[ins.dst].data(), fr_[ins.a].data(), fr_[ins.b].data());
        break;
      case Op::kMulF:
        lanes_mul_f(fr_[ins.dst].data(), fr_[ins.a].data(), fr_[ins.b].data());
        break;
      case Op::kDivF:
        lanes_div_f(fr_[ins.dst].data(), fr_[ins.a].data(), fr_[ins.b].data());
        break;
      case Op::kMinF:
        lanes_min_f(fr_[ins.dst].data(), fr_[ins.a].data(), fr_[ins.b].data());
        break;
      case Op::kMaxF:
        lanes_max_f(fr_[ins.dst].data(), fr_[ins.a].data(), fr_[ins.b].data());
        break;
      case Op::kNegF:
        lanes_neg_f(fr_[ins.dst].data(), fr_[ins.a].data(), fr_[ins.a].data());
        break;
      case Op::kCmpI: {
        auto& d = ir_[ins.dst];
        const auto& a = ir_[ins.a];
        const auto& b = ir_[ins.b];
        const auto op = static_cast<expr::BinOp>(ins.t);
        if (!lanes_compare(op, d.data(), a.data(), b.data())) {
          for (int l = 0; l < kWarp; ++l) d[l] = compare(op, a[l], b[l]) ? 1 : 0;
        }
        break;
      }
      case Op::kCmpF: {
        auto& d = ir_[ins.dst];
        const auto& a = fr_[ins.a];
        const auto& b = fr_[ins.b];
        const auto op = static_cast<expr::BinOp>(ins.t);
        if (!lanes_compare(op, d.data(), a.data(), b.data())) {
          for (int l = 0; l < kWarp; ++l) d[l] = compare(op, a[l], b[l]) ? 1 : 0;
        }
        break;
      }
      case Op::kNotI:
        lanes_not_i(ir_[ins.dst].data(), ir_[ins.a].data(), ir_[ins.a].data());
        break;
      case Op::kNotF:
        lanes_not_f(ir_[ins.dst].data(), fr_[ins.a].data(), fr_[ins.a].data());
        break;
      case Op::kBoolI:
        lanes_bool_i(ir_[ins.dst].data(), ir_[ins.a].data(), ir_[ins.a].data());
        break;
      case Op::kBoolF:
        lanes_bool_f(ir_[ins.dst].data(), fr_[ins.a].data(), fr_[ins.a].data());
        break;
      case Op::kAndB:
        lanes_and_b(ir_[ins.dst].data(), ir_[ins.a].data(), ir_[ins.b].data());
        break;
      case Op::kOrB:
        lanes_or_b(ir_[ins.dst].data(), ir_[ins.a].data(), ir_[ins.b].data());
        break;
      case Op::kLogicalCut: {
        const bool is_or = (ins.t & 1) != 0;
        Mask rhs = 0;
        if ((ins.t & 2) != 0) {
          const auto& a = fr_[ins.a];
          for (Mask m = cur; m != 0; m &= m - 1) {
            const int l = std::countr_zero(m);
            if ((a[l] != 0.0) != is_or) rhs |= 1u << l;
          }
        } else {
          const auto& a = ir_[ins.a];
          for (Mask m = cur; m != 0; m &= m - 1) {
            const int l = std::countr_zero(m);
            if ((a[l] != 0) != is_or) rhs |= 1u << l;
          }
        }
        rs.push_pred(rhs);
        if (rhs == 0) {
          pc = static_cast<std::size_t>(ins.x);
          continue;
        }
        break;
      }
      case Op::kLogicalEnd: {
        rs.pop_pred();
        const bool is_or = (ins.t & 1) != 0;
        auto& d = ir_[ins.dst];
        for (int l = 0; l < kWarp; ++l) {
          const bool at = (ins.t & 2) != 0 ? fr_[ins.a][l] != 0.0 : ir_[ins.a][l] != 0;
          const bool bt = (ins.t & 4) != 0 ? fr_[ins.b][l] != 0.0 : ir_[ins.b][l] != 0;
          d[l] = (is_or ? (at || bt) : (at && bt)) ? 1 : 0;
        }
        break;
      }
      case Op::kCvtIF:
        lanes_cvt_if(fr_[ins.dst].data(), ir_[ins.a].data(), ir_[ins.a].data());
        break;
      case Op::kCvtFI: {
        auto& d = ir_[ins.dst];
        const auto& a = fr_[ins.a];
        for (Mask m = cur; m != 0; m &= m - 1) {
          const int l = std::countr_zero(m);
          d[l] = static_cast<std::int64_t>(a[l]);
        }
        break;
      }
      case Op::kCastF:
        lanes_cast_f(fr_[ins.dst].data(), fr_[ins.a].data(), fr_[ins.a].data());
        break;
      case Op::kCall: {
        auto& d = fr_[ins.dst];
        const auto& a = fr_[ins.a];
        const auto& b = fr_[ins.b];
        const auto id = static_cast<Intrinsic>(ins.t);
        for (Mask m = cur; m != 0; m &= m - 1) {
          const int l = std::countr_zero(m);
          d[l] = static_cast<float>(call_intrinsic(id, a[l], b[l]));
        }
        break;
      }
      case Op::kWVarII: {
        auto& d = ir_[ins.dst];
        const auto& a = ir_[ins.a];
        for (Mask m = cur; m != 0; m &= m - 1) {
          const int l = std::countr_zero(m);
          d[l] = a[l];
        }
        break;
      }
      case Op::kWVarIF: {
        auto& d = fr_[ins.dst];
        const auto& a = ir_[ins.a];
        for (Mask m = cur; m != 0; m &= m - 1) {
          const int l = std::countr_zero(m);
          d[l] = static_cast<float>(static_cast<double>(a[l]));
        }
        break;
      }
      case Op::kWVarFF: {
        auto& d = fr_[ins.dst];
        const auto& a = fr_[ins.a];
        for (Mask m = cur; m != 0; m &= m - 1) {
          const int l = std::countr_zero(m);
          d[l] = static_cast<float>(a[l]);
        }
        break;
      }
      case Op::kWVarFI: {
        auto& d = ir_[ins.dst];
        const auto& a = fr_[ins.a];
        for (Mask m = cur; m != 0; m &= m - 1) {
          const int l = std::countr_zero(m);
          d[l] = static_cast<std::int64_t>(a[l]);
        }
        break;
      }
      case Op::kStepVar: {
        auto& d = ir_[ins.dst];
        const auto& a = ir_[ins.a];
        for (Mask m = cur; m != 0; m &= m - 1) {
          const int l = std::countr_zero(m);
          d[l] = wrap_add(d[l], a[l]);
        }
        break;
      }
      case Op::kLoadG: {
        const SiteSlot& slot = p_.sites[static_cast<std::size_t>(ins.x)];
        DeviceArray& arr = *slot.array;
        const std::uint16_t site = sites.id_for(p_, ins.x);
        auto& rec = tb.rec_for(site, false);
        const auto& idx = ir_[ins.a];
        const std::uint64_t elem = ir::elem_size(arr.type);
        const std::size_t count = arr.count();
        for (Mask m = cur; m != 0; m &= m - 1) {
          const int l = std::countr_zero(m);
          const std::int64_t x = idx[l];
          if (x < 0 || static_cast<std::size_t>(x) >= count) oob(slot.array_name, x, count);
          rec.byte_addrs.push_back(arr.base + static_cast<std::uint64_t>(x) * elem);
          if (functional_) {
            if ((ins.t & 1) != 0) {
              fr_[ins.dst][l] = arr.f[static_cast<std::size_t>(x)];
            } else {
              ir_[ins.dst][l] = arr.i[static_cast<std::size_t>(x)];
            }
          }
        }
        break;
      }
      case Op::kLoadSh: {
        const SharedSlot& sh = p_.shared[static_cast<std::size_t>(ins.x)];
        const auto& idx = ir_[ins.a];
        if (sh.type == ir::ElemType::kF32) {
          auto& buf = shf_[static_cast<std::size_t>(ins.x)];
          for (Mask m = cur; m != 0; m &= m - 1) {
            const int l = std::countr_zero(m);
            const std::int64_t x = idx[l];
            if (x < 0 || static_cast<std::size_t>(x) >= buf.size()) oob(sh.name, x, buf.size());
            fr_[ins.dst][l] = buf[static_cast<std::size_t>(x)];
          }
        } else {
          auto& buf = shi_[static_cast<std::size_t>(ins.x)];
          for (Mask m = cur; m != 0; m &= m - 1) {
            const int l = std::countr_zero(m);
            const std::int64_t x = idx[l];
            if (x < 0 || static_cast<std::size_t>(x) >= buf.size()) oob(sh.name, x, buf.size());
            ir_[ins.dst][l] = buf[static_cast<std::size_t>(x)];
          }
        }
        break;
      }
      case Op::kStoreG: {
        const SiteSlot& slot = p_.sites[static_cast<std::size_t>(ins.x)];
        DeviceArray& arr = *slot.array;
        const std::uint16_t site = sites.id_for(p_, ins.x);
        auto& rec = tb.rec_for(site, true);
        const auto& idx = ir_[ins.a];
        const std::uint64_t elem = ir::elem_size(arr.type);
        const std::size_t count = arr.count();
        const bool val_f = (ins.t & 2) != 0;
        for (Mask m = cur; m != 0; m &= m - 1) {
          const int l = std::countr_zero(m);
          const std::int64_t x = idx[l];
          if (x < 0 || static_cast<std::size_t>(x) >= count) oob(slot.array_name, x, count);
          rec.byte_addrs.push_back(arr.base + static_cast<std::uint64_t>(x) * elem);
          if (functional_) {
            if ((ins.t & 1) != 0) {
              const double v = val_f ? fr_[ins.b][l] : static_cast<double>(ir_[ins.b][l]);
              arr.f[static_cast<std::size_t>(x)] = static_cast<float>(v);
            } else {
              const std::int64_t v =
                  val_f ? static_cast<std::int64_t>(fr_[ins.b][l]) : ir_[ins.b][l];
              arr.i[static_cast<std::size_t>(x)] = static_cast<std::int32_t>(v);
            }
          }
        }
        break;
      }
      case Op::kStoreSh: {
        const SharedSlot& sh = p_.shared[static_cast<std::size_t>(ins.x)];
        const auto& idx = ir_[ins.a];
        const bool val_f = (ins.t & 2) != 0;
        if (sh.type == ir::ElemType::kF32) {
          auto& buf = shf_[static_cast<std::size_t>(ins.x)];
          for (Mask m = cur; m != 0; m &= m - 1) {
            const int l = std::countr_zero(m);
            const std::int64_t x = idx[l];
            if (x < 0 || static_cast<std::size_t>(x) >= buf.size()) oob(sh.name, x, buf.size());
            const double v = val_f ? fr_[ins.b][l] : static_cast<double>(ir_[ins.b][l]);
            buf[static_cast<std::size_t>(x)] = static_cast<float>(v);
          }
        } else {
          auto& buf = shi_[static_cast<std::size_t>(ins.x)];
          for (Mask m = cur; m != 0; m &= m - 1) {
            const int l = std::countr_zero(m);
            const std::int64_t x = idx[l];
            if (x < 0 || static_cast<std::size_t>(x) >= buf.size()) oob(sh.name, x, buf.size());
            const std::int64_t v =
                val_f ? static_cast<std::int64_t>(fr_[ins.b][l]) : ir_[ins.b][l];
            buf[static_cast<std::size_t>(x)] = static_cast<std::int32_t>(v);
          }
        }
        break;
      }
      case Op::kCompute:
        tb.compute(static_cast<std::uint32_t>(ins.x), rs.active_lanes());
        break;
      case Op::kFlush:
        tb.flush();
        break;
      case Op::kBarrier:
        t.push_barrier();
        break;
      case Op::kJump:
        pc = static_cast<std::size_t>(ins.x);
        continue;
      case Op::kIfBegin: {
        Mask m1 = 0;
        if ((ins.t & 2) != 0) {
          const auto& a = fr_[ins.a];
          for (Mask m = cur; m != 0; m &= m - 1) {
            const int l = std::countr_zero(m);
            if (a[l] != 0.0) m1 |= 1u << l;
          }
        } else {
          const auto& a = ir_[ins.a];
          for (Mask m = cur; m != 0; m &= m - 1) {
            const int l = std::countr_zero(m);
            if (a[l] != 0) m1 |= 1u << l;
          }
        }
        rs.begin_if(m1);
        if (m1 == 0) {
          pc = static_cast<std::size_t>(ins.x);
          continue;
        }
        break;
      }
      case Op::kElse:
        rs.to_else();
        if (rs.active() == 0) {
          pc = static_cast<std::size_t>(ins.x);
          continue;
        }
        break;
      case Op::kIfEnd:
        rs.end_if();
        break;
      case Op::kLoopEnter:
        rs.enter_loop();
        break;
      case Op::kLoopBranch: {
        Mask next = 0;
        if ((ins.t & 2) != 0) {
          const auto& a = fr_[ins.a];
          for (Mask m = cur; m != 0; m &= m - 1) {
            const int l = std::countr_zero(m);
            if (a[l] != 0.0) next |= 1u << l;
          }
        } else {
          const auto& a = ir_[ins.a];
          for (Mask m = cur; m != 0; m &= m - 1) {
            const int l = std::countr_zero(m);
            if (a[l] != 0) next |= 1u << l;
          }
        }
        rs.loop_branch(next);
        if (next == 0) {
          pc = static_cast<std::size_t>(ins.x);
          continue;
        }
        break;
      }
      case Op::kLoopExit:
        rs.exit_loop();
        break;
      case Op::kError:
        throw SimError(p_.strings[static_cast<std::size_t>(ins.y)]);
      case Op::kEnd:
        t.set_div(rs.counters());
        t.push_end();
        return t;
    }
    ++pc;
  }
}

// ---------------------------------------------------------------------------
// Trace/data-independence analysis.
// ---------------------------------------------------------------------------

namespace {

struct PurityScan {
  const ir::Kernel& k;
  std::set<std::string> tainted_vars;
  std::set<std::string> tainted_shared;
  bool pure = true;
  bool changed = false;

  bool tainted(const Expr& e) const {
    switch (e.kind) {
      case ExprKind::kLoad:
        if (k.find_shared(e.name) != nullptr) {
          if (!tainted_shared.contains(e.name)) break;  // index checked separately
          return true;
        }
        return true;  // global loads always carry unknown data
      case ExprKind::kVar:
        return tainted_vars.contains(e.name);
      default:
        break;
    }
    for (const auto& a : e.args) {
      if (tainted(*a)) return true;
    }
    return false;
  }

  /// Structural checks on one expression tree: tainted indices and tainted
  /// integer divisors make the trace (or its faults) data-dependent.
  void check_expr(const Expr& e) {
    if (e.kind == ExprKind::kLoad && tainted(*e.args[0])) pure = false;
    if (e.kind == ExprKind::kBinary && e.type == ScalarType::kInt &&
        (e.bin == expr::BinOp::kDiv || e.bin == expr::BinOp::kMod) && tainted(*e.args[1])) {
      pure = false;
    }
    for (const auto& a : e.args) check_expr(*a);
  }

  void taint_var(const std::string& name) {
    if (tainted_vars.insert(name).second) changed = true;
  }

  void scan(const std::vector<ir::StmtPtr>& body) {
    for (const auto& sp : body) {
      const Stmt& s = *sp;
      if (s.value) check_expr(*s.value);
      if (s.index) check_expr(*s.index);
      if (s.cond) check_expr(*s.cond);
      if (s.step) check_expr(*s.step);
      switch (s.kind) {
        case StmtKind::kDeclInt:
        case StmtKind::kDeclFloat:
        case StmtKind::kAssign:
          if (tainted(*s.value)) taint_var(s.name);
          break;
        case StmtKind::kStore:
          if (tainted(*s.index)) pure = false;
          if (k.find_shared(s.name) != nullptr && tainted(*s.value)) {
            if (tainted_shared.insert(s.name).second) changed = true;
          }
          break;
        case StmtKind::kFor:
          if (tainted(*s.value) || tainted(*s.step)) taint_var(s.name);
          if (tainted(*s.cond)) pure = false;
          scan(s.body);
          break;
        case StmtKind::kWhile:
          // A while loop's trip count is data-dependent unless the condition
          // stays untainted through the fixed point.
          if (tainted(*s.cond)) pure = false;
          scan(s.body);
          break;
        case StmtKind::kIf:
          if (tainted(*s.cond)) pure = false;
          scan(s.body);
          scan(s.else_body);
          break;
        case StmtKind::kSync:
          break;
      }
    }
  }
};

}  // namespace

bool trace_data_independent(const ir::Kernel& kernel) {
  PurityScan scan{kernel, {}, {}, true, false};
  // Iterate to a fixed point: taint introduced late in the body can flow
  // into conditions seen earlier on the next pass (loop-carried locals).
  do {
    scan.changed = false;
    scan.scan(kernel.body);
  } while (scan.changed && scan.pure);
  return scan.pure;
}

}  // namespace catt::sim::bc
