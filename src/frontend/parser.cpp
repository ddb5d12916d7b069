#include "frontend/parser.hpp"

#include <map>
#include <optional>

#include "common/error.hpp"
#include "common/string_util.hpp"
#include "frontend/lexer.hpp"

namespace catt::frontend {

namespace {

using expr::Expr;
using expr::ExprPtr;
using expr::ScalarType;
using ir::ElemType;
using ir::Kernel;
using ir::StmtPtr;

/// What a name refers to inside a kernel body.
enum class SymKind { kFloatArray, kIntArray, kIntScalar, kIntLocal, kFloatLocal, kLoopVar };

bool is_array(SymKind k) { return k == SymKind::kFloatArray || k == SymKind::kIntArray; }

ScalarType sym_scalar_type(SymKind k) {
  return k == SymKind::kFloatLocal ? ScalarType::kFloat : ScalarType::kInt;
}

const std::map<std::string, expr::Builtin> kBuiltinMembers = {
    {"threadIdx.x", expr::Builtin::kThreadIdxX}, {"threadIdx.y", expr::Builtin::kThreadIdxY},
    {"threadIdx.z", expr::Builtin::kThreadIdxZ}, {"blockIdx.x", expr::Builtin::kBlockIdxX},
    {"blockIdx.y", expr::Builtin::kBlockIdxY},   {"blockIdx.z", expr::Builtin::kBlockIdxZ},
    {"blockDim.x", expr::Builtin::kBlockDimX},   {"blockDim.y", expr::Builtin::kBlockDimY},
    {"blockDim.z", expr::Builtin::kBlockDimZ},   {"gridDim.x", expr::Builtin::kGridDimX},
    {"gridDim.y", expr::Builtin::kGridDimY},     {"gridDim.z", expr::Builtin::kGridDimZ},
};

const std::map<std::string, int> kIntrinsics = {
    {"sqrtf", 1}, {"fabsf", 1}, {"expf", 1},  {"logf", 1},
    {"powf", 2},  {"floorf", 1}, {"fminf", 2}, {"fmaxf", 2},
};

class Parser {
 public:
  explicit Parser(std::vector<Token> toks) : toks_(std::move(toks)) {}

  std::vector<Kernel> program() {
    std::vector<Kernel> kernels;
    int pending_regs = 0;  // 0 = no directive pending
    while (!at_eof()) {
      if (peek().kind == TokKind::kDirective) {
        pending_regs = parse_regs_directive(next().text);
        continue;
      }
      Kernel k = kernel();
      if (pending_regs > 0) {
        k.regs_per_thread = pending_regs;
        pending_regs = 0;
      }
      ir::validate(k);
      ir::number_loops(k);
      kernels.push_back(std::move(k));
    }
    if (kernels.empty()) throw ParseError("no kernel in input", 1, 1);
    return kernels;
  }

 private:
  // ---- token plumbing ----
  const Token& peek(std::size_t off = 0) const {
    const std::size_t i = pos_ + off;
    return i < toks_.size() ? toks_[i] : toks_.back();
  }
  const Token& next() { return toks_[pos_ < toks_.size() - 1 ? pos_++ : pos_]; }
  bool at_eof() const { return peek().kind == TokKind::kEof; }

  bool is_punct(std::string_view p, std::size_t off = 0) const {
    return peek(off).kind == TokKind::kPunct && peek(off).text == p;
  }
  bool is_ident(std::string_view id, std::size_t off = 0) const {
    return peek(off).kind == TokKind::kIdent && peek(off).text == id;
  }
  bool accept_punct(std::string_view p) {
    if (!is_punct(p)) return false;
    next();
    return true;
  }
  void expect_punct(std::string_view p) {
    if (!accept_punct(p)) {
      throw ParseError("expected '" + std::string(p) + "', got '" + peek().text + "'",
                       peek().line, peek().col);
    }
  }
  std::string expect_ident() {
    if (peek().kind != TokKind::kIdent) {
      throw ParseError("expected identifier, got '" + peek().text + "'", peek().line, peek().col);
    }
    return next().text;
  }
  void expect_keyword(std::string_view kw) {
    if (!is_ident(kw)) {
      throw ParseError("expected '" + std::string(kw) + "'", peek().line, peek().col);
    }
    next();
  }
  [[noreturn]] void fail(const std::string& msg) const {
    throw ParseError(msg, peek().line, peek().col);
  }

  static int parse_regs_directive(const std::string& text) {
    const auto parts = split(text, '=');
    if (parts.size() != 2 || trim(parts[0]) != "regs") {
      throw ParseError("unknown directive //@" + text, 0, 0);
    }
    return static_cast<int>(std::strtol(std::string(trim(parts[1])).c_str(), nullptr, 10));
  }

  // ---- declarations ----
  Kernel kernel() {
    expect_keyword("__global__");
    expect_keyword("void");
    Kernel k;
    k.name = expect_ident();
    expect_punct("(");
    if (!is_punct(")")) {
      do {
        param(k);
      } while (accept_punct(","));
    }
    expect_punct(")");
    expect_punct("{");
    while (!is_punct("}")) {
      if (is_ident("__shared__")) {
        shared_decl(k);
      } else {
        k.body.push_back(statement());
      }
    }
    expect_punct("}");
    syms_.clear();
    return k;
  }

  void param(Kernel& k) {
    const bool is_float = is_ident("float");
    const bool is_int = is_ident("int");
    if (!is_float && !is_int) fail("expected parameter type");
    next();
    if (accept_punct("*")) {
      const std::string name = expect_ident();
      k.arrays.push_back({name, is_float ? ElemType::kF32 : ElemType::kI32});
      syms_[name] = is_float ? SymKind::kFloatArray : SymKind::kIntArray;
    } else {
      if (is_float) fail("float scalar parameters are not supported (use int)");
      const std::string name = expect_ident();
      k.scalars.push_back({name});
      syms_[name] = SymKind::kIntScalar;
    }
  }

  void shared_decl(Kernel& k) {
    expect_keyword("__shared__");
    const bool is_float = is_ident("float");
    const bool is_int = is_ident("int");
    if (!is_float && !is_int) fail("expected element type after __shared__");
    next();
    const std::string name = expect_ident();
    expect_punct("[");
    if (peek().kind != TokKind::kIntLit) fail("__shared__ array size must be an integer literal");
    const std::int64_t count = next().ival;
    expect_punct("]");
    expect_punct(";");
    k.shared.push_back({name, is_float ? ElemType::kF32 : ElemType::kI32, count});
    syms_[name] = is_float ? SymKind::kFloatArray : SymKind::kIntArray;
  }

  // ---- statements ----
  std::vector<StmtPtr> block_or_single() {
    std::vector<StmtPtr> body;
    if (accept_punct("{")) {
      while (!is_punct("}")) body.push_back(statement());
      expect_punct("}");
    } else {
      body.push_back(statement());
    }
    return body;
  }

  StmtPtr statement() {
    if (is_ident("int") || is_ident("float")) return local_decl();
    if (is_ident("for")) return for_stmt();
    if (is_ident("while")) return while_stmt();
    if (is_ident("if")) return if_stmt();
    if (is_ident("__syncthreads")) {
      next();
      expect_punct("(");
      expect_punct(")");
      expect_punct(";");
      return ir::sync();
    }
    return assign_or_store();
  }

  StmtPtr local_decl() {
    const bool is_float = is_ident("float");
    next();
    const std::string name = expect_ident();
    expect_punct("=");
    ExprPtr init = expression();
    expect_punct(";");
    if (is_float) {
      syms_[name] = SymKind::kFloatLocal;
      if (init->type == ScalarType::kInt) init = expr::cast(ScalarType::kFloat, std::move(init));
      return ir::decl_float(name, std::move(init));
    }
    syms_[name] = SymKind::kIntLocal;
    if (init->type == ScalarType::kFloat) init = expr::cast(ScalarType::kInt, std::move(init));
    return ir::decl_int(name, std::move(init));
  }

  StmtPtr for_stmt() {
    expect_keyword("for");
    expect_punct("(");
    expect_keyword("int");
    const std::string var = expect_ident();
    expect_punct("=");
    ExprPtr init = expression();
    expect_punct(";");
    const auto prev = syms_.find(var);
    const bool had_prev = prev != syms_.end();
    const SymKind saved = had_prev ? prev->second : SymKind::kLoopVar;
    syms_[var] = SymKind::kLoopVar;
    ExprPtr cond = expression();
    expect_punct(";");
    ExprPtr step = for_increment(var);
    expect_punct(")");
    auto body = block_or_single();
    if (had_prev) {
      syms_[var] = saved;
    } else {
      syms_.erase(var);
    }
    return ir::make_for(var, std::move(init), std::move(cond), std::move(step), std::move(body));
  }

  ExprPtr for_increment(const std::string& var) {
    const std::string name = expect_ident();
    if (name != var) fail("for-increment must update the loop variable '" + var + "'");
    if (accept_punct("++")) return expr::iconst(1);
    if (accept_punct("--")) return expr::iconst(-1);
    if (accept_punct("+=")) return expression();
    if (accept_punct("-=")) return expr::unary(expr::UnOp::kNeg, expression());
    if (accept_punct("=")) {
      // Accept the explicit `j = j + C` form.
      const std::string lhs = expect_ident();
      if (lhs != var) fail("for-increment must be of the form var = var + step");
      expect_punct("+");
      return expression();
    }
    fail("unsupported for-increment");
  }

  StmtPtr while_stmt() {
    expect_keyword("while");
    expect_punct("(");
    ExprPtr cond = expression();
    expect_punct(")");
    auto body = block_or_single();
    return ir::make_while(std::move(cond), std::move(body));
  }

  StmtPtr if_stmt() {
    expect_keyword("if");
    expect_punct("(");
    ExprPtr cond = expression();
    expect_punct(")");
    auto then_body = block_or_single();
    std::vector<StmtPtr> else_body;
    if (is_ident("else")) {
      next();
      else_body = block_or_single();
    }
    return ir::make_if(std::move(cond), std::move(then_body), std::move(else_body));
  }

  StmtPtr assign_or_store() {
    const std::string name = expect_ident();
    auto it = syms_.find(name);
    if (it == syms_.end()) fail("unknown identifier '" + name + "'");

    if (is_array(it->second)) {
      expect_punct("[");
      ExprPtr index = expression();
      expect_punct("]");
      const ScalarType elem =
          it->second == SymKind::kFloatArray ? ScalarType::kFloat : ScalarType::kInt;
      ExprPtr value = assignment_rhs(
          [&] { return expr::load(name, index->clone(), elem); }, elem);
      expect_punct(";");
      return ir::store(name, std::move(index), std::move(value));
    }

    if (it->second == SymKind::kIntScalar) fail("cannot assign to kernel parameter '" + name + "'");
    const ScalarType ty = sym_scalar_type(it->second);
    ExprPtr value = assignment_rhs([&] { return expr::var(name, ty); }, ty);
    expect_punct(";");
    return ir::assign(name, std::move(value));
  }

  /// Parses `= e`, `+= e`, `-= e`, `*= e`, `/= e` and returns the full RHS,
  /// desugaring compound assignment with `current()` as the old value.
  template <typename CurrentFn>
  ExprPtr assignment_rhs(CurrentFn current, ScalarType target) {
    expr::BinOp op{};
    bool compound = true;
    if (accept_punct("=")) {
      compound = false;
    } else if (accept_punct("+=")) {
      op = expr::BinOp::kAdd;
    } else if (accept_punct("-=")) {
      op = expr::BinOp::kSub;
    } else if (accept_punct("*=")) {
      op = expr::BinOp::kMul;
    } else if (accept_punct("/=")) {
      op = expr::BinOp::kDiv;
    } else {
      fail("expected assignment operator");
    }
    ExprPtr rhs = expression();
    if (compound) rhs = expr::binary(op, current(), std::move(rhs));
    if (target == ScalarType::kFloat && rhs->type == ScalarType::kInt) {
      rhs = expr::cast(ScalarType::kFloat, std::move(rhs));
    }
    if (target == ScalarType::kInt && rhs->type == ScalarType::kFloat) {
      rhs = expr::cast(ScalarType::kInt, std::move(rhs));
    }
    return rhs;
  }

  // ---- expressions (precedence climbing) ----
  ExprPtr expression() { return logical_or(); }

  ExprPtr logical_or() {
    ExprPtr e = logical_and();
    while (is_punct("||")) {
      next();
      e = expr::lor(std::move(e), logical_and());
    }
    return e;
  }

  ExprPtr logical_and() {
    ExprPtr e = equality();
    while (is_punct("&&")) {
      next();
      e = expr::land(std::move(e), equality());
    }
    return e;
  }

  ExprPtr equality() {
    ExprPtr e = relational();
    while (is_punct("==") || is_punct("!=")) {
      const bool eq = next().text == "==";
      ExprPtr rhs = relational();
      e = expr::binary(eq ? expr::BinOp::kEq : expr::BinOp::kNe, std::move(e), std::move(rhs));
    }
    return e;
  }

  ExprPtr relational() {
    ExprPtr e = additive();
    while (is_punct("<") || is_punct("<=") || is_punct(">") || is_punct(">=")) {
      const std::string op = next().text;
      ExprPtr rhs = additive();
      expr::BinOp b = op == "<"    ? expr::BinOp::kLt
                      : op == "<=" ? expr::BinOp::kLe
                      : op == ">"  ? expr::BinOp::kGt
                                   : expr::BinOp::kGe;
      e = expr::binary(b, std::move(e), std::move(rhs));
    }
    return e;
  }

  ExprPtr additive() {
    ExprPtr e = multiplicative();
    while (is_punct("+") || is_punct("-")) {
      const bool add = next().text == "+";
      ExprPtr rhs = multiplicative();
      e = expr::binary(add ? expr::BinOp::kAdd : expr::BinOp::kSub, std::move(e), std::move(rhs));
    }
    return e;
  }

  ExprPtr multiplicative() {
    ExprPtr e = unary();
    while (is_punct("*") || is_punct("/") || is_punct("%")) {
      const std::string op = next().text;
      ExprPtr rhs = unary();
      expr::BinOp b = op == "*" ? expr::BinOp::kMul
                      : op == "/" ? expr::BinOp::kDiv
                                  : expr::BinOp::kMod;
      e = expr::binary(b, std::move(e), std::move(rhs));
    }
    return e;
  }

  ExprPtr unary() {
    if (accept_punct("-")) return expr::unary(expr::UnOp::kNeg, unary());
    if (accept_punct("!")) return expr::unary(expr::UnOp::kNot, unary());
    // Cast: (int) e or (float) e.
    if (is_punct("(") && (is_ident("int", 1) || is_ident("float", 1)) && is_punct(")", 2)) {
      next();
      const bool to_float = next().text == "float";
      next();
      return expr::cast(to_float ? ScalarType::kFloat : ScalarType::kInt, unary());
    }
    return postfix();
  }

  ExprPtr postfix() {
    ExprPtr e = primary();
    if (e->kind == expr::ExprKind::kVar && !is_punct("[")) {
      auto it = syms_.find(e->name);
      if (it != syms_.end() && is_array(it->second)) {
        fail("array '" + e->name + "' used without subscript");
      }
    }
    while (is_punct("[")) {
      next();
      ExprPtr index = expression();
      expect_punct("]");
      if (e->kind != expr::ExprKind::kVar) fail("subscript on non-array expression");
      auto it = syms_.find(e->name);
      if (it == syms_.end() || !is_array(it->second)) {
        fail("subscript on non-array '" + e->name + "'");
      }
      const ScalarType elem =
          it->second == SymKind::kFloatArray ? ScalarType::kFloat : ScalarType::kInt;
      e = expr::load(e->name, std::move(index), elem);
    }
    return e;
  }

  ExprPtr primary() {
    const Token& t = peek();
    if (t.kind == TokKind::kIntLit) {
      next();
      return expr::iconst(t.ival);
    }
    if (t.kind == TokKind::kFloatLit) {
      next();
      return expr::fconst(t.fval);
    }
    if (is_punct("(")) {
      next();
      ExprPtr e = expression();
      expect_punct(")");
      return e;
    }
    if (t.kind == TokKind::kIdent) {
      // SIMT builtins: threadIdx.x and friends.
      if ((t.text == "threadIdx" || t.text == "blockIdx" || t.text == "blockDim" ||
           t.text == "gridDim") &&
          is_punct(".", 1)) {
        std::string full = next().text;
        next();  // '.'
        full += '.';
        full += expect_ident();
        auto it = kBuiltinMembers.find(full);
        if (it == kBuiltinMembers.end()) fail("unknown builtin '" + full + "'");
        return expr::builtin(it->second);
      }
      // min/max over ints map to BinOp kMin/kMax.
      if ((t.text == "min" || t.text == "max") && is_punct("(", 1)) {
        const bool is_min = next().text == "min";
        expect_punct("(");
        ExprPtr a = expression();
        expect_punct(",");
        ExprPtr b = expression();
        expect_punct(")");
        return expr::binary(is_min ? expr::BinOp::kMin : expr::BinOp::kMax, std::move(a),
                            std::move(b));
      }
      // Math intrinsics.
      auto intr = kIntrinsics.find(t.text);
      if (intr != kIntrinsics.end() && is_punct("(", 1)) {
        const std::string fn = next().text;
        expect_punct("(");
        std::vector<ExprPtr> args;
        if (!is_punct(")")) {
          do {
            args.push_back(expression());
          } while (accept_punct(","));
        }
        expect_punct(")");
        if (static_cast<int>(args.size()) != intr->second) {
          fail(fn + " expects " + std::to_string(intr->second) + " argument(s)");
        }
        return expr::call(fn, std::move(args));
      }
      // Plain identifier. Arrays pass through as kVar; postfix() turns
      // them into kLoad on '[' or rejects the bare use.
      next();
      auto it = syms_.find(t.text);
      if (it == syms_.end()) fail("unknown identifier '" + t.text + "'");
      return expr::var(t.text, sym_scalar_type(it->second));
    }
    fail("unexpected token '" + t.text + "'");
  }

  std::vector<Token> toks_;
  std::size_t pos_ = 0;
  std::map<std::string, SymKind> syms_;
};

}  // namespace

std::vector<ir::Kernel> parse_program(const std::string& source) {
  Parser p(lex(source));
  return p.program();
}

ir::Kernel parse_kernel(const std::string& source) {
  auto kernels = parse_program(source);
  if (kernels.size() != 1) {
    throw ParseError("expected exactly one kernel, found " + std::to_string(kernels.size()), 1, 1);
  }
  return std::move(kernels.front());
}

}  // namespace catt::frontend
