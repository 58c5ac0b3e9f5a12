#include "tin/tin.h"

#include <atomic>

#include "common/str_util.h"

namespace spdistal::tin {

namespace {
uint32_t next_var_id() {
  static std::atomic<uint32_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}
}  // namespace

IndexVar::IndexVar() : id_(next_var_id()) {
  name_ = strprintf("iv%u", id_);
}

IndexVar::IndexVar(std::string name) : name_(std::move(name)),
                                       id_(next_var_id()) {}

Expr make_access(std::string tensor, std::vector<IndexVar> vars) {
  auto n = std::make_shared<ExprNode>();
  n->kind = ExprKind::Access;
  n->tensor = std::move(tensor);
  n->vars = std::move(vars);
  return n;
}

Expr make_literal(double v) {
  auto n = std::make_shared<ExprNode>();
  n->kind = ExprKind::Literal;
  n->value = v;
  return n;
}

namespace {
Expr make_nary(ExprKind kind, std::vector<Expr> operands) {
  // Flatten same-kind children.
  std::vector<Expr> flat;
  for (auto& op : operands) {
    SPD_CHECK(op != nullptr, NotationError, "null operand in expression");
    if (op->kind == kind) {
      flat.insert(flat.end(), op->operands.begin(), op->operands.end());
    } else {
      flat.push_back(op);
    }
  }
  auto n = std::make_shared<ExprNode>();
  n->kind = kind;
  n->operands = std::move(flat);
  return n;
}
}  // namespace

Expr make_mul(std::vector<Expr> operands) {
  return make_nary(ExprKind::Mul, std::move(operands));
}

Expr make_add(std::vector<Expr> operands) {
  return make_nary(ExprKind::Add, std::move(operands));
}

Expr operator*(const Expr& a, const Expr& b) { return make_mul({a, b}); }
Expr operator+(const Expr& a, const Expr& b) { return make_add({a, b}); }

namespace {
void collect_accesses(const Expr& e, std::vector<Access>& out) {
  switch (e->kind) {
    case ExprKind::Access:
      out.push_back(Access{e->tensor, e->vars});
      break;
    case ExprKind::Literal:
      break;
    case ExprKind::Mul:
    case ExprKind::Add:
      for (const auto& op : e->operands) collect_accesses(op, out);
      break;
  }
}
}  // namespace

std::vector<Access> expr_accesses(const Expr& e) {
  std::vector<Access> out;
  collect_accesses(e, out);
  return out;
}

std::vector<IndexVar> statement_vars(const Assignment& s) {
  std::vector<IndexVar> out;
  auto add = [&](const IndexVar& v) {
    for (const auto& o : out) {
      if (o == v) return;
    }
    out.push_back(v);
  };
  for (const auto& v : s.lhs.vars) add(v);
  for (const auto& a : expr_accesses(s.rhs)) {
    for (const auto& v : a.vars) add(v);
  }
  return out;
}

std::vector<IndexVar> reduction_vars(const Assignment& s) {
  std::vector<IndexVar> out;
  for (const auto& v : statement_vars(s)) {
    bool in_lhs = false;
    for (const auto& l : s.lhs.vars) {
      if (l == v) in_lhs = true;
    }
    if (!in_lhs) out.push_back(v);
  }
  return out;
}

bool is_pure_product(const Expr& e) {
  switch (e->kind) {
    case ExprKind::Access:
    case ExprKind::Literal:
      return true;
    case ExprKind::Mul:
      for (const auto& op : e->operands) {
        if (!is_pure_product(op)) return false;
      }
      return true;
    case ExprKind::Add:
      return false;
  }
  return false;
}

std::vector<Expr> sum_of_products(const Expr& e) {
  if (e->kind == ExprKind::Add) {
    std::vector<Expr> terms;
    for (const auto& op : e->operands) {
      SPD_CHECK(is_pure_product(op), NotationError,
                "nested additions inside products are not supported: "
                    << expr_str(e));
      terms.push_back(op);
    }
    return terms;
  }
  SPD_CHECK(is_pure_product(e), NotationError,
            "expression is not a sum of products: " << expr_str(e));
  return {e};
}

bool expr_uses_var(const Expr& e, const IndexVar& v) {
  switch (e->kind) {
    case ExprKind::Access:
      for (const auto& av : e->vars) {
        if (av == v) return true;
      }
      return false;
    case ExprKind::Literal:
      return false;
    case ExprKind::Mul:
    case ExprKind::Add:
      for (const auto& op : e->operands) {
        if (expr_uses_var(op, v)) return true;
      }
      return false;
  }
  return false;
}

std::string expr_str(const Expr& e) {
  switch (e->kind) {
    case ExprKind::Access: {
      std::vector<std::string> names;
      for (const auto& v : e->vars) names.push_back(v.name());
      return e->tensor + "(" + join(names, ",") + ")";
    }
    case ExprKind::Literal:
      return strprintf("%g", e->value);
    case ExprKind::Mul: {
      std::vector<std::string> parts;
      for (const auto& op : e->operands) parts.push_back(expr_str(op));
      return join(parts, " * ");
    }
    case ExprKind::Add: {
      std::vector<std::string> parts;
      for (const auto& op : e->operands) parts.push_back(expr_str(op));
      std::string out = "(";
      out += join(parts, " + ");
      out += ')';
      return out;
    }
  }
  return "?";
}

std::string assignment_str(const Assignment& s) {
  std::vector<std::string> names;
  for (const auto& v : s.lhs.vars) names.push_back(v.name());
  return s.lhs.tensor + "(" + join(names, ",") + ") " +
         (s.accumulate ? "+= " : "= ") + expr_str(s.rhs);
}

}  // namespace spdistal::tin
