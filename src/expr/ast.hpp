// AST for dependency-relationship expressions (paper §3.1).
//
// The paper writes dependency relationships as logic expressions over
// components, e.g.
//
//   E1 -> (D1 | D2) & D4          (dependency invariant)
//   one(D1, D2, D3)               (structural invariant, the paper's "⊗":
//                                  exclusively select one from a set)
//
// An expression is evaluated against a configuration by assigning `true` to
// every component present in the configuration and `false` to every component
// absent from it.  Expressions are immutable and shared; building blocks are
// cheap to compose and safe to reuse across invariant sets.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "util/small_vector.hpp"

namespace sa::expr {

class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

enum class ExprKind {
  Constant,   // true / false
  Var,        // component reference
  Not,        // !a
  And,        // a & b  (n-ary)
  Or,         // a | b  (n-ary)
  Xor,        // a ^ b  (n-ary: true iff an odd number of operands are true)
  Implies,    // a -> b
  ExactlyOne  // one(a, b, ...): the paper's ⊗, true iff exactly one operand is true
};

/// Truth assignment for variables, keyed by component name.
using Assignment = std::function<bool(const std::string&)>;

/// Variable names as pointers into the expression's own nodes (valid while
/// the expression lives); inline for up to 8 references.
using VariableRefs = util::SmallVector<const std::string*, 8>;

class Expr {
 public:
  virtual ~Expr() = default;

  ExprKind kind() const { return kind_; }

  /// Evaluates under `assignment` (total: must return a value for any name).
  virtual bool evaluate(const Assignment& assignment) const = 0;

  /// Canonical text form, parseable by sa::expr::parse.
  virtual std::string to_string() const = 0;

  /// Appends every variable reference in this expression to `out`, in
  /// tree order, repeats included.
  virtual void collect_variables(VariableRefs& out) const = 0;

  /// All variable names referenced, sorted and without repeats.
  std::vector<std::string> variables() const;
  /// The same names as variable_refs(): sorted, without repeats, and
  /// allocation-free for up to 8 references.
  VariableRefs variable_refs() const;

 protected:
  explicit Expr(ExprKind kind) : kind_(kind) {}

 private:
  ExprKind kind_;
};

// --- Factory functions (the only way to build nodes) -----------------------

ExprPtr constant(bool value);
ExprPtr var(std::string name);
ExprPtr negate(ExprPtr operand);
ExprPtr conjunction(std::vector<ExprPtr> operands);
ExprPtr disjunction(std::vector<ExprPtr> operands);
ExprPtr exclusive_or(std::vector<ExprPtr> operands);
ExprPtr implies(ExprPtr antecedent, ExprPtr consequent);
ExprPtr exactly_one(std::vector<ExprPtr> operands);

// NOTE: deliberately NO operator overloads on ExprPtr — ExprPtr is a
// shared_ptr alias, and overloading !, && or || on it would silently hijack
// null checks and boolean tests throughout the namespace. Compose with the
// named factories above (or parse a string).

// --- Node classes (exposed for visitors/tests) -----------------------------

class ConstantExpr final : public Expr {
 public:
  explicit ConstantExpr(bool value) : Expr(ExprKind::Constant), value_(value) {}
  bool value() const { return value_; }
  bool evaluate(const Assignment&) const override { return value_; }
  std::string to_string() const override { return value_ ? "true" : "false"; }
  void collect_variables(VariableRefs&) const override {}

 private:
  bool value_;
};

class VarExpr final : public Expr {
 public:
  explicit VarExpr(std::string name) : Expr(ExprKind::Var), name_(std::move(name)) {}
  const std::string& name() const { return name_; }
  bool evaluate(const Assignment& assignment) const override { return assignment(name_); }
  std::string to_string() const override { return name_; }
  void collect_variables(VariableRefs& out) const override { out.push_back(&name_); }

 private:
  std::string name_;
};

class NotExpr final : public Expr {
 public:
  explicit NotExpr(ExprPtr operand) : Expr(ExprKind::Not), operand_(std::move(operand)) {}
  const ExprPtr& operand() const { return operand_; }
  bool evaluate(const Assignment& assignment) const override;
  std::string to_string() const override;
  void collect_variables(VariableRefs& out) const override;

 private:
  ExprPtr operand_;
};

/// Common base for the n-ary operators (And / Or / Xor / ExactlyOne).
class NaryExpr : public Expr {
 public:
  const std::vector<ExprPtr>& operands() const { return operands_; }
  void collect_variables(VariableRefs& out) const override;

 protected:
  NaryExpr(ExprKind kind, std::vector<ExprPtr> operands);
  std::string format(std::string_view op_token, std::string_view func_name) const;

 private:
  std::vector<ExprPtr> operands_;
};

class AndExpr final : public NaryExpr {
 public:
  explicit AndExpr(std::vector<ExprPtr> operands) : NaryExpr(ExprKind::And, std::move(operands)) {}
  bool evaluate(const Assignment& assignment) const override;
  std::string to_string() const override;
};

class OrExpr final : public NaryExpr {
 public:
  explicit OrExpr(std::vector<ExprPtr> operands) : NaryExpr(ExprKind::Or, std::move(operands)) {}
  bool evaluate(const Assignment& assignment) const override;
  std::string to_string() const override;
};

class XorExpr final : public NaryExpr {
 public:
  explicit XorExpr(std::vector<ExprPtr> operands) : NaryExpr(ExprKind::Xor, std::move(operands)) {}
  bool evaluate(const Assignment& assignment) const override;
  std::string to_string() const override;
};

class ExactlyOneExpr final : public NaryExpr {
 public:
  explicit ExactlyOneExpr(std::vector<ExprPtr> operands)
      : NaryExpr(ExprKind::ExactlyOne, std::move(operands)) {}
  bool evaluate(const Assignment& assignment) const override;
  std::string to_string() const override;
};

class ImpliesExpr final : public Expr {
 public:
  ImpliesExpr(ExprPtr antecedent, ExprPtr consequent)
      : Expr(ExprKind::Implies),
        antecedent_(std::move(antecedent)),
        consequent_(std::move(consequent)) {}
  const ExprPtr& antecedent() const { return antecedent_; }
  const ExprPtr& consequent() const { return consequent_; }
  bool evaluate(const Assignment& assignment) const override;
  std::string to_string() const override;
  void collect_variables(VariableRefs& out) const override;

 private:
  ExprPtr antecedent_;
  ExprPtr consequent_;
};

}  // namespace sa::expr
