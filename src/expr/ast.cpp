#include "expr/ast.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace sa::expr {

VariableRefs Expr::variable_refs() const {
  VariableRefs refs;
  collect_variables(refs);
  std::sort(refs.begin(), refs.end(),
            [](const std::string* a, const std::string* b) { return *a < *b; });
  const auto same = [](const std::string* a, const std::string* b) { return *a == *b; };
  const auto last = std::unique(refs.begin(), refs.end(), same);
  while (refs.end() != last) refs.pop_back();
  return refs;
}

std::vector<std::string> Expr::variables() const {
  const VariableRefs refs = variable_refs();
  std::vector<std::string> names;
  names.reserve(refs.size());
  for (const std::string* name : refs) names.push_back(*name);
  return names;
}

// --- factories --------------------------------------------------------------

ExprPtr constant(bool value) {
  static const ExprPtr kTrue = std::make_shared<ConstantExpr>(true);
  static const ExprPtr kFalse = std::make_shared<ConstantExpr>(false);
  return value ? kTrue : kFalse;
}

ExprPtr var(std::string name) {
  if (name.empty()) throw std::invalid_argument("variable name must be non-empty");
  return std::make_shared<VarExpr>(std::move(name));
}

ExprPtr negate(ExprPtr operand) {
  assert(operand);
  return std::make_shared<NotExpr>(std::move(operand));
}

namespace {

std::vector<ExprPtr> checked(std::vector<ExprPtr> operands, const char* what) {
  if (operands.empty()) throw std::invalid_argument(std::string(what) + " needs >= 1 operand");
  for (const auto& op : operands) {
    if (!op) throw std::invalid_argument(std::string(what) + " operand is null");
  }
  return operands;
}

}  // namespace

ExprPtr conjunction(std::vector<ExprPtr> operands) {
  operands = checked(std::move(operands), "conjunction");
  if (operands.size() == 1) return operands.front();
  return std::make_shared<AndExpr>(std::move(operands));
}

ExprPtr disjunction(std::vector<ExprPtr> operands) {
  operands = checked(std::move(operands), "disjunction");
  if (operands.size() == 1) return operands.front();
  return std::make_shared<OrExpr>(std::move(operands));
}

ExprPtr exclusive_or(std::vector<ExprPtr> operands) {
  operands = checked(std::move(operands), "exclusive_or");
  if (operands.size() == 1) return operands.front();
  return std::make_shared<XorExpr>(std::move(operands));
}

ExprPtr implies(ExprPtr antecedent, ExprPtr consequent) {
  assert(antecedent && consequent);
  return std::make_shared<ImpliesExpr>(std::move(antecedent), std::move(consequent));
}

ExprPtr exactly_one(std::vector<ExprPtr> operands) {
  operands = checked(std::move(operands), "exactly_one");
  return std::make_shared<ExactlyOneExpr>(std::move(operands));
}

// --- node behaviour ---------------------------------------------------------

bool NotExpr::evaluate(const Assignment& assignment) const { return !operand_->evaluate(assignment); }

std::string NotExpr::to_string() const { return "!(" + operand_->to_string() + ")"; }

void NotExpr::collect_variables(VariableRefs& out) const {
  operand_->collect_variables(out);
}

NaryExpr::NaryExpr(ExprKind kind, std::vector<ExprPtr> operands)
    : Expr(kind), operands_(std::move(operands)) {
  assert(!operands_.empty());
}

void NaryExpr::collect_variables(VariableRefs& out) const {
  for (const auto& op : operands_) op->collect_variables(out);
}

std::string NaryExpr::format(std::string_view op_token, std::string_view func_name) const {
  if (!func_name.empty()) {
    std::string out{func_name};
    out += '(';
    for (std::size_t i = 0; i < operands_.size(); ++i) {
      if (i != 0) out += ", ";
      out += operands_[i]->to_string();
    }
    out += ')';
    return out;
  }
  std::string out = "(";
  for (std::size_t i = 0; i < operands_.size(); ++i) {
    if (i != 0) {
      out += ' ';
      out += op_token;
      out += ' ';
    }
    out += operands_[i]->to_string();
  }
  out += ')';
  return out;
}

bool AndExpr::evaluate(const Assignment& assignment) const {
  for (const auto& op : operands()) {
    if (!op->evaluate(assignment)) return false;
  }
  return true;
}

std::string AndExpr::to_string() const { return format("&", ""); }

bool OrExpr::evaluate(const Assignment& assignment) const {
  for (const auto& op : operands()) {
    if (op->evaluate(assignment)) return true;
  }
  return false;
}

std::string OrExpr::to_string() const { return format("|", ""); }

bool XorExpr::evaluate(const Assignment& assignment) const {
  bool acc = false;
  for (const auto& op : operands()) acc ^= op->evaluate(assignment);
  return acc;
}

std::string XorExpr::to_string() const { return format("^", ""); }

bool ExactlyOneExpr::evaluate(const Assignment& assignment) const {
  int count = 0;
  for (const auto& op : operands()) {
    if (op->evaluate(assignment) && ++count > 1) return false;
  }
  return count == 1;
}

std::string ExactlyOneExpr::to_string() const { return format("", "one"); }

bool ImpliesExpr::evaluate(const Assignment& assignment) const {
  return !antecedent_->evaluate(assignment) || consequent_->evaluate(assignment);
}

std::string ImpliesExpr::to_string() const {
  return "(" + antecedent_->to_string() + " -> " + consequent_->to_string() + ")";
}

void ImpliesExpr::collect_variables(VariableRefs& out) const {
  antecedent_->collect_variables(out);
  consequent_->collect_variables(out);
}

}  // namespace sa::expr
