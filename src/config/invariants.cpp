#include "config/invariants.hpp"

namespace sa::config {

namespace {

expr::Assignment make_assignment(const ComponentRegistry& registry, const Configuration& config) {
  return [&registry, &config](const std::string& name) {
    return config.contains(registry.require(name));
  };
}

}  // namespace

void InvariantSet::add(std::string name, expr::ExprPtr predicate) {
  const expr::VariableRefs variables = predicate->variable_refs();
  std::vector<ComponentId> ids;
  ids.reserve(variables.size());
  for (const std::string* variable : variables) {
    ids.push_back(registry_->require(*variable));  // throws on unknown names
  }
  invariants_.push_back(Invariant{std::move(name), std::move(predicate)});
  variable_ids_.push_back(std::move(ids));
}

void InvariantSet::add(std::string name, std::string_view expression_text) {
  add(std::move(name), expr::parse(expression_text));
}

bool InvariantSet::satisfied(const Configuration& config) const {
  const auto assignment = make_assignment(*registry_, config);
  for (const Invariant& invariant : invariants_) {
    if (!invariant.predicate->evaluate(assignment)) return false;
  }
  return true;
}

std::vector<std::string> InvariantSet::violations(const Configuration& config) const {
  const auto assignment = make_assignment(*registry_, config);
  std::vector<std::string> out;
  for (const Invariant& invariant : invariants_) {
    if (!invariant.predicate->evaluate(assignment)) out.push_back(invariant.name);
  }
  return out;
}

std::vector<ComponentId> InvariantSet::referenced_components(std::size_t index) const {
  return variable_ids_.at(index);
}

}  // namespace sa::config
