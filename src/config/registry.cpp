#include "config/registry.hpp"

#include <algorithm>
#include <stdexcept>

namespace sa::config {

namespace {

constexpr std::size_t kMaxComponents = 64;  // bits in a Configuration word

}  // namespace

ComponentId ComponentRegistry::add(std::string name, ProcessId process, std::string description) {
  if (name.empty()) throw std::invalid_argument("component name must be non-empty");
  const auto slot = name_slot(name);
  if (slot != by_name_.end() && components_[*slot].name == name) {
    throw std::invalid_argument("duplicate component name: " + name);
  }
  if (components_.size() >= kMaxComponents) {
    throw std::invalid_argument("ComponentRegistry supports at most 64 components");
  }
  const ComponentId id = static_cast<ComponentId>(components_.size());
  by_name_.insert(slot, id);
  components_.push_back(ComponentInfo{std::move(name), process, std::move(description)});
  return id;
}

void ComponentRegistry::reserve(std::size_t count) {
  count = std::min(count, kMaxComponents);
  components_.reserve(count);
  by_name_.reserve(count);
}

std::vector<ComponentId>::const_iterator ComponentRegistry::name_slot(
    std::string_view name) const {
  return std::lower_bound(
      by_name_.begin(), by_name_.end(), name,
      [this](ComponentId id, std::string_view key) { return components_[id].name < key; });
}

std::optional<ComponentId> ComponentRegistry::find(std::string_view name) const {
  const auto it = name_slot(name);
  if (it == by_name_.end() || components_[*it].name != name) return std::nullopt;
  return *it;
}

ComponentId ComponentRegistry::require(std::string_view name) const {
  const auto id = find(name);
  if (!id) throw std::out_of_range("unknown component: " + std::string(name));
  return *id;
}

std::vector<ProcessId> ComponentRegistry::processes() const {
  std::vector<ProcessId> out;
  for (const auto& component : components_) out.push_back(component.process);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace sa::config
