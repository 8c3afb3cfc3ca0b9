// Registry of adaptable components known to the adaptation manager.
//
// Each component has a unique name (the identifier used in dependency
// expressions, e.g. "E1", "D3"), lives on exactly one process, and gets a
// dense ComponentId used as its bit position in Configuration vectors.
// Registration order therefore determines the paper-style bit-vector layout:
// registering E1, E2, D1, D2, D3, D4, D5 yields the paper's
// (D5, D4, D3, D2, D1, E2, E1) vector when printed MSB-first.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace sa::config {

using ComponentId = std::uint32_t;
using ProcessId = std::uint32_t;

struct ComponentInfo {
  std::string name;
  ProcessId process = 0;
  std::string description;
};

class ComponentRegistry {
 public:
  /// Registers a component; throws std::invalid_argument on duplicate names
  /// or once the 64-component Configuration capacity is exhausted.
  ComponentId add(std::string name, ProcessId process, std::string description = "");
  /// Sizes the registry for `count` components in all, so that adding them
  /// allocates no more.
  void reserve(std::size_t count);

  std::size_t size() const { return components_.size(); }
  const ComponentInfo& info(ComponentId id) const { return components_.at(id); }
  const std::string& name(ComponentId id) const { return info(id).name; }
  ProcessId process(ComponentId id) const { return info(id).process; }

  std::optional<ComponentId> find(std::string_view name) const;

  /// Like find() but throws std::out_of_range with the name in the message.
  ComponentId require(std::string_view name) const;

  /// All distinct process ids hosting at least one component, sorted.
  std::vector<ProcessId> processes() const;

 private:
  /// Position of `name` in by_name_ (or where it would be inserted).
  std::vector<ComponentId>::const_iterator name_slot(std::string_view name) const;

  std::vector<ComponentInfo> components_;
  /// Ids in ascending name order: a registry holds at most 64 names, so a
  /// binary search over one flat array replaces a node per name.
  std::vector<ComponentId> by_name_;
};

}  // namespace sa::config
