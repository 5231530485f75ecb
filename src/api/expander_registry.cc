#include "api/expander_registry.h"

#include <type_traits>
#include <utility>

#include "common/hash.h"
#include "common/macros.h"

namespace wqe::api {

namespace {

/// Largest `max_neighborhood` a request may ask of the cycle expander: its
/// per-request pair table takes n² bytes for a ball of n nodes, so this
/// caps it at 4 MiB (the default ball cap is 400).
constexpr size_t kMaxCycleNeighborhoodOverride = 2048;

/// Shared validation for the count-like knobs every strategy interprets
/// the same way.
Status ValidateCommon(const ExpanderOverrides& o) {
  if (o.max_features && *o.max_features == 0) {
    return Status::InvalidArgument("max_features override must be > 0");
  }
  if (o.max_neighborhood && *o.max_neighborhood == 0) {
    return Status::InvalidArgument("max_neighborhood override must be > 0");
  }
  if (o.max_cycles && *o.max_cycles == 0) {
    return Status::InvalidArgument("max_cycles override must be > 0");
  }
  if (o.min_category_ratio &&
      (*o.min_category_ratio < 0.0 || *o.min_category_ratio > 1.0)) {
    return Status::InvalidArgument(
        "min_category_ratio override must be in [0, 1]");
  }
  if (o.max_category_ratio &&
      (*o.max_category_ratio < 0.0 || *o.max_category_ratio > 1.0)) {
    return Status::InvalidArgument(
        "max_category_ratio override must be in [0, 1]");
  }
  if (o.min_density && *o.min_density < 0.0) {
    return Status::InvalidArgument("min_density override must be >= 0");
  }
  return Status::OK();
}

}  // namespace

uint64_t ExpanderOverrides::Hash() const {
  Hasher hasher;
  // Presence bit then value, field by field in declaration order: unset
  // fields still advance the accumulator, so {max_features=3} and
  // {max_cycles=3} cannot collapse to the same hash trajectory.
  auto fold = [&hasher](const auto& field) {
    hasher.Add(field.has_value());
    if (field) {
      if constexpr (std::is_floating_point_v<
                        std::decay_t<decltype(*field)>>) {
        hasher.Add(*field);
      } else {
        hasher.Add(static_cast<uint64_t>(*field));
      }
    }
  };
  fold(max_features);
  fold(neighborhood_radius);
  fold(max_neighborhood);
  fold(prioritize_mutual);
  fold(min_cycle_length);
  fold(max_cycle_length);
  fold(min_density);
  fold(min_category_ratio);
  fold(max_category_ratio);
  fold(two_cycle_weight);
  fold(length_decay);
  fold(sqrt_count_damping);
  fold(max_cycles);
  fold(include_redirect_aliases);
  return hasher.hash();
}

Status ExpanderRegistry::Register(std::string name, Factory factory) {
  if (name.empty()) {
    return Status::InvalidArgument("expander name must be non-empty");
  }
  if (factory == nullptr) {
    return Status::InvalidArgument("null factory for expander '", name, "'");
  }
  if (Contains(name)) {
    return Status::AlreadyExists("expander '", name, "' already registered");
  }
  factories_.emplace(std::move(name), std::move(factory));
  return Status::OK();
}

Status ExpanderRegistry::RegisterAlias(std::string alias,
                                       std::string_view canonical) {
  if (alias.empty()) {
    return Status::InvalidArgument("alias must be non-empty");
  }
  if (Contains(alias)) {
    return Status::AlreadyExists("expander '", alias, "' already registered");
  }
  auto it = factories_.find(canonical);
  if (it == factories_.end()) {
    return Status::NotFound("alias target '", canonical,
                            "' is not a registered expander");
  }
  aliases_.emplace(std::move(alias), it->first);
  return Status::OK();
}

bool ExpanderRegistry::Contains(std::string_view name) const {
  return factories_.count(name) > 0 || aliases_.count(name) > 0;
}

std::vector<std::string> ExpanderRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(factories_.size());
  for (const auto& [name, factory] : factories_) names.push_back(name);
  return names;  // std::map keeps them sorted
}

std::string ExpanderRegistry::Resolve(std::string_view name) const {
  auto it = aliases_.find(name);
  return it != aliases_.end() ? it->second : std::string(name);
}

Result<std::unique_ptr<expansion::Expander>> ExpanderRegistry::Create(
    std::string_view name, const wiki::KnowledgeBase& kb,
    const linking::EntityLinker& linker,
    const ExpanderOverrides& overrides) const {
  auto it = factories_.find(Resolve(name));
  if (it == factories_.end()) {
    return Status::NotFound("unknown expander '", name,
                            "'; registered: ", [this] {
                              std::string joined;
                              for (const auto& n : Names()) {
                                if (!joined.empty()) joined += ", ";
                                joined += n;
                              }
                              return joined;
                            }());
  }
  WQE_RETURN_NOT_OK(ValidateCommon(overrides));
  return it->second(kb, linker, overrides);
}

ExpanderRegistry ExpanderRegistry::WithBuiltins(
    const StrategyDefaults& defaults) {
  ExpanderRegistry registry;

  WQE_CHECK_OK(registry.Register(
      "no-expansion",
      [](const wiki::KnowledgeBase& kb, const linking::EntityLinker& linker,
         const ExpanderOverrides&)
          -> Result<std::unique_ptr<expansion::Expander>> {
        return std::unique_ptr<expansion::Expander>(
            new expansion::NoExpansion(kb, linker));
      }));

  WQE_CHECK_OK(registry.Register(
      "direct-link",
      [base = defaults.direct_link](
          const wiki::KnowledgeBase& kb, const linking::EntityLinker& linker,
          const ExpanderOverrides& o)
          -> Result<std::unique_ptr<expansion::Expander>> {
        expansion::DirectLinkOptions options = base;
        if (o.max_features) options.max_features = *o.max_features;
        if (o.prioritize_mutual) {
          options.prioritize_mutual = *o.prioritize_mutual;
        }
        return std::unique_ptr<expansion::Expander>(
            new expansion::DirectLinkExpansion(kb, linker, options));
      }));

  WQE_CHECK_OK(registry.Register(
      "community",
      [base = defaults.community](
          const wiki::KnowledgeBase& kb, const linking::EntityLinker& linker,
          const ExpanderOverrides& o)
          -> Result<std::unique_ptr<expansion::Expander>> {
        expansion::CommunityOptions options = base;
        if (o.max_features) options.max_features = *o.max_features;
        if (o.neighborhood_radius) {
          options.neighborhood_radius = *o.neighborhood_radius;
        }
        if (o.max_neighborhood) options.max_neighborhood = *o.max_neighborhood;
        return std::unique_ptr<expansion::Expander>(
            new expansion::CommunityExpansion(kb, linker, options));
      }));

  WQE_CHECK_OK(registry.Register(
      "cycle",
      [base = defaults.cycle](
          const wiki::KnowledgeBase& kb, const linking::EntityLinker& linker,
          const ExpanderOverrides& o)
          -> Result<std::unique_ptr<expansion::Expander>> {
        expansion::CycleExpanderOptions options = base;
        if (o.max_features) options.max_features = *o.max_features;
        if (o.neighborhood_radius) {
          options.neighborhood_radius = *o.neighborhood_radius;
        }
        if (o.max_neighborhood) options.max_neighborhood = *o.max_neighborhood;
        if (o.min_cycle_length) options.min_cycle_length = *o.min_cycle_length;
        if (o.max_cycle_length) options.max_cycle_length = *o.max_cycle_length;
        if (o.min_density) options.min_density = *o.min_density;
        if (o.min_category_ratio) {
          options.min_category_ratio = *o.min_category_ratio;
        }
        if (o.max_category_ratio) {
          options.max_category_ratio = *o.max_category_ratio;
        }
        if (o.two_cycle_weight) options.two_cycle_weight = *o.two_cycle_weight;
        if (o.length_decay) options.length_decay = *o.length_decay;
        if (o.sqrt_count_damping) {
          options.sqrt_count_damping = *o.sqrt_count_damping;
        }
        if (o.max_cycles) options.max_cycles = *o.max_cycles;
        if (o.include_redirect_aliases) {
          options.include_redirect_aliases = *o.include_redirect_aliases;
        }
        if (o.max_neighborhood &&
            *o.max_neighborhood > kMaxCycleNeighborhoodOverride) {
          return Status::InvalidArgument(
              "cycle expander: max_neighborhood override (",
              *o.max_neighborhood, ") > ", kMaxCycleNeighborhoodOverride);
        }
        if (options.max_cycle_length > expansion::kMaxCycleLength) {
          return Status::InvalidArgument(
              "cycle expander: max_cycle_length (", options.max_cycle_length,
              ") > ", expansion::kMaxCycleLength);
        }
        if (options.min_cycle_length > options.max_cycle_length) {
          return Status::InvalidArgument(
              "cycle expander: min_cycle_length (", options.min_cycle_length,
              ") > max_cycle_length (", options.max_cycle_length, ")");
        }
        if (options.min_category_ratio > options.max_category_ratio) {
          return Status::InvalidArgument(
              "cycle expander: min_category_ratio (",
              options.min_category_ratio, ") > max_category_ratio (",
              options.max_category_ratio,
              "): the window would reject every cycle");
        }
        return std::unique_ptr<expansion::Expander>(
            new expansion::CycleExpander(kb, linker, options));
      }));

  WQE_CHECK_OK(registry.RegisterAlias("adjacency", "direct-link"));
  WQE_CHECK_OK(registry.RegisterAlias("category", "community"));
  return registry;
}

}  // namespace wqe::api
