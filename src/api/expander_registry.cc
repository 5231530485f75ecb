#include "api/expander_registry.h"

#include <algorithm>
#include <cmath>
#include <iterator>
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

/// A set floating override must be finite: a NaN score breaks the
/// feature ranking's strict weak ordering, and a NaN field never equals
/// itself, so its cache key would never find its own entry.
Status CheckFinite(const std::optional<double>& value, const char* name) {
  if (value && !std::isfinite(*value)) {
    return Status::InvalidArgument(name, " override must be finite, got ",
                                   *value);
  }
  return Status::OK();
}

/// Shared validation for the knobs every strategy interprets the same
/// way.
Status ValidateCommon(const ExpanderOverrides& o) {
  WQE_RETURN_NOT_OK(CheckFinite(o.min_density, "min_density"));
  WQE_RETURN_NOT_OK(CheckFinite(o.min_category_ratio, "min_category_ratio"));
  WQE_RETURN_NOT_OK(CheckFinite(o.max_category_ratio, "max_category_ratio"));
  WQE_RETURN_NOT_OK(CheckFinite(o.two_cycle_weight, "two_cycle_weight"));
  WQE_RETURN_NOT_OK(CheckFinite(o.length_decay, "length_decay"));
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

using ExpanderResult = Result<std::unique_ptr<expansion::Expander>>;

ExpanderResult CreateNoExpansion(const wiki::KnowledgeBase& kb,
                                 const linking::EntityLinker& linker,
                                 const ExpanderOverrides&) {
  return std::unique_ptr<expansion::Expander>(
      new expansion::NoExpansion(kb, linker));
}

ExpanderResult CreateDirectLink(const wiki::KnowledgeBase& kb,
                                const linking::EntityLinker& linker,
                                const ExpanderOverrides& o) {
  expansion::DirectLinkOptions options;
  if (o.max_features) options.max_features = *o.max_features;
  if (o.prioritize_mutual) options.prioritize_mutual = *o.prioritize_mutual;
  return std::unique_ptr<expansion::Expander>(
      new expansion::DirectLinkExpansion(kb, linker, options));
}

ExpanderResult CreateCommunity(const wiki::KnowledgeBase& kb,
                               const linking::EntityLinker& linker,
                               const ExpanderOverrides& o) {
  expansion::CommunityOptions options;
  if (o.max_features) options.max_features = *o.max_features;
  if (o.neighborhood_radius) {
    options.neighborhood_radius = *o.neighborhood_radius;
  }
  if (o.max_neighborhood) options.max_neighborhood = *o.max_neighborhood;
  return std::unique_ptr<expansion::Expander>(
      new expansion::CommunityExpansion(kb, linker, options));
}

ExpanderResult CreateCycle(const wiki::KnowledgeBase& kb,
                           const linking::EntityLinker& linker,
                           const ExpanderOverrides& o) {
  expansion::CycleExpanderOptions options;
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
        "cycle expander: max_neighborhood override (", *o.max_neighborhood,
        ") > ", kMaxCycleNeighborhoodOverride);
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
        "cycle expander: min_category_ratio (", options.min_category_ratio,
        ") > max_category_ratio (", options.max_category_ratio,
        "): the window would reject every cycle");
  }
  return std::unique_ptr<expansion::Expander>(
      new expansion::CycleExpander(kb, linker, options));
}

struct Strategy {
  std::string_view name;
  ExpanderResult (*create)(const wiki::KnowledgeBase&,
                           const linking::EntityLinker&,
                           const ExpanderOverrides&);
};

/// The built-in strategies, sorted by name: `Names()` lists them in
/// this order.
constexpr Strategy kStrategies[] = {
    {"community", CreateCommunity},
    {"cycle", CreateCycle},
    {"direct-link", CreateDirectLink},
    {"no-expansion", CreateNoExpansion},
};
static_assert(std::ranges::is_sorted(kStrategies, {}, &Strategy::name));

/// Alternative names, each mapped to an entry of `kStrategies`.
constexpr std::pair<std::string_view, std::string_view> kAliases[] = {
    {"adjacency", "direct-link"},
    {"category", "community"},
};

std::string_view Canonical(std::string_view name) {
  for (const auto& [alias, canonical] : kAliases) {
    if (name == alias) return canonical;
  }
  return name;
}

const Strategy* Find(std::string_view canonical) {
  for (const Strategy& strategy : kStrategies) {
    if (strategy.name == canonical) return &strategy;
  }
  return nullptr;
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

bool ExpanderRegistry::Contains(std::string_view name) const {
  return Find(Canonical(name)) != nullptr;
}

std::vector<std::string> ExpanderRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(std::size(kStrategies));
  for (const Strategy& strategy : kStrategies) {
    names.emplace_back(strategy.name);
  }
  return names;
}

std::string ExpanderRegistry::Resolve(std::string_view name) const {
  return std::string(Canonical(name));
}

Result<std::unique_ptr<expansion::Expander>> ExpanderRegistry::Create(
    std::string_view name, const wiki::KnowledgeBase& kb,
    const linking::EntityLinker& linker,
    const ExpanderOverrides& overrides) const {
  const Strategy* strategy = Find(Canonical(name));
  if (strategy == nullptr) {
    std::string joined;
    for (const Strategy& s : kStrategies) {
      if (!joined.empty()) joined += ", ";
      joined += s.name;
    }
    return Status::NotFound("unknown expander '", name,
                            "'; registered: ", joined);
  }
  WQE_RETURN_NOT_OK(ValidateCommon(overrides));
  return strategy->create(kb, linker, overrides);
}

}  // namespace wqe::api
