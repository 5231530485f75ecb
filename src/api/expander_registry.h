#pragma once

/// \file expander_registry.h
/// \brief Named construction of expansion systems.
///
/// The paper's §4 frames dense-cycle expansion as one strategy among the
/// family it compares against (no expansion, per-link expansion, community
/// expansion).  The registry makes that family selectable by string at
/// request time: a fixed table maps each name to a factory, and
/// `api::Engine` resolves the name (plus per-call option overrides) into
/// a ready `expansion::Expander`.
///
/// The names: "cycle" (§3/§4), "direct-link" (refs [1–3]),
/// "community" (ref [4]), "no-expansion"; aliases "adjacency" →
/// "direct-link" and "category" → "community".  Each starts from its
/// options struct's defaults (the paper's findings for "cycle"); requests
/// tune it only through `ExpanderOverrides`.

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "expansion/baselines.h"
#include "expansion/cycle_expander.h"
#include "linking/entity_linker.h"
#include "wiki/knowledge_base.h"

namespace wqe::api {

/// \brief Per-call tuning knobs layered over a strategy's defaults.  Unset
/// fields keep the defaults; knobs a strategy does not have are ignored
/// (a serving API must tolerate generic requests).  Every strategy
/// rejects a NaN or infinite floating override with `InvalidArgument`.
struct ExpanderOverrides {
  /// \name Generic knobs (every strategy that selects features)
  /// @{
  std::optional<size_t> max_features;
  std::optional<uint32_t> neighborhood_radius;
  /// The `cycle` strategy rejects values above 2048 (its per-request pair
  /// table is n² bytes).
  std::optional<size_t> max_neighborhood;
  /// @}

  /// \name Direct-link knobs
  /// @{
  /// Prefer reciprocally linked neighbors (the length-2-cycle insight).
  std::optional<bool> prioritize_mutual;
  /// @}

  /// \name Cycle-expander knobs (the §3/§4 structural filters)
  /// @{
  std::optional<uint32_t> min_cycle_length;
  /// At most `expansion::kMaxCycleLength` (5, the paper's bound).
  std::optional<uint32_t> max_cycle_length;
  std::optional<double> min_density;
  std::optional<double> min_category_ratio;
  std::optional<double> max_category_ratio;
  std::optional<double> two_cycle_weight;
  std::optional<double> length_decay;
  std::optional<bool> sqrt_count_damping;
  std::optional<size_t> max_cycles;
  /// §4's redirect-alias extension.
  std::optional<bool> include_redirect_aliases;
  /// @}

  /// \brief Deterministic 64-bit hash, consistent with `operator==`: equal
  /// overrides hash equal (a +0.0 and a -0.0 field alike), and every
  /// field (set or unset) contributes so that distinct overrides are
  /// distinguished.  Used by the serving layer's expansion cache; like
  /// any hash it is for bucketing — entry identity additionally compares
  /// the full key with `==`.
  uint64_t Hash() const;

  /// Field-wise equality (an unset field differs from any set value); the
  /// other half of the cache-key contract next to `Hash()`.  A NaN field
  /// equals nothing, itself included, which is why no NaN override gets
  /// past `ExpanderRegistry::Create` into a cache key.
  bool operator==(const ExpanderOverrides& other) const = default;
};

/// \brief The fixed table of built-in strategies.  Stateless; every
/// method is a lookup in that table.
class ExpanderRegistry {
 public:
  /// \brief True when `name` resolves (directly or via an alias).
  bool Contains(std::string_view name) const;

  /// \brief Canonical strategy names, sorted (aliases excluded).
  std::vector<std::string> Names() const;

  /// \brief Resolves an alias to its canonical name; identity otherwise.
  std::string Resolve(std::string_view name) const;

  /// \brief Instantiates strategy `name` with `overrides` applied over its
  /// defaults.  NotFound for unknown names; InvalidArgument for override
  /// values the strategy rejects (e.g. `max_features == 0`, or any NaN or
  /// infinite floating value).
  Result<std::unique_ptr<expansion::Expander>> Create(
      std::string_view name, const wiki::KnowledgeBase& kb,
      const linking::EntityLinker& linker,
      const ExpanderOverrides& overrides = {}) const;
};

}  // namespace wqe::api
