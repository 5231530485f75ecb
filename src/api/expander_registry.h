#pragma once

/// \file expander_registry.h
/// \brief Named, pluggable construction of expansion systems.
///
/// The paper's §4 frames dense-cycle expansion as one strategy among the
/// family it compares against (no expansion, per-link expansion, community
/// expansion).  The registry makes that family — and future strategies —
/// selectable by string at request time instead of by compile-time wiring:
/// callers register a factory under a name, and `api::Engine` resolves the
/// name (plus per-call option overrides) into a ready `expansion::Expander`.
///
/// Built-in names: "cycle" (§3/§4), "direct-link" (refs [1–3]),
/// "community" (ref [4]), "no-expansion"; aliases "adjacency" →
/// "direct-link" and "category" → "community".

#include <functional>
#include <map>
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

/// \brief Per-call tuning knobs layered over a strategy's registered
/// defaults.  Unset fields keep the defaults; knobs a strategy does not
/// have are ignored (a serving API must tolerate generic requests).
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
  /// overrides hash equal, and every field (set or unset) contributes so
  /// that distinct overrides are distinguished.  Used by the serving
  /// layer's sharded expansion cache; like any hash it is for bucketing —
  /// entry identity additionally compares the full key with `==`.
  uint64_t Hash() const;

  /// Field-wise equality (an unset field differs from any set value); the
  /// other half of the cache-key contract next to `Hash()`.
  bool operator==(const ExpanderOverrides& other) const = default;
};

/// \brief Default options of the built-in strategies (what an empty
/// override set resolves to).
struct StrategyDefaults {
  expansion::CycleExpanderOptions cycle;
  expansion::DirectLinkOptions direct_link;
  expansion::CommunityOptions community;
};

/// \brief String-keyed expander factory table.
class ExpanderRegistry {
 public:
  /// Builds a strategy instance over the engine-owned KB and linker.
  /// Factories validate the overrides and return a Status instead of
  /// crashing on bad input.
  using Factory = std::function<Result<std::unique_ptr<expansion::Expander>>(
      const wiki::KnowledgeBase& kb, const linking::EntityLinker& linker,
      const ExpanderOverrides& overrides)>;

  /// \brief Registers `factory` under `name`; AlreadyExists when the name
  /// (or an alias of it) is taken, InvalidArgument for empty names.
  Status Register(std::string name, Factory factory);

  /// \brief Registers `alias` as another name for `canonical`.
  Status RegisterAlias(std::string alias, std::string_view canonical);

  /// \brief True when `name` resolves (directly or via an alias).
  bool Contains(std::string_view name) const;

  /// \brief Canonical strategy names, sorted (aliases excluded).
  std::vector<std::string> Names() const;

  /// \brief Resolves an alias to its canonical name; identity otherwise.
  std::string Resolve(std::string_view name) const;

  /// \brief Instantiates strategy `name` with `overrides` applied over its
  /// registered defaults.  NotFound for unknown names; InvalidArgument for
  /// override values the strategy rejects (e.g. `max_features == 0`).
  Result<std::unique_ptr<expansion::Expander>> Create(
      std::string_view name, const wiki::KnowledgeBase& kb,
      const linking::EntityLinker& linker,
      const ExpanderOverrides& overrides = {}) const;

  /// \brief A registry pre-loaded with the four built-in systems (and the
  /// "adjacency"/"category" aliases), using `defaults` as their base
  /// options.
  static ExpanderRegistry WithBuiltins(const StrategyDefaults& defaults = {});

 private:
  std::map<std::string, Factory, std::less<>> factories_;
  std::map<std::string, std::string, std::less<>> aliases_;
};

}  // namespace wqe::api
