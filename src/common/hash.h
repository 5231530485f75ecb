#pragma once

/// \file hash.h
/// \brief Deterministic 64-bit hashing utilities.
///
/// The serving layer's sharded expansion cache keys entries by a canonical
/// hash of `(keywords, strategy, overrides)`; those hashes must be stable
/// across runs and platforms (no `std::hash`, whose values are unspecified
/// and may be identity).  Bytes are hashed with FNV-1a 64 and values are
/// combined through a splitmix64-style finalizer, which is cheap and mixes
/// well enough that the low bits are usable for shard selection.
///
/// Hashes here are for bucketing only: callers that need "distinct keys
/// never alias" (the cache does) must pair the hash with full-key equality.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace wqe {

/// \brief FNV-1a 64-bit offset basis; the default accumulator seed.
inline constexpr uint64_t kHashSeed = 0xcbf29ce484222325ULL;

/// \brief splitmix64 finalizer: bijective, avalanche-complete mixing.
constexpr uint64_t MixHash(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

/// \brief Folds `value` into `seed` (order-dependent).
constexpr uint64_t HashCombine(uint64_t seed, uint64_t value) {
  return MixHash(seed ^ (value + 0x9e3779b97f4a7c15ULL + (seed << 6) +
                         (seed >> 2)));
}

/// \brief FNV-1a 64 over a byte range, continuing from `seed`.
uint64_t HashBytes(const void* data, size_t size, uint64_t seed = kHashSeed);

/// \brief Order-dependent accumulator over heterogeneous fields.
///
/// Optional fields should be added behind a distinct tag (see
/// `api::ExpanderOverrides::Hash`) so that "field A absent, field B = 3"
/// and "field A = 3, field B absent" hash differently.
class Hasher {
 public:
  Hasher& Add(uint64_t value) {
    state_ = HashCombine(state_, value);
    return *this;
  }
  Hasher& Add(bool value) { return Add(static_cast<uint64_t>(value)); }
  Hasher& Add(double value) {
    // Bit pattern, not numeric value: any two distinct doubles (including
    // -0.0 vs +0.0) must be distinguishable.
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(value));
    std::memcpy(&bits, &value, sizeof(bits));
    return Add(bits);
  }
  Hasher& Add(std::string_view bytes) {
    // Length first: Add("ab").Add("c") must differ from Add("a").Add("bc").
    Add(static_cast<uint64_t>(bytes.size()));
    state_ = HashBytes(bytes.data(), bytes.size(), state_);
    return *this;
  }

  uint64_t hash() const { return MixHash(state_); }

 private:
  uint64_t state_ = kHashSeed;
};

}  // namespace wqe
