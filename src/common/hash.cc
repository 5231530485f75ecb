#include "common/hash.h"

#include <bit>

namespace wqe {

uint64_t HashBytes(const void* data, size_t size, uint64_t seed) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  uint64_t hash = seed;
  for (size_t i = 0; i < size; ++i) {
    hash ^= static_cast<uint64_t>(bytes[i]);
    hash *= 0x100000001b3ULL;  // FNV-1a 64 prime
  }
  return hash;
}

namespace {

// XXH64, after the xxHash specification
// (https://github.com/Cyan4973/xxHash/blob/dev/doc/xxhash_spec.md).
constexpr uint64_t kPrime1 = 0x9E3779B185EBCA87ULL;
constexpr uint64_t kPrime2 = 0xC2B2AE3D27D4EB4FULL;
constexpr uint64_t kPrime3 = 0x165667B19E3779F9ULL;
constexpr uint64_t kPrime4 = 0x85EBCA77C2B2AE63ULL;
constexpr uint64_t kPrime5 = 0x27D4EB2F165667C5ULL;

/// Little-endian loads, as the specification reads its input.
uint64_t Read64(const unsigned char* p) {
  uint64_t value = 0;
  std::memcpy(&value, p, sizeof(value));
  if constexpr (std::endian::native == std::endian::big) {
    value = __builtin_bswap64(value);
  }
  return value;
}

uint64_t Read32(const unsigned char* p) {
  uint32_t value = 0;
  std::memcpy(&value, p, sizeof(value));
  if constexpr (std::endian::native == std::endian::big) {
    value = __builtin_bswap32(value);
  }
  return value;
}

uint64_t Round(uint64_t acc, uint64_t lane) {
  acc += lane * kPrime2;
  acc = std::rotl(acc, 31);
  return acc * kPrime1;
}

uint64_t MergeAccumulator(uint64_t acc, uint64_t lane_acc) {
  acc ^= Round(0, lane_acc);
  return acc * kPrime1 + kPrime4;
}

}  // namespace

uint64_t Xxh64(const void* data, size_t size, uint64_t seed) {
  // Indices, not pointer bumps: `data` may be null when `size` is 0.
  const auto* bytes = static_cast<const unsigned char*>(data);
  size_t i = 0;
  uint64_t acc;
  if (size >= 32) {
    // Four lanes, one 8-byte word each per 32-byte stripe.
    uint64_t v1 = seed + kPrime1 + kPrime2;
    uint64_t v2 = seed + kPrime2;
    uint64_t v3 = seed;
    uint64_t v4 = seed - kPrime1;
    for (; i + 32 <= size; i += 32) {
      v1 = Round(v1, Read64(bytes + i));
      v2 = Round(v2, Read64(bytes + i + 8));
      v3 = Round(v3, Read64(bytes + i + 16));
      v4 = Round(v4, Read64(bytes + i + 24));
    }
    acc = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
          std::rotl(v4, 18);
    acc = MergeAccumulator(acc, v1);
    acc = MergeAccumulator(acc, v2);
    acc = MergeAccumulator(acc, v3);
    acc = MergeAccumulator(acc, v4);
  } else {
    acc = seed + kPrime5;
  }
  acc += size;
  // The tail: 8-byte words, then one 4-byte word, then single bytes.
  for (; i + 8 <= size; i += 8) {
    acc ^= Round(0, Read64(bytes + i));
    acc = std::rotl(acc, 27) * kPrime1 + kPrime4;
  }
  if (i + 4 <= size) {
    acc ^= Read32(bytes + i) * kPrime1;
    acc = std::rotl(acc, 23) * kPrime2 + kPrime3;
    i += 4;
  }
  for (; i < size; ++i) {
    acc ^= bytes[i] * kPrime5;
    acc = std::rotl(acc, 11) * kPrime1;
  }
  // Avalanche.
  acc ^= acc >> 33;
  acc *= kPrime2;
  acc ^= acc >> 29;
  acc *= kPrime3;
  acc ^= acc >> 32;
  return acc;
}

}  // namespace wqe
