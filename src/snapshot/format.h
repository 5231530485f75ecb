#pragma once

/// \file format.h
/// \brief The versioned on-disk snapshot format (shared by Writer/Reader).
///
/// A snapshot file serializes one frozen `wiki::KnowledgeBase` — every
/// flat CSR array of its `graph::CsrGraph` plus the node metadata needed
/// to serve without the builder (normalized labels, display titles,
/// entity counts) — so a process can come up without re-paying XML parse
/// + freeze, and so a running server can republish a new KB dump.
///
/// Layout (all integers little-endian, all offsets absolute):
///
///   ┌────────────────────────────────────────────────────────────┐
///   │ FileHeader   (64 B): magic, version, endian tag, section   │
///   │               count, file size, file checksum, header CRC  │
///   ├────────────────────────────────────────────────────────────┤
///   │ SectionEntry × section_count: id, elem_size, offset,       │
///   │               count, size_bytes, per-section checksum      │
///   ├────────────────────────────────────────────────────────────┤
///   │ payload sections, each 8-byte aligned, zero-padded between │
///   └────────────────────────────────────────────────────────────┘
///
/// Integrity: every section carries an XXH64 checksum (`Xxh64`, seed 0)
/// of its payload bytes; the file checksum folds the per-section
/// checksums together in table order (`Hasher`); the header checksum is
/// FNV-1a (`HashBytes`) over the header's own fields.  The reader rejects
/// bad magic, endianness mismatch, any version but `kFormatVersion`,
/// truncation, out-of-bounds or misaligned section table entries, and
/// checksum mismatches — each with a precise `Status`, never UB.
///
/// Compatibility policy: `kFormatVersion` bumps on any layout or checksum
/// change, and a reader opens exactly the version its writer writes.  A
/// newer file is refused as a "future version" rather than guessed at; an
/// older one is refused with a request to rewrite it.  Every snapshot is
/// derived from a dump or from the generator, so rewriting one is always
/// possible, and no reader carries a back-compat path.

#include <cstdint>

namespace wqe::snapshot {

/// "WQESNAP\x01" as a little-endian u64 — doubles as a byte-order probe.
inline constexpr uint64_t kMagic = 0x0150414e53455157ULL;

/// The version this code writes, and the only one it reads.
inline constexpr uint32_t kFormatVersion = 2;

/// Endianness tag: written as the native value of this constant; a reader
/// seeing it byte-swapped is running on the other endianness.
inline constexpr uint32_t kEndianTag = 0x01020304;

/// Payload section alignment in bytes.  8 covers the widest element
/// (uint64_t offsets), so an mmap'd section can be read in place through
/// a typed span with no misaligned loads.
inline constexpr uint64_t kSectionAlignment = 8;

/// Sanity bound on the section count (the format currently defines 16;
/// room for growth without letting a corrupt header allocate gigabytes).
inline constexpr uint32_t kMaxSections = 64;

/// \brief Section identifiers.  Values are part of the on-disk format —
/// append only, never renumber.
enum class SectionId : uint32_t {
  kMeta = 0,            ///< uint64 scalars, see MetaField
  kNodeKinds = 1,       ///< uint8,  one graph::NodeKind per node
  kRedirectTarget = 2,  ///< uint32, per-node redirect target (or invalid)
  kOutOffsets = 3,      ///< uint64, num_nodes + 1
  kOutTargets = 4,      ///< uint32
  kOutKinds = 5,        ///< uint8,  one graph::EdgeKind per out edge
  kInOffsets = 6,       ///< uint64, num_nodes + 1
  kInSources = 7,       ///< uint32
  kInKinds = 8,         ///< uint8
  kUndOffsets = 9,      ///< uint64, num_nodes + 1
  kUndNeighbors = 10,   ///< uint32
  kUndMult = 11,        ///< uint32, parallel to kUndNeighbors
  kLabelOffsets = 12,   ///< uint64, num_nodes + 1 into kLabelBytes
  kLabelBytes = 13,     ///< uint8,  concatenated normalized labels
  kDisplayOffsets = 14, ///< uint64, num_nodes + 1 into kDisplayBytes
  kDisplayBytes = 15,   ///< uint8,  concatenated display titles
};

/// Number of sections a file carries (all of SectionId).
inline constexpr uint32_t kNumSections = 16;

/// \brief Indices into the kMeta section's uint64 array.
enum MetaField : uint64_t {
  kMetaNumNodes = 0,
  kMetaNumEdges = 1,
  kMetaNodeKindCount0 = 2,  ///< articles (incl. redirects)
  kMetaNodeKindCount1 = 3,  ///< categories
  kMetaEdgeKindCount0 = 4,  ///< + 4 entries, one per graph::EdgeKind
  kMetaNumArticles = 8,     ///< main articles (KB accounting)
  kMetaNumRedirects = 9,
  kMetaNumCategories = 10,
  kMetaFieldCount = 11,
};

/// \brief Fixed-size file header.  `header_checksum` covers every field
/// before it (byte-wise), so a torn or bit-flipped header is caught
/// before the section table is trusted.
struct FileHeader {
  uint64_t magic = kMagic;
  uint32_t version = kFormatVersion;
  uint32_t endian = kEndianTag;
  uint32_t section_count = kNumSections;
  uint32_t reserved = 0;
  uint64_t file_size = 0;      ///< total bytes, for truncation detection
  uint64_t file_checksum = 0;  ///< per-section checksums folded in order
  uint64_t header_checksum = 0;
  uint64_t padding[2] = {0, 0};  ///< reserved, keeps the header at 64 B
};
static_assert(sizeof(FileHeader) == 64, "on-disk header layout drifted");

/// \brief One section table entry.
struct SectionEntry {
  uint32_t id = 0;         ///< SectionId
  uint32_t elem_size = 0;  ///< bytes per element (1, 4 or 8)
  uint64_t offset = 0;     ///< absolute file offset, kSectionAlignment-ed
  uint64_t count = 0;      ///< elements
  uint64_t size_bytes = 0; ///< == count * elem_size
  uint64_t checksum = 0;   ///< XXH64 over the payload bytes
};
static_assert(sizeof(SectionEntry) == 40, "on-disk section entry drifted");

}  // namespace wqe::snapshot
