#pragma once

/// \file reader.h
/// \brief `snapshot::Reader` — validates and loads on-disk snapshots.
///
/// The file is mapped read-only (`MappedFile`) and every CSR span, label
/// and display title points straight into the mapping — zero copies, so
/// loading costs page faults instead of reads.  The mapping is pinned by
/// the returned KB (its graph's `CsrGraph::FromSections` storage and its
/// `KnowledgeBase::FromSnapshot` name storage), so it lives exactly as
/// long as anything that can reach it.  Loading builds only the title
/// index: one flat table of node ids, O(V).
///
/// Validation is layered so a corrupt or version-skewed file is rejected
/// with a precise `Status` and can never cause UB:
///  1. header: magic, endianness tag, exactly `kFormatVersion` (newer
///     and older files are both refused, see format.h), header checksum,
///     declared size;
///  2. section table: known ids, exactly one of each, declared element
///     sizes, 8-byte alignment, overflow-safe in-bounds extents;
///  3. payload checksums: every section's XXH64, then the file checksum.
///     XXH64 reads the 27 MB servebench snapshot in about 5 ms;
///  4. structural shape: offset arrays are zero-based, monotone and end
///     at their row-array sizes; every edge endpoint and redirect target
///     is a valid node id — the properties span/row arithmetic relies on.
///
/// A caller that wants the full `CsrGraph::CheckInvariants()` pass (row
/// order, symmetry, per-kind counts) runs it on the loaded KB's `csr()`.

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "snapshot/format.h"
#include "wiki/knowledge_base.h"

namespace wqe::snapshot {

class MappedFile;

/// \brief One section as described by the (validated) table — for tools
/// and tests that introspect a file.
struct SectionInfo {
  SectionId id{};
  const char* name = "";
  uint32_t elem_size = 0;
  uint64_t count = 0;
  uint64_t size_bytes = 0;
  uint64_t offset = 0;
  uint64_t checksum = 0;
};

/// \brief Whole-file metadata exposed after a successful `Open`.
struct SnapshotInfo {
  uint32_t version = 0;
  uint64_t file_size = 0;
  uint64_t file_checksum = 0;
  uint64_t num_nodes = 0;
  uint64_t num_edges = 0;
  std::vector<SectionInfo> sections;  ///< in on-disk table order
};

/// \brief Human-readable name of a section id ("out_targets", ...).
const char* SectionName(SectionId id);

/// \brief Open-then-load handle over one snapshot file.
class Reader {
 public:
  /// \brief Maps `path` and runs validation layers 1–4.  ParseError for
  /// any corruption or version skew, IOError for filesystem trouble.
  static Result<Reader> Open(const std::string& path);

  /// \brief The validated file metadata.
  const SnapshotInfo& info() const { return info_; }

  /// \brief Reconstitutes the knowledge base.  CSR arrays, labels and
  /// display titles stay zero-copy (spans into the mapping, which the KB
  /// pins); only the title index is built.
  Result<wiki::KnowledgeBase> Load() const;

 private:
  Reader() = default;

  Status Validate();

  const SectionEntry& section(SectionId id) const {
    return sections_[static_cast<size_t>(id)];
  }
  template <typename T>
  std::span<const T> SectionSpan(SectionId id) const;

  std::string path_;
  std::shared_ptr<const MappedFile> file_;
  std::span<const std::byte> bytes_;  ///< `file_`'s bytes
  std::array<SectionEntry, kNumSections> sections_{};  ///< indexed by id
  SnapshotInfo info_;
};

/// \brief One-shot convenience: `Open` + `Load` under a `snapshot-load`
/// span, recording `wqe.snapshot.load_ms` and `wqe.snapshot.bytes`.
Result<wiki::KnowledgeBase> LoadSnapshot(const std::string& path);

}  // namespace wqe::snapshot
