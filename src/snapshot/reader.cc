#include "snapshot/reader.h"

#include <cstring>
#include <memory>
#include <utility>

#include "common/hash.h"
#include "common/stopwatch.h"
#include "graph/csr.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "snapshot/mapped_file.h"

namespace wqe::snapshot {

namespace {

/// Expected element width per SectionId (indexed by id value).  Part of
/// the format: a mismatching entry means the file lies about its layout.
constexpr uint32_t kExpectedElemSize[kNumSections] = {
    /*kMeta*/ 8,           /*kNodeKinds*/ 1,     /*kRedirectTarget*/ 4,
    /*kOutOffsets*/ 8,     /*kOutTargets*/ 4,    /*kOutKinds*/ 1,
    /*kInOffsets*/ 8,      /*kInSources*/ 4,     /*kInKinds*/ 1,
    /*kUndOffsets*/ 8,     /*kUndNeighbors*/ 4,  /*kUndMult*/ 4,
    /*kLabelOffsets*/ 8,   /*kLabelBytes*/ 1,    /*kDisplayOffsets*/ 8,
    /*kDisplayBytes*/ 1,
};

constexpr const char* kSectionNames[kNumSections] = {
    "meta",          "node_kinds",    "redirect_target", "out_offsets",
    "out_targets",   "out_kinds",     "in_offsets",      "in_sources",
    "in_kinds",      "und_offsets",   "und_neighbors",   "und_mult",
    "label_offsets", "label_bytes",   "display_offsets", "display_bytes",
};

Status Corrupt(const std::string& path, std::string_view what) {
  return Status::ParseError("snapshot '", path, "': ", what);
}

template <typename... Args>
Status CorruptF(const std::string& path, Args&&... args) {
  return Status::ParseError("snapshot '", path, "': ",
                            std::forward<Args>(args)...);
}

// The element checks below decide with one branch-free pass over the
// whole span (an OR-reduction with no early exit, which -O3 vectorizes
// over the 32-bit id arrays) and rescan for the first offender only to
// word the error.

/// Checks an offsets array: zero-based, monotone, ends at `data_count`.
Status CheckOffsets(const std::string& path, const char* name,
                    std::span<const uint64_t> offsets, uint64_t data_count) {
  if (offsets.empty() || offsets.front() != 0) {
    return CorruptF(path, name, " does not start at 0");
  }
  unsigned descents = 0;
  for (size_t i = 1; i < offsets.size(); ++i) {
    descents |= offsets[i] < offsets[i - 1];
  }
  for (size_t i = 1; descents != 0 && i < offsets.size(); ++i) {
    if (offsets[i] < offsets[i - 1]) {
      return CorruptF(path, name, " is not monotone at index ", i);
    }
  }
  if (offsets.back() != data_count) {
    return CorruptF(path, name, " ends at ", offsets.back(),
                    " but its row array holds ", data_count, " elements");
  }
  return Status::OK();
}

/// Checks that every id in `ids` addresses one of `num_nodes` nodes.
Status CheckEndpoints(const std::string& path, const char* name,
                      std::span<const graph::NodeId> ids,
                      graph::NodeId num_nodes) {
  unsigned out_of_range = 0;
  for (graph::NodeId id : ids) out_of_range |= id >= num_nodes;
  for (size_t i = 0; out_of_range != 0 && i < ids.size(); ++i) {
    if (ids[i] >= num_nodes) {
      return CorruptF(path, name, "[", i, "] = ", ids[i],
                      " is out of node range ", num_nodes);
    }
  }
  return Status::OK();
}

/// Checks that every redirect target is a node or the invalid sentinel.
Status CheckRedirects(const std::string& path,
                      std::span<const graph::NodeId> targets,
                      graph::NodeId num_nodes) {
  unsigned invalid = 0;
  for (graph::NodeId t : targets) {
    invalid |= (t >= num_nodes) & (t != graph::kInvalidNode);
  }
  for (size_t i = 0; invalid != 0 && i < targets.size(); ++i) {
    if (targets[i] >= num_nodes && targets[i] != graph::kInvalidNode) {
      return CorruptF(path, "redirect_target[", i, "] = ", targets[i],
                      " is neither a node nor the invalid sentinel");
    }
  }
  return Status::OK();
}

}  // namespace

const char* SectionName(SectionId id) {
  const auto index = static_cast<size_t>(id);
  return index < kNumSections ? kSectionNames[index] : "unknown";
}

template <typename T>
std::span<const T> Reader::SectionSpan(SectionId id) const {
  const SectionEntry& e = section(id);
  // Alignment holds by validated construction: the mapping's base is
  // page-aligned and e.offset is kSectionAlignment-checked.
  return std::span<const T>(
      reinterpret_cast<const T*>(bytes_.data() + e.offset), e.count);
}

Result<Reader> Reader::Open(const std::string& path) {
  Reader reader;
  reader.path_ = path;
  WQE_ASSIGN_OR_RETURN(reader.file_, MappedFile::Open(path));
  reader.bytes_ = reader.file_->bytes();
  WQE_RETURN_NOT_OK(reader.Validate());
  return reader;
}

Status Reader::Validate() {
  // --- Layer 1: header. ---
  if (bytes_.size() < sizeof(FileHeader)) {
    return CorruptF(path_, "truncated header (", bytes_.size(), " of ",
                    sizeof(FileHeader), " bytes)");
  }
  FileHeader header;
  std::memcpy(&header, bytes_.data(), sizeof(header));
  if (header.magic != kMagic) {
    return Corrupt(path_, "bad magic (not a snapshot file)");
  }
  if (header.endian != kEndianTag) {
    return Corrupt(path_,
                   "endianness mismatch (written on a foreign byte order)");
  }
  if (header.version > kFormatVersion) {
    return CorruptF(path_, "format version ", header.version,
                    " is newer than the supported version ", kFormatVersion,
                    " (future-version files are refused, not guessed at)");
  }
  if (header.version != kFormatVersion) {
    return CorruptF(path_, "format version ", header.version,
                    " is older than the supported version ", kFormatVersion,
                    " and is no longer read; rewrite the file with the "
                    "current writer");
  }
  const uint64_t header_checksum =
      HashBytes(bytes_.data(), offsetof(FileHeader, header_checksum));
  if (header_checksum != header.header_checksum) {
    return Corrupt(path_, "header checksum mismatch");
  }
  if (header.file_size != bytes_.size()) {
    return CorruptF(path_, "declared size ", header.file_size,
                    " does not match actual size ", bytes_.size(),
                    " (truncated or padded file)");
  }
  if (header.section_count != kNumSections ||
      header.section_count > kMaxSections) {
    return CorruptF(path_, "version-", header.version, " files carry ",
                    kNumSections, " sections, found ", header.section_count);
  }
  const uint64_t table_end = sizeof(FileHeader) +
                             uint64_t{header.section_count} *
                                 sizeof(SectionEntry);
  if (table_end > bytes_.size()) {
    return Corrupt(path_, "section table extends past end of file");
  }

  // --- Layer 2: section table. ---
  info_.version = header.version;
  info_.file_size = header.file_size;
  info_.file_checksum = header.file_checksum;
  info_.sections.clear();
  bool seen[kNumSections] = {};
  Hasher file_hash;
  for (uint32_t i = 0; i < header.section_count; ++i) {
    SectionEntry e;
    std::memcpy(&e, bytes_.data() + sizeof(FileHeader) +
                        i * sizeof(SectionEntry),
                sizeof(e));
    if (e.id >= kNumSections) {
      return CorruptF(path_, "section table entry ", i, " has unknown id ",
                      e.id);
    }
    const auto id = static_cast<SectionId>(e.id);
    if (seen[e.id]) {
      return CorruptF(path_, "duplicate section '", SectionName(id), "'");
    }
    seen[e.id] = true;
    if (e.elem_size != kExpectedElemSize[e.id]) {
      return CorruptF(path_, "section '", SectionName(id),
                      "' declares element size ", e.elem_size, ", expected ",
                      kExpectedElemSize[e.id]);
    }
    if (e.offset % kSectionAlignment != 0) {
      return CorruptF(path_, "section '", SectionName(id),
                      "' is misaligned (offset ", e.offset, ")");
    }
    // Overflow-safe bounds: each comparison stays within uint64 range.
    if (e.offset > bytes_.size() || e.size_bytes > bytes_.size() - e.offset) {
      return CorruptF(path_, "section '", SectionName(id),
                      "' extends past end of file (offset ", e.offset,
                      ", size ", e.size_bytes, ")");
    }
    if (e.count > bytes_.size() / e.elem_size ||
        e.count * e.elem_size != e.size_bytes) {
      return CorruptF(path_, "section '", SectionName(id),
                      "' count/size disagree (count ", e.count, ", size ",
                      e.size_bytes, ")");
    }
    sections_[e.id] = e;
    file_hash.Add(e.checksum);
    info_.sections.push_back(SectionInfo{id, SectionName(id), e.elem_size,
                                         e.count, e.size_bytes, e.offset,
                                         e.checksum});
  }
  for (uint32_t id = 0; id < kNumSections; ++id) {
    if (!seen[id]) {
      return CorruptF(path_, "missing section '",
                      SectionName(static_cast<SectionId>(id)), "'");
    }
  }

  // --- Layer 3: payload checksums (every byte touched — the expensive
  // layer). ---
  for (const SectionEntry& e : sections_) {
    if (Xxh64(bytes_.data() + e.offset, e.size_bytes) != e.checksum) {
      return CorruptF(path_, "section '",
                      SectionName(static_cast<SectionId>(e.id)),
                      "' checksum mismatch (corrupted payload)");
    }
  }
  if (file_hash.hash() != header.file_checksum) {
    return Corrupt(path_, "file checksum mismatch");
  }

  // --- Layer 4: structural shape — the properties span arithmetic and
  // node indexing rely on.  A checksum only proves the bytes are the
  // ones the writer sealed, so these hold even for a file resealed
  // around a bad payload. ---
  if (section(SectionId::kMeta).count != kMetaFieldCount) {
    return CorruptF(path_, "meta section holds ",
                    section(SectionId::kMeta).count, " fields, expected ",
                    uint64_t{kMetaFieldCount});
  }
  std::span<const uint64_t> meta = SectionSpan<uint64_t>(SectionId::kMeta);
  const uint64_t n = meta[kMetaNumNodes];
  const uint64_t e = meta[kMetaNumEdges];
  info_.num_nodes = n;
  info_.num_edges = e;
  if (n >= graph::kInvalidNode) {
    return CorruptF(path_, "node count ", n, " exceeds the NodeId space");
  }
  const auto num_nodes = static_cast<graph::NodeId>(n);
  const struct {
    SectionId id;
    uint64_t expected;
  } counts[] = {
      {SectionId::kNodeKinds, n},      {SectionId::kRedirectTarget, n},
      {SectionId::kOutOffsets, n + 1}, {SectionId::kOutTargets, e},
      {SectionId::kOutKinds, e},       {SectionId::kInOffsets, n + 1},
      {SectionId::kInSources, e},      {SectionId::kInKinds, e},
      {SectionId::kUndOffsets, n + 1}, {SectionId::kLabelOffsets, n + 1},
      {SectionId::kDisplayOffsets, n + 1},
  };
  for (const auto& c : counts) {
    if (section(c.id).count != c.expected) {
      return CorruptF(path_, "section '", SectionName(c.id), "' holds ",
                      section(c.id).count, " elements, expected ", c.expected);
    }
  }
  if (section(SectionId::kUndNeighbors).count !=
      section(SectionId::kUndMult).count) {
    return Corrupt(path_,
                   "und_neighbors and und_mult are not parallel arrays");
  }
  WQE_RETURN_NOT_OK(CheckOffsets(path_, "out_offsets",
                                 SectionSpan<uint64_t>(SectionId::kOutOffsets),
                                 section(SectionId::kOutTargets).count));
  WQE_RETURN_NOT_OK(CheckOffsets(path_, "in_offsets",
                                 SectionSpan<uint64_t>(SectionId::kInOffsets),
                                 section(SectionId::kInSources).count));
  WQE_RETURN_NOT_OK(CheckOffsets(path_, "und_offsets",
                                 SectionSpan<uint64_t>(SectionId::kUndOffsets),
                                 section(SectionId::kUndNeighbors).count));
  WQE_RETURN_NOT_OK(
      CheckOffsets(path_, "label_offsets",
                   SectionSpan<uint64_t>(SectionId::kLabelOffsets),
                   section(SectionId::kLabelBytes).count));
  WQE_RETURN_NOT_OK(
      CheckOffsets(path_, "display_offsets",
                   SectionSpan<uint64_t>(SectionId::kDisplayOffsets),
                   section(SectionId::kDisplayBytes).count));
  WQE_RETURN_NOT_OK(CheckEndpoints(
      path_, "out_targets", SectionSpan<graph::NodeId>(SectionId::kOutTargets),
      num_nodes));
  WQE_RETURN_NOT_OK(CheckEndpoints(
      path_, "in_sources", SectionSpan<graph::NodeId>(SectionId::kInSources),
      num_nodes));
  WQE_RETURN_NOT_OK(CheckEndpoints(
      path_, "und_neighbors",
      SectionSpan<graph::NodeId>(SectionId::kUndNeighbors), num_nodes));
  return CheckRedirects(
      path_, SectionSpan<graph::NodeId>(SectionId::kRedirectTarget),
      num_nodes);
}

Result<wiki::KnowledgeBase> Reader::Load() const {
  std::span<const uint64_t> meta = SectionSpan<uint64_t>(SectionId::kMeta);

  graph::CsrSections sections;
  sections.kinds = SectionSpan<graph::NodeKind>(SectionId::kNodeKinds);
  sections.redirect_target =
      SectionSpan<graph::NodeId>(SectionId::kRedirectTarget);
  sections.out_offsets = SectionSpan<uint64_t>(SectionId::kOutOffsets);
  sections.out_targets = SectionSpan<graph::NodeId>(SectionId::kOutTargets);
  sections.out_kinds = SectionSpan<graph::EdgeKind>(SectionId::kOutKinds);
  sections.in_offsets = SectionSpan<uint64_t>(SectionId::kInOffsets);
  sections.in_sources = SectionSpan<graph::NodeId>(SectionId::kInSources);
  sections.in_kinds = SectionSpan<graph::EdgeKind>(SectionId::kInKinds);
  sections.und_offsets = SectionSpan<uint64_t>(SectionId::kUndOffsets);
  sections.und_neighbors =
      SectionSpan<graph::NodeId>(SectionId::kUndNeighbors);
  sections.und_mult = SectionSpan<uint32_t>(SectionId::kUndMult);
  for (size_t k = 0; k < sections.edge_kind_counts.size(); ++k) {
    sections.edge_kind_counts[k] = meta[kMetaEdgeKindCount0 + k];
  }
  sections.node_kind_counts[0] = meta[kMetaNodeKindCount0];
  sections.node_kind_counts[1] = meta[kMetaNodeKindCount1];

  graph::CsrGraph csr = graph::CsrGraph::FromSections(sections, file_);

  // Names are served in place too: the KB's label and display-title
  // blobs are spans into the mapping, which the KB pins like its CSR.
  const wiki::NameBlob labels{SectionSpan<uint64_t>(SectionId::kLabelOffsets),
                              SectionSpan<char>(SectionId::kLabelBytes)};
  const wiki::NameBlob displays{
      SectionSpan<uint64_t>(SectionId::kDisplayOffsets),
      SectionSpan<char>(SectionId::kDisplayBytes)};
  Result<wiki::KnowledgeBase> kb = wiki::KnowledgeBase::FromSnapshot(
      std::move(csr), labels, displays, file_, meta[kMetaNumArticles],
      meta[kMetaNumRedirects], meta[kMetaNumCategories]);
  if (!kb.ok()) {
    return CorruptF(path_, kb.status().message());
  }
  return kb;
}

Result<wiki::KnowledgeBase> LoadSnapshot(const std::string& path) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::Span span("snapshot-load",
                 registry.GetHistogram("wqe.snapshot.load_ms"));
  WQE_ASSIGN_OR_RETURN(Reader reader, Reader::Open(path));
  WQE_ASSIGN_OR_RETURN(wiki::KnowledgeBase kb, reader.Load());
  registry.GetGauge("wqe.snapshot.bytes")
      ->Set(static_cast<double>(reader.info().file_size));
  return kb;
}

}  // namespace wqe::snapshot
