#include "snapshot/writer.h"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <span>
#include <vector>

#include "common/hash.h"
#include "common/stopwatch.h"
#include "graph/csr.h"
#include "obs/metrics.h"
#include "snapshot/format.h"

namespace wqe::snapshot {

namespace {

static_assert(sizeof(graph::NodeId) == 4, "NodeId layout is part of the format");
static_assert(sizeof(graph::NodeKind) == 1, "NodeKind layout is part of the format");
static_assert(sizeof(graph::EdgeKind) == 1, "EdgeKind layout is part of the format");

/// One payload section queued for writing: its table entry plus the bytes
/// it serializes (borrowed; callers keep them alive until Write returns).
struct PendingSection {
  SectionEntry entry;
  const void* data = nullptr;
};

template <typename T>
PendingSection MakeSection(SectionId id, std::span<const T> span) {
  PendingSection s;
  s.entry.id = static_cast<uint32_t>(id);
  s.entry.elem_size = static_cast<uint32_t>(sizeof(T));
  s.entry.count = span.size();
  s.entry.size_bytes = span.size_bytes();
  s.data = span.data();
  return s;
}

uint64_t AlignUp(uint64_t offset) {
  return (offset + kSectionAlignment - 1) & ~(kSectionAlignment - 1);
}

Status IOFail(const char* what, const std::string& path) {
  return Status::IOError(what, " failed for snapshot file '", path, "'");
}

}  // namespace

Status Writer::Write(const wiki::KnowledgeBase& kb, const std::string& path) {
  if (!kb.frozen()) {
    return Status::InvalidArgument(
        "snapshot::Writer needs a frozen knowledge base (call Freeze() "
        "first)");
  }
  Stopwatch watch;
  const graph::CsrGraph& csr = kb.csr();
  const graph::CsrSections g = csr.Sections();

  // --- Assemble sections (ids in on-disk order). ---
  std::vector<uint64_t> meta(kMetaFieldCount, 0);
  meta[kMetaNumNodes] = csr.num_nodes();
  meta[kMetaNumEdges] = csr.num_edges();
  meta[kMetaNodeKindCount0] = g.node_kind_counts[0];
  meta[kMetaNodeKindCount1] = g.node_kind_counts[1];
  for (size_t k = 0; k < 4; ++k) {
    meta[kMetaEdgeKindCount0 + k] = g.edge_kind_counts[k];
  }
  meta[kMetaNumArticles] = kb.num_articles();
  meta[kMetaNumRedirects] = kb.num_redirects();
  meta[kMetaNumCategories] = kb.num_categories();

  std::vector<PendingSection> sections;
  sections.reserve(kNumSections);
  sections.push_back(
      MakeSection(SectionId::kMeta, std::span<const uint64_t>(meta)));
  sections.push_back(MakeSection(SectionId::kNodeKinds, g.kinds));
  sections.push_back(
      MakeSection(SectionId::kRedirectTarget, g.redirect_target));
  sections.push_back(MakeSection(SectionId::kOutOffsets, g.out_offsets));
  sections.push_back(MakeSection(SectionId::kOutTargets, g.out_targets));
  sections.push_back(MakeSection(SectionId::kOutKinds, g.out_kinds));
  sections.push_back(MakeSection(SectionId::kInOffsets, g.in_offsets));
  sections.push_back(MakeSection(SectionId::kInSources, g.in_sources));
  sections.push_back(MakeSection(SectionId::kInKinds, g.in_kinds));
  sections.push_back(MakeSection(SectionId::kUndOffsets, g.und_offsets));
  sections.push_back(MakeSection(SectionId::kUndNeighbors, g.und_neighbors));
  sections.push_back(MakeSection(SectionId::kUndMult, g.und_mult));
  // The KB's name blobs are already in section form.
  sections.push_back(
      MakeSection(SectionId::kLabelOffsets, kb.labels().offsets));
  sections.push_back(MakeSection(SectionId::kLabelBytes, kb.labels().bytes));
  sections.push_back(
      MakeSection(SectionId::kDisplayOffsets, kb.display_titles().offsets));
  sections.push_back(
      MakeSection(SectionId::kDisplayBytes, kb.display_titles().bytes));

  // --- Lay out offsets and checksums. ---
  uint64_t cursor = sizeof(FileHeader) + sections.size() * sizeof(SectionEntry);
  Hasher file_hash;
  for (PendingSection& s : sections) {
    cursor = AlignUp(cursor);
    s.entry.offset = cursor;
    cursor += s.entry.size_bytes;
    s.entry.checksum = Xxh64(s.data, s.entry.size_bytes);
    file_hash.Add(s.entry.checksum);
  }

  FileHeader header;
  header.section_count = static_cast<uint32_t>(sections.size());
  header.file_size = cursor;
  header.file_checksum = file_hash.hash();
  header.header_checksum =
      HashBytes(&header, offsetof(FileHeader, header_checksum));

  // --- Stream everything out.  stdio keeps this dependency-free.  The
  // bytes go to a sibling temp file that is renamed over `path` only
  // after a clean flush+close: a crashed writer never leaves a torn
  // file under the published name, and a live reader that has `path`
  // mmap'd keeps its old inode — truncating the published file in
  // place would SIGBUS every pinned snapshot (see reader.h). ---
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return IOFail("fopen", tmp);
  auto write_all = [&](const void* data, size_t size) {
    return size == 0 || std::fwrite(data, 1, size, f) == size;
  };
  bool ok = write_all(&header, sizeof(header));
  for (const PendingSection& s : sections) {
    ok = ok && write_all(&s.entry, sizeof(s.entry));
  }
  uint64_t written = sizeof(FileHeader) + sections.size() * sizeof(SectionEntry);
  const char zeros[kSectionAlignment] = {0};
  for (const PendingSection& s : sections) {
    const uint64_t padding = s.entry.offset - written;
    ok = ok && padding < kSectionAlignment && write_all(zeros, padding);
    ok = ok && write_all(s.data, s.entry.size_bytes);
    written = s.entry.offset + s.entry.size_bytes;
  }
  ok = ok && std::fflush(f) == 0;
  ok = std::fclose(f) == 0 && ok;
  if (!ok) {
    std::remove(tmp.c_str());
    return IOFail("write", tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return IOFail("rename", path);
  }

  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.GetHistogram("wqe.snapshot.write_ms")
      ->Record(watch.ElapsedMillis());
  registry.GetGauge("wqe.snapshot.bytes")
      ->Set(static_cast<double>(header.file_size));
  return Status::OK();
}

}  // namespace wqe::snapshot
