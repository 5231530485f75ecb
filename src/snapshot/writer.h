#pragma once

/// \file writer.h
/// \brief `snapshot::Writer` — serializes a frozen knowledge base to the
/// versioned on-disk format (see format.h).
///
/// Writing is build-time/offline work: one pass assembles the section
/// table (every flat CSR array plus label/display-title string blobs),
/// one pass streams the payloads with their XXH64 checksums.  The
/// bytes land in a sibling `<path>.tmp` file that is atomically
/// renamed over `path` only after a clean flush+close, so (a) a
/// crashed write can never look like a valid snapshot and (b)
/// rewriting a published path is safe while readers have it mmap'd —
/// they keep the old inode; an in-place truncate would SIGBUS them.
/// The written file is what `snapshot::Reader` mmaps back in O(page
/// faults) — see reader.h.
///
/// Obs: records `wqe.snapshot.write_ms` (histogram) and sets
/// `wqe.snapshot.bytes` (gauge) in the global metrics registry.

#include <string>

#include "common/status.h"
#include "wiki/knowledge_base.h"

namespace wqe::snapshot {

/// \brief Snapshot serializer.  Stateless; `Write` is a static one-shot.
class Writer {
 public:
  /// \brief Writes `kb` (which must be frozen — InvalidArgument
  /// otherwise) to `path`, atomically replacing any existing file via a
  /// `<path>.tmp` + rename.  IOError on filesystem failures; a failed
  /// write removes the temp file and leaves `path` untouched.
  /// Concurrent writers to one `path` race on the temp name — publish
  /// pipelines are expected to have a single writer per target.
  static Status Write(const wiki::KnowledgeBase& kb, const std::string& path);
};

/// \brief Convenience alias for `Writer::Write`.
inline Status WriteSnapshot(const wiki::KnowledgeBase& kb,
                            const std::string& path) {
  return Writer::Write(kb, path);
}

}  // namespace wqe::snapshot
