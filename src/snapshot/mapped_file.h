#pragma once

/// \file mapped_file.h
/// \brief Read-only memory-mapped file (RAII over POSIX open/mmap/munmap).
///
/// How the snapshot loader reads a file: `MappedFile::Open` maps the whole
/// file `PROT_READ | MAP_PRIVATE`, so loading a snapshot costs page
/// faults instead of reads, the page cache shares the bytes across every
/// process that maps the same file, and nothing in this process can
/// scribble on them.  A `MappedFile` is handed around as
/// `std::shared_ptr<const MappedFile>` and pinned inside whatever points
/// into it (`graph::CsrGraph::FromSections` and
/// `wiki::KnowledgeBase::FromSnapshot` storage), so the mapping outlives
/// every span and name view derived from it.

#include <cstddef>
#include <memory>
#include <span>
#include <string>

#include "common/result.h"

namespace wqe::snapshot {

/// \brief One read-only mapping of a whole file.
class MappedFile {
 public:
  /// \brief Opens and maps `path`; IOError with errno context on any
  /// failure.  An empty file maps to an empty span (valid, no mapping).
  static Result<std::shared_ptr<const MappedFile>> Open(
      const std::string& path);

  ~MappedFile();

  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  std::span<const std::byte> bytes() const {
    return std::span<const std::byte>(
        static_cast<const std::byte*>(data_), size_);
  }
  size_t size() const { return size_; }
  const std::string& path() const { return path_; }

 private:
  MappedFile() = default;

  std::string path_;
  void* data_ = nullptr;  ///< null for an empty file
  size_t size_ = 0;
};

}  // namespace wqe::snapshot
