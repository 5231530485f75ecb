#include "snapshot/mapped_file.h"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

namespace wqe::snapshot {

Result<std::shared_ptr<const MappedFile>> MappedFile::Open(
    const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IOError("open('", path, "'): ", std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    Status status =
        Status::IOError("fstat('", path, "'): ", std::strerror(errno));
    ::close(fd);
    return status;
  }
  auto file = std::shared_ptr<MappedFile>(new MappedFile());
  file->path_ = path;
  file->size_ = static_cast<size_t>(st.st_size);
  if (file->size_ > 0) {
    void* data =
        ::mmap(nullptr, file->size_, PROT_READ, MAP_PRIVATE, fd, 0);
    if (data == MAP_FAILED) {
      Status status =
          Status::IOError("mmap('", path, "'): ", std::strerror(errno));
      ::close(fd);
      return status;
    }
    file->data_ = data;
  }
  // The mapping keeps its own reference to the pages; the descriptor is
  // only needed to establish it.
  ::close(fd);
  return std::shared_ptr<const MappedFile>(std::move(file));
}

MappedFile::~MappedFile() {
  if (data_ != nullptr) ::munmap(data_, size_);
}

}  // namespace wqe::snapshot
