#include "trace.h"

#include <cstdio>
#include <memory>

namespace servebench {

uint64_t SpanLog::Add(const char* name, uint64_t parent,
                      Clock::time_point start, Clock::time_point end) {
  const uint64_t id = records_.size() + 1;
  const uint64_t trace = parent == 0 ? id : records_[parent - 1].trace;
  records_.push_back(Record{name, trace, parent, start, end});
  return id;
}

wqe::Status SpanLog::WriteJsonLines(const std::string& path) const {
  std::unique_ptr<FILE, int (*)(FILE*)> file(std::fopen(path.c_str(), "w"),
                                             &std::fclose);
  if (file == nullptr) return wqe::Status::IOError("cannot write ", path);
  auto micros = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
  };
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    std::fprintf(file.get(),
                 "{\"name\":\"%s\",\"trace\":%llu,\"id\":%zu,\"parent\":%llu,"
                 "\"start_us\":%.3f,\"end_us\":%.3f}\n",
                 r.name, static_cast<unsigned long long>(r.trace), i + 1,
                 static_cast<unsigned long long>(r.parent), micros(r.start),
                 micros(r.end));
  }
  if (std::fflush(file.get()) != 0) {
    return wqe::Status::IOError("short write to ", path);
  }
  return wqe::Status::OK();
}

}  // namespace servebench
