#include "common/status.h"

namespace wqe {

const char* StatusCodeToString(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "Invalid argument";
    case StatusCode::kNotFound:
      return "Not found";
    case StatusCode::kAlreadyExists:
      return "Already exists";
    case StatusCode::kOutOfRange:
      return "Out of range";
    case StatusCode::kIOError:
      return "IO error";
    case StatusCode::kParseError:
      return "Parse error";
    case StatusCode::kInternal:
      return "Internal error";
    case StatusCode::kDeadlineExceeded:
      return "Deadline exceeded";
    case StatusCode::kResourceExhausted:
      return "Resource exhausted";
  }
  return "Unknown";
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = StatusCodeToString(code_);
  if (!msg_.empty()) {
    out += ": ";
    out += msg_;
  }
  return out;
}

Status Status::WithContext(const std::string& detail) const {
  if (ok()) return *this;
  return Status(code_, msg_.empty() ? detail : msg_ + "; " + detail);
}

std::ostream& operator<<(std::ostream& os, const Status& status) {
  return os << status.ToString();
}

}  // namespace wqe
