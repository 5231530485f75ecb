#include "clef/track.h"

#include "common/string_util.h"

namespace wqe::clef {

std::string WriteTopics(const std::vector<Topic>& topics) {
  std::string out;
  for (const Topic& t : topics) {
    out += std::to_string(t.id);
    out += "\t";
    out += t.keywords;
    out += "\t";
    out += Join(t.relevant, ";");
    out += "\n";
  }
  return out;
}

Result<std::vector<Topic>> ParseTopics(std::string_view text) {
  std::vector<Topic> topics;
  size_t line_no = 0;
  for (const std::string& line : Split(text, '\n')) {
    ++line_no;
    if (Trim(line).empty()) continue;
    std::vector<std::string> fields = Split(line, '\t');
    if (fields.size() != 3) {
      return Status::ParseError("topic line ", line_no, " must have 3 fields, got ",
                                fields.size());
    }
    Topic t;
    const std::optional<uint32_t> id = ParseUint32(fields[0]);
    if (!id.has_value()) {
      return Status::ParseError("topic line ", line_no, " has bad id '",
                                Trim(fields[0]), "'");
    }
    t.id = *id;
    t.keywords = std::string(Trim(fields[1]));
    if (t.keywords.empty()) {
      return Status::ParseError("topic line ", line_no, " has empty keywords");
    }
    for (const std::string& name : Split(fields[2], ';')) {
      if (!Trim(name).empty()) t.relevant.emplace_back(Trim(name));
    }
    topics.push_back(std::move(t));
  }
  return topics;
}

}  // namespace wqe::clef
