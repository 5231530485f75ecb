#include "ir/query.h"

#include "common/string_util.h"

namespace wqe::ir {

QueryNode QueryNode::Term(std::string_view term) {
  QueryNode n;
  n.kind = Kind::kTerm;
  n.term = std::string(term);
  return n;
}

QueryNode QueryNode::Phrase(std::vector<std::string> terms) {
  QueryNode n;
  n.kind = Kind::kPhrase;
  n.phrase = std::move(terms);
  return n;
}

QueryNode QueryNode::Combine(std::vector<QueryNode> children) {
  QueryNode n;
  n.kind = Kind::kCombine;
  n.children = std::move(children);
  return n;
}

QueryNode QueryNode::CombinePhrases(const std::vector<std::string>& texts) {
  std::vector<QueryNode> children;
  for (const std::string& t : texts) {
    std::vector<std::string> words = SplitWhitespace(ToLower(t));
    if (words.empty()) continue;
    if (words.size() == 1) {
      children.push_back(Term(words[0]));
    } else {
      children.push_back(Phrase(std::move(words)));
    }
  }
  return Combine(std::move(children));
}

std::string QueryNode::ToString() const {
  switch (kind) {
    case Kind::kTerm:
      return term;
    case Kind::kPhrase: {
      std::string out = "#1(";
      for (size_t i = 0; i < phrase.size(); ++i) {
        if (i > 0) out += " ";
        out += phrase[i];
      }
      return out + ")";
    }
    case Kind::kCombine: {
      std::string out = "#combine(";
      for (size_t i = 0; i < children.size(); ++i) {
        if (i > 0) out += " ";
        out += children[i].ToString();
      }
      return out + ")";
    }
  }
  return "";
}

}  // namespace wqe::ir
