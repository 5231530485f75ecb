#include "xml/xml_parser.h"

#include <cctype>
#include <charconv>
#include <system_error>

#include "common/macros.h"

namespace wqe::xml {

namespace {

bool IsNameStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == ':';
}

bool IsNameChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
         c == ':' || c == '-' || c == '.';
}

bool IsSpace(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r';
}

/// XML 1.0's `Char` production: #x9 | #xA | #xD | [#x20-#xD7FF] |
/// [#xE000-#xFFFD] | [#x10000-#x10FFFF].
bool IsXmlChar(uint32_t cp) {
  return cp == 0x9 || cp == 0xA || cp == 0xD ||
         (cp >= 0x20 && cp <= 0xD7FF) || (cp >= 0xE000 && cp <= 0xFFFD) ||
         (cp >= 0x10000 && cp <= 0x10FFFF);
}

void AppendUtf8(std::string* out, uint32_t cp) {
  if (cp < 0x80) {
    out->push_back(static_cast<char>(cp));
  } else if (cp < 0x800) {
    out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else if (cp < 0x10000) {
    out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else {
    out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  }
}

}  // namespace

Result<std::string> DecodeXmlEntities(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  size_t i = 0;
  while (i < raw.size()) {
    char c = raw[i];
    if (c != '&') {
      out.push_back(c);
      ++i;
      continue;
    }
    size_t semi = raw.find(';', i + 1);
    if (semi == std::string_view::npos || semi - i > 12) {
      return Status::ParseError("unterminated entity reference near offset ",
                                i);
    }
    std::string_view ent = raw.substr(i + 1, semi - i - 1);
    if (ent == "lt") {
      out.push_back('<');
    } else if (ent == "gt") {
      out.push_back('>');
    } else if (ent == "amp") {
      out.push_back('&');
    } else if (ent == "apos") {
      out.push_back('\'');
    } else if (ent == "quot") {
      out.push_back('"');
    } else if (!ent.empty() && ent[0] == '#') {
      const bool hex = ent.size() > 1 && (ent[1] == 'x' || ent[1] == 'X');
      const std::string_view digits = ent.substr(hex ? 2 : 1);
      uint32_t cp = 0;
      const auto [end, ec] = std::from_chars(
          digits.data(), digits.data() + digits.size(), cp, hex ? 16 : 10);
      // The whole reference must be digits, fit in 32 bits, and name an
      // XML 1.0 Char (no controls, surrogates, U+FFFE/U+FFFF or values
      // past U+10FFFF).
      if (digits.empty() || ec != std::errc() ||
          end != digits.data() + digits.size() || !IsXmlChar(cp)) {
        return Status::ParseError("bad numeric character reference '&", ent,
                                  ";'");
      }
      AppendUtf8(&out, cp);
    } else {
      return Status::ParseError("unknown entity '&", ent, ";'");
    }
    i = semi + 1;
  }
  return out;
}

std::string EscapeXml(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) {
    switch (c) {
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '&': out += "&amp;"; break;
      case '"': out += "&quot;"; break;
      case '\'': out += "&apos;"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

std::string_view Event::Attr(std::string_view name) const {
  for (const Attribute& a : attrs) {
    if (a.name == name) return a.value;
  }
  return {};
}

bool Event::HasAttr(std::string_view name) const {
  for (const Attribute& a : attrs) {
    if (a.name == name) return true;
  }
  return false;
}

Status PullParser::SkipMisc(std::string_view open_mark,
                            std::string_view close_mark) {
  // pos_ points at the start of open_mark.
  size_t end = input_.find(close_mark, pos_ + open_mark.size());
  if (end == std::string_view::npos) {
    return Status::ParseError("unterminated ", open_mark, " at offset ",
                              pos_);
  }
  pos_ = end + close_mark.size();
  return Status::OK();
}

Result<Event> PullParser::Next() {
  if (pending_end_) {
    pending_end_ = false;
    Event ev;
    ev.type = EventType::kEndElement;
    ev.name = pending_end_name_;
    return ev;
  }
  for (;;) {
    if (pos_ >= input_.size()) {
      if (!open_.empty()) {
        return Status::ParseError("document ended with unclosed element <",
                                  open_.back(), ">");
      }
      done_ = true;
      Event ev;
      ev.type = EventType::kEndDocument;
      return ev;
    }
    if (input_[pos_] == '<') {
      // Comments / PIs / declarations / CDATA are handled here; CDATA is
      // returned as characters, the rest are skipped silently.
      if (input_.compare(pos_, 4, "<!--") == 0) {
        WQE_RETURN_NOT_OK(SkipMisc("<!--", "-->"));
        continue;
      }
      if (input_.compare(pos_, 9, "<![CDATA[") == 0) {
        size_t end = input_.find("]]>", pos_ + 9);
        if (end == std::string_view::npos) {
          return Status::ParseError("unterminated CDATA at offset ", pos_);
        }
        Event ev;
        ev.type = EventType::kCharacters;
        ev.text = std::string(input_.substr(pos_ + 9, end - pos_ - 9));
        pos_ = end + 3;
        if (open_.empty()) continue;  // ignore top-level CDATA
        return ev;
      }
      if (input_.compare(pos_, 2, "<?") == 0) {
        WQE_RETURN_NOT_OK(SkipMisc("<?", "?>"));
        continue;
      }
      if (input_.compare(pos_, 2, "<!") == 0) {
        WQE_RETURN_NOT_OK(SkipMisc("<!", ">"));
        continue;
      }
      return ParseMarkup();
    }
    // Character data up to the next '<'.
    size_t lt = input_.find('<', pos_);
    if (lt == std::string_view::npos) lt = input_.size();
    std::string_view raw = input_.substr(pos_, lt - pos_);
    pos_ = lt;
    if (open_.empty()) {
      // Whitespace between top-level constructs is fine; anything else is
      // malformed.
      for (char c : raw) {
        if (!IsSpace(c)) {
          return Status::ParseError("character data outside root element");
        }
      }
      continue;
    }
    Event ev;
    ev.type = EventType::kCharacters;
    WQE_ASSIGN_OR_RETURN(ev.text, DecodeXmlEntities(raw));
    return ev;
  }
}

Result<Event> PullParser::ParseMarkup() {
  // pos_ points at '<' and this is a start or end tag.
  size_t i = pos_ + 1;
  bool closing = false;
  if (i < input_.size() && input_[i] == '/') {
    closing = true;
    ++i;
  }
  if (i >= input_.size() || !IsNameStart(input_[i])) {
    return Status::ParseError("malformed tag at offset ", pos_);
  }
  size_t name_start = i;
  while (i < input_.size() && IsNameChar(input_[i])) ++i;
  std::string name(input_.substr(name_start, i - name_start));

  Event ev;
  ev.name = name;

  if (closing) {
    while (i < input_.size() && IsSpace(input_[i])) ++i;
    if (i >= input_.size() || input_[i] != '>') {
      return Status::ParseError("malformed end tag </", name, ">");
    }
    pos_ = i + 1;
    if (open_.empty() || open_.back() != name) {
      return Status::ParseError("mismatched end tag </", name, ">",
                                open_.empty()
                                    ? std::string(" with no open element")
                                    : "; expected </" + open_.back() + ">");
    }
    open_.pop_back();
    ev.type = EventType::kEndElement;
    return ev;
  }

  ev.type = EventType::kStartElement;
  // Attributes.
  for (;;) {
    while (i < input_.size() && IsSpace(input_[i])) ++i;
    if (i >= input_.size()) {
      return Status::ParseError("unterminated start tag <", name, ">");
    }
    if (input_[i] == '>') {
      pos_ = i + 1;
      open_.push_back(name);
      return ev;
    }
    if (input_[i] == '/') {
      if (i + 1 >= input_.size() || input_[i + 1] != '>') {
        return Status::ParseError("malformed self-closing tag <", name, ">");
      }
      pos_ = i + 2;
      ev.self_closing = true;
      pending_end_ = true;
      pending_end_name_ = name;
      return ev;
    }
    if (!IsNameStart(input_[i])) {
      return Status::ParseError("bad attribute name in <", name,
                                "> at offset ", i);
    }
    size_t attr_start = i;
    while (i < input_.size() && IsNameChar(input_[i])) ++i;
    std::string attr_name(input_.substr(attr_start, i - attr_start));
    while (i < input_.size() && IsSpace(input_[i])) ++i;
    if (i >= input_.size() || input_[i] != '=') {
      return Status::ParseError("attribute '", attr_name, "' in <", name,
                                "> missing '='");
    }
    ++i;
    while (i < input_.size() && IsSpace(input_[i])) ++i;
    if (i >= input_.size() || (input_[i] != '"' && input_[i] != '\'')) {
      return Status::ParseError("attribute '", attr_name,
                                "' value must be quoted");
    }
    char quote = input_[i++];
    size_t val_start = i;
    while (i < input_.size() && input_[i] != quote) ++i;
    if (i >= input_.size()) {
      return Status::ParseError("unterminated attribute value for '",
                                attr_name, "'");
    }
    Attribute attr;
    attr.name = std::move(attr_name);
    WQE_ASSIGN_OR_RETURN(
        attr.value, DecodeXmlEntities(input_.substr(val_start, i - val_start)));
    ev.attrs.push_back(std::move(attr));
    ++i;  // closing quote
  }
}

Status PullParser::SkipElement() {
  // Called right after a start event was returned. For a self-closing tag
  // the synthetic end event is still pending; consume it.
  if (pending_end_) {
    pending_end_ = false;
    return Status::OK();
  }
  size_t target_depth = open_.size() - 1;
  for (;;) {
    WQE_ASSIGN_OR_RETURN(Event ev, Next());
    if (ev.type == EventType::kEndDocument) {
      return Status::ParseError("document ended while skipping element");
    }
    if (ev.type == EventType::kEndElement && open_.size() == target_depth) {
      return Status::OK();
    }
  }
}

Result<std::string> PullParser::ReadElementText() {
  std::string out;
  if (pending_end_) {
    pending_end_ = false;
    return out;  // self-closing element: empty text
  }
  size_t target_depth = open_.size() - 1;
  for (;;) {
    WQE_ASSIGN_OR_RETURN(Event ev, Next());
    if (ev.type == EventType::kEndDocument) {
      return Status::ParseError("document ended while reading element text");
    }
    if (ev.type == EventType::kCharacters) {
      out += ev.text;
    } else if (ev.type == EventType::kEndElement &&
               open_.size() == target_depth) {
      return out;
    }
  }
}

}  // namespace wqe::xml
