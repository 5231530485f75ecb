#include "clef/image_metadata.h"

#include "common/macros.h"
#include "common/string_util.h"
#include "xml/xml_parser.h"
#include "xml/xml_writer.h"

namespace wqe::clef {

std::string ImageMetadata::ToXml() const {
  xml::XmlWriter w(3);
  w.WriteDeclaration();
  w.StartElement("image");
  w.WriteAttribute("id", std::to_string(id));
  w.WriteAttribute("file", file);
  w.WriteElement("name", name);
  for (const LanguageSection& sec : sections) {
    w.StartElement("text");
    w.WriteAttribute("xml:lang", sec.lang);
    w.WriteElement("description", sec.description);
    if (sec.comment.empty()) {
      w.WriteEmptyElement("comment");
    } else {
      w.WriteElement("comment", sec.comment);
    }
    for (const ImageCaption& cap : sec.captions) {
      w.StartElement("caption");
      if (!cap.article_ref.empty()) {
        w.WriteAttribute("article", cap.article_ref);
      }
      w.WriteText(cap.text);
      w.EndElement();
    }
    w.EndElement();
  }
  if (!general_comment.empty()) {
    w.WriteElement("comment", general_comment);
  }
  w.WriteElement("license", license);
  w.EndElement();
  return w.TakeString();
}

const LanguageSection* ImageMetadata::FindSection(
    std::string_view lang) const {
  for (const LanguageSection& sec : sections) {
    if (sec.lang == lang) return &sec;
  }
  return nullptr;
}

Result<ImageMetadata> ParseImageMetadata(std::string_view xml_text) {
  xml::PullParser parser(xml_text);
  ImageMetadata meta;
  bool got_image = false;

  for (;;) {
    WQE_ASSIGN_OR_RETURN(xml::Event ev, parser.Next());
    if (ev.type == xml::EventType::kEndDocument) break;
    if (ev.type != xml::EventType::kStartElement) continue;

    if (ev.name == "image") {
      got_image = true;
      // An absent or empty id means 0.
      const std::string_view id_text = Trim(ev.Attr("id"));
      if (!id_text.empty()) {
        const std::optional<uint32_t> id = ParseUint32(id_text);
        if (!id.has_value()) {
          return Status::ParseError("<image> has bad id attribute '", id_text,
                                    "'");
        }
        meta.id = *id;
      }
      meta.file = std::string(ev.Attr("file"));
      continue;
    }
    if (!got_image) {
      return Status::ParseError("root element must be <image>, got <",
                                ev.name, ">");
    }
    if (parser.depth() == 2) {
      if (ev.name == "name") {
        WQE_ASSIGN_OR_RETURN(meta.name, parser.ReadElementText());
      } else if (ev.name == "comment") {
        WQE_ASSIGN_OR_RETURN(meta.general_comment, parser.ReadElementText());
      } else if (ev.name == "license") {
        WQE_ASSIGN_OR_RETURN(meta.license, parser.ReadElementText());
      } else if (ev.name == "text") {
        LanguageSection sec;
        sec.lang = std::string(ev.Attr("xml:lang"));
        for (;;) {
          WQE_ASSIGN_OR_RETURN(xml::Event tev, parser.Next());
          if (tev.type == xml::EventType::kEndElement && tev.name == "text") {
            break;
          }
          if (tev.type == xml::EventType::kEndDocument) {
            return Status::ParseError("document ended inside <text>");
          }
          if (tev.type != xml::EventType::kStartElement) continue;
          if (tev.name == "description") {
            WQE_ASSIGN_OR_RETURN(sec.description, parser.ReadElementText());
          } else if (tev.name == "comment") {
            WQE_ASSIGN_OR_RETURN(sec.comment, parser.ReadElementText());
          } else if (tev.name == "caption") {
            ImageCaption cap;
            cap.article_ref = std::string(tev.Attr("article"));
            WQE_ASSIGN_OR_RETURN(cap.text, parser.ReadElementText());
            sec.captions.push_back(std::move(cap));
          } else {
            WQE_RETURN_NOT_OK(parser.SkipElement());
          }
        }
        meta.sections.push_back(std::move(sec));
      } else {
        WQE_RETURN_NOT_OK(parser.SkipElement());
      }
    }
  }
  if (!got_image) {
    return Status::ParseError("no <image> element found");
  }
  return meta;
}

std::string ExtractTemplateDescription(std::string_view general_comment) {
  size_t info = general_comment.find("{{Information");
  if (info == std::string_view::npos) return "";
  size_t desc = general_comment.find("|Description=", info);
  if (desc == std::string_view::npos) return "";
  size_t value_start = desc + std::string_view("|Description=").size();
  size_t value_end = general_comment.find('|', value_start);
  if (value_end == std::string_view::npos) {
    value_end = general_comment.find("}}", value_start);
  }
  if (value_end == std::string_view::npos) value_end = general_comment.size();
  return std::string(
      Trim(general_comment.substr(value_start, value_end - value_start)));
}

std::string ExtractLinkedText(const ImageMetadata& meta) {
  std::string out;
  auto append = [&out](std::string_view piece) {
    std::string_view trimmed = Trim(piece);
    if (trimmed.empty()) return;
    if (!out.empty()) out += " ";
    out.append(trimmed);
  };

  // ① file name without the extension.
  std::string_view name = meta.name;
  size_t dot = name.rfind('.');
  if (dot != std::string_view::npos) name = name.substr(0, dot);
  append(name);

  // ② the English section (description, comment, captions).
  const LanguageSection* en = meta.FindSection("en");
  if (en != nullptr) {
    append(en->description);
    append(en->comment);
    for (const ImageCaption& cap : en->captions) append(cap.text);
  }

  // ③ the Description field of the general comment template.
  append(ExtractTemplateDescription(meta.general_comment));
  return out;
}

}  // namespace wqe::clef
