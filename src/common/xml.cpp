#include "common/xml.hpp"

#include <cctype>
#include <sstream>

#include "common/parse.hpp"

namespace a2a {

const std::string& XmlNode::attr(const std::string& key) const {
  const auto it = attributes.find(key);
  A2A_REQUIRE(it != attributes.end(),
              "missing XML attribute '", key, "' on <", name, ">");
  return it->second;
}

long long XmlNode::attr_int(const std::string& key) const {
  return parse_number<long long>(attr(key),
                                 "attribute " + key + " on <" + name + ">");
}

std::vector<const XmlNode*> XmlNode::children_named(
    const std::string& tag) const {
  std::vector<const XmlNode*> out;
  for (const auto& c : children) {
    if (c->name == tag) out.push_back(c.get());
  }
  return out;
}

namespace {

void escape_into(std::ostream& os, const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '&': os << "&amp;"; break;
      case '<': os << "&lt;"; break;
      case '>': os << "&gt;"; break;
      case '"': os << "&quot;"; break;
      case '\'': os << "&apos;"; break;
      default: os << c;
    }
  }
}

void write_node(std::ostream& os, const XmlNode& node, int depth) {
  const std::string indent(static_cast<std::size_t>(depth) * 2, ' ');
  os << indent << '<' << node.name;
  for (const auto& [k, v] : node.attributes) {
    os << ' ' << k << "=\"";
    escape_into(os, v);
    os << '"';
  }
  if (node.children.empty() && node.text.empty()) {
    os << "/>\n";
    return;
  }
  os << '>';
  if (!node.text.empty()) escape_into(os, node.text);
  if (!node.children.empty()) {
    os << '\n';
    for (const auto& c : node.children) write_node(os, *c, depth + 1);
    os << indent;
  }
  os << "</" << node.name << ">\n";
}

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  std::unique_ptr<XmlNode> parse() {
    skip_whitespace_and_prolog();
    auto root = parse_element();
    skip_whitespace();
    A2A_REQUIRE(pos_ == text_.size(), "trailing content after XML root");
    return root;
  }

 private:
  [[nodiscard]] char peek() const {
    A2A_REQUIRE(pos_ < text_.size(), "unexpected end of XML input");
    return text_[pos_];
  }
  char take() {
    const char c = peek();
    ++pos_;
    return c;
  }
  void expect(char c) {
    A2A_REQUIRE(take() == c, "expected '", std::string(1, c), "' in XML");
  }
  void skip_whitespace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  void skip_whitespace_and_prolog() {
    skip_whitespace();
    while (pos_ + 1 < text_.size() && text_[pos_] == '<' &&
           (text_[pos_ + 1] == '?' || text_[pos_ + 1] == '!')) {
      while (take() != '>') {
      }
      skip_whitespace();
    }
  }
  [[nodiscard]] static bool is_name_char(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '-' || c == ':' || c == '.';
  }
  std::string parse_name() {
    std::string out;
    while (pos_ < text_.size() && is_name_char(text_[pos_])) out += take();
    A2A_REQUIRE(!out.empty(), "empty XML name at offset ", pos_);
    return out;
  }
  std::string parse_quoted() {
    expect('"');
    std::string out;
    while (peek() != '"') out += take();
    expect('"');
    return unescape(out);
  }
  [[nodiscard]] static std::string unescape(const std::string& s) {
    std::string out;
    for (std::size_t i = 0; i < s.size(); ++i) {
      if (s[i] != '&') {
        out += s[i];
        continue;
      }
      const auto semi = s.find(';', i);
      A2A_REQUIRE(semi != std::string::npos, "unterminated XML entity");
      const std::string entity = s.substr(i + 1, semi - i - 1);
      if (entity == "amp") out += '&';
      else if (entity == "lt") out += '<';
      else if (entity == "gt") out += '>';
      else if (entity == "quot") out += '"';
      else if (entity == "apos") out += '\'';
      else A2A_REQUIRE(false, "unknown XML entity &", entity, ";");
      i = semi;
    }
    return out;
  }

  std::unique_ptr<XmlNode> parse_element() {
    expect('<');
    auto node = std::make_unique<XmlNode>(parse_name());
    for (;;) {
      skip_whitespace();
      const char c = peek();
      if (c == '/') {
        take();
        expect('>');
        return node;  // self-closing
      }
      if (c == '>') {
        take();
        break;
      }
      const std::string key = parse_name();
      skip_whitespace();
      expect('=');
      skip_whitespace();
      node->attributes[key] = parse_quoted();
    }
    // Content: text and child elements until closing tag.
    std::string text;
    for (;;) {
      if (peek() == '<') {
        if (pos_ + 1 < text_.size() && text_[pos_ + 1] == '/') {
          take();
          take();
          const std::string closing = parse_name();
          A2A_REQUIRE(closing == node->name, "mismatched closing tag </",
                      closing, "> for <", node->name, ">");
          skip_whitespace();
          expect('>');
          break;
        }
        node->children.push_back(parse_element());
      } else {
        text += take();
      }
    }
    // Keep only non-whitespace text payloads.
    const auto first = text.find_first_not_of(" \t\r\n");
    if (first != std::string::npos) {
      const auto last = text.find_last_not_of(" \t\r\n");
      node->text = unescape(text.substr(first, last - first + 1));
    }
    return node;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

std::string xml_to_string(const XmlNode& root) {
  std::ostringstream os;
  write_node(os, root, 0);
  return os.str();
}

std::unique_ptr<XmlNode> xml_parse(const std::string& text) {
  return Parser(text).parse();
}

}  // namespace a2a
