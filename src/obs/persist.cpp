#include "obs/persist.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>

namespace spdistal::obs {

bool read_text_file(const std::string& path, std::string* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::string doc;
  char buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) doc.append(buf, n);
  std::fclose(f);
  *out = std::move(doc);
  return true;
}

bool write_text_file_atomic(const std::string& path, const std::string& doc) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
  if (std::fclose(f) != 0 || !ok) return false;
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

void append_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void JsonCursor::ws() {
  while (p < s.size() && std::isspace(static_cast<unsigned char>(s[p]))) ++p;
}

bool JsonCursor::peek(char c) {
  ws();
  return ok && p < s.size() && s[p] == c;
}

bool JsonCursor::eat(char c) {
  if (peek(c)) {
    ++p;
    return true;
  }
  ok = false;
  return false;
}

std::string JsonCursor::string() {
  std::string out;
  if (!eat('"')) return out;
  while (p < s.size()) {
    const char ch = s[p++];
    if (ch == '"') return out;
    if (ch != '\\') {
      out += ch;
      continue;
    }
    if (p >= s.size()) break;
    switch (s[p++]) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case '/': out += '/'; break;
      case 'n': out += '\n'; break;
      case 't': out += '\t'; break;
      case 'r': out += '\r'; break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'u': {
        if (p + 4 > s.size()) {
          ok = false;
          return out;
        }
        const long code = std::strtol(s.substr(p, 4).c_str(), nullptr, 16);
        p += 4;
        // Writers only ever escape control characters; anything wider is
        // replaced, not reconstructed.
        out += code > 0 && code < 256 ? static_cast<char>(code) : '?';
        break;
      }
      default:
        ok = false;
        return out;
    }
  }
  ok = false;  // unterminated
  return out;
}

double JsonCursor::number() {
  ws();
  // strtod alone would also take "nan", "inf" and hex floats.
  if (!ok || p >= s.size() ||
      (s[p] != '-' && !std::isdigit(static_cast<unsigned char>(s[p])))) {
    ok = false;
    return 0;
  }
  char* end = nullptr;
  const double v = std::strtod(s.c_str() + p, &end);
  p = static_cast<size_t>(end - s.c_str());
  return v;
}

void JsonCursor::skip_value() {
  ws();
  if (!ok || p >= s.size()) {
    ok = false;
    return;
  }
  const char c = s[p];
  if (c == '"') {
    string();
  } else if (c == '{') {
    object([this](const std::string&) { skip_value(); });
  } else if (c == '[') {
    array([this] { skip_value(); });
  } else if (c == 't' || c == 'f' || c == 'n') {
    for (const char* lit : {"true", "false", "null"}) {
      if (s.compare(p, std::char_traits<char>::length(lit), lit) == 0) {
        p += std::char_traits<char>::length(lit);
        return;
      }
    }
    ok = false;
  } else {
    number();
  }
}

bool JsonCursor::at_end() {
  ws();
  return p == s.size();
}

}  // namespace spdistal::obs
