// Shared persistence primitives for the process-lifetime stores (the
// calibration store, the autosched plan store): whole-file reads, atomic
// tmp+rename rewrites — so concurrent writers to one shared file never
// observe a torn document, each reader sees some complete version — and the
// one JSON string writer and reader every JSON document in the repo uses.
#pragma once

#include <string>

namespace spdistal::obs {

// Reads the whole file into *out. Returns false (out untouched) if the file
// cannot be opened.
bool read_text_file(const std::string& path, std::string* out);

// Writes `doc` to `path` via a sibling ".tmp" file and std::rename, so the
// destination is replaced atomically or not at all.
bool write_text_file_atomic(const std::string& path, const std::string& doc);

// Appends `s` to `out` as a quoted JSON string literal (quotes, backslashes
// and control characters escaped).
void append_escaped(std::string& out, const std::string& s);
inline std::string json_string(const std::string& s) {
  std::string out;
  append_escaped(out, s);
  return out;
}

// A minimal string-aware JSON reader. Keys may embed any punctuation
// (plan keys carry format braces), so structure is only ever found by
// walking strings in full. Any structural error poisons the cursor
// (ok = false) and every later call fails: callers reject the whole
// document, never apply part of it. Content checks (a missing field, a
// value from a newer build) stay with the caller, which may skip one
// well-formed entry on its own.
class JsonCursor {
 public:
  explicit JsonCursor(const std::string& doc) : s(doc) {}

  bool ok = true;

  std::string string();
  double number();
  // Consumes one value of any type.
  void skip_value();
  // True when only whitespace remains (a document must end there).
  bool at_end();

  // Walks an object, calling on_member(key) with the cursor at the
  // member's value; the callback consumes exactly that value.
  template <typename F>
  bool object(F&& on_member) {
    if (!eat('{')) return false;
    if (peek('}')) return eat('}');
    while (ok) {
      const std::string key = string();
      if (!eat(':')) return false;
      on_member(key);
      if (!ok) return false;
      if (!peek(',')) return eat('}');
      eat(',');
    }
    return false;
  }

  // Walks an array, calling on_element() with the cursor at each element.
  template <typename F>
  bool array(F&& on_element) {
    if (!eat('[')) return false;
    if (peek(']')) return eat(']');
    while (ok) {
      on_element();
      if (!ok) return false;
      if (!peek(',')) return eat(']');
      eat(',');
    }
    return false;
  }

 private:
  void ws();
  bool peek(char c);
  // Consumes `c` or poisons the cursor.
  bool eat(char c);

  const std::string& s;
  size_t p = 0;
};

}  // namespace spdistal::obs
