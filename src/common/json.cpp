#include "common/json.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/binary_io.hpp"
#include "common/error.hpp"

namespace metascope {

bool Json::as_bool() const {
  MSC_CHECK(type_ == Type::Bool, "json: not a bool");
  return bool_;
}

double Json::as_number() const {
  MSC_CHECK(type_ == Type::Number, "json: not a number");
  return num_;
}

std::int64_t Json::as_int() const {
  return static_cast<std::int64_t>(std::llround(as_number()));
}

const std::string& Json::as_string() const {
  MSC_CHECK(type_ == Type::String, "json: not a string");
  return str_;
}

const Json::Array& Json::as_array() const {
  MSC_CHECK(type_ == Type::Array, "json: not an array");
  return arr_;
}

const Json::Object& Json::as_object() const {
  MSC_CHECK(type_ == Type::Object, "json: not an object");
  return obj_;
}

const Json& Json::at(const std::string& key) const {
  const auto& o = as_object();
  auto it = o.find(key);
  MSC_CHECK(it != o.end(), "json: missing key '" + key + "'");
  return it->second;
}

bool Json::has(const std::string& key) const {
  return type_ == Type::Object && obj_.count(key) > 0;
}

double Json::number_or(const std::string& key, double dflt) const {
  return has(key) ? at(key).as_number() : dflt;
}

std::int64_t Json::int_or(const std::string& key, std::int64_t dflt) const {
  return has(key) ? at(key).as_int() : dflt;
}

std::string Json::string_or(const std::string& key,
                            const std::string& dflt) const {
  return has(key) ? at(key).as_string() : dflt;
}

bool Json::bool_or(const std::string& key, bool dflt) const {
  return has(key) ? at(key).as_bool() : dflt;
}

Json& Json::set(const std::string& key, Json v) {
  if (type_ == Type::Null) type_ = Type::Object;
  MSC_CHECK(type_ == Type::Object, "json: set() on non-object");
  obj_[key] = std::move(v);
  return *this;
}

Json& Json::push_back(Json v) {
  if (type_ == Type::Null) type_ = Type::Array;
  MSC_CHECK(type_ == Type::Array, "json: push_back() on non-array");
  arr_.push_back(std::move(v));
  return *this;
}

bool Json::operator==(const Json& other) const {
  if (type_ != other.type_) return false;
  switch (type_) {
    case Type::Null:
      return true;
    case Type::Bool:
      return bool_ == other.bool_;
    case Type::Number:
      return num_ == other.num_;
    case Type::String:
      return str_ == other.str_;
    case Type::Array:
      return arr_ == other.arr_;
    case Type::Object:
      return obj_ == other.obj_;
  }
  return false;
}

namespace {

void escape_to(std::ostringstream& os, const std::string& s) {
  os << '"';
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\r': os << "\\r"; break;
      case '\t': os << "\\t"; break;
      case '\b': os << "\\b"; break;
      case '\f': os << "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

void number_to(std::ostringstream& os, double n) {
  if (n == std::floor(n) && std::abs(n) < 1e15) {
    os << static_cast<std::int64_t>(n);
  } else {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", n);
    os << buf;
  }
}

}  // namespace

static void dump_rec(const Json& v, std::ostringstream& os, int indent,
                     int depth);

static void newline_indent(std::ostringstream& os, int indent, int depth) {
  if (indent < 0) return;
  os << '\n';
  for (int i = 0; i < indent * depth; ++i) os << ' ';
}

static void dump_rec(const Json& v, std::ostringstream& os, int indent,
                     int depth) {
  switch (v.type()) {
    case Json::Type::Null:
      os << "null";
      break;
    case Json::Type::Bool:
      os << (v.as_bool() ? "true" : "false");
      break;
    case Json::Type::Number:
      number_to(os, v.as_number());
      break;
    case Json::Type::String:
      escape_to(os, v.as_string());
      break;
    case Json::Type::Array: {
      const auto& a = v.as_array();
      if (a.empty()) {
        os << "[]";
        break;
      }
      os << '[';
      bool first = true;
      for (const auto& e : a) {
        if (!first) os << ',';
        first = false;
        newline_indent(os, indent, depth + 1);
        dump_rec(e, os, indent, depth + 1);
      }
      newline_indent(os, indent, depth);
      os << ']';
      break;
    }
    case Json::Type::Object: {
      const auto& o = v.as_object();
      if (o.empty()) {
        os << "{}";
        break;
      }
      os << '{';
      bool first = true;
      for (const auto& [k, e] : o) {
        if (!first) os << ',';
        first = false;
        newline_indent(os, indent, depth + 1);
        escape_to(os, k);
        os << (indent < 0 ? ":" : ": ");
        dump_rec(e, os, indent, depth + 1);
      }
      newline_indent(os, indent, depth);
      os << '}';
      break;
    }
  }
}

std::string Json::dump(int indent) const {
  std::ostringstream os;
  dump_rec(*this, os, indent, 0);
  return os.str();
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : t_(text) {}

  Json parse_document() {
    Json v = parse_value();
    skip_ws();
    if (pos_ != t_.size()) fail("trailing characters");
    return v;
  }

 private:
  /// Nesting cap: the parser recurses per container level, so an
  /// adversarial "[[[[..." must become a parse error long before it
  /// becomes a stack overflow.
  static constexpr int kMaxDepth = 256;

  [[noreturn]] void fail(const std::string& msg) const {
    std::size_t line = 1;
    std::size_t col = 1;
    for (std::size_t i = 0; i < pos_ && i < t_.size(); ++i) {
      if (t_[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    std::ostringstream os;
    os << "json parse error at line " << line << " col " << col << ": " << msg;
    throw Error(ErrorCode::Corrupt, os.str(),
                ErrorContext{"", -1, static_cast<std::int64_t>(pos_)});
  }

  void skip_ws() {
    while (pos_ < t_.size() &&
           (t_[pos_] == ' ' || t_[pos_] == '\t' || t_[pos_] == '\n' ||
            t_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    if (pos_ >= t_.size()) fail("unexpected end of input");
    return t_[pos_];
  }

  char get() {
    const char c = peek();
    ++pos_;
    return c;
  }

  void expect(char c) {
    if (get() != c) {
      --pos_;
      fail(std::string("expected '") + c + "'");
    }
  }

  bool consume_literal(const char* lit) {
    const std::size_t n = std::string(lit).size();
    if (t_.compare(pos_, n, lit) == 0) {
      pos_ += n;
      return true;
    }
    return false;
  }

  Json parse_value() {
    skip_ws();
    if (depth_ > kMaxDepth) fail("nesting deeper than 256 levels");
    const char c = peek();
    switch (c) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"':
        return Json(parse_string());
      case 't':
        if (consume_literal("true")) return Json(true);
        fail("bad literal");
      case 'f':
        if (consume_literal("false")) return Json(false);
        fail("bad literal");
      case 'n':
        if (consume_literal("null")) return Json(nullptr);
        fail("bad literal");
      default:
        return parse_number();
    }
  }

  Json parse_object() {
    expect('{');
    ++depth_;
    Json::Object o;
    skip_ws();
    if (peek() == '}') {
      get();
      --depth_;
      return Json(std::move(o));
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      o[std::move(key)] = parse_value();
      skip_ws();
      const char c = get();
      if (c == '}') break;
      if (c != ',') {
        --pos_;
        fail("expected ',' or '}'");
      }
    }
    --depth_;
    return Json(std::move(o));
  }

  Json parse_array() {
    expect('[');
    ++depth_;
    Json::Array a;
    skip_ws();
    if (peek() == ']') {
      get();
      --depth_;
      return Json(std::move(a));
    }
    while (true) {
      a.push_back(parse_value());
      skip_ws();
      const char c = get();
      if (c == ']') break;
      if (c != ',') {
        --pos_;
        fail("expected ',' or ']'");
      }
    }
    --depth_;
    return Json(std::move(a));
  }

  std::string parse_string() {
    expect('"');
    std::string s;
    while (true) {
      const char c = get();
      if (c == '"') break;
      if (c == '\\') {
        const char e = get();
        switch (e) {
          case '"': s += '"'; break;
          case '\\': s += '\\'; break;
          case '/': s += '/'; break;
          case 'n': s += '\n'; break;
          case 't': s += '\t'; break;
          case 'r': s += '\r'; break;
          case 'b': s += '\b'; break;
          case 'f': s += '\f'; break;
          case 'u': {
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = get();
              code <<= 4;
              if (h >= '0' && h <= '9')
                code += static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f')
                code += static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F')
                code += static_cast<unsigned>(h - 'A' + 10);
              else
                fail("bad \\u escape");
            }
            // Encode as UTF-8 (BMP only; surrogate pairs unsupported).
            if (code < 0x80) {
              s += static_cast<char>(code);
            } else if (code < 0x800) {
              s += static_cast<char>(0xC0 | (code >> 6));
              s += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              s += static_cast<char>(0xE0 | (code >> 12));
              s += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              s += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default:
            fail("bad escape");
        }
      } else {
        s += c;
      }
    }
    return s;
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') get();
    while (pos_ < t_.size() &&
           (std::isdigit(static_cast<unsigned char>(t_[pos_])) ||
            t_[pos_] == '.' || t_[pos_] == 'e' || t_[pos_] == 'E' ||
            t_[pos_] == '+' || t_[pos_] == '-'))
      ++pos_;
    if (pos_ == start) fail("expected value");
    try {
      return Json(std::stod(t_.substr(start, pos_ - start)));
    } catch (const std::exception&) {
      fail("bad number");
    }
  }

  const std::string& t_;
  std::size_t pos_{0};
  int depth_{0};
};

}  // namespace

Json Json::parse(const std::string& text) {
  return Parser(text).parse_document();
}

Json load_json_file(const std::string& path) {
  errno = 0;
  std::ifstream in(path, std::ios::binary);
  if (!in)
    throw Error(ErrorCode::Io,
                std::string("cannot open json file") +
                    (errno ? std::string(" (") + std::strerror(errno) + ")"
                           : ""),
                ErrorContext{path, -1, -1});
  std::ostringstream ss;
  ss << in.rdbuf();
  try {
    return Json::parse(ss.str());
  } catch (const Error& e) {
    throw e.with_context(ErrorContext{path, -1, -1});
  }
}

namespace {

/// Creates `path`'s parent directories if absent. Failure is reported
/// by the subsequent open, which has the errno worth showing.
void create_parent_dirs(const std::string& path) {
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  if (parent.empty()) return;
  std::error_code ec;
  std::filesystem::create_directories(parent, ec);
}

[[noreturn]] void throw_open_error(const char* what, const std::string& path,
                                   int err) {
  std::string msg = std::string(what) + ": " + path;
  if (err != 0) msg += " (" + std::string(std::strerror(err)) + ")";
  throw Error(msg);
}

}  // namespace

void save_json_file(const std::string& path, const Json& v) {
  create_parent_dirs(path);
  const std::string text = v.dump(2) + '\n';
  FileWriter out(path);
  out.write(text.data(), text.size());
  out.close();
}

void ensure_writable_file(const std::string& path) {
  create_parent_dirs(path);
  errno = 0;
  std::ofstream out(path, std::ios::binary | std::ios::app);
  if (!out) throw_open_error("cannot write output file", path, errno);
}

}  // namespace metascope
