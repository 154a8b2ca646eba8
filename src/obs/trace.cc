#include "obs/trace.h"

#include <atomic>
#include <cctype>
#include <chrono>
#include <map>
#include <sstream>
#include <utility>

namespace ddtr::obs {
namespace {

// Small dense thread ids (1, 2, 3, ...) instead of opaque native handles:
// Perfetto renders them as lanes, and the balance checker keys on them.
std::uint32_t current_tid() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t tid =
      next.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

void append_json_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\n':
        os << "\\n";
        break;
      case '\t':
        os << "\\t";
        break;
      case '\r':
        os << "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          const char* hex = "0123456789abcdef";
          os << "\\u00" << hex[(c >> 4) & 0xf] << hex[c & 0xf];
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

}  // namespace

std::uint64_t now_us() {
  static const auto epoch = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch)
          .count());
}

std::uint64_t wall_time_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

void TraceWriter::record(const std::string& name, const std::string& cat,
                         char phase, TraceArgs args) {
  const std::uint64_t ts = now_us();
  const std::uint32_t tid = current_tid();
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back({name, cat, phase, ts, tid, std::move(args)});
}

void TraceWriter::begin(const std::string& name, const std::string& cat) {
  record(name, cat, 'B', {});
}

void TraceWriter::begin(const std::string& name, const std::string& cat,
                        TraceArgs args) {
  record(name, cat, 'B', std::move(args));
}

void TraceWriter::end(const std::string& name, const std::string& cat) {
  record(name, cat, 'E', {});
}

void TraceWriter::end(const std::string& name, const std::string& cat,
                      TraceArgs args) {
  record(name, cat, 'E', std::move(args));
}

std::size_t TraceWriter::event_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

void TraceWriter::write(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mu_);
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const Event& e : events_) {
    os << (first ? "\n" : ",\n") << "{\"name\":";
    append_json_string(os, e.name);
    os << ",\"cat\":";
    append_json_string(os, e.cat);
    os << ",\"ph\":\"" << e.phase << "\",\"ts\":" << e.ts_us
       << ",\"pid\":1,\"tid\":" << e.tid;
    if (!e.args.empty()) {
      os << ",\"args\":{";
      bool first_arg = true;
      for (const TraceArgs::Arg& a : e.args.args_) {
        if (!first_arg) os << ',';
        append_json_string(os, a.key);
        os << ':';
        if (a.is_num) {
          os << a.num;
        } else {
          append_json_string(os, a.str);
        }
        first_arg = false;
      }
      os << '}';
    }
    os << '}';
    first = false;
  }
  os << "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"wall_start_ms\":"
     << wall_time_ms() << "}}\n";
}

std::string TraceWriter::str() const {
  std::ostringstream os;
  write(os);
  return os.str();
}

// --- check_trace: strict JSON parse + span balance ----------------------

namespace {

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  const JsonValue* find(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

// Strict recursive-descent JSON parser: no trailing commas, no comments,
// no garbage after the document. Good diagnostics matter more than speed
// here — this runs over test traces, not hot paths.
class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  bool parse(JsonValue& out) {
    skip_ws();
    if (!parse_value(out)) return false;
    skip_ws();
    if (pos_ != text_.size()) return fail("trailing bytes after document");
    return true;
  }

  const std::string& error() const { return error_; }

 private:
  bool fail(const std::string& what) {
    if (error_.empty()) {
      error_ = what + " at byte " + std::to_string(pos_);
    }
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  bool parse_value(JsonValue& out) {
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return parse_object(out);
    if (c == '[') return parse_array(out);
    if (c == '"') {
      out.kind = JsonValue::Kind::kString;
      return parse_string(out.str);
    }
    if (c == 't' || c == 'f') return parse_bool(out);
    if (c == 'n') return parse_null(out);
    return parse_number(out);
  }

  bool parse_object(JsonValue& out) {
    out.kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      std::string key;
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return fail("expected object key");
      }
      if (!parse_string(key)) return false;
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return fail("expected ':' after object key");
      }
      ++pos_;
      skip_ws();
      JsonValue value;
      if (!parse_value(value)) return false;
      out.object.emplace_back(std::move(key), std::move(value));
      skip_ws();
      if (pos_ >= text_.size()) return fail("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or '}' in object");
    }
  }

  bool parse_array(JsonValue& out) {
    out.kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      JsonValue value;
      if (!parse_value(value)) return false;
      out.array.push_back(std::move(value));
      skip_ws();
      if (pos_ >= text_.size()) return fail("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or ']' in array");
    }
  }

  bool parse_string(std::string& out) {
    ++pos_;  // opening '"'
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return fail("raw control character in string");
      }
      if (c == '\\') {
        if (pos_ + 1 >= text_.size()) return fail("truncated escape");
        const char esc = text_[pos_ + 1];
        switch (esc) {
          case '"':
            out += '"';
            break;
          case '\\':
            out += '\\';
            break;
          case '/':
            out += '/';
            break;
          case 'b':
            out += '\b';
            break;
          case 'f':
            out += '\f';
            break;
          case 'n':
            out += '\n';
            break;
          case 'r':
            out += '\r';
            break;
          case 't':
            out += '\t';
            break;
          case 'u': {
            if (pos_ + 5 >= text_.size()) return fail("truncated \\u escape");
            unsigned value = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_ + 2 + i];
              if (std::isxdigit(static_cast<unsigned char>(h)) == 0) {
                return fail("bad hex digit in \\u escape");
              }
              value = value * 16 +
                      static_cast<unsigned>(
                          h <= '9' ? h - '0'
                                   : std::tolower(h) - 'a' + 10);
            }
            // Validation only — fold to a byte; the checker never compares
            // non-ASCII span names.
            out += static_cast<char>(value & 0xff);
            pos_ += 4;
            break;
          }
          default:
            return fail("unknown escape sequence");
        }
        pos_ += 2;
        continue;
      }
      out += c;
      ++pos_;
    }
    return fail("unterminated string");
  }

  bool parse_bool(JsonValue& out) {
    out.kind = JsonValue::Kind::kBool;
    if (text_.compare(pos_, 4, "true") == 0) {
      out.boolean = true;
      pos_ += 4;
      return true;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      out.boolean = false;
      pos_ += 5;
      return true;
    }
    return fail("bad literal");
  }

  bool parse_null(JsonValue& out) {
    out.kind = JsonValue::Kind::kNull;
    if (text_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      return true;
    }
    return fail("bad literal");
  }

  bool parse_number(JsonValue& out) {
    out.kind = JsonValue::Kind::kNumber;
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    if (pos_ >= text_.size() ||
        std::isdigit(static_cast<unsigned char>(text_[pos_])) == 0) {
      return fail("expected a number");
    }
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (pos_ >= text_.size() ||
          std::isdigit(static_cast<unsigned char>(text_[pos_])) == 0) {
        return fail("expected digits after decimal point");
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= text_.size() ||
          std::isdigit(static_cast<unsigned char>(text_[pos_])) == 0) {
        return fail("expected exponent digits");
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0) {
        ++pos_;
      }
    }
    out.number = std::stod(text_.substr(start, pos_ - start));
    return true;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  std::string error_;
};

std::string require_field(const JsonValue& event, std::size_t index,
                          const std::string& key, JsonValue::Kind kind,
                          const JsonValue** out) {
  const JsonValue* value = event.find(key);
  if (value == nullptr) {
    return "event " + std::to_string(index) + " is missing \"" + key + "\"";
  }
  if (value->kind != kind) {
    return "event " + std::to_string(index) + " field \"" + key +
           "\" has the wrong type";
  }
  *out = value;
  return "";
}

}  // namespace

std::string check_trace(const std::string& json) {
  JsonParser parser(json);
  JsonValue doc;
  if (!parser.parse(doc)) return "invalid JSON: " + parser.error();
  if (doc.kind != JsonValue::Kind::kObject) {
    return "top-level value is not an object";
  }
  const JsonValue* events = doc.find("traceEvents");
  if (events == nullptr) return "missing \"traceEvents\"";
  if (events->kind != JsonValue::Kind::kArray) {
    return "\"traceEvents\" is not an array";
  }

  // Per-(pid, tid) stacks of open span names: B pushes, a matching E
  // pops, anything else is an imbalance.
  std::map<std::pair<double, double>, std::vector<std::string>> open;
  for (std::size_t i = 0; i < events->array.size(); ++i) {
    const JsonValue& event = events->array[i];
    if (event.kind != JsonValue::Kind::kObject) {
      return "event " + std::to_string(i) + " is not an object";
    }
    const JsonValue* name = nullptr;
    const JsonValue* cat = nullptr;
    const JsonValue* ph = nullptr;
    const JsonValue* ts = nullptr;
    const JsonValue* pid = nullptr;
    const JsonValue* tid = nullptr;
    const struct {
      const char* key;
      JsonValue::Kind kind;
      const JsonValue** out;
    } fields[] = {{"name", JsonValue::Kind::kString, &name},
                  {"cat", JsonValue::Kind::kString, &cat},
                  {"ph", JsonValue::Kind::kString, &ph},
                  {"ts", JsonValue::Kind::kNumber, &ts},
                  {"pid", JsonValue::Kind::kNumber, &pid},
                  {"tid", JsonValue::Kind::kNumber, &tid}};
    for (const auto& field : fields) {
      const std::string error =
          require_field(event, i, field.key, field.kind, field.out);
      if (!error.empty()) return error;
    }
    (void)cat;
    (void)ts;
    // "args" is optional; when present it must be an object of string or
    // number values (the only kinds TraceArgs emits).
    if (const JsonValue* args = event.find("args")) {
      if (args->kind != JsonValue::Kind::kObject) {
        return "event " + std::to_string(i) + " field \"args\" is not an "
               "object";
      }
      for (const auto& [key, value] : args->object) {
        if (value.kind != JsonValue::Kind::kString &&
            value.kind != JsonValue::Kind::kNumber) {
          return "event " + std::to_string(i) + " arg \"" + key +
                 "\" is neither a string nor a number";
        }
      }
    }
    const auto lane = std::make_pair(pid->number, tid->number);
    if (ph->str == "B") {
      open[lane].push_back(name->str);
    } else if (ph->str == "E") {
      auto& stack = open[lane];
      if (stack.empty()) {
        return "event " + std::to_string(i) + " ends span \"" + name->str +
               "\" with no open span on its thread";
      }
      if (stack.back() != name->str) {
        return "event " + std::to_string(i) + " ends span \"" + name->str +
               "\" but \"" + stack.back() + "\" is open";
      }
      stack.pop_back();
    } else if (ph->str != "i") {
      return "event " + std::to_string(i) + " has unsupported phase \"" +
             ph->str + "\"";
    }
  }
  for (const auto& [lane, stack] : open) {
    if (!stack.empty()) {
      return "span \"" + stack.back() + "\" on tid " +
             std::to_string(lane.second) + " is never closed";
    }
  }
  return "";
}

}  // namespace ddtr::obs
