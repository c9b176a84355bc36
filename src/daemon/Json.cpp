//===- Json.cpp -----------------------------------------------------------===//

#include "daemon/Json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

using namespace limpet;
using namespace limpet::daemon;

//===----------------------------------------------------------------------===//
// Accessors
//===----------------------------------------------------------------------===//

const JsonValue *JsonValue::find(std::string_view Key) const {
  if (K != Kind::Object)
    return nullptr;
  for (const auto &[Name, Value] : Members)
    if (Name == Key)
      return &Value;
  return nullptr;
}

double JsonValue::numberOr(std::string_view Key, double Default) const {
  const JsonValue *V = find(Key);
  return V && V->isNumber() ? V->asNumber() : Default;
}

int64_t JsonValue::intOr(std::string_view Key, int64_t Default) const {
  return intField(Key, Default, INT64_MIN, INT64_MAX).valueOr(Default);
}

Expected<int64_t> JsonValue::intField(std::string_view Key, int64_t Default,
                                      int64_t Lo, int64_t Hi) const {
  const JsonValue *V = find(Key);
  if (!V)
    return Default;
  // Only an integral double in int64_t's range converts without undefined
  // behaviour (NaN, +-Inf and 1e19 do not).
  double D = V->isNumber() ? V->Num : 0.5;
  if (D == std::trunc(D) && D >= -0x1p63 && D < 0x1p63 &&
      int64_t(D) >= Lo && int64_t(D) <= Hi)
    return int64_t(D);
  return Status::error("'" + std::string(Key) + "' must be an integer in [" +
                       std::to_string(Lo) + ", " + std::to_string(Hi) + "]");
}

bool JsonValue::boolOr(std::string_view Key, bool Default) const {
  const JsonValue *V = find(Key);
  return V && V->isBool() ? V->asBool() : Default;
}

std::string JsonValue::stringOr(std::string_view Key,
                                std::string_view Default) const {
  const JsonValue *V = find(Key);
  return V && V->isString() ? V->asString() : std::string(Default);
}

JsonValue &JsonValue::set(std::string_view Key, JsonValue V) {
  if (K != Kind::Object)
    return *this;
  for (auto &[Name, Value] : Members)
    if (Name == Key) {
      Value = std::move(V);
      return *this;
    }
  Members.emplace_back(std::string(Key), std::move(V));
  return *this;
}

JsonValue &JsonValue::push(JsonValue V) {
  if (K == Kind::Array)
    Items.push_back(std::move(V));
  return *this;
}

//===----------------------------------------------------------------------===//
// Serialization
//===----------------------------------------------------------------------===//

static void escapeInto(std::string &Out, std::string_view S) {
  Out += '"';
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (uint8_t(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", unsigned(uint8_t(C)));
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  Out += '"';
}

static void renderInto(std::string &Out, const JsonValue &V) {
  switch (V.kind()) {
  case JsonValue::Kind::Null:
    Out += "null";
    break;
  case JsonValue::Kind::Bool:
    Out += V.asBool() ? "true" : "false";
    break;
  case JsonValue::Kind::Number: {
    double D = V.asNumber();
    if (!std::isfinite(D)) {
      // JSON has no Inf/NaN; the protocol never sends them, but a checksum
      // of a blown-up population could. Render as null, never bad JSON.
      Out += "null";
      break;
    }
    char Buf[40];
    // %.17g round-trips any double; trim to integer form when exact so
    // ids and counts render as plain integers.
    if (D == double(int64_t(D)) && std::fabs(D) < 9.0e15)
      std::snprintf(Buf, sizeof(Buf), "%lld", (long long)(int64_t)D);
    else
      std::snprintf(Buf, sizeof(Buf), "%.17g", D);
    Out += Buf;
    break;
  }
  case JsonValue::Kind::String:
    escapeInto(Out, V.asString());
    break;
  case JsonValue::Kind::Object: {
    Out += '{';
    bool First = true;
    for (const auto &[Name, Member] : V.members()) {
      if (!First)
        Out += ',';
      First = false;
      escapeInto(Out, Name);
      Out += ':';
      renderInto(Out, Member);
    }
    Out += '}';
    break;
  }
  case JsonValue::Kind::Array: {
    Out += '[';
    bool First = true;
    for (const JsonValue &Item : V.items()) {
      if (!First)
        Out += ',';
      First = false;
      renderInto(Out, Item);
    }
    Out += ']';
    break;
  }
  }
}

std::string JsonValue::str() const {
  std::string Out;
  renderInto(Out, *this);
  return Out;
}

//===----------------------------------------------------------------------===//
// Parsing
//===----------------------------------------------------------------------===//

namespace {

/// Recursive-descent parser over one line. Depth-limited so a hostile
/// client cannot overflow the stack with "[[[[[...".
class Parser {
public:
  explicit Parser(std::string_view Text) : Text(Text) {}

  Expected<JsonValue> run() {
    JsonValue V;
    Status S = value(V, 0);
    if (!S)
      return S;
    skipWs();
    if (Pos != Text.size())
      return Status::error("trailing bytes after JSON value");
    return V;
  }

private:
  static constexpr int kMaxDepth = 32;

  std::string_view Text;
  size_t Pos = 0;

  void skipWs() {
    while (Pos < Text.size() && (Text[Pos] == ' ' || Text[Pos] == '\t' ||
                                 Text[Pos] == '\n' || Text[Pos] == '\r'))
      ++Pos;
  }

  bool eat(char C) {
    if (Pos < Text.size() && Text[Pos] == C) {
      ++Pos;
      return true;
    }
    return false;
  }

  Status fail(const char *Msg) {
    return Status::error(std::string("JSON parse error at byte ") +
                         std::to_string(Pos) + ": " + Msg);
  }

  Status value(JsonValue &Out, int Depth) {
    if (Depth > kMaxDepth)
      return fail("nesting too deep");
    skipWs();
    if (Pos >= Text.size())
      return fail("unexpected end of input");
    char C = Text[Pos];
    if (C == '{')
      return object(Out, Depth);
    if (C == '[')
      return array(Out, Depth);
    if (C == '"') {
      std::string S;
      if (Status St = stringLit(S); !St)
        return St;
      Out = JsonValue::string(std::move(S));
      return Status::success();
    }
    if (C == 't' || C == 'f')
      return boolean(Out);
    if (C == 'n') {
      if (Text.substr(Pos, 4) == "null") {
        Pos += 4;
        Out = JsonValue::null();
        return Status::success();
      }
      return fail("bad literal");
    }
    return number(Out);
  }

  Status object(JsonValue &Out, int Depth) {
    ++Pos; // '{'
    Out = JsonValue::object();
    skipWs();
    if (eat('}'))
      return Status::success();
    while (true) {
      skipWs();
      if (Pos >= Text.size() || Text[Pos] != '"')
        return fail("expected object key");
      std::string Key;
      if (Status St = stringLit(Key); !St)
        return St;
      skipWs();
      if (!eat(':'))
        return fail("expected ':' after object key");
      JsonValue V;
      if (Status St = value(V, Depth + 1); !St)
        return St;
      Out.set(Key, std::move(V));
      skipWs();
      if (eat(','))
        continue;
      if (eat('}'))
        return Status::success();
      return fail("expected ',' or '}' in object");
    }
  }

  Status array(JsonValue &Out, int Depth) {
    ++Pos; // '['
    Out = JsonValue::array();
    skipWs();
    if (eat(']'))
      return Status::success();
    while (true) {
      JsonValue V;
      if (Status St = value(V, Depth + 1); !St)
        return St;
      Out.push(std::move(V));
      skipWs();
      if (eat(','))
        continue;
      if (eat(']'))
        return Status::success();
      return fail("expected ',' or ']' in array");
    }
  }

  Status boolean(JsonValue &Out) {
    if (Text.substr(Pos, 4) == "true") {
      Pos += 4;
      Out = JsonValue::boolean(true);
      return Status::success();
    }
    if (Text.substr(Pos, 5) == "false") {
      Pos += 5;
      Out = JsonValue::boolean(false);
      return Status::success();
    }
    return fail("bad literal");
  }

  Status number(JsonValue &Out) {
    size_t Start = Pos;
    if (Pos < Text.size() && (Text[Pos] == '-' || Text[Pos] == '+'))
      ++Pos;
    bool SawDigit = false;
    while (Pos < Text.size() &&
           (std::isdigit(uint8_t(Text[Pos])) || Text[Pos] == '.' ||
            Text[Pos] == 'e' || Text[Pos] == 'E' || Text[Pos] == '-' ||
            Text[Pos] == '+')) {
      SawDigit |= std::isdigit(uint8_t(Text[Pos])) != 0;
      ++Pos;
    }
    if (!SawDigit)
      return fail("expected a value");
    std::string Lit(Text.substr(Start, Pos - Start));
    char *End = nullptr;
    double D = std::strtod(Lit.c_str(), &End);
    if (End != Lit.c_str() + Lit.size())
      return fail("malformed number");
    Out = JsonValue::number(D);
    return Status::success();
  }

  Status stringLit(std::string &Out) {
    ++Pos; // '"'
    Out.clear();
    while (Pos < Text.size()) {
      char C = Text[Pos];
      if (C == '"') {
        ++Pos;
        return Status::success();
      }
      if (C == '\\') {
        ++Pos;
        if (Pos >= Text.size())
          break;
        char E = Text[Pos++];
        switch (E) {
        case '"':
          Out += '"';
          break;
        case '\\':
          Out += '\\';
          break;
        case '/':
          Out += '/';
          break;
        case 'n':
          Out += '\n';
          break;
        case 'r':
          Out += '\r';
          break;
        case 't':
          Out += '\t';
          break;
        case 'b':
          Out += '\b';
          break;
        case 'f':
          Out += '\f';
          break;
        case 'u': {
          if (Pos + 4 > Text.size())
            return fail("truncated \\u escape");
          unsigned Code = 0;
          for (int I = 0; I != 4; ++I) {
            char H = Text[Pos++];
            Code <<= 4;
            if (H >= '0' && H <= '9')
              Code |= unsigned(H - '0');
            else if (H >= 'a' && H <= 'f')
              Code |= unsigned(H - 'a' + 10);
            else if (H >= 'A' && H <= 'F')
              Code |= unsigned(H - 'A' + 10);
            else
              return fail("bad \\u escape digit");
          }
          // Encode the code point as UTF-8 (BMP only; surrogate pairs in
          // protocol strings are not expected and pass through as two
          // 3-byte sequences, which round-trips our own output).
          if (Code < 0x80) {
            Out += char(Code);
          } else if (Code < 0x800) {
            Out += char(0xC0 | (Code >> 6));
            Out += char(0x80 | (Code & 0x3F));
          } else {
            Out += char(0xE0 | (Code >> 12));
            Out += char(0x80 | ((Code >> 6) & 0x3F));
            Out += char(0x80 | (Code & 0x3F));
          }
          break;
        }
        default:
          return fail("bad escape character");
        }
        continue;
      }
      Out += C;
      ++Pos;
    }
    return fail("unterminated string");
  }
};

} // namespace

Expected<JsonValue> JsonValue::parse(std::string_view Text) {
  return Parser(Text).run();
}
