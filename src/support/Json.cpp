//===- support/Json.cpp - Minimal JSON writer and reader -------------------===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace sest;

//===----------------------------------------------------------------------===//
// Formatting helpers
//===----------------------------------------------------------------------===//

std::string sest::jsonEscape(std::string_view S) {
  std::string Out;
  Out.reserve(S.size());
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
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x",
                      static_cast<unsigned>(static_cast<unsigned char>(C)));
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  return Out;
}

std::string sest::jsonNumber(double Value) {
  if (!std::isfinite(Value))
    return "null";
  // Integral values within int64 range print exactly, without a point.
  if (Value == std::floor(Value) && std::fabs(Value) < 9.0e15) {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%lld",
                  static_cast<long long>(Value));
    return Buf;
  }
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", Value);
  // Prefer the shortest representation that round-trips.
  for (int Prec = 1; Prec < 17; ++Prec) {
    char Short[40];
    std::snprintf(Short, sizeof(Short), "%.*g", Prec, Value);
    if (std::strtod(Short, nullptr) == Value)
      return Short;
  }
  return Buf;
}

//===----------------------------------------------------------------------===//
// JsonWriter
//===----------------------------------------------------------------------===//

void JsonWriter::beforeValue() {
  if (Stack.empty())
    return;
  auto &Top = Stack.back();
  if (Top.first == Scope::Object) {
    assert(PendingKey && "object value written without a key");
    PendingKey = false;
    return;
  }
  if (Top.second > 0)
    Out += ',';
  ++Top.second;
}

JsonWriter &JsonWriter::key(std::string_view K) {
  assert(!Stack.empty() && Stack.back().first == Scope::Object &&
         "key() outside an object");
  assert(!PendingKey && "two keys in a row");
  if (Stack.back().second > 0)
    Out += ',';
  ++Stack.back().second;
  Out += '"';
  Out += jsonEscape(K);
  Out += "\":";
  PendingKey = true;
  return *this;
}

JsonWriter &JsonWriter::beginObject() {
  beforeValue();
  Out += '{';
  Stack.push_back({Scope::Object, 0});
  return *this;
}

JsonWriter &JsonWriter::endObject() {
  assert(!Stack.empty() && Stack.back().first == Scope::Object &&
         "endObject() without a matching beginObject()");
  assert(!PendingKey && "object closed after a key with no value");
  Stack.pop_back();
  Out += '}';
  return *this;
}

JsonWriter &JsonWriter::beginArray() {
  beforeValue();
  Out += '[';
  Stack.push_back({Scope::Array, 0});
  return *this;
}

JsonWriter &JsonWriter::endArray() {
  assert(!Stack.empty() && Stack.back().first == Scope::Array &&
         "endArray() without a matching beginArray()");
  Stack.pop_back();
  Out += ']';
  return *this;
}

JsonWriter &JsonWriter::value(std::string_view S) {
  beforeValue();
  Out += '"';
  Out += jsonEscape(S);
  Out += '"';
  return *this;
}

JsonWriter &JsonWriter::rawValue(std::string_view Json) {
  beforeValue();
  Out += Json;
  return *this;
}

JsonWriter &JsonWriter::value(double V) {
  beforeValue();
  Out += jsonNumber(V);
  return *this;
}

JsonWriter &JsonWriter::value(int64_t V) {
  beforeValue();
  Out += std::to_string(V);
  return *this;
}

JsonWriter &JsonWriter::value(uint64_t V) {
  beforeValue();
  Out += std::to_string(V);
  return *this;
}

JsonWriter &JsonWriter::value(bool V) {
  beforeValue();
  Out += V ? "true" : "false";
  return *this;
}

JsonWriter &JsonWriter::nullValue() {
  beforeValue();
  Out += "null";
  return *this;
}

//===----------------------------------------------------------------------===//
// Reader
//===----------------------------------------------------------------------===//

const JsonValue *JsonValue::find(std::string_view Key) const {
  if (K != Kind::Object)
    return nullptr;
  for (const auto &[Name, V] : Members)
    if (Name == Key)
      return &V;
  return nullptr;
}

double JsonValue::numberOr(std::string_view Key, double Default) const {
  const JsonValue *V = find(Key);
  return V && V->isNumber() ? V->NumberVal : Default;
}

namespace {

class JsonParser {
public:
  explicit JsonParser(std::string_view Text) : Text(Text) {}

  std::optional<JsonValue> parse() {
    std::optional<JsonValue> V = parseValue();
    if (!V)
      return std::nullopt;
    skipWs();
    if (Pos != Text.size())
      return std::nullopt; // trailing garbage
    return V;
  }

private:
  static constexpr unsigned MaxDepth = 256;

  void skipWs() {
    while (Pos < Text.size() &&
           std::isspace(static_cast<unsigned char>(Text[Pos])))
      ++Pos;
  }
  char peek() { return Pos < Text.size() ? Text[Pos] : '\0'; }
  bool consumeLiteral(std::string_view Lit) {
    if (Text.substr(Pos, Lit.size()) != Lit)
      return false;
    Pos += Lit.size();
    return true;
  }

  std::optional<JsonValue> parseValue() {
    if (++Depth > MaxDepth)
      return std::nullopt;
    struct DepthGuard {
      unsigned &D;
      ~DepthGuard() { --D; }
    } Guard{Depth};

    skipWs();
    JsonValue V;
    switch (peek()) {
    case '{': {
      ++Pos;
      V.K = JsonValue::Kind::Object;
      skipWs();
      if (peek() == '}') {
        ++Pos;
        return V;
      }
      while (true) {
        skipWs();
        if (peek() != '"')
          return std::nullopt;
        std::optional<std::string> Key = parseString();
        if (!Key)
          return std::nullopt;
        skipWs();
        if (peek() != ':')
          return std::nullopt;
        ++Pos;
        std::optional<JsonValue> Member = parseValue();
        if (!Member)
          return std::nullopt;
        V.Members.emplace_back(std::move(*Key), std::move(*Member));
        skipWs();
        if (peek() == ',') {
          ++Pos;
          continue;
        }
        if (peek() == '}') {
          ++Pos;
          return V;
        }
        return std::nullopt;
      }
    }
    case '[': {
      ++Pos;
      V.K = JsonValue::Kind::Array;
      skipWs();
      if (peek() == ']') {
        ++Pos;
        return V;
      }
      while (true) {
        std::optional<JsonValue> Item = parseValue();
        if (!Item)
          return std::nullopt;
        V.Items.push_back(std::move(*Item));
        skipWs();
        if (peek() == ',') {
          ++Pos;
          continue;
        }
        if (peek() == ']') {
          ++Pos;
          return V;
        }
        return std::nullopt;
      }
    }
    case '"': {
      std::optional<std::string> S = parseString();
      if (!S)
        return std::nullopt;
      V.K = JsonValue::Kind::String;
      V.StringVal = std::move(*S);
      return V;
    }
    case 't':
      if (!consumeLiteral("true"))
        return std::nullopt;
      V.K = JsonValue::Kind::Bool;
      V.BoolVal = true;
      return V;
    case 'f':
      if (!consumeLiteral("false"))
        return std::nullopt;
      V.K = JsonValue::Kind::Bool;
      V.BoolVal = false;
      return V;
    case 'n':
      if (!consumeLiteral("null"))
        return std::nullopt;
      V.K = JsonValue::Kind::Null;
      return V;
    default:
      return parseNumber();
    }
  }

  std::optional<std::string> parseString() {
    // Caller ensured peek() == '"'.
    ++Pos;
    std::string Out;
    // Each run up to the next backslash or quote is appended in one call.
    // Backslashes are searched for only before the next quote, so the scan
    // never runs past the end of the string.
    size_t Quote = 0;
    for (;;) {
      if (Quote < Pos) {
        Quote = Text.find('"', Pos);
        if (Quote == std::string_view::npos)
          return std::nullopt; // unterminated
      }
      const char *Run = Text.data() + Pos;
      const auto *Esc =
          static_cast<const char *>(std::memchr(Run, '\\', Quote - Pos));
      const size_t Stop = Esc ? static_cast<size_t>(Esc - Text.data()) : Quote;
      Out.append(Run, Stop - Pos);
      Pos = Stop + 1;
      if (Stop == Quote)
        return Out;
      if (Pos >= Text.size())
        return std::nullopt;
      char E = Text[Pos++];
      switch (E) {
      case '"':
      case '\\':
      case '/':
        Out += E;
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
          return std::nullopt;
        unsigned Code = 0;
        for (int I = 0; I < 4; ++I) {
          char H = Text[Pos++];
          Code <<= 4;
          if (H >= '0' && H <= '9')
            Code += H - '0';
          else if (H >= 'a' && H <= 'f')
            Code += H - 'a' + 10;
          else if (H >= 'A' && H <= 'F')
            Code += H - 'A' + 10;
          else
            return std::nullopt;
        }
        // Basic-multilingual-plane only; encode as UTF-8.
        if (Code < 0x80) {
          Out += static_cast<char>(Code);
        } else if (Code < 0x800) {
          Out += static_cast<char>(0xC0 | (Code >> 6));
          Out += static_cast<char>(0x80 | (Code & 0x3F));
        } else {
          Out += static_cast<char>(0xE0 | (Code >> 12));
          Out += static_cast<char>(0x80 | ((Code >> 6) & 0x3F));
          Out += static_cast<char>(0x80 | (Code & 0x3F));
        }
        break;
      }
      default:
        return std::nullopt;
      }
    }
  }

  std::optional<JsonValue> parseNumber() {
    size_t Start = Pos;
    if (peek() == '-')
      ++Pos;
    while (std::isdigit(static_cast<unsigned char>(peek())))
      ++Pos;
    if (peek() == '.') {
      ++Pos;
      while (std::isdigit(static_cast<unsigned char>(peek())))
        ++Pos;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++Pos;
      if (peek() == '+' || peek() == '-')
        ++Pos;
      while (std::isdigit(static_cast<unsigned char>(peek())))
        ++Pos;
    }
    if (Pos == Start)
      return std::nullopt;
    std::string Num(Text.substr(Start, Pos - Start));
    char *End = nullptr;
    double D = std::strtod(Num.c_str(), &End);
    if (End != Num.c_str() + Num.size())
      return std::nullopt;
    JsonValue V;
    V.K = JsonValue::Kind::Number;
    V.NumberVal = D;
    return V;
  }

  std::string_view Text;
  size_t Pos = 0;
  unsigned Depth = 0;
};

} // namespace

std::optional<JsonValue> sest::parseJson(std::string_view Text) {
  return JsonParser(Text).parse();
}
