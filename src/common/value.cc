#include "src/common/value.h"

#include <sstream>

#include "src/common/digest.h"

namespace karousos {

namespace {

const Value kNullValue{};

void AppendJson(const Value& v, std::ostringstream& out) {
  switch (v.kind()) {
    case Value::Kind::kNull:
      out << "null";
      break;
    case Value::Kind::kBool:
      out << (v.AsBool() ? "true" : "false");
      break;
    case Value::Kind::kInt:
      out << v.AsInt();
      break;
    case Value::Kind::kDouble:
      out << v.AsDouble();
      break;
    case Value::Kind::kString:
      out << '"';
      for (char c : v.AsString()) {
        if (c == '"' || c == '\\') {
          out << '\\';
        }
        out << c;
      }
      out << '"';
      break;
    case Value::Kind::kList: {
      out << '[';
      bool first = true;
      for (const Value& item : v.AsList()) {
        if (!first) {
          out << ',';
        }
        first = false;
        AppendJson(item, out);
      }
      out << ']';
      break;
    }
    case Value::Kind::kMap: {
      out << '{';
      bool first = true;
      for (const auto& [key, item] : v.AsMap()) {
        if (!first) {
          out << ',';
        }
        first = false;
        out << '"' << key << "\":";
        AppendJson(item, out);
      }
      out << '}';
      break;
    }
  }
}

void DigestInto(const Value& v, Digest& d) {
  d.Update(static_cast<uint64_t>(v.kind()));
  switch (v.kind()) {
    case Value::Kind::kNull:
      break;
    case Value::Kind::kBool:
      d.Update(static_cast<uint64_t>(v.AsBool()));
      break;
    case Value::Kind::kInt:
      d.Update(static_cast<uint64_t>(v.AsInt()));
      break;
    case Value::Kind::kDouble: {
      double x = v.AsDouble();
      uint64_t bits;
      static_assert(sizeof(bits) == sizeof(x));
      __builtin_memcpy(&bits, &x, sizeof(bits));
      d.Update(bits);
      break;
    }
    case Value::Kind::kString:
      d.Update(v.AsString());
      break;
    case Value::Kind::kList:
      d.Update(static_cast<uint64_t>(v.AsList().size()));
      for (const Value& item : v.AsList()) {
        DigestInto(item, d);
      }
      break;
    case Value::Kind::kMap:
      d.Update(static_cast<uint64_t>(v.AsMap().size()));
      for (const auto& [key, item] : v.AsMap()) {
        d.Update(key);
        DigestInto(item, d);
      }
      break;
  }
}

}  // namespace

bool Value::Truthy() const {
  switch (kind()) {
    case Kind::kNull:
      return false;
    case Kind::kBool:
      return AsBool();
    case Kind::kInt:
      return AsInt() != 0;
    case Kind::kDouble:
      return AsDouble() != 0.0;
    case Kind::kString:
      return !AsString().empty();
    case Kind::kList:
      return !AsList().empty();
    case Kind::kMap:
      return !AsMap().empty();
  }
  return false;
}

const Value& Value::Field(std::string_view key) const {
  if (!is_map()) {
    return kNullValue;
  }
  auto it = AsMap().find(key);
  return it == AsMap().end() ? kNullValue : it->second;
}

bool Value::HasField(std::string_view key) const {
  return is_map() && AsMap().find(key) != AsMap().end();
}

uint64_t Value::DigestValue() const {
  Digest d;
  DigestInto(*this, d);
  return d.Finish();
}

std::string Value::ToString() const {
  std::ostringstream out;
  AppendJson(*this, out);
  return out.str();
}

bool operator==(const Value& a, const Value& b) {
  if (a.kind() != b.kind()) {
    return false;
  }
  switch (a.kind()) {
    case Value::Kind::kNull:
      return true;
    case Value::Kind::kBool:
      return a.AsBool() == b.AsBool();
    case Value::Kind::kInt:
      return a.AsInt() == b.AsInt();
    case Value::Kind::kDouble:
      return a.AsDouble() == b.AsDouble();
    case Value::Kind::kString:
      return a.AsString() == b.AsString();
    case Value::Kind::kList:
      return &a.AsList() == &b.AsList() || a.AsList() == b.AsList();
    case Value::Kind::kMap:
      return &a.AsMap() == &b.AsMap() || a.AsMap() == b.AsMap();
  }
  return false;
}

bool operator<(const Value& a, const Value& b) {
  if (a.kind() != b.kind()) {
    return static_cast<int>(a.kind()) < static_cast<int>(b.kind());
  }
  switch (a.kind()) {
    case Value::Kind::kNull:
      return false;
    case Value::Kind::kBool:
      return a.AsBool() < b.AsBool();
    case Value::Kind::kInt:
      return a.AsInt() < b.AsInt();
    case Value::Kind::kDouble:
      return a.AsDouble() < b.AsDouble();
    case Value::Kind::kString:
      return a.AsString() < b.AsString();
    case Value::Kind::kList:
      return a.AsList() < b.AsList();
    case Value::Kind::kMap:
      return a.AsMap() < b.AsMap();
  }
  return false;
}

Value MakeList(std::initializer_list<Value> items) { return Value(ValueList(items)); }

Value MakeMap(std::initializer_list<std::pair<std::string, Value>> fields) {
  ValueMap m;
  for (const auto& [k, v] : fields) {
    m.emplace(k, v);
  }
  return Value(std::move(m));
}

}  // namespace karousos
