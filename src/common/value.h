// A JSON-like dynamic value: the datatype that flows through applications,
// request inputs, responses, program variables, and the transactional store.
// It plays the role JavaScript values play in the paper's implementation.
//
// Values have a canonical byte encoding (Encode/Decode in src/common/serde.h
// helpers below) used for (a) response comparison against the trace, (b)
// advice size accounting, and (c) value digests feeding control-flow and
// simulate-and-check logic.
//
// Lists and maps are immutable, reference-counted nodes: copying a Value
// costs O(1) whatever its size, and copies alias one node. "Mutation" builds
// a new node (copy the list/map out, edit, wrap). Refcounts are atomic, so
// one node may be read and released from many audit threads at once.
#ifndef SRC_COMMON_VALUE_H_
#define SRC_COMMON_VALUE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace karousos {

class Value;

using ValueList = std::vector<Value>;
// Transparent comparator: Field/HasField look keys up by string_view
// without building a std::string. Iteration order (and so the encoding) is
// plain std::string order.
using ValueMap = std::map<std::string, Value, std::less<>>;

// Nesting bound for every decoder that builds Values from untrusted bytes
// (ByteReader::ReadValue, which the KSEG codec also uses, and ParseJson).
// Far above anything an app builds; deeper input is malformed, so recursion
// depth stays bounded.
inline constexpr int kMaxValueDepth = 256;

class Value {
 public:
  enum class Kind { kNull, kBool, kInt, kDouble, kString, kList, kMap };

  Value() : rep_(std::monostate{}) {}
  Value(bool b) : rep_(b) {}                      // NOLINT(google-explicit-constructor)
  Value(int64_t i) : rep_(i) {}                   // NOLINT(google-explicit-constructor)
  Value(int i) : rep_(static_cast<int64_t>(i)) {} // NOLINT(google-explicit-constructor)
  Value(uint64_t i) : rep_(static_cast<int64_t>(i)) {}  // NOLINT
  Value(double d) : rep_(d) {}                    // NOLINT(google-explicit-constructor)
  Value(const char* s) : rep_(std::string(s)) {}  // NOLINT(google-explicit-constructor)
  Value(std::string s) : rep_(std::move(s)) {}    // NOLINT(google-explicit-constructor)
  Value(std::string_view s) : rep_(std::string(s)) {}  // NOLINT
  Value(ValueList l) : rep_(std::make_shared<const ValueList>(std::move(l))) {}  // NOLINT
  Value(ValueMap m) : rep_(std::make_shared<const ValueMap>(std::move(m))) {}    // NOLINT

  Kind kind() const { return static_cast<Kind>(rep_.index()); }
  bool is_null() const { return kind() == Kind::kNull; }
  bool is_bool() const { return kind() == Kind::kBool; }
  bool is_int() const { return kind() == Kind::kInt; }
  bool is_double() const { return kind() == Kind::kDouble; }
  bool is_string() const { return kind() == Kind::kString; }
  bool is_list() const { return kind() == Kind::kList; }
  bool is_map() const { return kind() == Kind::kMap; }

  // Accessors: the asserted accessors abort on kind mismatch (programming
  // error in application code); the *Or accessors return a default.
  bool AsBool() const { return std::get<bool>(rep_); }
  int64_t AsInt() const { return std::get<int64_t>(rep_); }
  double AsDouble() const { return std::get<double>(rep_); }
  const std::string& AsString() const { return std::get<std::string>(rep_); }
  const ValueList& AsList() const { return *std::get<ListNode>(rep_); }
  const ValueMap& AsMap() const { return *std::get<MapNode>(rep_); }

  int64_t IntOr(int64_t def) const { return is_int() ? AsInt() : def; }
  bool BoolOr(bool def) const { return is_bool() ? AsBool() : def; }
  std::string StringOr(std::string def) const { return is_string() ? AsString() : def; }
  // Lazy form of StringOr(v.ToString()): the common pattern evaluated
  // ToString() — an allocation and a format — even when the value already was
  // a string and the default got thrown away.
  std::string StringOrToString() const { return is_string() ? AsString() : ToString(); }

  // Truthiness, JavaScript-style: null/false/0/""/[]/{} are falsy.
  bool Truthy() const;

  // Map field access: returns null when absent or when this is not a map.
  const Value& Field(std::string_view key) const;
  bool HasField(std::string_view key) const;

  // 64-bit structural digest of the canonical encoding.
  uint64_t DigestValue() const;

  // Human-readable JSON-ish rendering, for diagnostics and trace dumps.
  std::string ToString() const;

  // Structural equality; two values aliasing one node compare equal without
  // walking it.
  friend bool operator==(const Value& a, const Value& b);
  friend bool operator!=(const Value& a, const Value& b) { return !(a == b); }
  // Total order across kinds (kind index first), used for deterministic
  // iteration in tests and workload generation.
  friend bool operator<(const Value& a, const Value& b);

 private:
  using ListNode = std::shared_ptr<const ValueList>;
  using MapNode = std::shared_ptr<const ValueMap>;
  std::variant<std::monostate, bool, int64_t, double, std::string, ListNode, MapNode> rep_;
};

// Convenience builders used pervasively by the applications.
Value MakeList(std::initializer_list<Value> items);
Value MakeMap(std::initializer_list<std::pair<std::string, Value>> fields);

}  // namespace karousos

#endif  // SRC_COMMON_VALUE_H_
