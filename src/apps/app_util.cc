#include "src/apps/app_util.h"

#include <cinttypes>
#include <cstdio>

#include "src/common/digest.h"

namespace karousos {

namespace {

// Lowercase hex with no leading zeros — the exact bytes the historical
// ostringstream << std::hex formatting produced.
std::string HexString(uint64_t h) {
  char buf[17];
  int n = std::snprintf(buf, sizeof(buf), "%" PRIx64, h);
  return std::string(buf, static_cast<size_t>(n));
}

// The simulated expensive computation. The result depends only on the
// operand's digest and the unit count, which is what makes DigestMemo-keyed
// caching exact rather than approximate.
std::string ExpensiveHex(uint64_t digest, uint64_t units) {
  uint64_t h = digest;
  for (uint64_t i = 0; i < units; ++i) {
    h = Avalanche(h + i);
  }
  return HexString(h);
}

}  // namespace

MultiValue MvField(const MultiValue& mv, std::string_view key) {
  return MultiValue::Map(mv, [key](const Value& v) { return v.Field(key); });
}

MultiValue MvMapGet(const MultiValue& map, const MultiValue& key) {
  return MultiValue::Zip(map, key, [](const Value& m, const Value& k) {
    return m.Field(k.StringOrToString());
  });
}

MultiValue MvMapSet(const MultiValue& map, const MultiValue& key, const MultiValue& value) {
  return MvZip3(map, key, value, [](const Value& m, const Value& k, const Value& v) {
    ValueMap out = m.is_map() ? m.AsMap() : ValueMap{};
    out[k.StringOrToString()] = v;
    return Value(std::move(out));
  });
}

MultiValue MvMapErase(const MultiValue& map, const MultiValue& key) {
  return MultiValue::Zip(map, key, [](const Value& m, const Value& k) {
    ValueMap out = m.is_map() ? m.AsMap() : ValueMap{};
    out.erase(k.StringOrToString());
    return Value(std::move(out));
  });
}

MultiValue MvMapHas(const MultiValue& map, const MultiValue& key) {
  return MultiValue::Zip(map, key, [](const Value& m, const Value& k) {
    return Value(m.HasField(k.StringOrToString()));
  });
}

MultiValue MvMapSize(const MultiValue& map) {
  return MultiValue::Map(map, [](const Value& m) {
    return Value(static_cast<int64_t>(m.is_map() ? m.AsMap().size() : 0));
  });
}

MultiValue MvListAppend(const MultiValue& list, const MultiValue& item) {
  return MultiValue::Zip(list, item, [](const Value& l, const Value& x) {
    ValueList out = l.is_list() ? l.AsList() : ValueList{};
    out.push_back(x);
    return Value(std::move(out));
  });
}

MultiValue MvListLen(const MultiValue& list) {
  return MultiValue::Map(list, [](const Value& l) {
    return Value(static_cast<int64_t>(l.is_list() ? l.AsList().size() : 0));
  });
}

MultiValue MvListGet(const MultiValue& list, int64_t index) {
  return MultiValue::Map(list, [index](const Value& l) {
    if (!l.is_list() || index < 0 || static_cast<size_t>(index) >= l.AsList().size()) {
      return Value();
    }
    return l.AsList()[static_cast<size_t>(index)];
  });
}

MultiValue MvNot(const MultiValue& mv) {
  return MultiValue::Map(mv, [](const Value& v) { return Value(!v.Truthy()); });
}

MultiValue MvAnd(const MultiValue& a, const MultiValue& b) {
  return MultiValue::Zip(
      a, b, [](const Value& x, const Value& y) { return Value(x.Truthy() && y.Truthy()); });
}

MultiValue MvLtScalar(int64_t scalar, const MultiValue& mv) {
  return MultiValue::Map(mv, [scalar](const Value& v) { return Value(scalar < v.IntOr(0)); });
}

MultiValue MvContentDigest(const MultiValue& mv) {
  return MultiValue::Map(mv, [](const Value& v) {
    return Value("d" + HexString(DigestOf(v.ToString())));
  });
}

MultiValue MvExpensive(const MultiValue& mv, uint32_t units) {
  return MultiValue::Map(mv, [units](const Value& v) {
    return Value(ExpensiveHex(v.DigestValue(), units));
  });
}

MultiValue MvExpensiveMemo(const MultiValue& mv, uint32_t units, DigestMemo* memo) {
  return MultiValue::Map(mv, [units, memo](const Value& v) {
    return Value(memo->GetOrCompute(v.DigestValue(), units, ExpensiveHex));
  });
}

MultiValue MvZip3(const MultiValue& a, const MultiValue& b, const MultiValue& c,
                  const std::function<Value(const Value&, const Value&, const Value&)>& f) {
  MultiValue ab = MultiValue::Zip(a, b, [](const Value& x, const Value& y) {
    return Value(ValueList{x, y});
  });
  return MultiValue::Zip(ab, c, [&f](const Value& xy, const Value& z) {
    return f(xy.AsList()[0], xy.AsList()[1], z);
  });
}

MultiValue MvMakeMap(std::initializer_list<std::pair<std::string, MultiValue>> fields) {
  MultiValue acc{Value(ValueMap{})};
  for (const auto& [key, mv] : fields) {
    std::string k = key;
    acc = MultiValue::Zip(acc, mv, [k](const Value& m, const Value& v) {
      ValueMap out = m.AsMap();
      out[k] = v;
      return Value(std::move(out));
    });
  }
  return acc;
}

MultiValue MvPrefix(std::string_view prefix, const MultiValue& mv) {
  std::string p(prefix);
  return MultiValue::Map(mv, [p](const Value& v) { return Value(p + v.StringOrToString()); });
}

}  // namespace karousos
