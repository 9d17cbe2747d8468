#include "src/common/serde.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstring>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/trace/trace.h"

namespace karousos {
namespace {

TEST(SerdeTest, VarintRoundTrip) {
  ByteWriter w;
  const uint64_t samples[] = {0, 1, 127, 128, 300, 1u << 20, ~uint64_t{0}};
  for (uint64_t v : samples) {
    w.WriteVarint(v);
  }
  ByteReader r(w.bytes());
  for (uint64_t v : samples) {
    auto got = r.ReadVarint();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, v);
  }
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerdeTest, ReserveGrowsCapacityWithoutChangingContents) {
  ByteWriter w;
  w.WriteVarint(300);
  const std::vector<uint8_t> before = w.bytes();
  w.Reserve(4096);
  EXPECT_EQ(w.bytes(), before);
  EXPECT_GE(w.capacity(), before.size() + 4096);

  // Writes within the reserved headroom must not reallocate.
  const uint8_t* data = w.bytes().data();
  for (int i = 0; i < 100; ++i) {
    w.WriteVarint(static_cast<uint64_t>(i) * 1234567);
  }
  EXPECT_EQ(w.bytes().data(), data);

  ByteReader r(w.bytes());
  EXPECT_EQ(*r.ReadVarint(), 300u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(*r.ReadVarint(), static_cast<uint64_t>(i) * 1234567);
  }
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerdeTest, ClearEmptiesButKeepsCapacityForReuse) {
  ByteWriter w;
  for (int i = 0; i < 256; ++i) {
    w.WriteFixed32(static_cast<uint32_t>(i));
  }
  const size_t cap = w.capacity();
  ASSERT_GT(cap, 0u);
  w.Clear();
  EXPECT_EQ(w.size(), 0u);
  EXPECT_TRUE(w.bytes().empty());
  // Clear is the scratch-buffer reuse primitive: capacity must survive so a
  // per-frame encoder doesn't re-grow from zero each frame.
  EXPECT_EQ(w.capacity(), cap);

  w.WriteString("after clear");
  ByteReader r(w.bytes());
  EXPECT_EQ(*r.ReadString(), "after clear");
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerdeTest, CounterMeasuresWhatAWriterWouldWrite) {
  const Value v = MakeMap({{"list", MakeList({1, -7, 2.5, "x", Value()})}, {"ok", true}});
  const uint8_t raw[] = {1, 2, 3};
  ByteWriter w;
  ByteWriter counter = ByteWriter::Counter();
  for (ByteWriter* out : {&w, &counter}) {
    out->Reserve(1 << 20);
    out->WriteVarint(300);
    out->WriteFixed64(~uint64_t{0});
    out->WriteFixed32(7);
    out->WriteByte(9);
    out->WriteBool(true);
    out->WriteString("abc");
    out->WriteValue(v);
    out->WriteBytes(raw, sizeof(raw));
  }
  EXPECT_EQ(counter.size(), w.size());
  EXPECT_TRUE(counter.bytes().empty());
  EXPECT_EQ(counter.capacity(), 0u);
  counter.Clear();
  EXPECT_EQ(counter.size(), 0u);
}

// One bit at a time, the definition of the reflected CRC-32 step.
uint32_t BitwiseCrcStep(uint32_t crc, uint8_t byte) {
  crc ^= byte;
  for (int bit = 0; bit < 8; ++bit) {
    crc = (crc >> 1) ^ (0xedb88320u & (0u - (crc & 1u)));
  }
  return crc;
}

TEST(SerdeTest, Crc32MatchesBitwiseReferenceAtEveryLengthAndAlignment) {
  const char* check = "123456789";
  EXPECT_EQ(Crc32(reinterpret_cast<const uint8_t*>(check), 9), 0xCBF43926u);
  Rng rng(29);
  std::vector<uint8_t> buf(4096 + 8);
  for (uint8_t& b : buf) {
    b = static_cast<uint8_t>(rng.Below(256));
  }
  for (size_t start = 0; start < 8; ++start) {
    uint32_t state = 0xffffffffu;
    for (size_t len = 0; len <= 4096; ++len) {
      ASSERT_EQ(Crc32(buf.data() + start, len), state ^ 0xffffffffu)
          << "start " << start << " len " << len;
      if (len < 4096) {
        state = BitwiseCrcStep(state, buf[start + len]);
      }
    }
  }
}

TEST(SerdeTest, TruncatedVarintFails) {
  std::vector<uint8_t> bytes = {0x80, 0x80};  // Continuation bits, no terminator.
  ByteReader r(bytes);
  EXPECT_FALSE(r.ReadVarint().has_value());
}

TEST(SerdeTest, StringRoundTripAndBounds) {
  ByteWriter w;
  w.WriteString("hello");
  w.WriteString("");
  ByteReader r(w.bytes());
  EXPECT_EQ(*r.ReadString(), "hello");
  EXPECT_EQ(*r.ReadString(), "");
  // A length prefix larger than the remaining buffer must fail cleanly.
  ByteWriter bad;
  bad.WriteVarint(1000);
  bad.WriteByte('x');
  ByteReader r2(bad.bytes());
  EXPECT_FALSE(r2.ReadString().has_value());
}

TEST(SerdeTest, StringViewRoundTripMatchesString) {
  ByteWriter w;
  w.WriteString("zero-copy");
  w.WriteString("");
  ByteReader r(w.bytes());
  auto v1 = r.ReadStringView();
  auto v2 = r.ReadStringView();
  ASSERT_TRUE(v1.has_value());
  ASSERT_TRUE(v2.has_value());
  EXPECT_EQ(*v1, "zero-copy");
  EXPECT_EQ(*v2, "");
  EXPECT_TRUE(r.AtEnd());
}

// Regression: the zero-copy reader must reject truncated buffers exactly
// where ReadString does — same inputs, same nullopt, same final position.
TEST(SerdeTest, StringViewRejectsTruncationLikeReadString) {
  const std::vector<std::vector<uint8_t>> malformed = {
      {},                    // No length prefix at all.
      {0x80, 0x80},          // Unterminated varint length.
      {0x05, 'a', 'b'},      // Length 5, only 2 payload bytes.
      {0xe8, 0x07, 'x'},     // Length 1000, 1 payload byte.
  };
  for (const auto& bytes : malformed) {
    ByteReader as_string(bytes);
    ByteReader as_view(bytes);
    auto s = as_string.ReadString();
    auto v = as_view.ReadStringView();
    EXPECT_FALSE(s.has_value());
    EXPECT_FALSE(v.has_value());
    EXPECT_EQ(as_string.remaining(), as_view.remaining());
  }
  // And a well-formed prefix must decode identically through both paths.
  ByteWriter w;
  w.WriteString("same bytes");
  ByteReader as_string(w.bytes());
  ByteReader as_view(w.bytes());
  EXPECT_EQ(*as_string.ReadString(), std::string(*as_view.ReadStringView()));
}

TEST(SerdeTest, ValueRoundTripAllKinds) {
  Value original = MakeMap({
      {"null", Value()},
      {"bool", Value(true)},
      {"neg", Value(-123456789)},
      {"dbl", Value(2.25)},
      {"str", Value("text")},
      {"list", MakeList({1, "two", MakeMap({{"x", 3}})})},
  });
  ByteWriter w;
  w.WriteValue(original);
  ByteReader r(w.bytes());
  auto decoded = r.ReadValue();
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, original);
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerdeTest, MalformedValueKindFails) {
  std::vector<uint8_t> bytes = {0x09};  // Kind byte out of range.
  ByteReader r(bytes);
  EXPECT_FALSE(r.ReadValue().has_value());
}

TEST(SerdeTest, RandomValueFuzzRoundTrip) {
  // Property: encode(decode(x)) == x for randomly generated values.
  Rng rng(2024);
  for (int iter = 0; iter < 200; ++iter) {
    std::function<Value(int)> gen = [&](int depth) -> Value {
      switch (rng.Below(depth > 2 ? 5 : 7)) {
        case 0:
          return Value();
        case 1:
          return Value(rng.Below(2) == 1);
        case 2:
          return Value(static_cast<int64_t>(rng.Next()));
        case 3:
          return Value(static_cast<double>(rng.NextDouble()));
        case 4:
          return Value("s" + std::to_string(rng.Below(1000)));
        case 5: {
          ValueList list;
          for (uint64_t i = 0, n = rng.Below(4); i < n; ++i) {
            list.push_back(gen(depth + 1));
          }
          return Value(std::move(list));
        }
        default: {
          ValueMap map;
          for (uint64_t i = 0, n = rng.Below(4); i < n; ++i) {
            map.emplace("k" + std::to_string(i), gen(depth + 1));
          }
          return Value(std::move(map));
        }
      }
    };
    Value original = gen(0);
    ByteWriter w;
    w.WriteValue(original);
    ByteReader r(w.bytes());
    auto decoded = r.ReadValue();
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, original);
  }
}

// The value grammar decoded the plain way: recursion with the same depth
// bound and first-wins duplicate map keys, but a fresh node for every
// container. The interning ByteReader must agree with it on every input.
// With `dict`, strings and map keys are varint refs into it (the KSEG dict
// stage's coding).
std::optional<Value> ReferenceDecode(ByteReader* in, int depth = 0,
                                     const std::vector<std::string>* dict = nullptr) {
  auto read_string = [&]() -> std::optional<std::string> {
    if (dict == nullptr) {
      return in->ReadString();
    }
    auto ref = in->ReadVarint();
    if (!ref || *ref >= dict->size()) {
      return std::nullopt;
    }
    return (*dict)[*ref];
  };
  auto kind = in->ReadByte();
  if (!kind) {
    return std::nullopt;
  }
  switch (static_cast<Value::Kind>(*kind)) {
    case Value::Kind::kNull:
      return Value();
    case Value::Kind::kBool: {
      auto b = in->ReadBool();
      return b ? std::optional<Value>(Value(*b)) : std::nullopt;
    }
    case Value::Kind::kInt: {
      auto z = in->ReadVarint();
      return z ? std::optional<Value>(Value(static_cast<int64_t>((*z >> 1) ^ (0 - (*z & 1)))))
               : std::nullopt;
    }
    case Value::Kind::kDouble: {
      auto bits = in->ReadFixed64();
      if (!bits) {
        return std::nullopt;
      }
      double d;
      std::memcpy(&d, &*bits, sizeof(d));
      return Value(d);
    }
    case Value::Kind::kString: {
      auto str = read_string();
      return str ? std::optional<Value>(Value(*str)) : std::nullopt;
    }
    case Value::Kind::kList:
    case Value::Kind::kMap: {
      auto n = in->ReadVarint();
      if (depth >= kMaxValueDepth || !n || *n > in->remaining()) {
        return std::nullopt;
      }
      ValueList list;
      ValueMap map;
      for (uint64_t i = 0; i < *n; ++i) {
        std::optional<std::string> key;
        if (*kind == static_cast<uint8_t>(Value::Kind::kMap) && !(key = read_string())) {
          return std::nullopt;
        }
        auto item = ReferenceDecode(in, depth + 1, dict);
        if (!item) {
          return std::nullopt;
        }
        if (key) {
          map.emplace(*key, *item);
        } else {
          list.push_back(*item);
        }
      }
      return *kind == static_cast<uint8_t>(Value::Kind::kList) ? Value(list) : Value(map);
    }
  }
  return std::nullopt;
}

// ByteWriter::WriteValue, also noting where each container's count varint
// sits so a test can forge it.
void WriteTracked(const Value& v, ByteWriter* out, std::vector<size_t>* count_offsets) {
  if (!v.is_list() && !v.is_map()) {
    out->WriteValue(v);
    return;
  }
  out->WriteByte(static_cast<uint8_t>(v.kind()));
  count_offsets->push_back(out->size());
  if (v.is_list()) {
    out->WriteVarint(v.AsList().size());
    for (const Value& item : v.AsList()) {
      WriteTracked(item, out, count_offsets);
    }
  } else {
    out->WriteVarint(v.AsMap().size());
    for (const auto& [key, item] : v.AsMap()) {
      out->WriteString(key);
      WriteTracked(item, out, count_offsets);
    }
  }
}

// A non-canonical map encoding: two entries under key "a". Decoding keeps
// the first, so it equals {"a": 1} but its bytes differ from that map's.
void WriteDuplicateKeyMap(ByteWriter* out) {
  out->WriteByte(static_cast<uint8_t>(Value::Kind::kMap));
  out->WriteVarint(2);
  out->WriteString("a");
  out->WriteValue(Value(1));
  out->WriteString("a");
  out->WriteValue(Value(2));
}

Value Nest(int levels) {
  Value v = 1;
  for (int i = 0; i < levels; ++i) {
    v = i % 2 == 0 ? MakeList({v}) : MakeMap({{"k", v}});
  }
  return v;
}

TEST(SerdeInternTest, RepeatedContainersDecodeToOneNode) {
  const Value entry = MakeMap({{"digest", "d1"}, {"count", 2}});
  const Value acc1 = MakeList({entry});
  const Value acc2 = MakeList({entry, MakeMap({{"digest", "d2"}, {"count", 1}})});
  ByteWriter w;
  w.WriteValue(acc1);
  w.WriteValue(acc2);
  w.WriteValue(acc2);
  ByteReader r(w.bytes());
  auto a = r.ReadValue();
  auto b = r.ReadValue();
  auto c = r.ReadValue();
  ASSERT_TRUE(a && b && c);
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(*a, acc1);
  EXPECT_EQ(*b, acc2);
  EXPECT_EQ(*c, acc2);
  // A container encoded twice is one node; so is an element repeated inside
  // two different containers.
  EXPECT_EQ(&b->AsList(), &c->AsList());
  EXPECT_EQ(&a->AsList()[0].AsMap(), &b->AsList()[0].AsMap());
  EXPECT_NE(&a->AsList(), &b->AsList());

  // The table belongs to the reader: a second decode shares nothing with
  // the first.
  ByteReader r2(w.bytes());
  auto a2 = r2.ReadValue();
  ASSERT_TRUE(a2);
  EXPECT_EQ(*a2, *a);
  EXPECT_NE(&a2->AsList(), &a->AsList());
}

TEST(SerdeInternTest, InternedDecodesEqualReferenceDecodes) {
  // Duplicate-key maps: equal spans share a node; the canonical map with the
  // same value but other bytes is equal without sharing it.
  ByteWriter w;
  WriteDuplicateKeyMap(&w);
  w.WriteByte(static_cast<uint8_t>(Value::Kind::kList));
  w.WriteVarint(2);
  WriteDuplicateKeyMap(&w);
  WriteDuplicateKeyMap(&w);
  w.WriteValue(MakeMap({{"a", 1}}));
  ByteReader r(w.bytes());
  ByteReader ref(w.bytes());
  auto dup = r.ReadValue();
  auto list = r.ReadValue();
  auto canonical = r.ReadValue();
  ASSERT_TRUE(dup && list && canonical);
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(*dup, *ReferenceDecode(&ref));
  EXPECT_EQ(*list, *ReferenceDecode(&ref));
  EXPECT_EQ(*canonical, *ReferenceDecode(&ref));
  EXPECT_EQ(*dup, MakeMap({{"a", 1}}));
  EXPECT_EQ(&list->AsList()[0].AsMap(), &dup->AsMap());
  EXPECT_EQ(&list->AsList()[1].AsMap(), &dup->AsMap());
  EXPECT_EQ(*canonical, *dup);
  EXPECT_NE(&canonical->AsMap(), &dup->AsMap());

  // Random streams drawing on a small pool of subvalues, so containers
  // repeat both whole and nested inside larger ones.
  Rng rng(13);
  std::vector<Value> pool = {MakeList({}), MakeMap({}), MakeMap({{"digest", "d1"}, {"n", 1}}),
                             MakeList({1.5, "x"})};
  std::function<Value(int)> gen = [&](int depth) -> Value {
    switch (rng.Below(depth > 2 ? 3 : 5)) {
      case 0:
        return pool[rng.Below(pool.size())];
      case 1:
        return Value(static_cast<int64_t>(rng.Below(5)) - 2);
      case 2:
        return Value("s" + std::to_string(rng.Below(3)));
      case 3: {
        ValueList items;
        for (uint64_t i = 0, n = rng.Below(4); i < n; ++i) {
          items.push_back(gen(depth + 1));
        }
        return Value(std::move(items));
      }
      default: {
        ValueMap fields;
        for (uint64_t i = 0, n = rng.Below(4); i < n; ++i) {
          fields.emplace("k" + std::to_string(rng.Below(4)), gen(depth + 1));
        }
        return Value(std::move(fields));
      }
    }
  };
  for (int iter = 0; iter < 50; ++iter) {
    std::vector<Value> originals;
    ByteWriter stream;
    for (int i = 0; i < 40; ++i) {
      originals.push_back(gen(0));
      pool.push_back(originals.back());
      stream.WriteValue(originals.back());
    }
    ByteReader interned(stream.bytes());
    ByteReader plain(stream.bytes());
    for (const Value& original : originals) {
      auto got = interned.ReadValue();
      auto want = ReferenceDecode(&plain);
      ASSERT_TRUE(got && want);
      EXPECT_EQ(*got, *want);
      EXPECT_EQ(*got, original);
      EXPECT_EQ(got->DigestValue(), original.DigestValue());
      ByteWriter again;
      again.WriteValue(*got);
      ByteWriter expected;
      expected.WriteValue(original);
      EXPECT_EQ(again.bytes(), expected.bytes());
    }
    EXPECT_TRUE(interned.AtEnd());
    pool.resize(4);
  }
}

TEST(SerdeInternTest, TruncatedOrForgedInternedStreamsRejectCleanly) {
  // One top-level value full of repeats (including the non-canonical map),
  // small enough that a single-byte count of 0x7f always overruns it.
  const Value entry = MakeMap({{"d", "x1"}, {"c", 2}});
  ByteWriter w;
  std::vector<size_t> counts;
  w.WriteByte(static_cast<uint8_t>(Value::Kind::kList));
  counts.push_back(w.size());
  w.WriteVarint(6);
  WriteTracked(entry, &w, &counts);
  WriteTracked(entry, &w, &counts);
  WriteTracked(MakeList({entry, entry}), &w, &counts);
  WriteTracked(MakeList({entry, entry}), &w, &counts);
  counts.push_back(w.size() + 1);
  WriteDuplicateKeyMap(&w);
  counts.push_back(w.size() + 1);
  WriteDuplicateKeyMap(&w);
  const std::vector<uint8_t> bytes = w.bytes();
  ASSERT_LT(bytes.size(), 0x7fu);
  {
    ByteReader r(bytes);
    auto whole = r.ReadValue();
    ASSERT_TRUE(whole);
    EXPECT_TRUE(r.AtEnd());
    EXPECT_EQ(&whole->AsList()[2].AsList(), &whole->AsList()[3].AsList());
  }

  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    std::vector<uint8_t> prefix(bytes.begin(), bytes.begin() + static_cast<ptrdiff_t>(cut));
    ByteReader r(prefix);
    EXPECT_FALSE(r.ReadValue()) << "cut " << cut;
  }

  for (size_t offset : counts) {
    ASSERT_LT(bytes[offset], 0x7f);
    for (uint8_t forged : {static_cast<uint8_t>(bytes[offset] + 1),
                           static_cast<uint8_t>(bytes[offset] == 0 ? 0 : bytes[offset] - 1),
                           uint8_t{0x7f}}) {
      std::vector<uint8_t> mutated = bytes;
      mutated[offset] = forged;
      ByteReader r(mutated);
      ByteReader ref(mutated);
      auto got = r.ReadValue();
      auto want = ReferenceDecode(&ref);
      ASSERT_EQ(got.has_value(), want.has_value()) << "offset " << offset;
      if (got) {
        EXPECT_EQ(*got, *want) << "offset " << offset;
        EXPECT_EQ(r.AtEnd(), ref.AtEnd()) << "offset " << offset;
      }
      if (forged == 0x7f || (offset == counts.front() && forged > bytes[offset])) {
        EXPECT_FALSE(got) << "offset " << offset << " forged " << int{forged};
      }
    }
  }
}

// The string-source form (the KSEG dict stage's) gives the same bytes another
// meaning, so one reader must never hand a plainly decoded node to a coded
// read of equal bytes, or the other way round.
TEST(SerdeInternTest, CodedAndPlainReadsNeverShareNodes) {
  const Value list = MakeList({"a", MakeMap({{"k", "v"}})});
  ByteWriter w;
  for (int i = 0; i < 4; ++i) {
    w.WriteValue(list);
  }
  ByteReader r(w.bytes());
  // A stand-in coding: length-prefixed strings, upper-cased.
  const ByteReader::StringSource upper = [&r]() -> std::optional<std::string> {
    auto s = r.ReadString();
    if (s) {
      for (char& c : *s) {
        c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
      }
    }
    return s;
  };
  const Value upper_list = MakeList({"A", MakeMap({{"K", "V"}})});
  auto plain1 = r.ReadValue();
  auto coded1 = r.ReadValue(upper);
  auto plain2 = r.ReadValue();
  auto coded2 = r.ReadValue(upper);
  ASSERT_TRUE(plain1 && coded1 && plain2 && coded2);
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(*plain1, list);
  EXPECT_EQ(*plain2, list);
  EXPECT_EQ(*coded1, upper_list);
  EXPECT_EQ(*coded2, upper_list);
  EXPECT_EQ(&plain1->AsList(), &plain2->AsList());
}

// The plain value grammar with strings and map keys as varint refs into
// *dict (extended on first use), as the KSEG dict stage encodes values.
size_t DictRef(const std::string& s, std::vector<std::string>* dict) {
  auto it = std::find(dict->begin(), dict->end(), s);
  if (it == dict->end()) {
    dict->push_back(s);
    return dict->size() - 1;
  }
  return static_cast<size_t>(it - dict->begin());
}

void WriteDictCoded(const Value& v, std::vector<std::string>* dict, ByteWriter* out) {
  if (v.is_string()) {
    out->WriteByte(static_cast<uint8_t>(Value::Kind::kString));
    out->WriteVarint(DictRef(v.AsString(), dict));
  } else if (v.is_list()) {
    out->WriteByte(static_cast<uint8_t>(Value::Kind::kList));
    out->WriteVarint(v.AsList().size());
    for (const Value& item : v.AsList()) {
      WriteDictCoded(item, dict, out);
    }
  } else if (v.is_map()) {
    out->WriteByte(static_cast<uint8_t>(Value::Kind::kMap));
    out->WriteVarint(v.AsMap().size());
    for (const auto& [key, item] : v.AsMap()) {
      out->WriteVarint(DictRef(key, dict));
      WriteDictCoded(item, dict, out);
    }
  } else {
    out->WriteValue(v);
  }
}

// What a stacks accumulator logs: every write records the whole growing
// list of {c, d, l} entries, and a later write bumps one entry's count, so
// most entries (and the last list, logged twice) repeat earlier bytes. A
// non-canonical duplicate-key map follows the first list. Encoded plainly,
// or dict-coded into *dict when it is given.
std::vector<uint8_t> StacksShapedStream(std::vector<std::string>* dict) {
  std::vector<Value> values;
  ValueList acc;
  const char* digests[] = {"d0", "d1", "d2", "d3"};
  for (int i = 0; i < 4; ++i) {
    acc.push_back(MakeMap({{"c", 1}, {"d", digests[i]}, {"l", i}}));
    values.push_back(Value(acc));
  }
  acc[1] = MakeMap({{"c", 2}, {"d", "d1"}, {"l", 1}});
  values.push_back(Value(acc));
  values.push_back(Value(acc));
  ByteWriter w;
  for (size_t i = 0; i < values.size(); ++i) {
    if (dict != nullptr) {
      WriteDictCoded(values[i], dict, &w);
    } else {
      w.WriteValue(values[i]);
    }
    if (i == 0) {
      if (dict == nullptr) {
        WriteDuplicateKeyMap(&w);
        continue;
      }
      w.WriteByte(static_cast<uint8_t>(Value::Kind::kMap));
      w.WriteVarint(2);
      for (int v : {1, 2}) {
        w.WriteVarint(DictRef("a", dict));
        w.WriteValue(Value(v));
      }
    }
  }
  return w.Take();
}

// Reads a varint ref from *r and resolves it in *dict, as the KSEG decoder's
// string source does.
ByteReader::StringSource DictSource(ByteReader* r, const std::vector<std::string>* dict) {
  return [r, dict]() -> std::optional<std::string> {
    auto id = r->ReadVarint();
    if (!id || *id >= dict->size()) {
      return std::nullopt;
    }
    return (*dict)[*id];
  };
}

// Decodes `bytes` value by value with an interning reader (dict-coded when
// `dict` is given) and with ReferenceDecode, requiring the same outcome, the
// same value and the same reader position after every read.
void ExpectDecodesLikeReference(const std::vector<uint8_t>& bytes,
                                const std::vector<std::string>* dict, size_t at, int byte) {
  ByteReader r(bytes);
  ByteReader ref(bytes);
  const ByteReader::StringSource strings = DictSource(&r, dict);
  for (int read = 0; !ref.AtEnd(); ++read) {
    auto got = dict != nullptr ? r.ReadValue(strings, dict->size()) : r.ReadValue();
    auto want = ReferenceDecode(&ref, 0, dict);
    ASSERT_EQ(got.has_value(), want.has_value()) << "at " << at << " byte " << byte << " read " << read;
    ASSERT_EQ(r.remaining(), ref.remaining()) << "at " << at << " byte " << byte << " read " << read;
    if (!got) {
      return;
    }
    ASSERT_EQ(*got, *want) << "at " << at << " byte " << byte << " read " << read;
  }
  EXPECT_TRUE(r.AtEnd());
}

// Lookup before build skips a container's bytes to probe for a repeat. The
// skip must follow the decoder's grammar and checks exactly, plain and
// dict-coded: on every prefix (byte -1) and every single-byte mutation of a
// stacks-shaped stream, the interning reader agrees with ReferenceDecode.
TEST(SerdeInternTest, LookupBeforeBuildDecodesLikeReferenceUnderEveryCutAndByte) {
  for (bool coded : {false, true}) {
    SCOPED_TRACE(coded ? "dict-coded" : "plain");
    std::vector<std::string> dict;
    const std::vector<uint8_t> bytes = StacksShapedStream(coded ? &dict : nullptr);
    const std::vector<std::string>* d = coded ? &dict : nullptr;
    ExpectDecodesLikeReference(bytes, d, bytes.size(), -1);
    for (size_t cut = 0; cut < bytes.size(); ++cut) {
      ExpectDecodesLikeReference(
          std::vector<uint8_t>(bytes.begin(), bytes.begin() + static_cast<ptrdiff_t>(cut)), d, cut,
          -1);
    }
    std::vector<uint8_t> mutated = bytes;
    for (size_t at = 0; at < bytes.size(); ++at) {
      for (int byte = 0; byte < 256; ++byte) {
        if (byte == bytes[at]) {
          continue;
        }
        mutated[at] = static_cast<uint8_t>(byte);
        ExpectDecodesLikeReference(mutated, d, at, byte);
      }
      mutated[at] = bytes[at];
    }
  }
}

// Repeats are found before they are built under both codings: the last list
// (logged twice) is one node, and each unchanged entry is one node across
// every list that logs it.
TEST(SerdeInternTest, RepeatedStacksEntriesShareNodesUnderBothCodings) {
  for (bool coded : {false, true}) {
    SCOPED_TRACE(coded ? "dict-coded" : "plain");
    std::vector<std::string> dict;
    const std::vector<uint8_t> bytes = StacksShapedStream(coded ? &dict : nullptr);
    ByteReader r(bytes);
    const ByteReader::StringSource strings = DictSource(&r, &dict);
    std::vector<Value> got;
    while (!r.AtEnd()) {
      auto v = coded ? r.ReadValue(strings, dict.size()) : r.ReadValue();
      ASSERT_TRUE(v);
      got.push_back(*v);
    }
    ASSERT_EQ(got.size(), 7u);  // Six lists and the duplicate-key map.
    const Value& last = got[6];
    EXPECT_EQ(&got[5].AsList(), &last.AsList());
    EXPECT_EQ(&got[0].AsList()[0].AsMap(), &last.AsList()[0].AsMap());
    EXPECT_EQ(&got[4].AsList()[3].AsMap(), &last.AsList()[3].AsMap());
    EXPECT_NE(&got[4].AsList()[1].AsMap(), &last.AsList()[1].AsMap());
    EXPECT_EQ(last.AsList()[1], MakeMap({{"c", 2}, {"d", "d1"}, {"l", 1}}));
  }
}

const void* NodeOf(const Value& v) {
  return v.is_list() ? static_cast<const void*>(&v.AsList()) : &v.AsMap();
}

// Hashing re-reads a nested container's bytes once per enclosing level, so
// deep repeats are where interning could cost more than decoding. Its work
// budget (a fixed multiple of the input size) runs out first: the decode
// stays correct and simply stops sharing, while shallow repeats still share.
TEST(SerdeInternTest, InterningStopsAtItsWorkBudget) {
  for (int levels : {8, kMaxValueDepth}) {
    const Value nested = Nest(levels);
    ByteWriter w;
    for (int i = 0; i < 4; ++i) {
      w.WriteValue(nested);
    }
    ByteReader r(w.bytes());
    std::vector<Value> decoded;
    for (int i = 0; i < 4; ++i) {
      auto v = r.ReadValue();
      ASSERT_TRUE(v);
      EXPECT_EQ(*v, nested);
      decoded.push_back(*v);
    }
    EXPECT_TRUE(r.AtEnd());
    EXPECT_EQ(NodeOf(decoded[0]) == NodeOf(decoded[3]), levels == 8) << levels;
  }
}

// Equal bytes decode to equal values only where they fit under the nesting
// bound, so the skip-scan checks depth too: a repeat that sits too deep
// still rejects, and one level shallower it decodes to the earlier node.
TEST(SerdeInternTest, RepeatPastTheDepthBoundIsNotShared) {
  const Value inner = Nest(8);  // Eight container levels.
  for (int wrappers : {kMaxValueDepth - 8, kMaxValueDepth - 7}) {
    ByteWriter w;
    w.WriteValue(inner);
    for (int i = 0; i < wrappers; ++i) {
      w.WriteByte(static_cast<uint8_t>(Value::Kind::kList));
      w.WriteVarint(1);
    }
    w.WriteValue(inner);
    const size_t end = w.size();
    // Unread padding: the work budget scales with the input, and this keeps
    // it from running out before the scans reach the inner copy.
    for (int i = 0; i < 100000; ++i) {
      w.WriteByte(0);
    }
    ByteReader r(w.bytes());
    auto first = r.ReadValue();
    ASSERT_TRUE(first);
    auto wrapped = r.ReadValue();
    EXPECT_EQ(wrapped.has_value(), wrappers + 8 <= kMaxValueDepth) << wrappers;
    if (!wrapped) {
      continue;
    }
    EXPECT_EQ(r.remaining(), w.size() - end);
    const Value* v = &*wrapped;
    for (int i = 0; i < wrappers; ++i) {
      v = &v->AsList()[0];
    }
    EXPECT_EQ(*v, inner);
    EXPECT_EQ(NodeOf(*v), NodeOf(*first));
  }
}

TEST(SerdeTest, DeepNestingIsRejectedWithoutCrashing) {
  // 200 KB of `05 01`: a one-element list nested 100 000 deep.
  std::vector<uint8_t> deep;
  for (int i = 0; i < 100000; ++i) {
    deep.push_back(static_cast<uint8_t>(Value::Kind::kList));
    deep.push_back(1);
  }
  deep.push_back(static_cast<uint8_t>(Value::Kind::kNull));
  ByteReader r(deep);
  EXPECT_FALSE(r.ReadValue());

  // The bound itself: kMaxValueDepth nested containers decode, one more
  // does not (the encoder has no bound, so such bytes are easy to forge).
  for (int levels : {kMaxValueDepth, kMaxValueDepth + 1}) {
    ByteWriter w;
    w.WriteValue(Nest(levels));
    ByteReader nested(w.bytes());
    auto got = nested.ReadValue();
    EXPECT_EQ(got.has_value(), levels <= kMaxValueDepth) << levels;
    if (got) {
      EXPECT_EQ(*got, Nest(levels));
    }
  }

  // The same bytes inside a trace file are a malformed trace.
  Trace trace;
  trace.events.push_back(TraceEvent{TraceEvent::Kind::kRequest, 1, Nest(kMaxValueDepth + 1)});
  trace.events.push_back(TraceEvent{TraceEvent::Kind::kResponse, 1, Value()});
  ByteWriter tw;
  trace.Serialize(&tw);
  ByteReader tr(tw.bytes());
  EXPECT_FALSE(Trace::Deserialize(&tr));
}

}  // namespace
}  // namespace karousos
