#include "src/common/serde.h"

#include <algorithm>
#include <cstring>

#include "src/common/digest.h"

namespace karousos {

void ByteWriter::WriteVarint(uint64_t v) {
  // Encode into a stack scratch first so the vector pays one growth check
  // per varint instead of one per byte (10 bytes max for a 64-bit value).
  uint8_t scratch[10];
  size_t n = 0;
  while (v >= 0x80) {
    scratch[n++] = static_cast<uint8_t>(v) | 0x80;
    v >>= 7;
  }
  scratch[n++] = static_cast<uint8_t>(v);
  WriteBytes(scratch, n);
}

void ByteWriter::WriteFixed64(uint64_t v) {
  uint8_t scratch[8];
  for (int i = 0; i < 8; ++i) {
    scratch[i] = static_cast<uint8_t>(v >> (i * 8));
  }
  WriteBytes(scratch, 8);
}

void ByteWriter::WriteFixed32(uint32_t v) {
  uint8_t scratch[4];
  for (int i = 0; i < 4; ++i) {
    scratch[i] = static_cast<uint8_t>(v >> (i * 8));
  }
  WriteBytes(scratch, 4);
}

void ByteWriter::WriteString(std::string_view s) {
  WriteVarint(s.size());
  WriteBytes(reinterpret_cast<const uint8_t*>(s.data()), s.size());
}

void ByteWriter::WriteValue(const Value& v) {
  WriteByte(static_cast<uint8_t>(v.kind()));
  switch (v.kind()) {
    case Value::Kind::kNull:
      break;
    case Value::Kind::kBool:
      WriteBool(v.AsBool());
      break;
    case Value::Kind::kInt: {
      // ZigZag so negative ints stay small.
      int64_t i = v.AsInt();
      WriteVarint((static_cast<uint64_t>(i) << 1) ^ static_cast<uint64_t>(i >> 63));
      break;
    }
    case Value::Kind::kDouble: {
      double d = v.AsDouble();
      uint64_t bits;
      __builtin_memcpy(&bits, &d, sizeof(bits));
      WriteFixed64(bits);
      break;
    }
    case Value::Kind::kString:
      WriteString(v.AsString());
      break;
    case Value::Kind::kList:
      WriteVarint(v.AsList().size());
      for (const Value& item : v.AsList()) {
        WriteValue(item);
      }
      break;
    case Value::Kind::kMap:
      WriteVarint(v.AsMap().size());
      for (const auto& [key, item] : v.AsMap()) {
        WriteString(key);
        WriteValue(item);
      }
      break;
  }
}

namespace {

// Slicing-by-8 tables for the reflected IEEE polynomial 0xEDB88320:
// kCrc.t[0] is the bytewise table, and kCrc.t[k][b] is the CRC of byte b
// followed by k zero bytes, so one step folds in eight input bytes.
struct CrcTables {
  uint32_t t[8][256];
};

constexpr CrcTables MakeCrcTables() {
  CrcTables c{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ (0xedb88320u & (0u - (crc & 1u)));
    }
    c.t[0][i] = crc;
  }
  for (int k = 1; k < 8; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      c.t[k][i] = (c.t[k - 1][i] >> 8) ^ c.t[0][c.t[k - 1][i] & 0xff];
    }
  }
  return c;
}

constexpr CrcTables kCrc = MakeCrcTables();

uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

// LEB128 varint at buf[*pos], reading no byte at or past `end`; *pos ends
// past the bytes read, also on failure (the reader's one varint rule).
inline std::optional<uint64_t> DecodeVarint(const uint8_t* buf, size_t end, size_t* pos) {
  size_t p = *pos;
  uint64_t v = 0;
  int shift = 0;
  while (p < end) {
    uint8_t b = buf[p++];
    if (shift >= 64) {
      *pos = p;
      return std::nullopt;
    }
    v |= static_cast<uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) {
      *pos = p;
      return v;
    }
    shift += 7;
  }
  *pos = p;
  return std::nullopt;
}

}  // namespace

uint32_t Crc32(const uint8_t* data, size_t size) {
  const auto& t = kCrc.t;
  uint32_t crc = 0xffffffffu;
  for (; size >= 8; data += 8, size -= 8) {
    const uint32_t lo = LoadLe32(data) ^ crc;
    const uint32_t hi = LoadLe32(data + 4);
    crc = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^ t[5][(lo >> 16) & 0xff] ^ t[4][lo >> 24] ^
          t[3][hi & 0xff] ^ t[2][(hi >> 8) & 0xff] ^ t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++data, --size) {
    crc = (crc >> 8) ^ t[0][(crc ^ *data) & 0xff];
  }
  return crc ^ 0xffffffffu;
}

std::optional<uint64_t> ByteReader::ReadVarint() { return DecodeVarint(buf_, size_, &pos_); }

std::optional<uint64_t> ByteReader::ReadFixed64() {
  if (size_ - pos_ < 8) {
    return std::nullopt;
  }
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(buf_[pos_++]) << (i * 8);
  }
  return v;
}

std::optional<uint32_t> ByteReader::ReadFixed32() {
  if (size_ - pos_ < 4) {
    return std::nullopt;
  }
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(buf_[pos_++]) << (i * 8);
  }
  return v;
}

std::optional<uint8_t> ByteReader::ReadByte() {
  if (pos_ >= size_) {
    return std::nullopt;
  }
  return buf_[pos_++];
}

std::optional<std::string_view> ByteReader::ReadStringView() {
  auto len = ReadVarint();
  if (!len || *len > remaining()) {
    return std::nullopt;
  }
  std::string_view s(reinterpret_cast<const char*>(buf_ + pos_), *len);
  pos_ += *len;
  return s;
}

std::optional<std::string> ByteReader::ReadString() {
  auto view = ReadStringView();
  if (!view) {
    return std::nullopt;
  }
  return std::string(*view);
}

std::optional<bool> ByteReader::ReadBool() {
  auto b = ReadByte();
  if (!b || *b > 1) {
    return std::nullopt;
  }
  return *b == 1;
}

// Decode-time hash-consing of containers. Within one decode, every list or
// map whose encoded bytes equal those of a container decoded earlier reuses
// that container's node, so a value logged N times is materialized once.
// The key is the exact byte span: a hash match is confirmed by comparing the
// bytes in full, so a shared node is always the value a fresh decode of
// those bytes would have built. Interning is only an optimization: every
// byte scanned, hashed or compared is charged to a budget of
// kWorkPerInputByte times the input size, and past it (or past a probe cap)
// the decoder builds fresh nodes, which keeps it linear-time under crafted
// nesting and collisions.
class ValueInterner {
 public:
  explicit ValueInterner(size_t input_bytes);

  size_t work_left() const { return work_left_; }
  bool empty() const { return used_ == 0; }
  // Charges `bytes` (at most work_left()) of scanning.
  void Charge(size_t bytes) { work_left_ -= bytes; }
  // The hash of [begin, begin + size), or nullopt once the budget cannot
  // cover reading it.
  std::optional<uint64_t> Hash(const uint8_t* begin, size_t size);
  // The node decoded earlier from the bytes [begin, begin + size), which
  // hash to `hash`, if the table holds it.
  const Value* Find(uint64_t hash, const uint8_t* begin, size_t size);
  // Remembers `value` as decoded from those bytes.
  void Insert(uint64_t hash, const uint8_t* begin, size_t size, const Value& value);

 private:
  struct Slot {
    uint64_t hash = 0;
    const uint8_t* begin = nullptr;
    size_t size = 0;
    Value value;
  };
  static constexpr size_t kWorkPerInputByte = 16;
  static constexpr size_t kMaxProbes = 32;

  void Grow();

  std::vector<Slot> slots_;  // Open addressing, power-of-two capacity.
  size_t used_ = 0;
  size_t work_left_;  // Bytes still allowed to be scanned, hashed or compared.
};

namespace {

// Unseeded: a crafted collision can only cost sharing, never time, because
// the probe cap and the work budget bound every lookup.
uint64_t HashSpan(const uint8_t* p, size_t n) {
  uint64_t h = Avalanche(n);
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t w;
    std::memcpy(&w, p, 8);
    h = (h ^ w) * 0x9e3779b97f4a7c15ULL;
    h ^= h >> 29;
  }
  for (; n > 0; ++p, --n) {
    h = (h ^ *p) * 0x100000001b3ULL;
  }
  return Avalanche(h);
}

}  // namespace

ValueInterner::ValueInterner(size_t input_bytes)
    : work_left_(input_bytes * kWorkPerInputByte) {}

std::optional<uint64_t> ValueInterner::Hash(const uint8_t* begin, size_t size) {
  if (size > work_left_) {
    return std::nullopt;
  }
  work_left_ -= size;
  return HashSpan(begin, size);
}

const Value* ValueInterner::Find(uint64_t hash, const uint8_t* begin, size_t size) {
  if (slots_.empty()) {
    return nullptr;
  }
  const size_t mask = slots_.size() - 1;
  for (size_t probe = 0, i = hash & mask; probe < kMaxProbes; ++probe, i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (slot.begin == nullptr) {
      return nullptr;
    }
    if (slot.hash != hash || slot.size != size) {
      continue;
    }
    if (size > work_left_) {
      return nullptr;
    }
    work_left_ -= size;
    if (std::memcmp(slot.begin, begin, size) == 0) {
      return &slot.value;
    }
  }
  return nullptr;
}

void ValueInterner::Insert(uint64_t hash, const uint8_t* begin, size_t size, const Value& value) {
  if (2 * (used_ + 1) > slots_.size()) {
    Grow();
  }
  const size_t mask = slots_.size() - 1;
  for (size_t probe = 0, i = hash & mask; probe < kMaxProbes; ++probe, i = (i + 1) & mask) {
    if (slots_[i].begin == nullptr) {
      slots_[i] = Slot{hash, begin, size, value};
      ++used_;
      return;
    }
  }
}

// Rehashes into twice the capacity under the same probe cap; an entry that
// finds no slot within it is forgotten (only a lost sharing opportunity).
void ValueInterner::Grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.empty() ? 64 : old.size() * 2, Slot{});
  used_ = 0;
  const size_t mask = slots_.size() - 1;
  for (Slot& slot : old) {
    if (slot.begin == nullptr) {
      continue;
    }
    for (size_t probe = 0, i = slot.hash & mask; probe < kMaxProbes; ++probe, i = (i + 1) & mask) {
      if (slots_[i].begin == nullptr) {
        slots_[i] = std::move(slot);
        ++used_;
        break;
      }
    }
  }
}

ByteReader::ByteReader(const std::vector<uint8_t>& buf) : ByteReader(buf.data(), buf.size()) {}

ByteReader::ByteReader(const uint8_t* data, size_t size) : buf_(data), size_(size) {}

ByteReader::~ByteReader() = default;

std::optional<Value> ByteReader::ReadValue() { return ReadValueAt(StringCoding{}, 0); }

std::optional<Value> ByteReader::ReadValue(const StringSource& strings,
                                           std::optional<uint64_t> dict_size) {
  return ReadValueAt(StringCoding{&strings, dict_size}, 0);
}

bool ByteReader::SkipString(const StringCoding& coding, size_t* pos, size_t end) const {
  auto n = DecodeVarint(buf_, end, pos);
  if (!n) {
    return false;
  }
  if (coding.source != nullptr) {
    return *n < *coding.dict_size;
  }
  if (*n > end - *pos) {
    return false;
  }
  *pos += *n;
  return true;
}

bool ByteReader::SkipValueAt(const StringCoding& coding, size_t* pos, size_t end,
                             int depth) const {
  if (*pos >= end) {
    return false;
  }
  const uint8_t kind = buf_[(*pos)++];
  switch (kind) {
    case static_cast<uint8_t>(Value::Kind::kNull):
      return true;
    case static_cast<uint8_t>(Value::Kind::kBool):
      return *pos < end && buf_[(*pos)++] <= 1;
    case static_cast<uint8_t>(Value::Kind::kInt):
      return DecodeVarint(buf_, end, pos).has_value();
    case static_cast<uint8_t>(Value::Kind::kDouble):
      if (end - *pos < 8) {
        return false;
      }
      *pos += 8;
      return true;
    case static_cast<uint8_t>(Value::Kind::kString):
      return SkipString(coding, pos, end);
    case static_cast<uint8_t>(Value::Kind::kList):
    case static_cast<uint8_t>(Value::Kind::kMap): {
      auto n = DecodeVarint(buf_, end, pos);
      if (depth >= kMaxValueDepth || !n || *n > end - *pos) {
        return false;
      }
      const bool map = kind == static_cast<uint8_t>(Value::Kind::kMap);
      for (uint64_t i = 0; i < *n; ++i) {
        if ((map && !SkipString(coding, pos, end)) ||
            !SkipValueAt(coding, pos, end, depth + 1)) {
          return false;
        }
      }
      return true;
    }
    default:
      return false;
  }
}

std::optional<Value> ByteReader::ReadValueAt(const StringCoding& coding, int depth) {
  const size_t start = pos_;
  auto kind_byte = ReadByte();
  if (!kind_byte || *kind_byte > static_cast<uint8_t>(Value::Kind::kMap)) {
    return std::nullopt;
  }
  const auto kind = static_cast<Value::Kind>(*kind_byte);
  switch (kind) {
    case Value::Kind::kNull:
      return Value();
    case Value::Kind::kBool: {
      auto b = ReadBool();
      if (!b) {
        return std::nullopt;
      }
      return Value(*b);
    }
    case Value::Kind::kInt: {
      auto z = ReadVarint();
      if (!z) {
        return std::nullopt;
      }
      int64_t i = static_cast<int64_t>((*z >> 1) ^ (~(*z & 1) + 1));
      return Value(i);
    }
    case Value::Kind::kDouble: {
      auto bits = ReadFixed64();
      if (!bits) {
        return std::nullopt;
      }
      double d;
      __builtin_memcpy(&d, &*bits, sizeof(d));
      return Value(d);
    }
    case Value::Kind::kString: {
      auto s = ReadValueString(coding);
      if (!s) {
        return std::nullopt;
      }
      return Value(std::move(*s));
    }
    case Value::Kind::kList:
    case Value::Kind::kMap:
      break;
  }
  const bool coded = coding.source != nullptr;
  if (!interner_) {
    interner_ = std::make_unique<ValueInterner>(size_);
    interned_coded_ = coded;
  }
  ValueInterner* interner = interned_coded_ == coded ? interner_.get() : nullptr;

  // Lookup before build: skip the container's bytes (within what is left of
  // the budget), hash them and probe. A hit is the node an earlier decode
  // built from identical bytes. An empty table cannot hit, so a reader's
  // first container (a one-value reader's only one) is never scanned.
  std::optional<uint64_t> hash;
  size_t span = 0;
  if (interner != nullptr && !interner->empty() && coding.skippable()) {
    size_t end = start;
    const bool whole =
        SkipValueAt(coding, &end, start + std::min(interner->work_left(), size_ - start), depth);
    interner->Charge(end - start);
    if (whole && (hash = interner->Hash(buf_ + start, end - start))) {
      span = end - start;
      if (const Value* hit = interner->Find(*hash, buf_ + start, span)) {
        pos_ = end;
        return *hit;
      }
    }
  }

  auto n = ReadVarint();
  if (depth >= kMaxValueDepth || !n || *n > remaining()) {
    return std::nullopt;
  }
  Value fresh;
  if (kind == Value::Kind::kList) {
    ValueList items;
    items.reserve(*n);
    for (uint64_t i = 0; i < *n; ++i) {
      auto item = ReadValueAt(coding, depth + 1);
      if (!item) {
        return std::nullopt;
      }
      items.push_back(std::move(*item));
    }
    fresh = Value(std::move(items));
  } else {
    ValueMap m;
    for (uint64_t i = 0; i < *n; ++i) {
      auto key = ReadValueString(coding);
      if (!key) {
        return std::nullopt;
      }
      auto item = ReadValueAt(coding, depth + 1);
      if (!item) {
        return std::nullopt;
      }
      m.emplace(std::move(*key), std::move(*item));
    }
    fresh = Value(std::move(m));
  }
  if (interner == nullptr) {
    return fresh;
  }
  // A scanned span is the one just built (the scan reads as the build does);
  // otherwise hash the built span and look it up now.
  if (!hash || pos_ - start != span) {
    hash = interner->Hash(buf_ + start, pos_ - start);
    if (!hash) {
      return fresh;
    }
    if (const Value* earlier = interner->Find(*hash, buf_ + start, pos_ - start)) {
      return *earlier;
    }
  }
  interner->Insert(*hash, buf_ + start, pos_ - start, fresh);
  return fresh;
}

}  // namespace karousos
