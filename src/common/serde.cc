#include "src/common/serde.h"

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
  buf_.insert(buf_.end(), scratch, scratch + n);
}

void ByteWriter::WriteFixed64(uint64_t v) {
  uint8_t scratch[8];
  for (int i = 0; i < 8; ++i) {
    scratch[i] = static_cast<uint8_t>(v >> (i * 8));
  }
  buf_.insert(buf_.end(), scratch, scratch + 8);
}

void ByteWriter::WriteFixed32(uint32_t v) {
  uint8_t scratch[4];
  for (int i = 0; i < 4; ++i) {
    scratch[i] = static_cast<uint8_t>(v >> (i * 8));
  }
  buf_.insert(buf_.end(), scratch, scratch + 4);
}

void ByteWriter::WriteString(std::string_view s) {
  WriteVarint(s.size());
  buf_.insert(buf_.end(), s.begin(), s.end());
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

// Nibble-sliced CRC-32 table (16 entries) for the reflected IEEE polynomial
// 0xEDB88320: small enough to keep in cache, fast enough for segment files.
constexpr uint32_t kCrcNibble[16] = {
    0x00000000, 0x1db71064, 0x3b6e20c8, 0x26d930ac, 0x76dc4190, 0x6b6b51f4,
    0x4db26158, 0x5005713c, 0xedb88320, 0xf00f9344, 0xd6d6a3e8, 0xcb61b38c,
    0x9b64c2b0, 0x86d3d2d4, 0xa00ae278, 0xbdbdf21c};

}  // namespace

uint32_t Crc32(const uint8_t* data, size_t size) {
  uint32_t crc = 0xffffffffu;
  for (size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    crc = (crc >> 4) ^ kCrcNibble[crc & 0x0f];
    crc = (crc >> 4) ^ kCrcNibble[crc & 0x0f];
  }
  return crc ^ 0xffffffffu;
}

std::optional<uint64_t> ByteReader::ReadVarint() {
  uint64_t v = 0;
  int shift = 0;
  while (pos_ < size_) {
    uint8_t b = buf_[pos_++];
    if (shift >= 64) {
      return std::nullopt;
    }
    v |= static_cast<uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) {
      return v;
    }
    shift += 7;
  }
  return std::nullopt;
}

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
// those bytes would have built. Interning is only an optimization: past a
// probe cap or once hashing and comparing have cost kWorkPerInputByte times
// the input size, it stops and returns fresh nodes, which keeps a decoder
// linear-time under crafted collisions.
class ValueInterner {
 public:
  explicit ValueInterner(size_t input_bytes);

  // `fresh` (a list or map) was decoded from [begin, begin + size). Returns
  // the node decoded earlier from identical bytes, else remembers `fresh`
  // and returns it.
  Value Intern(const uint8_t* begin, size_t size, Value fresh);

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
  size_t work_left_;  // Bytes still allowed to be hashed or compared.
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

Value ValueInterner::Intern(const uint8_t* begin, size_t size, Value fresh) {
  if (size > work_left_) {
    return fresh;
  }
  work_left_ -= size;
  if (2 * (used_ + 1) > slots_.size()) {
    Grow();
  }
  const uint64_t hash = HashSpan(begin, size);
  const size_t mask = slots_.size() - 1;
  for (size_t probe = 0, i = hash & mask; probe < kMaxProbes; ++probe, i = (i + 1) & mask) {
    Slot& slot = slots_[i];
    if (slot.begin == nullptr) {
      slot = Slot{hash, begin, size, fresh};
      ++used_;
      return fresh;
    }
    if (slot.hash != hash || slot.size != size) {
      continue;
    }
    if (size > work_left_) {
      return fresh;
    }
    work_left_ -= size;
    if (std::memcmp(slot.begin, begin, size) == 0) {
      return slot.value;
    }
  }
  return fresh;
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

std::optional<Value> ByteReader::ReadValue() { return ReadValueAt(nullptr, 0); }

std::optional<Value> ByteReader::ReadValue(const StringSource& strings) {
  return ReadValueAt(&strings, 0);
}

std::optional<Value> ByteReader::ReadValueAt(const StringSource* strings, int depth) {
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
      auto s = ReadValueString(strings);
      if (!s) {
        return std::nullopt;
      }
      return Value(std::move(*s));
    }
    case Value::Kind::kList:
    case Value::Kind::kMap:
      break;
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
      auto item = ReadValueAt(strings, depth + 1);
      if (!item) {
        return std::nullopt;
      }
      items.push_back(std::move(*item));
    }
    fresh = Value(std::move(items));
  } else {
    ValueMap m;
    for (uint64_t i = 0; i < *n; ++i) {
      auto key = ReadValueString(strings);
      if (!key) {
        return std::nullopt;
      }
      auto item = ReadValueAt(strings, depth + 1);
      if (!item) {
        return std::nullopt;
      }
      m.emplace(std::move(*key), std::move(*item));
    }
    fresh = Value(std::move(m));
  }
  if (!interner_) {
    interner_ = std::make_unique<ValueInterner>(size_);
    interned_coded_ = strings != nullptr;
  }
  if (interned_coded_ != (strings != nullptr)) {
    return fresh;
  }
  return interner_->Intern(buf_ + start, pos_ - start, std::move(fresh));
}

}  // namespace karousos
