// Compact binary encoding used as the advice wire format.
//
// The paper evaluates advice *size* (Figure 8), so the advice structures in
// src/server/advice.h get a real byte encoding rather than an estimate: the
// server serializes, the verifier deserializes, and the benches report the
// encoded byte counts.
#ifndef SRC_COMMON_SERDE_H_
#define SRC_COMMON_SERDE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/value.h"

namespace karousos {

class ByteWriter {
 public:
  // A writer that keeps only the count of what is written to it: size()
  // reads as it would after the same writes to a plain writer, and bytes()
  // stays empty. Measures an encoding without allocating it.
  static ByteWriter Counter() {
    ByteWriter w;
    w.counting_ = true;
    return w;
  }

  // LEB128-style varint; small ids and opnums dominate the advice, so this
  // is where the encoding wins its compactness.
  void WriteVarint(uint64_t v);
  void WriteFixed64(uint64_t v);
  void WriteFixed32(uint32_t v);
  void WriteByte(uint8_t b) {
    if (counting_) {
      ++counted_;
    } else {
      buf_.push_back(b);
    }
  }
  void WriteString(std::string_view s);
  void WriteValue(const Value& v);
  void WriteBool(bool b) { WriteByte(b ? 1 : 0); }
  // Raw append, no length prefix — used to splice a pre-encoded body (e.g. a
  // compact KSEG payload assembled after its dictionaries).
  void WriteBytes(const uint8_t* data, size_t size) {
    if (counting_) {
      counted_ += size;
    } else {
      buf_.insert(buf_.end(), data, data + size);
    }
  }

  // Pre-sizes the backing buffer so a burst of writes (one advice component,
  // one epoch payload) appends without reallocating.
  void Reserve(size_t bytes) {
    if (!counting_) {
      buf_.reserve(buf_.size() + bytes);
    }
  }
  // Rewinds to empty while keeping the allocation, so one writer can be
  // reused across epochs / components instead of reallocating per use.
  void Clear() {
    buf_.clear();
    counted_ = 0;
  }
  size_t capacity() const { return buf_.capacity(); }

  const std::vector<uint8_t>& bytes() const { return buf_; }
  size_t size() const { return buf_.size() + counted_; }
  std::vector<uint8_t> Take() { return std::move(buf_); }

 private:
  std::vector<uint8_t> buf_;
  bool counting_ = false;
  size_t counted_ = 0;  // Bytes written to a Counter().
};

class ValueInterner;  // Decode-time container interning (serde.cc).

class ByteReader {
 public:
  // Out of line because ValueInterner is complete only in serde.cc.
  explicit ByteReader(const std::vector<uint8_t>& buf);
  ByteReader(const uint8_t* data, size_t size);
  ~ByteReader();

  // Each reader returns nullopt on malformed input; the verifier treats a
  // malformed advice stream as server misbehavior (REJECT), never a crash.
  // ReadValue rejects containers nested deeper than kMaxValueDepth. Within
  // one reader it decodes a list or map whose bytes repeat an earlier one's
  // to that earlier node (see ValueInterner), so repeated values are
  // materialized once. It looks a container's bytes up before building it,
  // so a repeat costs a scan of its bytes, not a decode.
  std::optional<uint64_t> ReadVarint();
  std::optional<uint64_t> ReadFixed64();
  std::optional<uint32_t> ReadFixed32();
  std::optional<uint8_t> ReadByte();
  std::optional<std::string> ReadString();
  // Zero-copy variant: the returned view aliases the reader's buffer and is
  // valid only while that buffer outlives the view. Same validation as
  // ReadString (rejects truncated buffers identically).
  std::optional<std::string_view> ReadStringView();
  std::optional<Value> ReadValue();
  // ReadValue for values whose strings and map keys are read by `strings`
  // instead. Equal bytes mean equal values only under one coding, so a
  // reader interns values of the coding it decoded first and leaves the
  // other's unshared. The KSEG dict stage codes each string as a varint ref
  // below `dict_size`; knowing that, the reader can skip a value and find a
  // repeat before building it. A source of another shape (no dict_size) is
  // only called, so its containers are looked up after they are built.
  using StringSource = std::function<std::optional<std::string>()>;
  std::optional<Value> ReadValue(const StringSource& strings,
                                 std::optional<uint64_t> dict_size = std::nullopt);
  std::optional<bool> ReadBool();

  bool AtEnd() const { return pos_ == size_; }
  size_t remaining() const { return size_ - pos_; }

 private:
  // How a value's strings and map keys are coded: inline and length-prefixed
  // (source == nullptr), or read by `source`, as varint refs below
  // `dict_size` when that is set.
  struct StringCoding {
    const StringSource* source = nullptr;
    std::optional<uint64_t> dict_size;
    bool skippable() const { return source == nullptr || dict_size.has_value(); }
  };

  std::optional<Value> ReadValueAt(const StringCoding& coding, int depth);
  std::optional<std::string> ReadValueString(const StringCoding& coding) {
    return coding.source != nullptr ? (*coding.source)() : ReadString();
  }
  // Moves *pos past the value there exactly as ReadValueAt would read it,
  // applying the same checks but building nothing. False on malformed bytes
  // or a value that does not end by `end`; *pos is then where it stopped.
  bool SkipValueAt(const StringCoding& coding, size_t* pos, size_t end, int depth) const;
  bool SkipString(const StringCoding& coding, size_t* pos, size_t end) const;

  const uint8_t* buf_;
  size_t size_;
  size_t pos_ = 0;
  std::unique_ptr<ValueInterner> interner_;  // Created at the first container.
  bool interned_coded_ = false;  // interner_ holds StringSource-coded values.
};

// CRC-32 (IEEE 802.3 polynomial, reflected). Used by the epoch segment
// container to detect payload corruption; a bad checksum is a diagnostic,
// never a crash or a silent accept. Slicing-by-8: eight bytes per step.
uint32_t Crc32(const uint8_t* data, size_t size);
inline uint32_t Crc32(const std::vector<uint8_t>& buf) { return Crc32(buf.data(), buf.size()); }

}  // namespace karousos

#endif  // SRC_COMMON_SERDE_H_
