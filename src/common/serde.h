#ifndef FBSTREAM_COMMON_SERDE_H_
#define FBSTREAM_COMMON_SERDE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/value.h"

namespace fbstream {

// Low-level append/parse helpers for the binary wire and checkpoint formats.
// Integers use LEB128 varints; strings are length-prefixed.
void PutVarint64(std::string* dst, uint64_t v);
bool GetVarint64(std::string_view* src, uint64_t* v);
void PutFixed64(std::string* dst, uint64_t v);
bool GetFixed64(std::string_view* src, uint64_t* v);
void PutLengthPrefixed(std::string* dst, std::string_view s);
bool GetLengthPrefixed(std::string_view* src, std::string_view* s);

// Zigzag-encodes signed integers so small negatives stay small.
inline uint64_t ZigzagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}
inline int64_t ZigzagDecode(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

// Binary encoding of a single Value (type tag + payload).
void EncodeValue(const Value& v, std::string* dst);
Status DecodeValue(std::string_view* src, Value* v);

// Binary row codec used for checkpoints and state snapshots: a compact
// column-count-prefixed sequence of encoded values. The schema is not
// embedded; the reader must supply it.
class BinaryRowCodec {
 public:
  explicit BinaryRowCodec(SchemaPtr schema) : schema_(std::move(schema)) {}

  std::string Encode(const Row& row) const;
  // Appends to `*out` what Encode writes for the row made of `row`'s
  // columns at `columns`, in that order, without building that row. A
  // position at or past the row's width encodes NULL.
  void EncodeColumns(const Row& row, const std::vector<size_t>& columns,
                     std::string* out) const;
  StatusOr<Row> Decode(std::string_view data) const;

 private:
  SchemaPtr schema_;
};

// Text row codec used for Scribe payloads: tab-separated cells, one row per
// message, numbers rendered in decimal. Deserialization re-parses every cell
// according to the schema; this is deliberately the CPU-heavy path the paper's
// Figure 9 experiment stresses ("deserialization is the performance
// bottleneck").
class TextRowCodec {
 public:
  explicit TextRowCodec(SchemaPtr schema) : schema_(std::move(schema)) {}

  std::string Encode(const Row& row) const;
  StatusOr<Row> Decode(std::string_view data) const;

  const SchemaPtr& schema() const { return schema_; }

 private:
  SchemaPtr schema_;
};

}  // namespace fbstream

#endif  // FBSTREAM_COMMON_SERDE_H_
