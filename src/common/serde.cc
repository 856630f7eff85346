#include "common/serde.h"

#include <cstring>

namespace fbstream {

void PutVarint64(std::string* dst, uint64_t v) {
  while (v >= 0x80) {
    dst->push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  dst->push_back(static_cast<char>(v));
}

bool GetVarint64(std::string_view* src, uint64_t* v) {
  uint64_t result = 0;
  for (int shift = 0; shift <= 63 && !src->empty(); shift += 7) {
    const uint8_t byte = static_cast<uint8_t>(src->front());
    src->remove_prefix(1);
    result |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *v = result;
      return true;
    }
  }
  return false;
}

void PutFixed64(std::string* dst, uint64_t v) {
  char buf[8];
  memcpy(buf, &v, 8);
  dst->append(buf, 8);
}

bool GetFixed64(std::string_view* src, uint64_t* v) {
  if (src->size() < 8) return false;
  memcpy(v, src->data(), 8);
  src->remove_prefix(8);
  return true;
}

void PutLengthPrefixed(std::string* dst, std::string_view s) {
  PutVarint64(dst, s.size());
  dst->append(s.data(), s.size());
}

bool GetLengthPrefixed(std::string_view* src, std::string_view* s) {
  uint64_t len = 0;
  if (!GetVarint64(src, &len)) return false;
  if (src->size() < len) return false;
  *s = src->substr(0, len);
  src->remove_prefix(len);
  return true;
}

void EncodeValue(const Value& v, std::string* dst) {
  dst->push_back(static_cast<char>(v.type()));
  switch (v.type()) {
    case ValueType::kNull:
      break;
    case ValueType::kInt64:
      PutVarint64(dst, ZigzagEncode(v.AsInt64()));
      break;
    case ValueType::kDouble: {
      uint64_t bits = 0;
      const double d = v.AsDouble();
      memcpy(&bits, &d, 8);
      PutFixed64(dst, bits);
      break;
    }
    case ValueType::kString:
      PutLengthPrefixed(dst, v.AsString());
      break;
  }
}

Status DecodeValue(std::string_view* src, Value* v) {
  if (src->empty()) return Status::Corruption("value: empty input");
  const auto type = static_cast<ValueType>(src->front());
  src->remove_prefix(1);
  switch (type) {
    case ValueType::kNull:
      *v = Value();
      return Status::OK();
    case ValueType::kInt64: {
      uint64_t raw = 0;
      if (!GetVarint64(src, &raw)) {
        return Status::Corruption("value: bad varint");
      }
      *v = Value(ZigzagDecode(raw));
      return Status::OK();
    }
    case ValueType::kDouble: {
      uint64_t bits = 0;
      if (!GetFixed64(src, &bits)) {
        return Status::Corruption("value: bad double");
      }
      double d = 0;
      memcpy(&d, &bits, 8);
      *v = Value(d);
      return Status::OK();
    }
    case ValueType::kString: {
      std::string_view s;
      if (!GetLengthPrefixed(src, &s)) {
        return Status::Corruption("value: bad string");
      }
      *v = Value(std::string(s));
      return Status::OK();
    }
  }
  return Status::Corruption("value: unknown type tag");
}

std::string BinaryRowCodec::Encode(const Row& row) const {
  std::string out;
  PutVarint64(&out, row.num_columns());
  for (size_t i = 0; i < row.num_columns(); ++i) {
    EncodeValue(row.Get(i), &out);
  }
  return out;
}

void BinaryRowCodec::EncodeColumns(const Row& row,
                                   const std::vector<size_t>& columns,
                                   std::string* out) const {
  static const Value kNull;
  PutVarint64(out, columns.size());
  for (const size_t i : columns) {
    EncodeValue(i < row.num_columns() ? row.Get(i) : kNull, out);
  }
}

StatusOr<Row> BinaryRowCodec::Decode(std::string_view data) const {
  uint64_t n = 0;
  if (!GetVarint64(&data, &n)) return Status::Corruption("row: bad count");
  // Each encoded value needs at least one byte; a count beyond that is
  // corrupt (and must not drive a huge reserve()).
  if (n > data.size()) return Status::Corruption("row: count too large");
  std::vector<Value> values;
  values.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    Value v;
    FBSTREAM_RETURN_IF_ERROR(DecodeValue(&data, &v));
    values.push_back(std::move(v));
  }
  return Row(schema_, std::move(values));
}

std::string TextRowCodec::Encode(const Row& row) const {
  std::string out;
  for (size_t i = 0; i < row.num_columns(); ++i) {
    if (i > 0) out.push_back('\t');
    if (!row.Get(i).is_null()) out += row.Get(i).ToString();
  }
  return out;
}

StatusOr<Row> TextRowCodec::Decode(std::string_view data) const {
  std::vector<Value> values;
  values.reserve(schema_->num_columns());
  size_t col = 0;
  size_t start = 0;
  const size_t n = data.size();
  for (size_t pos = 0; pos <= n && col < schema_->num_columns(); ++pos) {
    if (pos == n || data[pos] == '\t') {
      const std::string_view cell = data.substr(start, pos - start);
      switch (schema_->column(col).type) {
        case ValueType::kInt64: {
          // Hand-rolled parse avoids a temporary std::string per cell.
          int64_t v = 0;
          bool neg = false;
          size_t i = 0;
          if (i < cell.size() && (cell[i] == '-' || cell[i] == '+')) {
            neg = cell[i] == '-';
            ++i;
          }
          for (; i < cell.size(); ++i) {
            const char c = cell[i];
            if (c < '0' || c > '9') break;
            v = v * 10 + (c - '0');
          }
          values.emplace_back(neg ? -v : v);
          break;
        }
        case ValueType::kDouble: {
          const std::string tmp(cell);
          values.emplace_back(strtod(tmp.c_str(), nullptr));
          break;
        }
        case ValueType::kString:
        case ValueType::kNull:
          values.emplace_back(std::string(cell));
          break;
      }
      ++col;
      start = pos + 1;
    }
  }
  while (values.size() < schema_->num_columns()) values.emplace_back();
  return Row(schema_, std::move(values));
}

}  // namespace fbstream
