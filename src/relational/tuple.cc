#include "relational/tuple.h"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "util/logging.h"

namespace procsim::rel {

Schema::Schema(std::vector<Column> columns) : columns_(std::move(columns)) {}

const Column& Schema::column(std::size_t i) const {
  PROCSIM_CHECK_LT(i, columns_.size());
  return columns_[i];
}

Result<std::size_t> Schema::ColumnIndex(const std::string& name) const {
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name == name) return i;
  }
  return Status::NotFound("no column named " + name);
}

Schema Schema::Concat(const Schema& left, const Schema& right) {
  std::vector<Column> columns = left.columns_;
  columns.insert(columns.end(), right.columns_.begin(), right.columns_.end());
  return Schema(std::move(columns));
}

Schema Schema::WithPrefix(const std::string& prefix) const {
  std::vector<Column> columns = columns_;
  for (Column& column : columns) column.name = prefix + "." + column.name;
  return Schema(std::move(columns));
}

std::string Schema::ToString() const {
  std::ostringstream out;
  out << "(";
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    if (i > 0) out << ", ";
    out << columns_[i].name << ":" << ValueTypeName(columns_[i].type);
  }
  out << ")";
  return out.str();
}

const Value& Tuple::value(std::size_t i) const {
  PROCSIM_CHECK_LT(i, values_.size());
  return values_[i];
}

void Tuple::set_value(std::size_t i, Value v) {
  PROCSIM_CHECK_LT(i, values_.size());
  values_[i] = std::move(v);
}

Tuple Tuple::Concat(const Tuple& left, const Tuple& right) {
  std::vector<Value> values = left.values_;
  values.insert(values.end(), right.values_.begin(), right.values_.end());
  return Tuple(std::move(values));
}

std::vector<uint8_t> Tuple::Serialize() const {
  const auto arity = static_cast<uint32_t>(values_.size());
  std::size_t length = sizeof(arity);
  for (const Value& value : values_) length += value.SerializedSize();
  // One allocation of the exact length; the values are written in place.
  std::vector<uint8_t> out(length);
  std::memcpy(out.data(), &arity, sizeof(arity));
  uint8_t* cursor = out.data() + sizeof(arity);
  for (const Value& value : values_) cursor = value.SerializeInto(cursor);
  return out;
}

namespace {

/// Reads the arity header of a serialized tuple, leaving `*cursor` at the
/// first value.
Result<uint32_t> ReadArity(std::span<const uint8_t> bytes,
                           std::size_t* cursor) {
  uint32_t arity = 0;
  if (bytes.size() < sizeof(arity)) {
    return Status::InvalidArgument("truncated tuple header");
  }
  std::memcpy(&arity, bytes.data(), sizeof(arity));
  *cursor = sizeof(arity);
  return arity;
}

}  // namespace

Result<Tuple> Tuple::Deserialize(std::span<const uint8_t> bytes) {
  std::size_t cursor = 0;
  Result<uint32_t> header = ReadArity(bytes, &cursor);
  if (!header.ok()) return header.status();
  const uint32_t arity = header.ValueOrDie();
  std::vector<Value> values;
  values.reserve(arity);
  for (uint32_t i = 0; i < arity; ++i) {
    Result<Value> value = Value::DeserializeFrom(bytes, &cursor);
    if (!value.ok()) return value.status();
    values.push_back(value.TakeValueOrDie());
  }
  return Tuple(std::move(values));
}

Result<Value> Tuple::DeserializeValue(std::span<const uint8_t> bytes,
                                      std::size_t column) {
  std::size_t cursor = 0;
  Result<uint32_t> arity = ReadArity(bytes, &cursor);
  if (!arity.ok()) return arity.status();
  if (column >= arity.ValueOrDie()) {
    return Status::InvalidArgument("column " + std::to_string(column) +
                                   " beyond tuple arity " +
                                   std::to_string(arity.ValueOrDie()));
  }
  for (std::size_t i = 0; i < column; ++i) {
    Result<Value> skipped = Value::DeserializeFrom(bytes, &cursor);
    if (!skipped.ok()) return skipped.status();
  }
  return Value::DeserializeFrom(bytes, &cursor);
}

bool Tuple::TypeChecks(const Schema& schema) const {
  if (schema.num_columns() != values_.size()) return false;
  for (std::size_t i = 0; i < values_.size(); ++i) {
    if (schema.column(i).type != values_[i].type()) return false;
  }
  return true;
}

std::string Tuple::ToString() const {
  std::ostringstream out;
  out << "<";
  for (std::size_t i = 0; i < values_.size(); ++i) {
    if (i > 0) out << ", ";
    out << values_[i].ToString();
  }
  out << ">";
  return out.str();
}

std::size_t Tuple::Hash() const {
  std::size_t h = 14695981039346656037ULL;
  for (const Value& value : values_) {
    h ^= value.Hash();
    h *= 1099511628211ULL;
  }
  return h;
}

void CanonicalBag::Add(const Tuple& tuple) {
  std::vector<uint8_t> bytes = tuple.Serialize();
  images_.emplace_back(bytes.begin(), bytes.end());
}

std::string CanonicalBag::Finish() && {
  std::sort(images_.begin(), images_.end());
  std::string digest;
  for (const std::string& image : images_) {
    // Length prefix so tuple boundaries cannot alias across images.
    uint32_t length = static_cast<uint32_t>(image.size());
    digest.append(reinterpret_cast<const char*>(&length), sizeof(length));
    digest.append(image);
  }
  return digest;
}

std::string CanonicalResultBytes(const std::vector<Tuple>& tuples) {
  CanonicalBag bag(tuples.size());
  for (const Tuple& tuple : tuples) bag.Add(tuple);
  return std::move(bag).Finish();
}

}  // namespace procsim::rel
