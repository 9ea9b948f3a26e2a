#ifndef PROCSIM_RELATIONAL_TUPLE_H_
#define PROCSIM_RELATIONAL_TUPLE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "relational/value.h"
#include "util/status.h"

namespace procsim::rel {

/// One column of a schema.
struct Column {
  std::string name;
  ValueType type = ValueType::kInt64;

  bool operator==(const Column&) const = default;
};

/// \brief An ordered list of named, typed columns.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Column> columns);

  std::size_t num_columns() const { return columns_.size(); }
  const Column& column(std::size_t i) const;
  const std::vector<Column>& columns() const { return columns_; }

  /// Index of the column named `name`, or NotFound.
  Result<std::size_t> ColumnIndex(const std::string& name) const;

  /// Concatenation of two schemas; duplicate names get a "<prefix>." prefix
  /// from the caller (used when joining).
  static Schema Concat(const Schema& left, const Schema& right);

  /// Prefixes every column name with `prefix` + '.'.
  Schema WithPrefix(const std::string& prefix) const;

  bool operator==(const Schema&) const = default;
  std::string ToString() const;

 private:
  std::vector<Column> columns_;
};

/// \brief A row: one Value per schema column.
class Tuple {
 public:
  Tuple() = default;
  explicit Tuple(std::vector<Value> values) : values_(std::move(values)) {}

  std::size_t arity() const { return values_.size(); }
  const Value& value(std::size_t i) const;
  const std::vector<Value>& values() const { return values_; }
  void set_value(std::size_t i, Value v);

  /// Concatenation of two tuples (join output).
  static Tuple Concat(const Tuple& left, const Tuple& right);

  /// Serializes to the tuple's natural bytes.  Pages account a stored
  /// tuple at the paper's fixed width S without keeping the padding (see
  /// storage::Page).
  std::vector<uint8_t> Serialize() const;
  /// Serialize into `out`, replacing its contents and reusing its capacity.
  void SerializeInto(std::vector<uint8_t>* out) const;
  /// Decodes a serialized tuple; bytes past its last value are ignored, so
  /// a zero-padded image (as Page::Deserialize stores) decodes too.
  static Result<Tuple> Deserialize(std::span<const uint8_t> bytes);
  /// Decodes only value `column` of a serialized tuple, stepping over the
  /// values before it without building a Tuple.
  static Result<Value> DeserializeValue(std::span<const uint8_t> bytes,
                                        std::size_t column);

  bool TypeChecks(const Schema& schema) const;

  bool operator==(const Tuple& other) const { return values_ == other.values_; }
  std::string ToString() const;
  std::size_t Hash() const;

 private:
  std::vector<Value> values_;
};

/// Hash functor for unordered containers of tuples.
struct TupleHash {
  std::size_t operator()(const Tuple& tuple) const { return tuple.Hash(); }
};

/// \brief Byte-exact, order-insensitive canonical form of a bag of tuples,
/// built one tuple at a time: each tuple's unpadded serialized image,
/// sorted, then length-prefix concatenated.  Two bags are equal iff their
/// forms are.  Doubles compare bit for bit, where ToString() would round
/// them to six decimals.
class CanonicalBag {
 public:
  /// `expected_tuples` only presizes the image list.
  explicit CanonicalBag(std::size_t expected_tuples = 0) {
    images_.reserve(expected_tuples);
  }

  void Add(const Tuple& tuple);
  std::string Finish() &&;

 private:
  std::vector<std::string> images_;
};

/// The CanonicalBag form of `tuples`.
std::string CanonicalResultBytes(const std::vector<Tuple>& tuples);

}  // namespace procsim::rel

#endif  // PROCSIM_RELATIONAL_TUPLE_H_
