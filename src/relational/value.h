#ifndef PROCSIM_RELATIONAL_VALUE_H_
#define PROCSIM_RELATIONAL_VALUE_H_

#include <cstdint>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "util/status.h"

namespace procsim::rel {

enum class ValueType : uint8_t { kInt64 = 0, kDouble = 1, kString = 2 };

std::string ValueTypeName(ValueType type);

/// \brief A single attribute value: 64-bit integer, double, or string.
class Value {
 public:
  Value() : repr_(int64_t{0}) {}
  explicit Value(int64_t v) : repr_(v) {}
  explicit Value(double v) : repr_(v) {}
  explicit Value(std::string v) : repr_(std::move(v)) {}
  /// Convenience for string literals.
  explicit Value(const char* v) : repr_(std::string(v)) {}

  ValueType type() const {
    return static_cast<ValueType>(repr_.index());
  }

  bool is_int64() const { return type() == ValueType::kInt64; }
  bool is_double() const { return type() == ValueType::kDouble; }
  bool is_string() const { return type() == ValueType::kString; }

  int64_t AsInt64() const;
  double AsDouble() const;
  const std::string& AsString() const;

  /// Total order within a type; comparing different types orders by type
  /// tag (kept deterministic for container use, never hit by well-typed
  /// queries).  Doubles: -0.0 equals +0.0, and NaN sorts after every number
  /// and equals only NaN.
  std::strong_ordering Compare(const Value& other) const;

  bool operator==(const Value& other) const {
    return Compare(other) == std::strong_ordering::equal;
  }
  bool operator<(const Value& other) const {
    return Compare(other) == std::strong_ordering::less;
  }

  std::string ToString() const;

  /// Encoded form: a one-byte type tag, then the int64 or double bytes, or
  /// a uint32 length and the string bytes.
  std::size_t SerializedSize() const;
  /// Writes the encoded form at `out` (SerializedSize() bytes); returns the
  /// end of what it wrote.
  uint8_t* SerializeInto(uint8_t* out) const;
  static Result<Value> DeserializeFrom(std::span<const uint8_t> in,
                                       std::size_t* cursor);

  /// Stable hash: FNV-1a over the encoded form.  Equal values hash
  /// equally: -0.0 hashes as +0.0 and every NaN as one canonical NaN.  The
  /// values are part of the page-image contract: through Tuple::Hash they
  /// order ivm::DeltaSet::NetRows, hence AVM's patches.
  std::size_t Hash() const;

 private:
  std::variant<int64_t, double, std::string> repr_;
};

}  // namespace procsim::rel

#endif  // PROCSIM_RELATIONAL_VALUE_H_
