#include "relational/value.h"

#include <cmath>
#include <cstring>
#include <limits>

#include "util/logging.h"

namespace procsim::rel {

std::string ValueTypeName(ValueType type) {
  switch (type) {
    case ValueType::kInt64:
      return "int64";
    case ValueType::kDouble:
      return "double";
    case ValueType::kString:
      return "string";
  }
  return "?";
}

int64_t Value::AsInt64() const {
  PROCSIM_CHECK(is_int64()) << "value is " << ValueTypeName(type());
  return std::get<int64_t>(repr_);
}

double Value::AsDouble() const {
  PROCSIM_CHECK(is_double()) << "value is " << ValueTypeName(type());
  return std::get<double>(repr_);
}

const std::string& Value::AsString() const {
  PROCSIM_CHECK(is_string()) << "value is " << ValueTypeName(type());
  return std::get<std::string>(repr_);
}

std::strong_ordering Value::Compare(const Value& other) const {
  if (repr_.index() != other.repr_.index()) {
    return repr_.index() <=> other.repr_.index();
  }
  switch (type()) {
    case ValueType::kInt64:
      return std::get<int64_t>(repr_) <=> std::get<int64_t>(other.repr_);
    case ValueType::kDouble: {
      const double a = std::get<double>(repr_);
      const double b = std::get<double>(other.repr_);
      if (std::isnan(a) || std::isnan(b)) {
        return std::isnan(a) <=> std::isnan(b);
      }
      if (a < b) return std::strong_ordering::less;
      if (a > b) return std::strong_ordering::greater;
      return std::strong_ordering::equal;
    }
    case ValueType::kString: {
      const int c =
          std::get<std::string>(repr_).compare(std::get<std::string>(other.repr_));
      if (c < 0) return std::strong_ordering::less;
      if (c > 0) return std::strong_ordering::greater;
      return std::strong_ordering::equal;
    }
  }
  return std::strong_ordering::equal;
}

std::string Value::ToString() const {
  switch (type()) {
    case ValueType::kInt64:
      return std::to_string(std::get<int64_t>(repr_));
    case ValueType::kDouble:
      return std::to_string(std::get<double>(repr_));
    case ValueType::kString:
      return "\"" + std::get<std::string>(repr_) + "\"";
  }
  return "?";
}

namespace {

template <typename T>
uint8_t* WritePod(uint8_t* out, T value) {
  std::memcpy(out, &value, sizeof(T));
  return out + sizeof(T);
}

template <typename T>
bool ReadPod(std::span<const uint8_t> in, std::size_t* cursor, T* value) {
  if (*cursor + sizeof(T) > in.size()) return false;
  std::memcpy(value, in.data() + *cursor, sizeof(T));
  *cursor += sizeof(T);
  return true;
}

// FNV-1a, streamed over the bytes of an encoded value.
constexpr std::size_t kFnvOffset = 1469598103934665603ULL;

std::size_t FnvMix(std::size_t h, const void* data, std::size_t n) {
  const auto* bytes = static_cast<const uint8_t*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

std::size_t Value::SerializedSize() const {
  switch (type()) {
    case ValueType::kInt64:
      return 1 + sizeof(int64_t);
    case ValueType::kDouble:
      return 1 + sizeof(double);
    case ValueType::kString:
      return 1 + sizeof(uint32_t) + std::get<std::string>(repr_).size();
  }
  return 1;
}

uint8_t* Value::SerializeInto(uint8_t* out) const {
  out = WritePod<uint8_t>(out, static_cast<uint8_t>(type()));
  switch (type()) {
    case ValueType::kInt64:
      return WritePod(out, std::get<int64_t>(repr_));
    case ValueType::kDouble:
      return WritePod(out, std::get<double>(repr_));
    case ValueType::kString: {
      const std::string& s = std::get<std::string>(repr_);
      out = WritePod<uint32_t>(out, static_cast<uint32_t>(s.size()));
      std::memcpy(out, s.data(), s.size());
      return out + s.size();
    }
  }
  return out;
}

Result<Value> Value::DeserializeFrom(std::span<const uint8_t> in,
                                     std::size_t* cursor) {
  uint8_t tag = 0;
  if (!ReadPod(in, cursor, &tag)) {
    return Status::InvalidArgument("truncated value tag");
  }
  switch (static_cast<ValueType>(tag)) {
    case ValueType::kInt64: {
      int64_t v = 0;
      if (!ReadPod(in, cursor, &v)) {
        return Status::InvalidArgument("truncated int64 value");
      }
      return Value(v);
    }
    case ValueType::kDouble: {
      double v = 0;
      if (!ReadPod(in, cursor, &v)) {
        return Status::InvalidArgument("truncated double value");
      }
      return Value(v);
    }
    case ValueType::kString: {
      uint32_t size = 0;
      if (!ReadPod(in, cursor, &size)) {
        return Status::InvalidArgument("truncated string size");
      }
      if (*cursor + size > in.size()) {
        return Status::InvalidArgument("truncated string value");
      }
      std::string s(in.begin() + *cursor, in.begin() + *cursor + size);
      *cursor += size;
      return Value(std::move(s));
    }
  }
  return Status::InvalidArgument("unknown value tag");
}

std::size_t Value::Hash() const {
  // The same bytes SerializeInto writes, in the same order, without a
  // buffer.
  const auto tag = static_cast<uint8_t>(type());
  std::size_t h = FnvMix(kFnvOffset, &tag, 1);
  switch (type()) {
    case ValueType::kInt64: {
      const int64_t v = std::get<int64_t>(repr_);
      return FnvMix(h, &v, sizeof(v));
    }
    case ValueType::kDouble: {
      // Equal values must hash equally: -0.0 as +0.0, every NaN as one NaN.
      double d = std::get<double>(repr_);
      if (d == 0.0) d = 0.0;
      if (std::isnan(d)) d = std::numeric_limits<double>::quiet_NaN();
      return FnvMix(h, &d, sizeof(d));
    }
    case ValueType::kString: {
      const std::string& s = std::get<std::string>(repr_);
      const auto size = static_cast<uint32_t>(s.size());
      h = FnvMix(h, &size, sizeof(size));
      return FnvMix(h, s.data(), s.size());
    }
  }
  return h;
}

}  // namespace procsim::rel
