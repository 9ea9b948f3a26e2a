#include "spans.h"

#include <fstream>

namespace perfbench {

int64_t SpanLog::NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int32_t SpanLog::Open(const char* name, uint64_t op) {
  const int32_t parent = open_.empty() ? -1 : open_.back();
  const auto index = static_cast<int32_t>(spans_.size());
  spans_.push_back(Span{name, NowNs(), 0, parent, op});
  open_.push_back(index);
  return index;
}

void SpanLog::Close(int32_t index) {
  spans_[index].end_ns = NowNs();
  // Spans close in LIFO order (they are scoped), so the innermost open span
  // is the one closing.
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

SpanLog::Total SpanLog::Sum(const std::string& name) const {
  Total total;
  int64_t ns = 0;
  for (const Span& span : spans_) {
    if (name != span.name) continue;
    ns += span.end_ns - span.start_ns;
    ++total.count;
  }
  total.seconds = static_cast<double>(ns) * 1e-9;
  return total;
}

bool SpanLog::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const int64_t origin_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          origin_.time_since_epoch())
          .count();
  for (const Span& span : spans_) {
    out << "{\"name\":\"" << span.name
        << "\",\"start_ns\":" << span.start_ns - origin_ns
        << ",\"end_ns\":" << span.end_ns - origin_ns
        << ",\"parent\":" << span.parent << ",\"op\":";
    if (span.op == kNoOp) {
      out << "null";
    } else {
      out << span.op;
    }
    out << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
