#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// \brief In-memory span log for the traced run.  Each span records its
/// name, start, end, the span open around it (its parent) and the op it
/// belongs to; the log is written out once, when the benchmark ends.
class SpanLog {
 public:
  static constexpr uint64_t kNoOp = ~uint64_t{0};

  struct Span {
    const char* name;  ///< a string literal
    int64_t start_ns;
    int64_t end_ns;
    int32_t parent;  ///< index of the enclosing span, -1 at top level
    uint64_t op;     ///< op index within the proof prefix, kNoOp outside
  };

  /// Opens a span nested in the innermost open one; returns its index.
  int32_t Open(const char* name, uint64_t op);
  void Close(int32_t index);

  /// Total duration in seconds and count of the spans named `name`.
  struct Total {
    double seconds = 0;
    uint64_t count = 0;
  };
  Total Sum(const std::string& name) const;

  /// Writes one JSON object per line: name, start_ns, end_ns, parent, op.
  bool WriteJsonLines(const std::string& path) const;

  std::size_t size() const { return spans_.size(); }

 private:
  static int64_t NowNs();

  std::vector<Span> spans_;
  std::vector<int32_t> open_;
  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
};

/// RAII span; a null log records nothing, so untraced code paths share the
/// traced ones.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t op = SpanLog::kNoOp)
      : log_(log), index_(log != nullptr ? log->Open(name, op) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->Close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int32_t index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
