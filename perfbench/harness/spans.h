#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

// In-memory spans recorded by the harness around its calls into each layer
// (and reconstructed from the timeline each /query response carries). Every
// recording thread owns one SpanLog; the logs are merged and written out
// once the run ends. Spans of one operation share `op`; `parent` links a
// span to the span that caused it (0 = operation root).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <vector>

namespace perfbench {

struct Span {
  uint64_t op = 0;
  uint64_t id = 0;
  uint64_t parent = 0;
  const char* name = "";
  int64_t start_us = 0;  // since the run's epoch (SpanLog::Now)
  int64_t dur_us = 0;
};

class SpanLog {
 public:
  static int64_t Now() {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - Origin())
        .count();
  }
  static uint64_t NextId() {
    static std::atomic<uint64_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
  }

  // Records a finished span and returns its id.
  uint64_t Add(uint64_t op, uint64_t parent, const char* name,
               int64_t start_us, int64_t dur_us) {
    Span span{op, NextId(), parent, name, start_us, dur_us};
    spans_.push_back(span);
    return span.id;
  }
  void Record(const Span& span) { spans_.push_back(span); }

  const std::vector<Span>& spans() const { return spans_; }
  void Append(const SpanLog& other) {
    spans_.insert(spans_.end(), other.spans_.begin(), other.spans_.end());
  }

 private:
  static std::chrono::steady_clock::time_point Origin() {
    static const auto origin = std::chrono::steady_clock::now();
    return origin;
  }

  std::vector<Span> spans_;
};

// Times one call into a layer and records it on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, uint64_t op, uint64_t parent, const char* name)
      : log_(log), op_(op), parent_(parent), name_(name),
        id_(SpanLog::NextId()), start_(SpanLog::Now()) {}
  ~ScopedSpan() {
    if (log_ != nullptr) {
      log_->Record(
          Span{op_, id_, parent_, name_, start_, SpanLog::Now() - start_});
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return id_; }
  // Elapsed so far, in milliseconds.
  double ElapsedMs() const { return (SpanLog::Now() - start_) / 1000.0; }

 private:
  SpanLog* log_;
  uint64_t op_, parent_;
  const char* name_;
  uint64_t id_;
  int64_t start_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
