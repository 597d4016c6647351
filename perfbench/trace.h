#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// In-memory span recorder for the traced benchmark run. Spans are recorded
// by the benchmark around its own calls into each layer's public functions;
// the program under test is not instrumented. Recording is a no-op while the
// recorder is disabled, so the untraced run pays one relaxed load per span.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct SpanRecord {
  const char* name = "";   ///< Static string; the layer-qualified span name.
  uint64_t id = 0;
  uint64_t parent = 0;     ///< 0 = root.
  uint64_t request = 0;    ///< Shared by every span of one request; 0 = none.
  int thread = 0;          ///< Small per-thread ordinal.
  Clock::time_point start;
  Clock::time_point end;
};

/// Per-name aggregate over the recorded spans (durations in microseconds).
struct SpanSummary {
  size_t count = 0;
  double total_us = 0.0;
  double self_us = 0.0;  ///< Total minus the time covered by child spans.
  double p50_us = 0.0;
  double p99_us = 0.0;
};

class Tracer {
 public:
  static Tracer& Get();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Opens a span on the calling thread; its parent is the innermost span
  /// this thread still has open. Returns 0 (and records nothing) when
  /// disabled.
  uint64_t Begin(const char* name, uint64_t request = 0);
  void End(uint64_t id);

  /// Records a span whose interval is already known, e.g. a request timed
  /// from its scheduled send time to the reply on another thread.
  void Record(const char* name, Clock::time_point start, Clock::time_point end,
              uint64_t request = 0, uint64_t parent = 0);

  /// Adds `delta` to counter `name` (no-op when disabled).
  void Count(const std::string& name, double delta);

  std::map<std::string, SpanSummary> Summarize() const;
  std::map<std::string, double> counters() const;
  /// Durations (microseconds) of every span called `name`.
  std::vector<double> Durations(const std::string& name) const;

  /// Writes the spans as Chrome trace-event JSON (chrome://tracing,
  /// Perfetto), counters as one trailing "C" event. False on I/O failure.
  bool WriteChromeJson(const std::string& path) const;

 private:
  Tracer() : epoch_(Clock::now()) {}

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{1};
  const Clock::time_point epoch_;

  mutable std::mutex mutex_;  ///< Guards everything below.
  std::vector<SpanRecord> spans_;
  std::map<std::string, double> counters_;
};

/// RAII span: Begin in the constructor, End in the destructor.
class Span {
 public:
  explicit Span(const char* name, uint64_t request = 0)
      : id_(Tracer::Get().Begin(name, request)) {}
  ~Span() { Tracer::Get().End(id_); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  uint64_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
