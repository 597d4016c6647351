#include "trace.h"

#include <algorithm>
#include <fstream>
#include <unordered_map>

namespace perfbench {
namespace {

std::atomic<int> g_next_thread{1};

int ThreadOrdinal() {
  thread_local const int ordinal = g_next_thread.fetch_add(1);
  return ordinal;
}

/// Spans this thread has open, innermost last.
std::vector<SpanRecord>& OpenStack() {
  thread_local std::vector<SpanRecord> stack;
  return stack;
}

double Us(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

double Quantile(std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const size_t i = std::min(sorted.size() - 1,
                            static_cast<size_t>(q * sorted.size()));
  return sorted[i];
}

/// Length of the union of `intervals`, each clipped to [lo, hi].
double CoveredUs(std::vector<std::pair<Clock::time_point, Clock::time_point>>&
                     intervals,
                 Clock::time_point lo, Clock::time_point hi) {
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  Clock::time_point cursor = lo;
  for (auto [s, e] : intervals) {
    s = std::max(s, cursor);
    e = std::min(e, hi);
    if (e <= s) continue;
    covered += Us(e - s);
    cursor = e;
  }
  return covered;
}

}  // namespace

Tracer& Tracer::Get() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

uint64_t Tracer::Begin(const char* name, uint64_t request) {
  if (!enabled()) return 0;
  std::vector<SpanRecord>& stack = OpenStack();
  SpanRecord open;
  open.name = name;
  open.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  open.parent = stack.empty() ? 0 : stack.back().id;
  open.request = request != 0 || stack.empty() ? request : stack.back().request;
  open.thread = ThreadOrdinal();
  open.start = Clock::now();
  stack.push_back(open);
  return open.id;
}

void Tracer::End(uint64_t id) {
  if (id == 0) return;
  const Clock::time_point now = Clock::now();
  std::vector<SpanRecord>& stack = OpenStack();
  // Spans close innermost first (RAII); tolerate a stray id by searching.
  for (size_t i = stack.size(); i-- > 0;) {
    if (stack[i].id != id) continue;
    SpanRecord record = stack[i];
    record.end = now;
    stack.erase(stack.begin() + static_cast<std::ptrdiff_t>(i));
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(record);
    return;
  }
}

void Tracer::Record(const char* name, Clock::time_point start,
                    Clock::time_point end, uint64_t request, uint64_t parent) {
  if (!enabled()) return;
  SpanRecord record;
  record.name = name;
  record.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  record.parent = parent;
  record.request = request;
  record.thread = ThreadOrdinal();
  record.start = start;
  record.end = end;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(record);
}

void Tracer::Count(const std::string& name, double delta) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  counters_[name] += delta;
}

std::map<std::string, SpanSummary> Tracer::Summarize() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::unordered_map<uint64_t,
                     std::vector<std::pair<Clock::time_point,
                                           Clock::time_point>>>
      children;
  for (const SpanRecord& s : spans_) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start, s.end);
  }
  std::map<std::string, std::vector<double>> durations;
  std::map<std::string, SpanSummary> out;
  for (const SpanRecord& s : spans_) {
    const double dur = Us(s.end - s.start);
    SpanSummary& sum = out[s.name];
    ++sum.count;
    sum.total_us += dur;
    auto it = children.find(s.id);
    sum.self_us +=
        it == children.end() ? dur
                             : dur - CoveredUs(it->second, s.start, s.end);
    durations[s.name].push_back(dur);
  }
  for (auto& [name, d] : durations) {
    std::sort(d.begin(), d.end());
    out[name].p50_us = Quantile(d, 0.5);
    out[name].p99_us = Quantile(d, 0.99);
  }
  return out;
}

std::map<std::string, double> Tracer::counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const SpanRecord& s : spans_) {
    if (name == s.name) out.push_back(Us(s.end - s.start));
  }
  return out;
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path, std::ios::trunc);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  Clock::time_point last = epoch_;
  bool first = true;
  for (const SpanRecord& s : spans_) {
    last = std::max(last, s.end);
    out << (first ? "" : ",\n") << "{\"name\":\"" << s.name
        << "\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":"
        << s.thread << ",\"ts\":" << Us(s.start - epoch_)
        << ",\"dur\":" << Us(s.end - s.start) << ",\"args\":{\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"request\":" << s.request << "}}";
    first = false;
  }
  out << (first ? "" : ",\n")
      << "{\"name\":\"counters\",\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":"
      << Us(last - epoch_) << ",\"args\":{";
  bool first_counter = true;
  for (const auto& [name, value] : counters_) {
    out << (first_counter ? "" : ",") << "\"" << name << "\":" << value;
    first_counter = false;
  }
  out << "}}\n]}\n";
  out.close();
  return static_cast<bool>(out);
}

}  // namespace perfbench
