#include "util/thread_pool.h"

#include <atomic>
#include <chrono>
#include <exception>
#include <memory>
#include <sstream>
#include <utility>

namespace agsc::util {

namespace {
int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Heartbeat slot of the deadline-bounded task running on this thread.
thread_local std::atomic<int64_t>* current_beat = nullptr;
}  // namespace

void ThreadPool::Heartbeat() {
  if (current_beat != nullptr) {
    current_beat->store(NowNs(), std::memory_order_relaxed);
  }
}

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads < 0) num_threads = 0;
  threads_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutting_down_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::packaged_task<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutting_down_ and nothing left.
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();  // Exceptions land in the task's future, never escape here.
  }
}

std::future<void> ThreadPool::Submit(std::function<void()> task) {
  std::packaged_task<void()> packaged(std::move(task));
  std::future<void> future = packaged.get_future();
  if (threads_.empty()) {
    packaged();  // Inline mode: run on the caller's thread.
    return future;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(packaged));
  }
  cv_.notify_one();
  return future;
}

void ThreadPool::ParallelFor(int n, const std::function<void(int)>& fn) {
  if (n <= 0) return;
  std::vector<std::future<void>> futures;
  futures.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    futures.push_back(Submit([&fn, i] { fn(i); }));
  }
  // Wait for everything first so no task can still be touching caller state
  // when we unwind, then rethrow from the lowest failing index.
  std::exception_ptr first_error;
  for (int i = 0; i < n; ++i) {
    try {
      futures[static_cast<size_t>(i)].get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

void ThreadPool::ParallelFor(int n, const std::function<void(int)>& fn,
                             long deadline_ms) {
  if (deadline_ms <= 0) {
    ParallelFor(n, fn);
    return;
  }
  if (n <= 0) return;

  // Everything a task touches after a timeout throw must outlive this
  // frame: the callable and the heartbeat slots live behind a shared_ptr
  // that every task co-owns.
  struct Batch {
    std::function<void(int)> fn;
    std::vector<std::atomic<int64_t>> beat_ns;  ///< 0 = not started yet.
    std::vector<std::atomic<uint8_t>> done;
    Batch(const std::function<void(int)>& f, int count)
        : fn(f),
          beat_ns(static_cast<size_t>(count)),
          done(static_cast<size_t>(count)) {}
  };
  auto batch = std::make_shared<Batch>(fn, n);
  const int64_t submitted_ns = NowNs();

  std::vector<std::future<void>> futures;
  futures.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    futures.push_back(Submit([batch, i] {
      const size_t s = static_cast<size_t>(i);
      std::atomic<int64_t>* const outer = current_beat;
      current_beat = &batch->beat_ns[s];
      Heartbeat();
      try {
        batch->fn(i);
      } catch (...) {
        current_beat = outer;
        batch->done[s].store(1, std::memory_order_release);
        throw;  // Lands in the future; rethrown below on the normal path.
      }
      current_beat = outer;
      batch->done[s].store(1, std::memory_order_release);
    }));
  }

  // Sleep until the earliest unfinished task's deadline (or until the
  // first unfinished task completes), then re-scan: a task that beat in
  // the meantime has a later deadline, and only one that is still silent
  // past its deadline counts as hung.
  const int64_t deadline_ns = static_cast<int64_t>(deadline_ms) * 1000000;
  for (;;) {
    int first_open = -1;
    int64_t earliest_ns = 0;
    for (int i = 0; i < n; ++i) {
      const size_t s = static_cast<size_t>(i);
      if (batch->done[s].load(std::memory_order_acquire) != 0) continue;
      const int64_t beat = batch->beat_ns[s].load(std::memory_order_relaxed);
      const int64_t due = (beat > 0 ? beat : submitted_ns) + deadline_ns;
      if (first_open < 0 || due < earliest_ns) earliest_ns = due;
      if (first_open < 0) first_open = i;
    }
    if (first_open < 0) break;  // Every task finished.
    const int64_t now = NowNs();
    if (now < earliest_ns) {
      futures[static_cast<size_t>(first_open)].wait_for(
          std::chrono::nanoseconds(earliest_ns - now));
      continue;
    }
    for (int i = 0; i < n; ++i) {
      const size_t s = static_cast<size_t>(i);
      if (batch->done[s].load(std::memory_order_acquire) != 0) continue;
      const int64_t beat = batch->beat_ns[s].load(std::memory_order_relaxed);
      const int64_t silent_ns = now - (beat > 0 ? beat : submitted_ns);
      if (silent_ns < deadline_ns) continue;
      const long silent_ms = static_cast<long>(silent_ns / 1000000);
      std::ostringstream msg;
      msg << "watchdog: task " << i << " of " << n << " missed the "
          << deadline_ms << " ms deadline (";
      if (beat > 0) {
        msg << "no heartbeat for " << silent_ms << " ms";
      } else {
        msg << "never started";
      }
      msg << ")";
      throw WatchdogTimeoutError(msg.str(), i, beat > 0,
                                 beat > 0 ? silent_ms : 0, deadline_ms);
    }
  }

  std::exception_ptr first_error;
  for (int i = 0; i < n; ++i) {
    try {
      futures[static_cast<size_t>(i)].get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace agsc::util
