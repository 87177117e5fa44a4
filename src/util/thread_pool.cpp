#include "util/thread_pool.h"

#include <algorithm>
#include <utility>

#include "util/assert.h"

namespace extnc {

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  task_available_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  EXTNC_CHECK(task != nullptr);
  {
    std::lock_guard lock(mutex_);
    EXTNC_CHECK(!stopping_);
    tasks_.push(std::move(task));
    ++in_flight_;
  }
  task_available_.notify_one();
}

void ThreadPool::wait_idle() {
  std::exception_ptr error;
  {
    std::unique_lock lock(mutex_);
    all_done_.wait(lock, [this] { return in_flight_ == 0; });
    error = std::exchange(pending_error_, nullptr);
  }
  if (error) std::rethrow_exception(error);
}

void ThreadPool::run_batch(std::size_t count,
                           const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  struct Latch {
    std::mutex m{};
    std::condition_variable done{};
    std::size_t remaining;
    std::exception_ptr error{};  // first exception of this batch
  };
  Latch latch{.remaining = count};
  for (std::size_t i = 0; i < count; ++i) {
    // The try/catch lives inside the submitted closure, so a batch task's
    // exception is owned by this batch's latch — never by the pool-wide
    // pending_error_ another caller's wait_idle would pick up.
    submit([&fn, &latch, i] {
      std::exception_ptr error;
      try {
        fn(i);
      } catch (...) {
        error = std::current_exception();
      }
      std::lock_guard lock(latch.m);
      if (error && !latch.error) latch.error = std::move(error);
      if (--latch.remaining == 0) latch.done.notify_one();
    });
  }
  std::unique_lock lock(latch.m);
  latch.done.wait(lock, [&latch] { return latch.remaining == 0; });
  if (latch.error) std::rethrow_exception(latch.error);
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& fn) {
  for (std::size_t i = 0; i < count; ++i) {
    submit([&fn, i] { fn(i); });
  }
  wait_idle();
}

void ThreadPool::parallel_for_chunks(
    std::size_t count,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (count == 0) return;
  const std::size_t workers = std::min(count, num_threads());
  const std::size_t chunk = (count + workers - 1) / workers;
  for (std::size_t w = 0; w < workers; ++w) {
    const std::size_t begin = w * chunk;
    const std::size_t end = std::min(count, begin + chunk);
    if (begin >= end) break;
    submit([&fn, begin, end] { fn(begin, end); });
  }
  wait_idle();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      task_available_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // stopping_ and drained
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    std::exception_ptr error;
    try {
      task();
    } catch (...) {
      error = std::current_exception();
    }
    {
      std::lock_guard lock(mutex_);
      if (error && !pending_error_) pending_error_ = std::move(error);
      if (--in_flight_ == 0) all_done_.notify_all();
    }
  }
}

}  // namespace extnc
