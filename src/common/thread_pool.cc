#include "common/thread_pool.h"

#include <atomic>
#include <chrono>
#include <memory>

#include "common/fault_injection.h"

namespace sieve {

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::packaged_task<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown with a drained queue
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();  // packaged_task captures exceptions into the future
  }
}

std::future<void> ThreadPool::Submit(std::function<void()> task) {
  std::packaged_task<void()> packaged(std::move(task));
  std::future<void> future = packaged.get_future();
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push(std::move(packaged));
  }
  cv_.notify_one();
  return future;
}

namespace {

// Shared state of one ParallelFor batch. The batch's helper tasks and the
// calling thread all claim indices from `next`; the caller blocks on
// `done` only for indices that other threads claimed. Helper tasks hold
// the state via shared_ptr because they may be popped from the queue
// after the batch already finished (they then find next >= n and return
// without touching `fn`, which lives on the caller's stack).
struct BatchState {
  std::atomic<size_t> next{0};
  std::mutex mu;
  std::condition_variable done;
  size_t completed = 0;
  size_t first_error_index = 0;
  std::exception_ptr first_error;
};

// Message of the in-flight exception; callable only from inside a catch
// block (rethrows and re-catches the active exception).
std::string CurrentExceptionMessage() {
  try {
    throw;
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown exception";
  }
}

}  // namespace

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  auto state = std::make_shared<BatchState>();

  // Claim loop: grab the next unstarted index and run it. `fn` is only
  // dereferenced for claimed indices (next < n), and a claimed index keeps
  // the caller blocked below until it completes — so `fn` is always alive
  // when invoked, even from a stale helper task.
  const std::function<void(size_t)>* fn_ptr = &fn;
  auto claim_loop = [state, fn_ptr, n] {
    while (true) {
      size_t i = state->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      // Chaos knob: delays a claimed index before it runs, perturbing the
      // dynamic morsel schedule (a slow worker, a descheduled thread).
      if (SIEVE_FAULT_POINT("pool.task.stall")) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      std::exception_ptr error;
      try {
        (*fn_ptr)(i);
      } catch (...) {
        // Park the failure wrapped with its task index — a bare rethrow at
        // the barrier gave no hint which item failed. The original
        // exception nests inside the wrapper.
        try {
          std::throw_with_nested(
              ParallelForTaskError(i, CurrentExceptionMessage()));
        } catch (...) {
          error = std::current_exception();
        }
      }
      std::lock_guard<std::mutex> lock(state->mu);
      if (error != nullptr &&
          (state->first_error == nullptr || i < state->first_error_index)) {
        state->first_error = std::move(error);
        state->first_error_index = i;
      }
      // Release a losing error while the lock is held: dropping its last
      // reference frees the exception object, and that free must be
      // ordered before the caller, woken under this lock, reads the winner.
      error = nullptr;
      if (++state->completed == n) state->done.notify_all();
    }
  };

  // One helper per worker (capped at n); the caller claims too, so a batch
  // makes progress even when every worker is busy with other batches.
  size_t helpers = threads_.size() < n ? threads_.size() : n;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < helpers; ++i) {
      queue_.emplace(std::packaged_task<void()>(claim_loop));
    }
  }
  cv_.notify_all();

  claim_loop();  // caller participates: never blocks on queue capacity

  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(state->mu);
    state->done.wait(lock, [&state, n] { return state->completed == n; });
    // Take the error out of the shared state: a stale helper task may drop
    // the last reference to `state` later, and must not free the exception
    // object on its thread while the caller's handler still reads it.
    error = std::move(state->first_error);
  }
  if (error != nullptr) std::rethrow_exception(error);
}

}  // namespace sieve
