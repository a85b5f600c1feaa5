#pragma once

#include <atomic>
#include <chrono>
#include <stdexcept>

namespace ftsp::util {

/// Thrown by long-running compute loops when their CancelToken fires.
/// The serving tier maps it to the `deadline_exceeded` wire error.
struct CancelledError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Cooperative cancellation: a flag plus an optional absolute deadline.
/// Compute loops poll `cancelled()` (or call `throw_if_cancelled()`) at
/// natural chunk boundaries; nobody is interrupted mid-wave, so results
/// already produced stay deterministic and a cancelled request simply
/// stops scheduling more work. The deadline is latched into the flag on
/// first observation.
///
/// Thread-safe: `cancel()` and `cancelled()` may race freely.
class CancelToken {
 public:
  using Clock = std::chrono::steady_clock;

  CancelToken() = default;
  explicit CancelToken(Clock::time_point deadline) : deadline_(deadline) {}

  /// Trips the token permanently.
  void cancel() { cancelled_.store(true, std::memory_order_relaxed); }

  /// True once cancelled, or once the deadline (if any) has passed.
  bool cancelled() const {
    if (cancelled_.load(std::memory_order_relaxed)) {
      return true;
    }
    if (deadline_ != Clock::time_point{} && Clock::now() >= deadline_) {
      cancelled_.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

  /// Throws CancelledError (with `what` as the message) when cancelled.
  void throw_if_cancelled(const char* what) const {
    if (cancelled()) {
      throw CancelledError(what);
    }
  }

  Clock::time_point deadline() const { return deadline_; }

 private:
  mutable std::atomic<bool> cancelled_{false};
  Clock::time_point deadline_{};
};

}  // namespace ftsp::util
