//===- CancelToken.h - Cooperative per-run cancellation ---------*- C++-*-===//
//
// A cancel token is the per-job analogue of the process-wide shutdown
// flag: the owner (limpetd's job table, or limpetc's --timeout guard)
// arms it, and the Simulator polls it at the same step/window boundaries
// where it polls shutdownRequested() — after the scheduler's shard
// barrier, so a stop never lands mid-step and the final durable
// checkpoint is always resumable bit-identically.
//
// Two trigger sources, both cooperative:
//  * cancel(): an explicit request (the daemon's `cancel` verb);
//  * a wall-clock deadline: armed once, checked against the steady clock
//    on each poll (one clock read per step boundary, nanoseconds).
//
// The token is write-once-ish and lock-free: atomics only, safe to arm
// from any thread while the simulation thread polls it.
//
//===----------------------------------------------------------------------===//

#ifndef LIMPET_SIM_CANCELTOKEN_H
#define LIMPET_SIM_CANCELTOKEN_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string_view>

namespace limpet {
namespace sim {

/// Why a run() returned before reaching its step target. Completed means
/// it was never interrupted at all.
enum class StopReason : uint8_t {
  None = 0,        ///< ran to the step target
  Shutdown,        ///< process-wide shutdown flag (SIGINT/SIGTERM)
  Cancelled,       ///< explicit CancelToken::cancel()
  DeadlineExpired, ///< CancelToken wall-clock deadline passed
};

std::string_view stopReasonName(StopReason R);

class CancelToken {
public:
  using Clock = std::chrono::steady_clock;

  /// Requests a cooperative stop; the simulation halts at its next
  /// step/window boundary with a final durable checkpoint.
  void cancel() { Cancelled.store(true, std::memory_order_release); }

  /// Arms a wall-clock deadline \p Seconds from now. Non-positive values
  /// expire immediately.
  void setDeadlineAfter(double Seconds) {
    auto Ns = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(Seconds));
    DeadlineNs.store((Clock::now() + Ns).time_since_epoch().count(),
                     std::memory_order_release);
  }

  bool cancelled() const {
    return Cancelled.load(std::memory_order_acquire);
  }

  /// The poll the Simulator runs at step boundaries: explicit cancel
  /// wins over deadline expiry, None when neither fired.
  StopReason stopRequested() const {
    if (cancelled())
      return StopReason::Cancelled;
    int64_t D = DeadlineNs.load(std::memory_order_acquire);
    if (D != 0 && Clock::now().time_since_epoch().count() >= D)
      return StopReason::DeadlineExpired;
    return StopReason::None;
  }

private:
  std::atomic<bool> Cancelled{false};
  /// Steady-clock deadline in time_since_epoch ticks; 0 = no deadline.
  std::atomic<int64_t> DeadlineNs{0};
};

inline std::string_view stopReasonName(StopReason R) {
  switch (R) {
  case StopReason::None:
    return "none";
  case StopReason::Shutdown:
    return "shutdown";
  case StopReason::Cancelled:
    return "cancelled";
  case StopReason::DeadlineExpired:
    return "deadline-expired";
  }
  return "unknown";
}

} // namespace sim
} // namespace limpet

#endif // LIMPET_SIM_CANCELTOKEN_H
