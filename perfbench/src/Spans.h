//===- Spans.h - In-memory span recording for the traced run ----*- C++-*-===//
//
// The traced run wraps every public call the benchmark makes into a layer
// of the program (compiler, exec, runtime, sim, daemon) in a span: name,
// start, end, parent span, and on the jobs workload the job id. Spans stay
// in memory and are written out once, as Chrome trace-event JSON, when
// the run ends. A span's layer is its name up to the first '.', and a
// layer's self time is the time its spans cover minus the part their
// child spans cover.
//
// A disabled recorder records nothing, so the untraced run pays only a
// null check per call.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since \p T0.
inline double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

struct Span {
  std::string Name;
  uint64_t Id = 0;
  uint64_t Parent = 0; ///< 0 = root
  uint64_t Job = 0;    ///< daemon job id on the jobs workload, else 0
  uint32_t Thread = 0; ///< small per-recorder thread index
  double Start = 0;    ///< seconds since the recorder was created
  double End = 0;
};

/// The layer a span belongs to: its name up to the first '.'.
std::string_view spanLayer(std::string_view Name);

/// Self time of each span (same order as \p Spans): its duration minus
/// the union of its children's intervals, clipped to its own interval.
std::vector<double> spanSelfTimes(const std::vector<Span> &Spans);

/// Self time summed per layer.
std::map<std::string, double> layerSelfTimes(const std::vector<Span> &Spans);

class SpanRecorder {
public:
  explicit SpanRecorder(bool Enabled) : Enabled(Enabled) {}
  SpanRecorder(const SpanRecorder &) = delete;
  SpanRecorder &operator=(const SpanRecorder &) = delete;

  bool enabled() const { return Enabled; }

  /// Opens a span on the calling thread; its parent is the innermost
  /// span this thread still has open. Returns 0 when disabled.
  uint64_t open(std::string_view Name, uint64_t Job = 0);
  /// Closes span \p Id (a no-op for 0).
  void close(uint64_t Id);

  /// Records a span whose end points were measured elsewhere (the jobs
  /// client times each phase from the events it receives). Returns its
  /// id, or 0 when disabled.
  uint64_t record(std::string_view Name, Clock::time_point Start,
                  Clock::time_point End, uint64_t Parent, uint64_t Job);

  std::vector<Span> spans() const;

  /// Chrome trace-event JSON ("X" events, microseconds).
  std::string chromeJson() const;

private:
  double at(Clock::time_point T) const {
    return std::chrono::duration<double>(T - Origin).count();
  }
  uint32_t threadIndex();

  const bool Enabled;
  const Clock::time_point Origin = Clock::now();
  mutable std::mutex Mu;
  std::vector<Span> All;        ///< guarded by Mu
  std::map<uint64_t, size_t> Open; ///< open span id -> index in All
  std::map<std::thread::id, uint32_t> Threads;
  uint64_t NextId = 1;
};

/// RAII span around one call.
class ScopedSpan {
public:
  ScopedSpan(SpanRecorder &R, std::string_view Name, uint64_t Job = 0)
      : R(R), Id(R.open(Name, Job)) {}
  ~ScopedSpan() { R.close(Id); }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  SpanRecorder &R;
  uint64_t Id;
};

/// Runs \p Fn inside a span named \p Name and returns its wall seconds.
template <class Fn>
double timedCall(SpanRecorder &R, std::string_view Name, Fn &&F) {
  ScopedSpan S(R, Name);
  Clock::time_point T0 = Clock::now();
  F();
  return secondsSince(T0);
}

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
