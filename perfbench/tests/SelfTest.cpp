//===- SelfTest.cpp - Self-tests of the benchmark's statistics ------------===//
//
// Pins the definitions the benchmark reports with: median, the tail
// percentile that keeps at least ten samples beyond it, failure share,
// and span self time. Run with `python3 perfbench/run.py --self-test`;
// exits non-zero on the first failed expectation.
//
//===----------------------------------------------------------------------===//

#include "Spans.h"
#include "Stats.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>

using namespace perfbench;

namespace {

int Failures = 0;

void expect(bool Ok, const char *What, int Line) {
  if (!Ok) {
    std::fprintf(stderr, "FAIL line %d: %s\n", Line, What);
    ++Failures;
  }
}
#define EXPECT(Cond) expect((Cond), #Cond, __LINE__)

bool near(double A, double B) { return std::fabs(A - B) < 1e-12; }

std::vector<double> oneTo(int N) {
  std::vector<double> V(static_cast<size_t>(N));
  std::iota(V.begin(), V.end(), 1.0);
  // Reverse so the functions have to sort.
  return {V.rbegin(), V.rend()};
}

void testMedian() {
  EXPECT(std::isnan(median({})));
  EXPECT(median({3}) == 3);
  EXPECT(median({5, 1, 3}) == 3);
  EXPECT(median({4, 1, 3, 2}) == 2.5);
  EXPECT(median(oneTo(100)) == 50.5);
}

void testTailPercentile() {
  // Nearest rank: p90 of 1..100 is the 90th sample, with 10 beyond it.
  EXPECT(samplesBeyond(100, 90) == 10);
  EXPECT(tailPercentile(oneTo(100), 90) == 90.0);
  // 99 samples leave only 9 beyond the p90: not reportable.
  EXPECT(samplesBeyond(99, 90) == 9);
  EXPECT(!tailPercentile(oneTo(99), 90));
  EXPECT(tailPercentile(oneTo(1000), 99) == 990.0);
  EXPECT(!tailPercentile(oneTo(999), 99));
  EXPECT(tailPercentile(oneTo(20), 50) == 10.0);
  EXPECT(!tailPercentile(oneTo(19), 50));
  EXPECT(!tailPercentile({}, 50));
  EXPECT(!tailPercentile(oneTo(1000), 100));
  EXPECT(samplesBeyond(1000, 99) == 10);
  EXPECT(samplesBeyond(0, 50) == 0);
  // An infinite sample (a failed job) lands in the tail, not the median.
  std::vector<double> WithFailure = oneTo(100);
  WithFailure[0] = INFINITY;
  EXPECT(median(WithFailure) == 50.5);
  EXPECT(tailPercentile(WithFailure, 90) == 90.0);
}

void testFailureShare() {
  EXPECT(failureShare(0, 0) == 0);
  EXPECT(failureShare(200, 0) == 0);
  EXPECT(near(failureShare(200, 3), 0.015));
  EXPECT(failureShare(4, 4) == 1);
}

Span span(uint64_t Id, uint64_t Parent, const char *Name, double Start,
          double End) {
  Span S;
  S.Id = Id;
  S.Parent = Parent;
  S.Name = Name;
  S.Start = Start;
  S.End = End;
  return S;
}

void testSelfTime() {
  // Children cover [1,5] and [7,8] of the parent's [0,10] (two of them
  // overlap), and one sticks out past the parent's end and is clipped.
  std::vector<Span> Spans = {
      span(1, 0, "bench.run", 0, 10), span(2, 1, "sim.run", 1, 3),
      span(3, 1, "sim.step", 2, 5),   span(4, 1, "exec.step", 7, 8),
      span(5, 1, "daemon.x", 9.5, 12), span(6, 3, "exec.kernel", 2, 4)};
  std::vector<double> Self = spanSelfTimes(Spans);
  EXPECT(near(Self[0], 10 - (4 + 1 + 0.5)));
  EXPECT(near(Self[1], 2));
  EXPECT(near(Self[2], 3 - 2)); // its own child covers [2,4]
  EXPECT(near(Self[3], 1));
  EXPECT(near(Self[4], 2.5));
  EXPECT(near(Self[5], 2));
  std::map<std::string, double> ByLayer = layerSelfTimes(Spans);
  EXPECT(near(ByLayer["bench"], 4.5));
  EXPECT(near(ByLayer["sim"], 3));
  EXPECT(near(ByLayer["exec"], 3));
  EXPECT(near(ByLayer["daemon"], 2.5));
  EXPECT(spanLayer("compiler.stage.opt") == "compiler");
  EXPECT(spanLayer("bench") == "bench");
}

void testRecorder() {
  SpanRecorder Off(false);
  {
    ScopedSpan S(Off, "sim.run");
  }
  EXPECT(Off.spans().empty());

  SpanRecorder On(true);
  {
    ScopedSpan Outer(On, "bench.outer");
    ScopedSpan Inner(On, "sim.inner", 7);
  }
  Clock::time_point T0 = Clock::now();
  uint64_t Job = On.record("bench.job", T0, T0 + std::chrono::seconds(2), 0, 9);
  On.record("daemon.run", T0 + std::chrono::seconds(1),
            T0 + std::chrono::seconds(2), Job, 9);
  std::vector<Span> Spans = On.spans();
  EXPECT(Spans.size() == 4);
  EXPECT(Spans[0].Parent == 0);
  EXPECT(Spans[1].Parent == Spans[0].Id);
  EXPECT(Spans[1].Job == 7);
  EXPECT(Spans[1].End <= Spans[0].End);
  EXPECT(Spans[3].Parent == Job);
  std::map<std::string, double> ByLayer = layerSelfTimes(Spans);
  EXPECT(std::fabs(ByLayer["daemon"] - 1.0) < 1e-6);
  std::string Json = On.chromeJson();
  EXPECT(Json.find("\"name\":\"sim.inner\"") != std::string::npos);
  EXPECT(Json.find("\"self_us\"") != std::string::npos);
}

} // namespace

int main() {
  testMedian();
  testTailPercentile();
  testFailureShare();
  testSelfTime();
  testRecorder();
  if (Failures) {
    std::fprintf(stderr, "%d self-test expectation(s) failed\n", Failures);
    return 1;
  }
  std::printf("perfbench self-tests passed\n");
  return 0;
}
