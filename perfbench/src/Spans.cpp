//===- Spans.cpp ----------------------------------------------------------===//

#include "Spans.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

using namespace perfbench;

std::string_view perfbench::spanLayer(std::string_view Name) {
  return Name.substr(0, Name.find('.'));
}

/// Length of the union of \p Intervals, each clipped to [Lo, Hi].
static double coveredLength(std::vector<std::pair<double, double>> Intervals,
                            double Lo, double Hi) {
  for (auto &I : Intervals) {
    I.first = std::max(I.first, Lo);
    I.second = std::min(I.second, Hi);
  }
  std::sort(Intervals.begin(), Intervals.end());
  double Covered = 0, RunStart = 0, RunEnd = -1;
  bool InRun = false;
  for (const auto &[B, E] : Intervals) {
    if (E <= B)
      continue;
    if (InRun && B <= RunEnd) {
      RunEnd = std::max(RunEnd, E);
      continue;
    }
    if (InRun)
      Covered += RunEnd - RunStart;
    RunStart = B;
    RunEnd = E;
    InRun = true;
  }
  if (InRun)
    Covered += RunEnd - RunStart;
  return Covered;
}

std::vector<double> perfbench::spanSelfTimes(const std::vector<Span> &Spans) {
  std::unordered_map<uint64_t, std::vector<std::pair<double, double>>>
      Children;
  for (const Span &S : Spans)
    if (S.Parent)
      Children[S.Parent].push_back({S.Start, S.End});
  std::vector<double> Self;
  Self.reserve(Spans.size());
  for (const Span &S : Spans) {
    double Own = std::max(0.0, S.End - S.Start);
    auto It = Children.find(S.Id);
    if (It != Children.end())
      Own -= coveredLength(It->second, S.Start, S.End);
    Self.push_back(std::max(0.0, Own));
  }
  return Self;
}

std::map<std::string, double>
perfbench::layerSelfTimes(const std::vector<Span> &Spans) {
  std::vector<double> Self = spanSelfTimes(Spans);
  std::map<std::string, double> ByLayer;
  for (size_t I = 0; I != Spans.size(); ++I)
    ByLayer[std::string(spanLayer(Spans[I].Name))] += Self[I];
  return ByLayer;
}

/// The spans the calling thread has open, innermost last. Only one
/// recorder is enabled at a time, so one stack per thread suffices.
static thread_local std::vector<uint64_t> OpenStack;

uint32_t SpanRecorder::threadIndex() {
  auto [It, Inserted] =
      Threads.try_emplace(std::this_thread::get_id(), uint32_t(Threads.size()));
  return It->second;
}

uint64_t SpanRecorder::open(std::string_view Name, uint64_t Job) {
  if (!Enabled)
    return 0;
  double Now = at(Clock::now());
  std::lock_guard<std::mutex> Lock(Mu);
  Span S;
  S.Name = std::string(Name);
  S.Id = NextId++;
  S.Parent = OpenStack.empty() ? 0 : OpenStack.back();
  S.Job = Job;
  S.Thread = threadIndex();
  S.Start = Now;
  S.End = Now;
  Open[S.Id] = All.size();
  All.push_back(std::move(S));
  OpenStack.push_back(All.back().Id);
  return All.back().Id;
}

void SpanRecorder::close(uint64_t Id) {
  if (!Enabled || !Id)
    return;
  double Now = at(Clock::now());
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Open.find(Id);
  if (It == Open.end())
    return;
  All[It->second].End = Now;
  Open.erase(It);
  auto S = std::find(OpenStack.rbegin(), OpenStack.rend(), Id);
  if (S != OpenStack.rend())
    OpenStack.erase(std::next(S).base());
}

uint64_t SpanRecorder::record(std::string_view Name, Clock::time_point Start,
                              Clock::time_point End, uint64_t Parent,
                              uint64_t Job) {
  if (!Enabled)
    return 0;
  std::lock_guard<std::mutex> Lock(Mu);
  Span S;
  S.Name = std::string(Name);
  S.Id = NextId++;
  S.Parent = Parent;
  S.Job = Job;
  S.Thread = threadIndex();
  S.Start = at(Start);
  S.End = std::max(S.Start, at(End));
  All.push_back(std::move(S));
  return All.back().Id;
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return All;
}

std::string SpanRecorder::chromeJson() const {
  std::vector<Span> Spans = spans();
  std::vector<double> Self = spanSelfTimes(Spans);
  std::string Out = "{\"traceEvents\":[";
  char Buf[512];
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    // Span names are fixed identifiers chosen by the benchmark, so they
    // need no JSON escaping.
    std::snprintf(Buf, sizeof(Buf),
                  "%s{\"name\":\"%s\",\"cat\":\"%.*s\",\"ph\":\"X\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                  "\"args\":{\"id\":%llu,\"parent\":%llu,\"job\":%llu,"
                  "\"self_us\":%.3f}}",
                  I ? "," : "", S.Name.c_str(),
                  int(spanLayer(S.Name).size()), S.Name.data(), S.Start * 1e6,
                  (S.End - S.Start) * 1e6, S.Thread,
                  (unsigned long long)S.Id, (unsigned long long)S.Parent,
                  (unsigned long long)S.Job, Self[I] * 1e6);
    Out += Buf;
  }
  Out += "]}\n";
  return Out;
}
