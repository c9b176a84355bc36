//===- main.cpp - The repository benchmark ----------------------*- C++-*-===//
//
//   perfbench --workload population|tissue|jobs --seed N --seconds S
//             --trace 0|1 [--work-dir DIR]
//   perfbench --list-metrics
//
// Runs one workload against the limpet library's public API and prints,
// as its last stdout line, one JSON object with the keys correct,
// attempted, failed and metrics. With --trace 0 the metrics are every
// end-to-end metric, from one untraced pass. With --trace 1 a traced pass
// (spans around every layer call, written as Chrome trace JSON) gives
// every per-layer metric, and a following untraced pass gives the tracing
// overhead of each end-to-end metric. Every workload reports every metric
// of its kind; README.md in this directory defines them per workload.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Host.h"
#include "Metrics.h"
#include "Stats.h"

#include "daemon/Json.h"
#include "support/Telemetry.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <string>

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace perfbench;
namespace fs = std::filesystem;

//===----------------------------------------------------------------------===//
// Shared helpers (Bench.h)
//===----------------------------------------------------------------------===//

void Outcome::check(bool Ok, const std::string &What) {
  std::lock_guard<std::mutex> Lock(Mu);
  ++Attempted;
  if (!Ok) {
    ++Failed;
    if (Failures.size() < 64)
      Failures.push_back(What);
  }
}

int64_t Outcome::attempted() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Attempted;
}

int64_t Outcome::failed() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Failed;
}

std::vector<std::string> Outcome::failures() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Failures;
}

std::string Pass::freshDir(const std::string &Name) const {
  std::string D = Dir + "/" + Name;
  fs::remove_all(D);
  fs::create_directories(D);
  return D;
}

uint64_t Rng::next() {
  uint64_t Z = (State += 0x9E3779B97F4A7C15ull);
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
  return Z ^ (Z >> 31);
}

double Rng::uniform(double Lo, double Hi) {
  return Lo + (Hi - Lo) * double(next() >> 11) * 0x1.0p-53;
}

//===----------------------------------------------------------------------===//
// Driver
//===----------------------------------------------------------------------===//

namespace {

/// Environment knobs that change the program being measured. A run with
/// any of them set would not measure the shipped program.
const char *const kRefusedKnobs[] = {
    "LIMPET_NO_FSYNC",        "LIMPET_FAILPOINT",   "LIMPET_TUNE_FORCE",
    "LIMPET_CPU_CAPS",        "LIMPET_NATIVE_CXXFLAGS", "LIMPET_VLA",
    "LIMPET_NATIVE_CC",       "LIMPET_PIN_THREADS", "LIMPET_CACHE_MAX_BYTES",
};

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  int Trace = 0;
  std::string WorkDir = ".bench_build/runs";
  bool ListMetrics = false;
};

int usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "population|tissue|jobs --seed N --seconds S --trace 0|1 "
               "[--work-dir DIR]\n       perfbench "
               "--list-metrics\n",
               Why);
  return 2;
}

bool parseArgs(int Argc, char **Argv, Args &A, std::string &Err) {
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (Flag == "--list-metrics") {
      A.ListMetrics = true;
      continue;
    }
    if (I + 1 >= Argc) {
      Err = "missing value for " + Flag;
      return false;
    }
    std::string Val = Argv[++I];
    char *End = nullptr;
    if (Flag == "--workload")
      A.Workload = Val;
    else if (Flag == "--seed")
      A.Seed = std::strtoull(Val.c_str(), &End, 10);
    else if (Flag == "--seconds")
      A.Seconds = std::strtod(Val.c_str(), &End);
    else if (Flag == "--trace")
      A.Trace = int(std::strtol(Val.c_str(), &End, 10));
    else if (Flag == "--work-dir")
      A.WorkDir = Val;
    else {
      Err = "unknown flag " + Flag;
      return false;
    }
    if (End && *End) {
      Err = "bad value '" + Val + "' for " + Flag;
      return false;
    }
  }
  if (A.ListMetrics)
    return true;
  if (A.Workload.empty()) {
    Err = "--workload is required";
    return false;
  }
  if (!(A.Seconds > 0) || A.Seconds > 120) {
    Err = "--seconds must be in (0, 120]";
    return false;
  }
  if (A.Trace != 0 && A.Trace != 1) {
    Err = "--trace must be 0 or 1";
    return false;
  }
  return true;
}

/// Removes the run's work directory on every exit path.
struct DirGuard {
  std::string Dir;
  ~DirGuard() {
    std::error_code Ec;
    fs::remove_all(Dir, Ec);
  }
};

/// The names of every catalogued metric of \p Kind that \p Metrics lacks,
/// then of every metric in it that is not one; empty when it matches.
std::vector<std::string> catalogueMismatch(const MetricMap &Metrics,
                                           MetricKind Kind) {
  std::vector<std::string> Bad;
  for (const MetricInfo &M : metricCatalogue())
    if (M.Kind == Kind && !Metrics.count(M.Name))
      Bad.push_back("missing " + M.Name);
  for (const auto &[Name, V] : Metrics) {
    const MetricInfo *M = findMetric(Name);
    if (!M || M->Kind != Kind)
      Bad.push_back("uncatalogued " + Name);
  }
  return Bad;
}

/// Compile-cache lookups so far that hit either tier, and all lookups.
std::pair<uint64_t, uint64_t> cacheLookups() {
  limpet::telemetry::Registry &R = limpet::telemetry::Registry::instance();
  uint64_t Hits =
      R.value("compile.cache.hit") + R.value("compile.cache.disk_hit");
  return {Hits, Hits + R.value("compile.cache.miss")};
}

std::string jsonNumber(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) < 0x20)
      Out += ' ';
    else
      Out += C;
  }
  return Out + "\"";
}

/// Runs this program again with --trace 0 (same workload, seed and
/// budget) and returns the end-to-end metrics of its result line; its
/// operations count towards \p Ops.
std::optional<MetricMap> runUntracedTwin(const Args &A, Outcome &Ops) {
  std::vector<std::string> Strs = {
      "/proc/self/exe", "--workload", A.Workload,      "--seed",
      std::to_string(A.Seed), "--seconds", jsonNumber(A.Seconds),
      "--trace",        "0",  "--work-dir", A.WorkDir};
  std::vector<char *> ChildArgv;
  for (std::string &S : Strs)
    ChildArgv.push_back(S.data());
  ChildArgv.push_back(nullptr);
  int Pipe[2];
  if (::pipe(Pipe) != 0) {
    Ops.check(false, "cannot start the untraced twin: pipe failed");
    return std::nullopt;
  }
  posix_spawn_file_actions_t Actions;
  posix_spawn_file_actions_init(&Actions);
  posix_spawn_file_actions_adddup2(&Actions, Pipe[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&Actions, Pipe[0]);
  posix_spawn_file_actions_addclose(&Actions, Pipe[1]);
  pid_t Pid = 0;
  int Err = posix_spawn(&Pid, "/proc/self/exe", &Actions, nullptr,
                        ChildArgv.data(), environ);
  posix_spawn_file_actions_destroy(&Actions);
  ::close(Pipe[1]);
  std::string Out;
  char Buf[4096];
  ssize_t N = 0;
  while (Err == 0 && (N = ::read(Pipe[0], Buf, sizeof(Buf))) != 0)
    if (N > 0)
      Out.append(Buf, size_t(N));
    else if (errno != EINTR)
      break;
  ::close(Pipe[0]);
  int Status = 0;
  if (Err == 0)
    ::waitpid(Pid, &Status, 0);
  if (Err != 0 || !WIFEXITED(Status) || WEXITSTATUS(Status) != 0) {
    Ops.check(false, "the untraced twin run failed");
    return std::nullopt;
  }
  while (!Out.empty() && Out.back() == '\n')
    Out.pop_back();
  limpet::Expected<limpet::daemon::JsonValue> R =
      limpet::daemon::JsonValue::parse(Out.substr(Out.rfind('\n') + 1));
  const limpet::daemon::JsonValue *M = R ? R->find("metrics") : nullptr;
  if (!M || !M->isObject()) {
    Ops.check(false, "untraced twin printed no result");
    return std::nullopt;
  }
  int64_t Attempted = R->intOr("attempted", 0), Failed = R->intOr("failed", 0);
  for (int64_t I = 0; I != Attempted; ++I)
    Ops.check(I >= Failed, "a check of the untraced twin failed");
  MetricMap Metrics;
  for (const auto &[Name, V] : M->members())
    Metrics[Name] = V.numberOr("value", 0);
  return Metrics;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  std::string Err;
  if (!parseArgs(Argc, Argv, A, Err))
    return usage(Err.c_str());
  if (A.ListMetrics) {
    std::fputs(metricListing().c_str(), stdout);
    return 0;
  }

  for (const char *Knob : kRefusedKnobs)
    if (const char *V = std::getenv(Knob)) {
      std::fprintf(stderr,
                   "perfbench: refusing to run: %s=%s is set, and it changes "
                   "the program being measured; unset it and run again\n",
                   Knob, V);
      return 3;
    }

  std::function<void(Pass &)> Workload;
  if (A.Workload == "population")
    Workload = runPopulation;
  else if (A.Workload == "tissue")
    Workload = runTissue;
  else if (A.Workload == "jobs")
    Workload = runJobs;
  else
    return usage(("unknown workload '" + A.Workload + "'").c_str());

  RunOptions Opts;
  Opts.Seed = A.Seed;
  Opts.Seconds = A.Seconds;
  Opts.Threads = usableCpus();

  DirGuard Work{A.WorkDir + "/run-" + std::to_string(::getpid())};
  std::error_code Ec;
  fs::remove_all(Work.Dir, Ec);
  fs::create_directories(Work.Dir, Ec);
  if (Ec) {
    std::fprintf(stderr, "perfbench: cannot create work dir '%s': %s\n",
                 Work.Dir.c_str(), Ec.message().c_str());
    return 1;
  }

  CpuJiffies Jiffies0 = readCpuJiffies();
  double Cpu0 = processCpuSeconds();
  Clock::time_point Wall0 = Clock::now();
  Outcome Ops;

  auto RunPass = [&](SpanRecorder &Spans, const std::string &Name) {
    PassResult Out;
    Pass P{Opts, Spans, Ops, Out, Work.Dir + "/" + Name};
    fs::create_directories(P.Dir);
    {
      ScopedSpan Root(Spans, "bench." + A.Workload);
      Workload(P);
    }
    Out.EndToEnd.try_emplace("peak_rss_mb", peakRssMiB());
    return Out;
  };

  MetricMap Metrics;
  PassResult Untraced, Traced;
  if (A.Trace) {
    SpanRecorder Spans(true);
    auto [Hits0, Lookups0] = cacheLookups();
    Traced = RunPass(Spans, "traced");
    auto [Hits1, Lookups1] = cacheLookups();
    // The untraced twin runs as its own process, so that its peak RSS and
    // its in-process caches owe nothing to the traced pass.
    std::optional<MetricMap> Twin = runUntracedTwin(A, Ops);
    Metrics = Traced.PerLayer;
    if (Lookups1 > Lookups0)
      Metrics["compiler.cache_hit_ratio"] =
          double(Hits1 - Hits0) / double(Lookups1 - Lookups0);
    for (const auto &[Layer, Self] : layerSelfTimes(Spans.spans())) {
      const MetricInfo *M = findMetric(Layer + ".self_s");
      (M && M->Kind == MetricKind::PerLayer ? Metrics : Traced.Diagnostics)
          [Layer + ".self_s"] = Self;
    }
    for (const auto &[Name, Base] : Twin.value_or(MetricMap())) {
      auto It = Traced.EndToEnd.find(Name);
      if (It != Traced.EndToEnd.end() && Base != 0)
        Metrics["trace.overhead." + Name] = (It->second - Base) / Base;
    }
    std::string Out = ".bench_build/traces/" + A.Workload + "-seed" +
                      std::to_string(A.Seed) + ".json";
    fs::path OutPath(Out);
    if (OutPath.has_parent_path())
      fs::create_directories(OutPath.parent_path(), Ec);
    std::ofstream(Out) << Spans.chromeJson();
    std::fprintf(stderr, "perfbench: wrote %zu spans to %s\n",
                 Spans.spans().size(), Out.c_str());
  } else {
    SpanRecorder Off(false);
    Untraced = RunPass(Off, "untraced");
    Metrics = Untraced.EndToEnd;
  }

  double Wall = secondsSince(Wall0);
  double Steal = stealShare(Jiffies0, readCpuJiffies());
  double CpuUtil = (processCpuSeconds() - Cpu0) / (Wall * Opts.Threads);

  // The result holds exactly the catalogued metrics of its kind, each a
  // finite number; a missing or stray metric is a defect of the benchmark
  // itself (or a workload that stopped early), and no result is printed.
  MetricKind Kind = A.Trace ? MetricKind::PerLayer : MetricKind::EndToEnd;
  std::vector<std::string> Mismatch = catalogueMismatch(Metrics, Kind);
  for (const std::string &M : Mismatch)
    std::fprintf(stderr, "perfbench: %s: %s metric %s\n", A.Workload.c_str(),
                 A.Trace ? "per-layer" : "end-to-end", M.c_str());
  for (const auto &[Name, Value] : Metrics)
    Ops.check(std::isfinite(Value), "metric " + Name + " is not finite");
  for (const std::string &F : Ops.failures())
    std::fprintf(stderr, "perfbench: FAILED: %s\n", F.c_str());
  if (!Mismatch.empty())
    return 1;

  // Ungated diagnostics: host steal, CPU use, sample counts, failures.
  std::string Diag = "{\"diagnostics\":{\"host.steal_share\":" +
                     jsonNumber(Steal) +
                     ",\"host.cpu_utilization\":" + jsonNumber(CpuUtil) +
                     ",\"wall_s\":" + jsonNumber(Wall) +
                     ",\"failure_share\":" +
                     jsonNumber(failureShare(Ops.attempted(), Ops.failed())) +
                     ",\"threads\":" + std::to_string(Opts.Threads);
  for (const PassResult *R : {&Traced, &Untraced})
    for (const auto &[Name, Value] : R->Diagnostics)
      Diag += "," + jsonString((R == &Traced ? "traced." : "") + Name) + ":" +
              jsonNumber(Value);
  Diag += "},\"failures\":[";
  std::vector<std::string> Failures = Ops.failures();
  for (size_t I = 0; I != Failures.size(); ++I)
    Diag += (I ? "," : "") + jsonString(Failures[I]);
  Diag += "]}";
  std::printf("%s\n", Diag.c_str());

  std::string Line = "{\"correct\":";
  Line += Ops.failed() == 0 ? "true" : "false";
  Line += ",\"attempted\":" + std::to_string(Ops.attempted()) +
          ",\"failed\":" + std::to_string(Ops.failed()) + ",\"metrics\":{";
  bool First = true;
  for (const auto &[Name, Value] : Metrics) {
    Line += (First ? "" : ",") + jsonString(Name) + ":{\"value\":" +
            jsonNumber(std::isfinite(Value) ? Value : 0.0) +
            ",\"unit\":" + jsonString(findMetric(Name)->Unit) + "}";
    First = false;
  }
  Line += "}}";
  std::printf("%s\n", Line.c_str());
  std::fflush(stdout);
  return 0;
}
