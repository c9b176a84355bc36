//===- Server.cpp ---------------------------------------------------------===//

#include "daemon/Server.h"

#include "support/Signals.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <chrono>
#include <filesystem>

#ifndef _WIN32
#include <cerrno>
#include <cstring>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#endif

using namespace limpet;
using namespace limpet::daemon;

Server::Server(Options Opts)
    : O(std::move(Opts)), Jrnl(O.StateDir + "/journal.lmpj"),
      Queue(O.Limits),
      Runner({O.StateDir, O.SimThreads, O.DefaultCheckpointEvery}, Jrnl) {}

Server::~Server() {
#ifndef _WIN32
  if (ListenFd >= 0)
    ::close(ListenFd);
#endif
}

#ifdef _WIN32

Status Server::start() {
  return Status::error("limpetd requires POSIX sockets");
}
int Server::serve() { return 1; }
Status Server::recover() { return Status::success(); }
void Server::readerLoop(std::shared_ptr<Conn>) {}
void Server::writerLoop(std::shared_ptr<Conn>) {}
void Server::runnerLoop() {}
void Server::dispatch(Conn &, const std::string &) {}
void Server::handleSubmit(Conn &, const JsonValue &) {}
void Server::handleCancel(Conn &, const JsonValue &) {}
void Server::handleStatus(Conn &, const JsonValue &) {}
void Server::handleStats(Conn &, const JsonValue &) {}
struct Server::Conn {};

#else

//===----------------------------------------------------------------------===//
// Connection state
//===----------------------------------------------------------------------===//

struct Server::Conn {
  int Fd = -1;
  /// Guards socket writes: the reader (immediate responses) and the
  /// writer (streamed job events) interleave whole lines. Only
  /// connection threads ever take it — never a runner.
  std::mutex WriteMutex;
  /// Jobs this connection submitted; their rings feed the writer.
  std::mutex JobsMutex;
  std::vector<JobPtr> Subscribed;
  std::atomic<bool> Done{false};

  ~Conn() {
    if (Fd >= 0)
      ::close(Fd);
  }

  /// Sends one NDJSON line. A failed send (client gone) marks the
  /// connection done; SIGPIPE is suppressed per call so a vanished
  /// client is an error code, not a process signal.
  void writeLine(const std::string &Line) {
    std::lock_guard<std::mutex> Lock(WriteMutex);
    std::string Framed = Line + "\n";
    size_t Off = 0;
    while (Off < Framed.size()) {
      ssize_t N = ::send(Fd, Framed.data() + Off, Framed.size() - Off,
                         MSG_NOSIGNAL);
      if (N < 0) {
        if (errno == EINTR)
          continue;
        Done.store(true, std::memory_order_release);
        return;
      }
      Off += size_t(N);
    }
  }

  void subscribe(JobPtr J) {
    std::lock_guard<std::mutex> Lock(JobsMutex);
    Subscribed.push_back(std::move(J));
  }

  /// Closes every subscribed ring so producers stop queuing events for a
  /// client that is gone.
  void closeRings() {
    std::lock_guard<std::mutex> Lock(JobsMutex);
    for (const JobPtr &J : Subscribed)
      if (J->Ring)
        J->Ring->close();
  }
};

//===----------------------------------------------------------------------===//
// Startup: recovery, socket, runner pool
//===----------------------------------------------------------------------===//

Status Server::recover() {
  bool Truncated = false;
  Expected<std::vector<Journal::Record>> All =
      Journal::readAll(Jrnl.path(), &Truncated);
  if (!All)
    return All.status();
  if (Truncated)
    telemetry::counter("daemon.journal.truncated_tail").add();

  uint64_t MaxId = 0;
  for (const Journal::Record &R : *All)
    MaxId = std::max(MaxId, R.JobId);
  NextId.store(MaxId + 1);

  std::vector<Journal::Record> Live = Journal::unfinished(*All);
  // Compact before re-admission: the journal now holds exactly the live
  // Accepted records, and new appends land after them.
  if (Status S = Journal::compact(Jrnl.path(), Live); !S)
    return S;
  if (Status S = Jrnl.open(); !S)
    return S;

  Replayed = 0;
  for (const Journal::Record &Rec : Live) {
    Expected<JsonValue> Body = JsonValue::parse(Rec.Payload);
    if (!Body) {
      Jrnl.append(Journal::Kind::Failed, Rec.JobId,
                  "recovery: unparseable journal payload");
      continue;
    }
    Expected<JobSpec> Spec = parseJobSpec(*Body);
    if (!Spec) {
      Jrnl.append(Journal::Kind::Failed, Rec.JobId,
                  "recovery: " + Spec.status().message());
      continue;
    }
    JobPtr J = std::make_shared<Job>();
    J->Spec = *Spec;
    J->Spec.Id = Rec.JobId;
    J->Replayed = true; // no ring: the submitting client died with us
    JobQueue::Admission A = Queue.submit(J);
    if (!A.Accepted) {
      // Replay goes through the same admission path as live submits; a
      // queue reconfigured smaller across the restart can overflow.
      Jrnl.append(Journal::Kind::Failed, Rec.JobId,
                  "recovery: not re-admitted (" + A.Reason + ")");
      continue;
    }
    if (A.Shed)
      Jrnl.append(Journal::Kind::Shed, A.Shed->Spec.Id);
    ++Replayed;
    telemetry::counter("daemon.jobs.recovered").add();
  }
  return Status::success();
}

Status Server::start() {
  std::error_code Ec;
  std::filesystem::create_directories(O.StateDir, Ec);
  if (Ec)
    return Status::error("cannot create state dir '" + O.StateDir +
                         "': " + Ec.message());

  if (Status S = recover(); !S)
    return S;

  sockaddr_un Addr{};
  if (O.SocketPath.size() >= sizeof(Addr.sun_path))
    return Status::error("socket path too long: '" + O.SocketPath + "'");
  ListenFd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (ListenFd < 0)
    return Status::error(std::string("socket: ") + std::strerror(errno));
  Addr.sun_family = AF_UNIX;
  std::strncpy(Addr.sun_path, O.SocketPath.c_str(), sizeof(Addr.sun_path) - 1);
  // A stale socket file from a killed daemon would make bind fail; the
  // journal, not the socket, is what carries state across restarts.
  ::unlink(O.SocketPath.c_str());
  if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) !=
      0)
    return Status::error("bind '" + O.SocketPath +
                         "': " + std::strerror(errno));
  if (::listen(ListenFd, 16) != 0)
    return Status::error(std::string("listen: ") + std::strerror(errno));

  for (unsigned I = 0; I != std::max(1u, O.Runners); ++I)
    Runners.emplace_back([this] { runnerLoop(); });
  return Status::success();
}

//===----------------------------------------------------------------------===//
// Accept loop
//===----------------------------------------------------------------------===//

int Server::serve() {
  while (!support::shutdownRequested() &&
         !Stopping.load(std::memory_order_acquire)) {
    pollfd P{ListenFd, POLLIN, 0};
    int R = ::poll(&P, 1, 200);
    if (R < 0) {
      if (errno == EINTR)
        continue; // a signal landed; the loop condition re-checks
      break;
    }
    if (R == 0)
      continue;
    int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0)
      continue;
    auto C = std::make_shared<Conn>();
    C->Fd = Fd;
    std::lock_guard<std::mutex> Lock(ReadersMutex);
    Readers.emplace_back([this, C] { readerLoop(C); });
  }

  // Drain: stop admissions, let running jobs hit their shutdown poll
  // (they checkpoint and return non-terminal), join everything.
  Stopping.store(true, std::memory_order_release);
  support::requestShutdown(); // running Simulators stop at next boundary
  Queue.shutdown();
  for (std::thread &T : Runners)
    T.join();
  {
    std::lock_guard<std::mutex> Lock(ReadersMutex);
    for (std::thread &T : Readers)
      T.join();
  }
  ::close(ListenFd);
  ListenFd = -1;
  ::unlink(O.SocketPath.c_str());
  Jrnl.close();
  return 0;
}

void Server::runnerLoop() {
  while (JobPtr J = Queue.pop()) {
    Runner.execute(*J);
    Queue.finished(J);
  }
}

//===----------------------------------------------------------------------===//
// Connection threads
//===----------------------------------------------------------------------===//

void Server::readerLoop(std::shared_ptr<Conn> C) {
  std::thread Writer([this, C] { writerLoop(C); });
  std::string Buf;
  char Tmp[4096];
  while (!C->Done.load(std::memory_order_acquire) &&
         !Stopping.load(std::memory_order_acquire)) {
    pollfd P{C->Fd, POLLIN, 0};
    int R = ::poll(&P, 1, 200);
    if (R < 0) {
      if (errno == EINTR)
        continue;
      break;
    }
    if (R == 0)
      continue;
    ssize_t N = ::recv(C->Fd, Tmp, sizeof(Tmp), 0);
    if (N <= 0)
      break;
    Buf.append(Tmp, size_t(N));
    size_t Nl;
    while ((Nl = Buf.find('\n')) != std::string::npos) {
      std::string Line = Buf.substr(0, Nl);
      Buf.erase(0, Nl + 1);
      if (!Line.empty())
        dispatch(*C, Line);
    }
    if (Buf.size() > (1u << 20)) {
      // A megabyte without a newline is not a protocol line.
      C->writeLine(errorEvent("request line too long"));
      break;
    }
  }
  C->Done.store(true, std::memory_order_release);
  Writer.join();
  C->closeRings();
}

void Server::writerLoop(std::shared_ptr<Conn> C) {
  // Poll the subscribed rings. 1 ms of latency on a progress event is
  // invisible to clients; what matters is that producers never wait.
  while (!C->Done.load(std::memory_order_acquire)) {
    bool Wrote = false;
    {
      std::lock_guard<std::mutex> Lock(C->JobsMutex);
      for (const JobPtr &J : C->Subscribed) {
        std::string Line;
        while (J->Ring && J->Ring->tryPop(Line)) {
          C->writeLine(Line);
          Wrote = true;
        }
      }
    }
    if (!Wrote)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

//===----------------------------------------------------------------------===//
// Request dispatch
//===----------------------------------------------------------------------===//

void Server::dispatch(Conn &C, const std::string &Line) {
  Expected<JsonValue> Req = JsonValue::parse(Line);
  if (!Req) {
    C.writeLine(errorEvent(Req.status().message()));
    return;
  }
  std::string Verb = Req->stringOr("verb", "");
  if (Verb == "submit")
    handleSubmit(C, *Req);
  else if (Verb == "cancel")
    handleCancel(C, *Req);
  else if (Verb == "status")
    handleStatus(C, *Req);
  else if (Verb == "stats")
    handleStats(C, *Req);
  else if (Verb == "ping")
    C.writeLine(okEvent("pong"));
  else if (Verb == "shutdown") {
    C.writeLine(okEvent("shutting down"));
    Stopping.store(true, std::memory_order_release);
  } else
    C.writeLine(errorEvent("unknown verb '" + Verb + "'"));
}

void Server::handleSubmit(Conn &C, const JsonValue &Body) {
  Expected<JobSpec> Spec = parseJobSpec(Body);
  if (!Spec) {
    telemetry::counter("daemon.jobs.rejected").add();
    C.writeLine(rejectedEvent("bad-request", Spec.status().message()));
    return;
  }
  JobPtr J = std::make_shared<Job>();
  J->Spec = *Spec;
  J->Spec.Id = NextId.fetch_add(1);
  J->Ring = std::make_shared<EventRing>(256);

  JobQueue::Admission A = Queue.submit(J);
  if (!A.Accepted) {
    telemetry::counter("daemon.jobs.rejected").add();
    telemetry::counter("daemon.jobs.rejected_" + A.Reason).add();
    C.writeLine(rejectedEvent(A.Reason, {}));
    return;
  }
  // Journal the admission before acknowledging it: once the client sees
  // "accepted", the job survives a daemon SIGKILL.
  Jrnl.append(Journal::Kind::Accepted, J->Spec.Id,
              jobSpecToJson(J->Spec).str());
  if (A.Shed) {
    Jrnl.append(Journal::Kind::Shed, A.Shed->Spec.Id);
    A.Shed->Error = "shed by higher-priority job " +
                    std::to_string(J->Spec.Id);
    if (A.Shed->Ring)
      A.Shed->Ring->tryPush(terminalEvent(JobState::Shed, A.Shed->Spec.Id, 0,
                                          0, 0, 0, A.Shed->Error, false));
    telemetry::counter("daemon.jobs.shed").add();
  }
  C.subscribe(J);
  telemetry::counter("daemon.jobs.accepted").add();
  telemetry::counter("daemon.tenant." + J->Spec.Tenant + ".accepted").add();
  C.writeLine(acceptedEvent(J->Spec.Id, Queue.queuedCount()));
}

void Server::handleCancel(Conn &C, const JsonValue &Body) {
  Expected<int64_t> IdField = Body.intField("id", 0, 0, INT64_MAX);
  if (!IdField) {
    C.writeLine(errorEvent(IdField.status().message()));
    return;
  }
  uint64_t Id = uint64_t(*IdField);
  JobPtr J = Queue.find(Id);
  if (!J) {
    C.writeLine(errorEvent("unknown job id " + std::to_string(Id)));
    return;
  }
  if (JobPtr Q = Queue.removeQueued(Id)) {
    // Never started: terminal immediately.
    Q->State.store(JobState::Cancelled, std::memory_order_release);
    Jrnl.append(Journal::Kind::Cancelled, Id);
    if (Q->Ring)
      Q->Ring->tryPush(
          terminalEvent(JobState::Cancelled, Id, 0, 0, 0, 0, {}, false));
    telemetry::counter("daemon.jobs.cancelled").add();
    C.writeLine(okEvent("cancelled while queued"));
    return;
  }
  JobState S = J->State.load(std::memory_order_acquire);
  if (jobStateTerminal(S)) {
    C.writeLine(errorEvent("job " + std::to_string(Id) + " already " +
                           std::string(jobStateName(S))));
    return;
  }
  // Running: cooperative. The Simulator stops at its next step boundary,
  // writes a final checkpoint, and the runner emits the terminal event.
  J->Token.cancel();
  C.writeLine(okEvent("cancel requested"));
}

static JsonValue jobStatusJson(const Job &J) {
  JsonValue S = JsonValue::object();
  S.set("id", JsonValue::number(J.Spec.Id));
  S.set("tenant", JsonValue::string(J.Spec.Tenant));
  S.set("model", JsonValue::string(J.Spec.Model));
  S.set("priority", JsonValue::number(int64_t(J.Spec.Priority)));
  S.set("state", JsonValue::string(
                     jobStateName(J.State.load(std::memory_order_acquire))));
  S.set("steps", JsonValue::number(J.StepsDone));
  if (J.MembersOk >= 0) {
    S.set("members_ok", JsonValue::number(J.MembersOk));
    S.set("members_quarantined", JsonValue::number(J.MembersQuarantined));
  }
  if (J.Replayed)
    S.set("replayed", JsonValue::boolean(true));
  if (!J.Error.empty())
    S.set("error", JsonValue::string(J.Error));
  if (J.Ring && J.Ring->dropped())
    S.set("dropped_events", JsonValue::number(J.Ring->dropped()));
  return S;
}

void Server::handleStatus(Conn &C, const JsonValue &Body) {
  JsonValue Out = JsonValue::object();
  Out.set("event", JsonValue::string("status"));
  if (Body.find("id")) {
    Expected<int64_t> Id = Body.intField("id", 0, 0, INT64_MAX);
    if (!Id) {
      C.writeLine(errorEvent(Id.status().message()));
      return;
    }
    JobPtr J = Queue.find(uint64_t(*Id));
    if (!J) {
      C.writeLine(errorEvent("unknown job id"));
      return;
    }
    Out.set("job", jobStatusJson(*J));
  } else {
    JsonValue Jobs = JsonValue::array();
    for (const JobPtr &J : Queue.all())
      Jobs.push(jobStatusJson(*J));
    Out.set("jobs", std::move(Jobs));
  }
  Out.set("queued", JsonValue::number(uint64_t(Queue.queuedCount())));
  Out.set("running", JsonValue::number(uint64_t(Queue.runningCount())));
  Out.set("shed", JsonValue::number(Queue.shedCount()));
  C.writeLine(Out.str());
}

void Server::handleStats(Conn &C, const JsonValue &Body) {
  // Tenant-scoped when asked: the prefix overload walks only the
  // requested subtree of the counter registry.
  std::string Tenant = Body.stringOr("tenant", "");
  std::string Prefix =
      Tenant.empty() ? std::string("daemon.") : "daemon.tenant." + Tenant + ".";
  JsonValue Counters = JsonValue::object();
  for (const auto &[Path, Value] :
       telemetry::Registry::instance().snapshot(Prefix))
    Counters.set(Path, JsonValue::number(Value));
  JsonValue Out = JsonValue::object();
  Out.set("event", JsonValue::string("stats"));
  Out.set("counters", std::move(Counters));
  Out.set("queued", JsonValue::number(uint64_t(Queue.queuedCount())));
  Out.set("running", JsonValue::number(uint64_t(Queue.runningCount())));
  Out.set("shed", JsonValue::number(Queue.shedCount()));
  C.writeLine(Out.str());
}

#endif // _WIN32
