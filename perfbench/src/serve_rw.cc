// serve_rw: triq_server over loopback, driven by this process. Three
// reader connections run SPARQL from the owlql_sparql pool in a closed
// loop, each with its own seed stream; one writer connection runs an
// open loop of ADD + MATERIALIZE at 10 writes/s, each timed from its due
// time. Every publication invalidates each cached evaluation, so reads
// re-run overlay chases, and every write pays CloneFacts of the closure,
// ResumeChase, FreezeAllIndexes and the journal append and checkpoint.
// It is the only workload that crosses the server's wire and line
// protocol.
//
// The load generator survives a server that dies mid-run: every socket
// read is bounded, EOF or a server exit ends the run, every op that did
// not complete counts as failed, and the server's exit status or signal
// is reported. The server is killed and reaped, and its journal files
// removed, on every path.
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine/engine.h"
#include "owlql_inputs.h"
#include "trace.h"
#include "util.h"
#include "workloads.h"
#include "write_path.h"

namespace perfbench {
namespace {

constexpr int kReaders = 3;
constexpr int kWorkers = 4;              // readers + writer: one each
constexpr double kWriteIntervalMs = 100;  // 10 writes/s
constexpr int kReplyTimeoutMs = 20000;   // bound on every socket read
constexpr size_t kLoadChunkBytes = 64 * 1024;  // under --max-line (1 MiB)
constexpr int kPings = 50;

/// A triq_server child process: started with its stdout on a pipe, ready
/// once it prints `LISTENING <port>`, killed and reaped on destruction.
class ServerProcess {
 public:
  ServerProcess() = default;
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;
  ~ServerProcess() {
    Kill();
    if (out_fd_ >= 0) ::close(out_fd_);
  }

  bool Start(const std::string& binary, const std::string& journal,
             std::string* error) {
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0) {
      *error = std::string("pipe: ") + std::strerror(errno);
      return false;
    }
    pid_ = ::fork();
    if (pid_ < 0) {
      *error = std::string("fork: ") + std::strerror(errno);
      ::close(fds[0]);
      ::close(fds[1]);
      return false;
    }
    if (pid_ == 0) {
      ::dup2(fds[1], STDOUT_FILENO);
      const std::string workers = std::to_string(kWorkers);
      const char* argv[] = {binary.c_str(), "--regime", "active-domain",
                            "--workers", workers.c_str(), "--journal",
                            journal.c_str(), "--fsync", "batch", nullptr};
      ::execv(binary.c_str(), const_cast<char* const*>(argv));
      ::_exit(127);
    }
    ::close(fds[1]);
    out_fd_ = fds[0];
    // Ready when it says so: read its stdout up to the LISTENING line.
    std::string buffer;
    while (buffer.find('\n') == std::string::npos) {
      struct pollfd pfd = {out_fd_, POLLIN, 0};
      if (::poll(&pfd, 1, kReplyTimeoutMs) <= 0) {
        *error = "no LISTENING line from triq_server";
        return false;
      }
      char chunk[256];
      const ssize_t n = ::read(out_fd_, chunk, sizeof(chunk));
      if (n <= 0) {
        *error = "triq_server exited before listening";
        return false;
      }
      buffer.append(chunk, static_cast<size_t>(n));
    }
    if (std::sscanf(buffer.c_str(), "LISTENING %d", &port_) != 1) {
      *error = "unexpected first line from triq_server: " + buffer;
      return false;
    }
    return true;
  }

  int port() const { return port_; }

  /// Non-blocking: has the server exited? Reaps it if so.
  bool Exited() {
    if (reaped_ || pid_ <= 0) return true;
    if (::wait4(pid_, &status_, WNOHANG, &usage_) == pid_) reaped_ = true;
    return reaped_;
  }

  /// After SHUTDOWN: waits (bounded) for the server to close its stdout,
  /// which it does only by exiting, then reaps it; kills it if it does
  /// not exit in time.
  void WaitForExit() {
    if (Exited()) return;
    for (;;) {
      struct pollfd pfd = {out_fd_, POLLIN, 0};
      if (::poll(&pfd, 1, kReplyTimeoutMs) <= 0) break;  // timed out
      char chunk[256];
      if (::read(out_fd_, chunk, sizeof(chunk)) <= 0) {
        if (::wait4(pid_, &status_, 0, &usage_) == pid_) reaped_ = true;
        return;
      }
    }
    Kill();
  }

  void Kill() {
    if (pid_ <= 0 || reaped_) return;
    if (!Exited()) {
      ::kill(pid_, SIGKILL);
      if (::wait4(pid_, &status_, 0, &usage_) == pid_) reaped_ = true;
    }
  }

  /// "exited with status N" / "killed by signal N (name)".
  std::string ExitDescription() const {
    if (!reaped_) return "still running";
    if (WIFSIGNALED(status_)) {
      const int sig = WTERMSIG(status_);
      return "killed by signal " + std::to_string(sig) + " (" +
             ::strsignal(sig) + ")";
    }
    return "exited with status " + std::to_string(WEXITSTATUS(status_));
  }
  bool Clean() const {
    return reaped_ && WIFEXITED(status_) && WEXITSTATUS(status_) == 0;
  }
  double PeakRssMb() const {
    return static_cast<double>(usage_.ru_maxrss) / 1024.0;
  }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  int port_ = 0;
  bool reaped_ = false;
  int status_ = 0;
  struct rusage usage_ = {};
};

/// One client connection speaking the line protocol. Every read is
/// bounded by kReplyTimeoutMs; EOF, a timeout or an error marks it lost.
class Connection {
 public:
  Connection() = default;
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;
  ~Connection() { Close(); }

  bool Open(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) return false;
    struct sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(port));
    return ::connect(fd_, reinterpret_cast<struct sockaddr*>(&addr),
                     sizeof(addr)) == 0;
  }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  enum class Reply { kOk, kErr, kLost };

  /// Sends `command` and reads its reply through the final OK/ERR line.
  /// `rows` collects the ROW/STAT lines when non-null.
  Reply Request(const std::string& command, std::vector<std::string>* rows,
                size_t* reply_bytes = nullptr) {
    const std::string line = command + "\n";
    size_t sent = 0;
    while (sent < line.size()) {
      const ssize_t n =
          ::send(fd_, line.data() + sent, line.size() - sent, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return Reply::kLost;
      sent += static_cast<size_t>(n);
    }
    size_t bytes = 0;
    for (;;) {
      std::string reply;
      if (!ReadLine(&reply)) return Reply::kLost;
      bytes += reply.size() + 1;
      if (reply.compare(0, 2, "OK") == 0 || reply.compare(0, 3, "ERR") == 0) {
        if (reply_bytes != nullptr) *reply_bytes = bytes;
        last_ = reply;
        return reply[0] == 'O' ? Reply::kOk : Reply::kErr;
      }
      if (rows != nullptr) rows->push_back(std::move(reply));
    }
  }

  const std::string& last() const { return last_; }

 private:
  bool ReadLine(std::string* line) {
    for (;;) {
      const size_t pos = buffer_.find('\n', scanned_);
      if (pos != std::string::npos) {
        line->assign(buffer_, 0, pos);
        buffer_.erase(0, pos + 1);
        scanned_ = 0;
        return true;
      }
      scanned_ = buffer_.size();
      struct pollfd pfd = {fd_, POLLIN, 0};
      const int ready = ::poll(&pfd, 1, kReplyTimeoutMs);
      if (ready < 0 && errno == EINTR) continue;
      if (ready <= 0) return false;  // timeout: treat the server as gone
      char chunk[16 * 1024];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;  // EOF or error
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

  int fd_ = -1;
  std::string buffer_;
  size_t scanned_ = 0;
  std::string last_;
};

/// What the clients saw, merged after the run.
struct ClientLog {
  std::vector<double> op_ms;
  std::vector<double> late_ms;
  std::vector<size_t> reply_bytes;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t errors = 0;
  size_t writes_done = 0;
  std::unique_ptr<Tracer> tracer;
};

/// Reads STATS into name -> value.
bool Stats(Connection& conn, std::vector<std::pair<std::string, double>>* out) {
  std::vector<std::string> rows;
  if (conn.Request("STATS", &rows) != Connection::Reply::kOk) return false;
  for (const std::string& row : rows) {
    char name[128];
    double value = 0;
    if (std::sscanf(row.c_str(), "STAT %127s %lf", name, &value) == 2) {
      out->emplace_back(name, value);
    }
  }
  return true;
}

double StatValue(const std::vector<std::pair<std::string, double>>& stats,
                 const std::string& name) {
  for (const auto& [n, v] : stats) {
    if (n == name) return v;
  }
  return 0;
}

}  // namespace

RunResult RunServeRw(const Config& config, Tracer* tracer) {
  RunResult result;
  const OwlqlSizes sizes = OwlqlSizesFor(config.tiny, config.seed);
  const QueryPool pool = MakeQueryPool(sizes, config.seed);
  const std::vector<std::string> chunks =
      OntologyTurtleChunks(sizes, kLoadChunkBytes);
  const size_t scheduled = static_cast<size_t>(
      config.seconds * 1000 / kWriteIntervalMs);
  const std::vector<Write> writes =
      MakeWrites(sizes, config.seed, scheduled);

  uint64_t digest = Digest("");
  for (const std::string& chunk : chunks) digest = Digest(chunk, digest);
  for (const std::string& text : pool.texts) digest = Digest(text, digest);
  for (const Write& w : writes) digest = Digest(WriteBytes(w), digest);
  PrintInputDigest(config, digest);

  WorkDir work(config.work_dir);
  ServerProcess server;
  std::string error;
  if (!server.Start(config.server, work.journal(), &error)) {
    server.Kill();
    result.Fail(error + "; triq_server " + server.ExitDescription());
    return result;
  }

  // Set-up over one connection, closed before traffic: the server serves
  // one connection per worker to completion, so a fifth connection would
  // wait in the accept backlog for the whole run.
  std::vector<std::pair<std::string, double>> stats_before;
  std::unique_ptr<triq::Engine> replay;
  {
    Connection setup;
    bool ok = setup.Open(server.port());
    for (size_t i = 0; ok && i < chunks.size(); ++i) {
      ok = setup.Request("LOAD " + chunks[i], nullptr) ==
           Connection::Reply::kOk;
    }
    ok = ok && setup.Request("MATERIALIZE", nullptr) == Connection::Reply::kOk;
    if (ok && tracer != nullptr) {
      // Quiet-server probes: PING round trips, and the wire cost of a
      // cached SPARQL reply against the same hit in-process.
      for (int i = 0; ok && i < kPings; ++i) {
        Span span(tracer, "server.PING", Tracer::kNoOp);
        ok = setup.Request("PING", nullptr) == Connection::Reply::kOk;
      }
      replay = LoadedEngine(chunks, "", &result);
      tracer->Count("common.dict_symbols",
                    static_cast<double>(replay->dict().size()));
      std::vector<double> wire_ms;
      for (size_t index : pool.sample) {
        if (!ok || index >= pool.texts.size()) continue;
        const std::string& text = pool.texts[index];
        ok = setup.Request("SPARQL " + text, nullptr) == Connection::Reply::kOk;
        const Clock::time_point t0 = Clock::now();
        ok = ok && setup.Request("SPARQL " + text, nullptr) ==
                       Connection::Reply::kOk;
        const Clock::time_point t1 = Clock::now();
        TRIQ_IGNORE_STATUS(replay->Query(text).status());
        const Clock::time_point t2 = Clock::now();
        TRIQ_IGNORE_STATUS(replay->Query(text).status());
        const Clock::time_point t3 = Clock::now();
        wire_ms.push_back(MsBetween(t0, t1) - MsBetween(t2, t3));
      }
      tracer->Count("server.wire_ms", Median(wire_ms));
    }
    ok = ok && Stats(setup, &stats_before);
    if (!ok) {
      server.Kill();
      result.Fail("set-up failed: " + setup.last() + "; triq_server " +
                  server.ExitDescription());
      return result;
    }
  }

  // Traffic: kReaders closed-loop readers and one open-loop writer, one
  // connection each (kWorkers in all).
  std::atomic<bool> lost{false};
  std::vector<ClientLog> logs(kReaders + 1);
  for (ClientLog& log : logs) {
    if (tracer != nullptr) log.tracer = std::make_unique<Tracer>(config.process_start);
  }
  std::vector<std::unique_ptr<Connection>> conns;
  for (int i = 0; i <= kReaders; ++i) {
    conns.push_back(std::make_unique<Connection>());
    if (!conns.back()->Open(server.port())) lost = true;
  }
  const Clock::time_point start = Clock::now();
  const double setup_s = MsBetween(config.process_start, start) / 1e3;
  const Clock::time_point end =
      start + std::chrono::microseconds(
                  static_cast<int64_t>(config.seconds * 1e6));

  auto reader = [&](int id) {
    ClientLog& log = logs[id];
    Connection& conn = *conns[id];
    QueryStream stream(DeriveSeed(config.seed, kClientStream + 1 + id),
                       pool.texts.size());
    uint64_t op = static_cast<uint64_t>(id + 1) << 40;
    while (!lost.load() && Clock::now() < end) {
      const std::string& text = pool.texts[stream.Next()];
      ++log.attempted;
      size_t bytes = 0;
      const Clock::time_point t0 = Clock::now();
      Connection::Reply reply;
      {
        Span op_span(log.tracer.get(), "op.read", op);
        Span span(log.tracer.get(), "server.SPARQL", op);
        reply = conn.Request("SPARQL " + text, nullptr, &bytes);
      }
      ++op;
      if (reply == Connection::Reply::kLost) {
        ++log.failed;
        lost = true;
        break;
      }
      if (reply == Connection::Reply::kErr) {
        ++log.failed;
        ++log.errors;
        continue;
      }
      log.op_ms.push_back(MsBetween(t0, Clock::now()));
      log.reply_bytes.push_back(bytes);
    }
  };
  auto writer = [&]() {
    ClientLog& log = logs[kReaders];
    Connection& conn = *conns[kReaders];
    for (size_t k = 0; k < writes.size(); ++k) {
      const Clock::time_point due =
          start + std::chrono::microseconds(
                      static_cast<int64_t>(k * kWriteIntervalMs * 1000));
      ++log.attempted;
      if (lost.load()) {
        ++log.failed;  // scheduled, never sent
        continue;
      }
      std::this_thread::sleep_until(due);  // the open loop's schedule
      log.late_ms.push_back(MsBetween(due, Clock::now()));
      const Write& w = writes[k];
      Connection::Reply reply;
      {
        Span op_span(log.tracer.get(), "op.write", k);
        {
          Span span(log.tracer.get(), "server.ADD", k);
          reply = conn.Request("ADD " + WriteBytes(w), nullptr);
        }
        if (reply == Connection::Reply::kOk) {
          Span span(log.tracer.get(), "server.MATERIALIZE", k);
          reply = conn.Request("MATERIALIZE", nullptr);
        }
      }
      if (reply != Connection::Reply::kOk) {
        ++log.failed;
        if (reply == Connection::Reply::kLost) lost = true;
        continue;
      }
      log.op_ms.push_back(MsBetween(due, Clock::now()));
      log.writes_done = k + 1;
    }
  };
  // Readers on their own threads, the writer on this one: four threads.
  std::vector<std::thread> threads;
  for (int i = 0; i < kReaders; ++i) threads.emplace_back(reader, i);
  writer();
  for (std::thread& t : threads) t.join();
  const Clock::time_point stop = Clock::now();
  for (auto& conn : conns) conn->Close();

  // Outcome counts: reads and writes are both ops; only reads are the
  // primary op whose rate and latency are reported.
  PhaseTimes reads;
  reads.setup_s = setup_s;
  reads.elapsed_s = MsBetween(start, stop) / 1e3;
  std::vector<size_t> reply_bytes;
  for (int i = 0; i <= kReaders; ++i) {
    result.attempted += logs[i].attempted;
    result.failed += logs[i].failed;
    if (i < kReaders) {
      reads.op_ms.insert(reads.op_ms.end(), logs[i].op_ms.begin(),
                         logs[i].op_ms.end());
      reply_bytes.insert(reply_bytes.end(), logs[i].reply_bytes.begin(),
                         logs[i].reply_bytes.end());
    }
  }
  const ClientLog& wlog = logs[kReaders];

  // A surviving server answers a probe query, which must equal the
  // in-process replay of the same load and writes; then it shuts down.
  std::vector<std::string> probe_rows;
  std::vector<std::pair<std::string, double>> stats_after;
  const std::string probe = pool.texts[pool.sample[0]];
  bool probed = false;
  if (!lost.load() && !server.Exited()) {
    Connection conn;
    probed = conn.Open(server.port()) &&
             conn.Request("SPARQL " + probe, &probe_rows) ==
                 Connection::Reply::kOk &&
             Stats(conn, &stats_after);
    if (probed) conn.Request("SHUTDOWN", nullptr);
  }
  server.WaitForExit();
  std::fprintf(stderr,
               "serve_rw: triq_server %s after %.1f s of traffic; %zu of %zu "
               "writes done, %zu reads done, %llu ops failed\n",
               server.ExitDescription().c_str(), reads.elapsed_s,
               wlog.writes_done, writes.size(), reads.op_ms.size(),
               static_cast<unsigned long long>(result.failed));
  if (!server.Clean()) {
    result.Fail("triq_server " + server.ExitDescription());
  } else if (!probed) {
    result.Fail("the probe query did not complete");
  }
  if (result.failed > 0) {
    result.Fail(std::to_string(result.failed) + " of " +
                std::to_string(result.attempted) + " ops failed");
  }

  AddEndToEnd(reads, server.PeakRssMb(), &result.metrics);
  result.metrics.push_back({"write_p50_ms", Median(wlog.op_ms), "ms"});

  double image_bytes = 0;
  if (probed) {
    if (replay == nullptr) replay = LoadedEngine(chunks, "", &result);
    for (size_t k = 0; k < wlog.writes_done; ++k) {
      image_bytes += static_cast<double>(
          ReplayWrite(*replay, writes[k], tracer, k, &result));
    }
    auto answers = replay->Query(probe);
    std::vector<std::string> rows;
    if (answers.ok()) {
      for (const std::string& row : RenderMappings(*answers, replay->dict())) {
        rows.push_back("ROW " + row);
      }
    }
    std::sort(probe_rows.begin(), probe_rows.end());
    if (!answers.ok() || rows != probe_rows) {
      result.Fail("probe query " + probe + " returned " +
                  std::to_string(probe_rows.size()) +
                  " rows over the wire, the in-process replay " +
                  std::to_string(rows.size()));
    }
  }

  if (tracer != nullptr) {
    for (const ClientLog& log : logs) tracer->Absorb(*log.tracer);
    const double done = static_cast<double>(std::max<size_t>(wlog.writes_done, 1));
    auto delta = [&](const char* name) {
      return (StatValue(stats_after, name) - StatValue(stats_before, name)) /
             done;
    };
    if (probed) {
      tracer->Count("journal.records", delta("journal_records"));
      tracer->Count("journal.bytes", delta("journal_bytes"));
      tracer->Count("journal.checkpoints", delta("journal_checkpoints"));
      double user_bytes = 0;
      for (size_t k = 0; k < wlog.writes_done; ++k) {
        user_bytes += static_cast<double>(WriteBytes(writes[k]).size());
      }
      // Journal appends plus the checkpoint image each MATERIALIZE
      // writes, over the bytes of triples written.
      tracer->Count("journal.bytes_per_user_byte",
                    (delta("journal_bytes") * done + image_bytes) /
                        std::max(user_bytes, 1.0));
    }
    std::vector<double> bytes(reply_bytes.begin(), reply_bytes.end());
    tracer->Count("server.reply_bytes", Median(bytes));
    tracer->Count("loadgen.write_late_ms", Median(wlog.late_ms));
    if (probed) {
      // One overlay replay per pool text, on the final snapshot.
      for (size_t index = 0; index < pool.texts.size(); ++index) {
        auto expected = replay->Query(pool.texts[index]);
        if (!expected.ok()) continue;
        ReplayQuery(*replay, pool.texts[index], *expected,
                    (uint64_t{9} << 40) + index, tracer, &result);
      }
    }
  }
  // serve_rw's traced run is a single phase, so it reports no tracing
  // overhead (traced_metrics stays empty).
  return result;
}

}  // namespace perfbench
