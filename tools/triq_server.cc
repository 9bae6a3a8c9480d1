// triq_server: a minimal line-protocol front-end over one shared Engine.
//
// The server is the acceptance harness for the engine's concurrency
// model: N worker threads (from the stack's own ThreadPool) each accept
// and serve client connections against ONE Engine session, so reads run
// lock-free on published snapshots while writes build the next snapshot
// off to the side. There is no per-connection state beyond the socket —
// every command is one line, every reply is one or more lines:
//
//   PING                      -> OK pong
//   ADD <s> <p> <o>           -> OK added            (one triple)
//   LOAD <turtle text>        -> OK loaded           (rest of line)
//   RULE <datalog rule text>  -> OK attached
//   MATERIALIZE               -> OK materialized <facts derived>
//   ANSWERS <predicate>       -> ROW <c1> <c2> ... per tuple, then OK <n>
//   SPARQL <pattern text>     -> ROW <mapping> per solution, then OK <n>
//   STATS                     -> STAT <name> <value> lines, then OK
//   ANALYZE                   -> STAT <name> <value> lines (static
//                                analysis of the data program: verdict,
//                                shape, lint counts), then OK
//   EXPLAIN                   -> PLAN <line> per join-plan line of every
//                                data-program rule (order, access paths,
//                                cardinality estimates), then OK
//   EXPLAIN <pattern text>    -> same, for the translated SPARQL query
//   QUIT                      -> OK bye              (closes connection)
//   SHUTDOWN                  -> OK shutting-down    (drains the server)
//
// Errors reply `ERR <status>` (newlines flattened); the connection
// stays usable — a failed query must never wedge a session, which is
// exactly the session-hygiene guarantee the engine layer makes.
//
// Hardening against misbehaving clients:
//  * --max-conns N    admission control: a connection over the cap is
//                     shed immediately with `ERR BUSY ...` + close,
//                     never queued behind a hog (0 = unlimited).
//  * --idle-timeout-ms  a connection that sends nothing for this long
//                     is told `ERR idle timeout` and reaped (0 = never).
//  * --max-line N     a line longer than N bytes (no newline yet) gets
//                     `ERR line too long` + close — unbounded buffering
//                     is a memory DoS.
//  * --write-timeout-ms  a client that stops reading its replies is cut
//                     off once a send stalls this long.
//  * SIGTERM / SHUTDOWN  graceful drain: stop accepting, let in-flight
//                     commands finish, flush the journal, exit 0.
//
// Durability (see engine/journal.h):
//  * --journal PATH   open the engine through Engine::Open with a
//                     write-ahead journal at PATH; a restart replays it.
//  * --fsync never|batch|always   journal fsync policy.
//
// Usage: triq_server [--port P] [--workers N] [--regime R] [hardening...]
// `--port 0` (the default) binds an ephemeral port; the chosen port is
// announced on stdout as `LISTENING <port>` so test harnesses can
// connect without racing. Numeric flags take a whole non-negative
// decimal in their field's range (a port is at most 65535, --workers
// at most 1024; 0 workers means 1); anything else prints the usage and
// exits 2 before binding.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "common/strings.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "engine/engine.h"

namespace {

using triq::Engine;
using triq::EngineOptions;
using triq::EngineStats;
using triq::MutexLock;

std::atomic<bool> g_shutdown{false};
std::atomic<size_t> g_active_conns{0};

/// Aggregate connection/drain counters shared by every worker. A real
/// mutex rather than per-field atomics: STATS reports the triple
/// (served, commands, shed) as one consistent reading.
struct ConnStats {
  triq::Mutex mu;
  uint64_t connections_served TRIQ_GUARDED_BY(mu) = 0;
  uint64_t commands_handled TRIQ_GUARDED_BY(mu) = 0;
  uint64_t shed_connections TRIQ_GUARDED_BY(mu) = 0;
};
ConnStats g_conn_stats;

void HandleSigterm(int) { g_shutdown.store(true, std::memory_order_release); }

/// Everything the per-connection loops need to know about limits.
struct ServerConfig {
  size_t max_conns = 0;        // 0 = unlimited
  int idle_timeout_ms = 0;     // 0 = never reap idle connections
  int write_timeout_ms = 5000; // stall budget for one reply
  size_t max_line = 1 << 20;   // bytes buffered without a newline
};

/// One status line, safe for the wire: newlines become spaces.
std::string Flatten(const triq::Status& status) {
  std::string text = status.ToString();
  for (char& c : text) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  return text;
}

/// Sends all of `data`, tolerating a non-blocking socket: a full kernel
/// buffer polls for writability, but only up to `timeout_ms` total — a
/// client that stops reading must not wedge a worker.
bool SendAll(int fd, const std::string& data, int timeout_ms) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(timeout_ms);
  size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                       MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                      deadline - Clock::now())
                      .count();
      if (left <= 0) return false;  // slow client: give up
      struct pollfd pfd = {fd, POLLOUT, 0};
      int ready = ::poll(&pfd, 1, static_cast<int>(left < 100 ? left : 100));
      if (ready < 0 && errno != EINTR) return false;
      continue;
    }
    return false;
  }
  return true;
}

/// Splits `line` into the command word and the rest (trimmed).
void SplitCommand(const std::string& line, std::string* cmd,
                  std::string* rest) {
  size_t start = line.find_first_not_of(" \t");
  if (start == std::string::npos) {
    cmd->clear();
    rest->clear();
    return;
  }
  size_t end = line.find_first_of(" \t", start);
  if (end == std::string::npos) {
    *cmd = line.substr(start);
    rest->clear();
    return;
  }
  *cmd = line.substr(start, end - start);
  size_t rest_start = line.find_first_not_of(" \t", end);
  *rest = rest_start == std::string::npos ? "" : line.substr(rest_start);
}

std::vector<std::string> SplitWords(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  std::string word;
  while (in >> word) out.push_back(word);
  return out;
}

/// Executes one command line against the shared engine; returns the
/// full reply (possibly multi-line). Sets `quit` when the connection
/// should close after the reply.
std::string HandleCommand(Engine& engine, const std::string& line,
                          bool* quit) {
  std::string cmd, rest;
  SplitCommand(line, &cmd, &rest);
  if (cmd.empty()) return "";  // blank line: no reply

  if (cmd == "PING") return "OK pong\n";

  if (cmd == "ADD") {
    std::vector<std::string> words = SplitWords(rest);
    if (words.size() != 3) return "ERR ADD wants: ADD <s> <p> <o>\n";
    triq::Status status = engine.AddTriple(words[0], words[1], words[2]);
    return status.ok() ? "OK added\n" : "ERR " + Flatten(status) + "\n";
  }

  if (cmd == "LOAD") {
    triq::Status status = engine.LoadTurtle(rest);
    return status.ok() ? "OK loaded\n" : "ERR " + Flatten(status) + "\n";
  }

  if (cmd == "RULE") {
    triq::Status status = engine.AttachRules(rest);
    return status.ok() ? "OK attached\n" : "ERR " + Flatten(status) + "\n";
  }

  if (cmd == "MATERIALIZE") {
    auto stats = engine.Materialize();
    if (!stats.ok()) return "ERR " + Flatten(stats.status()) + "\n";
    return "OK materialized " + std::to_string(stats->facts_derived) + "\n";
  }

  if (cmd == "ANSWERS") {
    if (rest.empty()) return "ERR ANSWERS wants: ANSWERS <predicate>\n";
    auto answers = engine.Answers(rest);
    if (!answers.ok()) return "ERR " + Flatten(answers.status()) + "\n";
    std::string reply;
    for (const triq::chase::Tuple& tuple : *answers) {
      reply += "ROW";
      for (triq::chase::Term t : tuple) {
        reply += ' ';
        reply += engine.dict().Text(t.symbol());
      }
      reply += '\n';
    }
    reply += "OK " + std::to_string(answers->size()) + "\n";
    return reply;
  }

  if (cmd == "SPARQL") {
    auto mappings = engine.Query(rest);
    if (!mappings.ok()) return "ERR " + Flatten(mappings.status()) + "\n";
    std::string reply;
    for (const triq::sparql::SparqlMapping& m : mappings->mappings()) {
      reply += "ROW " + m.ToString(engine.dict()) + "\n";
    }
    reply += "OK " + std::to_string(mappings->size()) + "\n";
    return reply;
  }

  if (cmd == "STATS") {
    EngineStats stats = engine.stats();
    std::string reply;
    reply += "STAT materializations " +
             std::to_string(stats.materializations) + "\n";
    reply += "STAT rebuilds " + std::to_string(stats.rebuilds) + "\n";
    reply += "STAT sparql_cache_hits " +
             std::to_string(stats.sparql_cache_hits) + "\n";
    reply += "STAT sparql_cache_misses " +
             std::to_string(stats.sparql_cache_misses) + "\n";
    reply += "STAT sparql_cache_evictions " +
             std::to_string(stats.sparql_cache_evictions) + "\n";
    reply += "STAT sparql_cache_size " +
             std::to_string(stats.sparql_cache_size) + "\n";
    reply += "STAT dictionary_symbols " +
             std::to_string(stats.dictionary_symbols) + "\n";
    reply += "STAT active_conns " +
             std::to_string(g_active_conns.load(std::memory_order_relaxed)) +
             "\n";
    {
      MutexLock lock(g_conn_stats.mu);
      reply += "STAT connections_served " +
               std::to_string(g_conn_stats.connections_served) + "\n";
      reply += "STAT commands_handled " +
               std::to_string(g_conn_stats.commands_handled) + "\n";
      reply += "STAT shed_connections " +
               std::to_string(g_conn_stats.shed_connections) + "\n";
    }
    reply += "STAT journal_enabled " +
             std::string(stats.journal_enabled ? "true" : "false") + "\n";
    if (stats.journal_enabled) {
      reply += "STAT journal_records " +
               std::to_string(stats.journal_records) + "\n";
      reply += "STAT journal_bytes " + std::to_string(stats.journal_bytes) +
               "\n";
      reply += "STAT journal_syncs " + std::to_string(stats.journal_syncs) +
               "\n";
      reply += "STAT journal_checkpoints " +
               std::to_string(stats.journal_checkpoints) + "\n";
      reply += "STAT journal_recovered_records " +
               std::to_string(stats.journal_recovered_records) + "\n";
      reply += "STAT journal_truncated_bytes " +
               std::to_string(stats.journal_truncated_bytes) + "\n";
    }
    reply += "OK\n";
    return reply;
  }

  if (cmd == "ANALYZE") {
    // Scalars only: witnesses and lint messages are multi-line prose,
    // unfit for the one-line STAT wire format.
    triq::analysis::ProgramAnalysis analysis = engine.AnalyzeProgram();
    std::string reply;
    reply += "STAT verdict " +
             std::string(triq::analysis::TerminationName(
                 analysis.verdict.termination)) + "\n";
    reply += "STAT method " +
             (analysis.verdict.method.empty() ? "none"
                                              : analysis.verdict.method) +
             "\n";
    reply += "STAT rules " + std::to_string(analysis.num_rules) + "\n";
    reply += "STAT stratified " +
             std::string(analysis.stratified ? "true" : "false") + "\n";
    reply += "STAT strata " + std::to_string(analysis.num_strata) + "\n";
    reply += "STAT rule_groups " +
             std::to_string(analysis.num_rule_groups) + "\n";
    reply += "STAT lint_errors " +
             std::to_string(analysis.CountSeverity(
                 triq::analysis::LintSeverity::kError)) + "\n";
    reply += "STAT lint_warnings " +
             std::to_string(analysis.CountSeverity(
                 triq::analysis::LintSeverity::kWarning)) + "\n";
    reply += "OK\n";
    return reply;
  }

  if (cmd == "EXPLAIN") {
    // No argument: the data program's plans. With a pattern: the
    // translated SPARQL query's plans. Both are costed against the
    // current materialized snapshot (materializing first if needed).
    auto plans =
        rest.empty() ? engine.ExplainProgram() : engine.ExplainQuery(rest);
    if (!plans.ok()) return "ERR " + Flatten(plans.status()) + "\n";
    std::string reply;
    std::istringstream in(*plans);
    std::string plan_line;
    while (std::getline(in, plan_line)) {
      if (plan_line.empty()) continue;  // rule-block separators
      reply += "PLAN " + plan_line + "\n";
    }
    reply += "OK\n";
    return reply;
  }

  if (cmd == "QUIT") {
    *quit = true;
    return "OK bye\n";
  }

  if (cmd == "SHUTDOWN") {
    *quit = true;
    g_shutdown.store(true, std::memory_order_release);
    return "OK shutting-down\n";
  }

  return "ERR unknown command '" + cmd + "'\n";
}

/// Serves one connection to completion: newline-delimited commands in,
/// replies out. Returns when the peer disconnects, QUIT/SHUTDOWN is
/// received, a limit trips (idle, line length, write stall), or the
/// server is draining. An in-flight command always finishes and its
/// reply is flushed before a drain closes the connection.
void ServeConnection(Engine& engine, int fd, const ServerConfig& cfg) {
  using Clock = std::chrono::steady_clock;
  std::string buffer;
  char chunk[4096];
  bool quit = false;
  Clock::time_point last_activity = Clock::now();
  while (!quit && !g_shutdown.load(std::memory_order_acquire)) {
    // Poll so a drain from SIGTERM or another connection unblocks us.
    struct pollfd pfd = {fd, POLLIN, 0};
    int ready = ::poll(&pfd, 1, 100);
    if (ready < 0 && errno != EINTR) break;
    if (ready <= 0) {
      if (cfg.idle_timeout_ms > 0 &&
          Clock::now() - last_activity >=
              std::chrono::milliseconds(cfg.idle_timeout_ms)) {
        SendAll(fd, "ERR idle timeout, closing connection\n",
                cfg.write_timeout_ms);
        break;
      }
      continue;
    }
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n == 0) break;  // peer closed: done
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      break;
    }
    last_activity = Clock::now();
    buffer.append(chunk, static_cast<size_t>(n));
    size_t pos;
    while (!quit && (pos = buffer.find('\n')) != std::string::npos) {
      std::string line = buffer.substr(0, pos);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      buffer.erase(0, pos + 1);
      {
        MutexLock lock(g_conn_stats.mu);
        ++g_conn_stats.commands_handled;
      }
      std::string reply = HandleCommand(engine, line, &quit);
      if (!reply.empty() && !SendAll(fd, reply, cfg.write_timeout_ms)) {
        quit = true;
      }
    }
    if (!quit && buffer.size() > cfg.max_line) {
      // A newline-free flood would otherwise buffer without bound.
      SendAll(fd,
              "ERR line too long (max " + std::to_string(cfg.max_line) +
                  " bytes), closing connection\n",
              cfg.write_timeout_ms);
      break;
    }
  }
  ::close(fd);
}

/// One worker's accept loop: poll the shared listening socket, serve
/// each accepted connection serially, exit on shutdown. Admission
/// control happens here — a connection over --max-conns is shed with
/// `ERR BUSY` instead of queuing behind a busy worker.
void WorkerLoop(Engine& engine, int listen_fd, const ServerConfig& cfg) {
  while (!g_shutdown.load(std::memory_order_acquire)) {
    struct pollfd pfd = {listen_fd, POLLIN, 0};
    int ready = ::poll(&pfd, 1, 100);
    if (ready < 0 && errno != EINTR) break;
    if (ready <= 0) continue;
    // Non-blocking connections let SendAll enforce write deadlines.
    int fd = ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK);
    if (fd < 0) continue;  // another worker won the race (EAGAIN)
    if (triq::FailpointHit("server.accept.fail")) {
      ::close(fd);
      continue;
    }
    size_t active = g_active_conns.fetch_add(1, std::memory_order_relaxed) + 1;
    if (cfg.max_conns > 0 && active > cfg.max_conns) {
      SendAll(fd, "ERR BUSY server at --max-conns, try again later\n",
              cfg.write_timeout_ms);
      ::close(fd);
      g_active_conns.fetch_sub(1, std::memory_order_relaxed);
      MutexLock lock(g_conn_stats.mu);
      ++g_conn_stats.shed_connections;
      continue;
    }
    ServeConnection(engine, fd, cfg);
    g_active_conns.fetch_sub(1, std::memory_order_relaxed);
    MutexLock lock(g_conn_stats.mu);
    ++g_conn_stats.connections_served;
  }
}

int Usage() {
  std::fprintf(stderr,
               "usage: triq_server [--port P] [--workers N] "
               "[--regime none|active-domain|all] [--max-conns N] "
               "[--idle-timeout-ms MS] [--write-timeout-ms MS] "
               "[--max-line BYTES] [--journal PATH] "
               "[--fsync never|batch|always]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  int port = 0;
  size_t workers = 4;
  EngineOptions options;
  ServerConfig cfg;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    auto want = [&](const char* flag) -> const char* {
      const char* v = next();
      if (v == nullptr) std::fprintf(stderr, "%s wants a value\n", flag);
      return v;
    };
    // Reads a numeric flag's value into `n`; false (after saying why)
    // when it is missing or not a whole number in [0, max].
    uint64_t n = 0;
    auto count = [&](const char* flag, uint64_t max) {
      const char* v = want(flag);
      if (v == nullptr) return false;
      if (triq::ParseCount(v, max, &n)) return true;
      std::fprintf(stderr, "%s wants a whole number in [0, %llu], got '%s'\n",
                   flag, static_cast<unsigned long long>(max), v);
      return false;
    };
    if (arg == "--port") {
      if (!count("--port", 65535)) return Usage();
      port = static_cast<int>(n);
    } else if (arg == "--workers") {
      if (!count("--workers", triq::common::kMaxThreads)) return Usage();
      workers = std::max<size_t>(n, 1);
    } else if (arg == "--max-conns") {
      if (!count("--max-conns", SIZE_MAX)) return Usage();
      cfg.max_conns = n;
    } else if (arg == "--idle-timeout-ms") {
      if (!count("--idle-timeout-ms", INT_MAX)) return Usage();
      cfg.idle_timeout_ms = static_cast<int>(n);
    } else if (arg == "--write-timeout-ms") {
      if (!count("--write-timeout-ms", INT_MAX)) return Usage();
      cfg.write_timeout_ms = std::max(static_cast<int>(n), 1);
    } else if (arg == "--max-line") {
      if (!count("--max-line", SIZE_MAX)) return Usage();
      cfg.max_line = std::max<size_t>(n, 1);
    } else if (arg == "--journal") {
      const char* v = want("--journal");
      if (v == nullptr) return 2;
      options.SetJournalPath(v);
    } else if (arg == "--fsync") {
      const char* v = want("--fsync");
      if (v == nullptr) return 2;
      std::string policy = v;
      if (policy == "never") {
        options.SetJournalFsync(triq::JournalFsync::kNever);
      } else if (policy == "batch") {
        options.SetJournalFsync(triq::JournalFsync::kBatch);
      } else if (policy == "always") {
        options.SetJournalFsync(triq::JournalFsync::kAlways);
      } else {
        std::fprintf(stderr, "unknown fsync policy '%s'\n", policy.c_str());
        return 2;
      }
    } else if (arg == "--regime") {
      const char* v = want("--regime");
      if (v == nullptr) return 2;
      triq::Result<triq::EntailmentRegime> regime =
          triq::ParseEntailmentRegime(v);
      if (!regime.ok()) {
        std::fprintf(stderr, "%s\n", regime.status().ToString().c_str());
        return 2;
      }
      options.SetRegime(*regime);
    } else {
      return Usage();
    }
  }

  // SIGTERM drains exactly like the SHUTDOWN command: stop accepting,
  // finish in-flight commands, flush the journal, exit 0.
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = HandleSigterm;
  ::sigaction(SIGTERM, &sa, nullptr);

  // Recover the journaled session (if any) before taking traffic.
  auto opened = Engine::Open(options);
  if (!opened.ok()) {
    std::fprintf(stderr, "engine open failed: %s\n",
                 opened.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<Engine> engine = std::move(*opened);

  int listen_fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (listen_fd < 0) {
    std::perror("socket");
    return 1;
  }
  int one = 1;
  ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(listen_fd, reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) < 0) {
    std::perror("bind");
    return 1;
  }
  if (::listen(listen_fd, 64) < 0) {
    std::perror("listen");
    return 1;
  }
  socklen_t addr_len = sizeof(addr);
  ::getsockname(listen_fd, reinterpret_cast<struct sockaddr*>(&addr),
                &addr_len);
  std::printf("LISTENING %d\n", ntohs(addr.sin_port));
  std::fflush(stdout);

  {
    // ParallelFor doubles as a fork-join worker launcher: the calling
    // thread participates, so `workers - 1` pool threads give `workers`
    // accept loops total.
    triq::common::ThreadPool pool(workers - 1);
    pool.ParallelFor(workers,
                     [&](size_t) { WorkerLoop(*engine, listen_fd, cfg); });
  }

  ::close(listen_fd);
  // Destroying the engine syncs the journal — the drain's flush step.
  engine.reset();
  std::printf("STOPPED\n");
  return 0;
}
