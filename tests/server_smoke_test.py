#!/usr/bin/env python3
"""Smoke test for tools/triq_server.

Phase 1: start it on an ephemeral port, run a scripted client session
exercising every command (including an error that must NOT wedge the
connection), then shut it down cleanly with SHUTDOWN.

Phase 2: restart it with the hardening limits dialed down and play a
misbehaving-client mix against it — an oversized line (must get ERR, not
unbounded buffering), a connection over --max-conns (must be shed with
ERR BUSY, not queued), an idle client (must be reaped), and finally a
SIGTERM with a connection still open (must drain and exit 0).

Phase 3: flag parsing. Malformed or over-bound numeric flags must be
usage errors (exit 2, no LISTENING banner), and `--regime active` is
accepted as an alias of `active-domain`.

Phase 4: on a fresh server, a user rule deriving `q@0` and `answer@1` —
the names the first SPARQL translation would otherwise pick — must not
make an unrelated SPARQL query fail.

Usage: server_smoke_test.py <path-to-triq_server>
"""

import signal
import socket
import subprocess
import sys
import time


def connect(port, attempts=8):
    """Connects with exponential backoff: the accept loop may briefly lag
    the LISTENING banner, and transient refusals must not flake CI."""
    delay = 0.05
    for attempt in range(attempts):
        try:
            return socket.create_connection(("127.0.0.1", port), timeout=10)
        except OSError:
            if attempt == attempts - 1:
                raise
            time.sleep(delay)
            delay = min(delay * 2, 1.0)


def send(f, command):
    """Sends one command; reads the reply up to its OK/ERR terminator."""
    f.write(command + "\n")
    f.flush()
    lines = []
    while True:
        line = f.readline()
        if not line:
            raise AssertionError(f"connection closed mid-reply to {command!r}")
        line = line.strip()
        lines.append(line)
        if line.startswith("OK") or line.startswith("ERR"):
            return lines


def expect(condition, message):
    if not condition:
        raise AssertionError(message)


def expect_closed(f, message):
    """EOF or RST both count: closing with unread client bytes still in
    the kernel buffer (the oversized-line case) resets rather than FINs."""
    try:
        expect(f.readline() == "", message)
    except ConnectionResetError:
        pass


def admitted_connect(port):
    """Connects AND gets past admission control: under --max-conns 1 the
    worker may still be tearing down the previous connection, so retry
    on ERR BUSY until a PING round-trips."""
    delay = 0.05
    for _ in range(20):
        s = connect(port)
        f = s.makefile("rw")
        f.write("PING\n")
        f.flush()
        if f.readline().strip() == "OK pong":
            return s, f
        s.close()
        time.sleep(delay)
        delay = min(delay * 2, 0.5)
    raise AssertionError("never admitted past ERR BUSY")


def start_server(server, *extra_flags):
    proc = subprocess.Popen(
        [server, "--port", "0", "--workers", "3", *extra_flags],
        stdout=subprocess.PIPE,
        text=True,
    )
    banner = proc.stdout.readline().split()
    expect(banner and banner[0] == "LISTENING", f"bad banner: {banner}")
    return proc, int(banner[1])


def scripted_session(server):
    proc, port = start_server(server)
    try:
        with connect(port) as s:
            f = s.makefile("rw")
            expect(send(f, "PING") == ["OK pong"], "PING failed")
            expect(send(f, "ADD a edge b") == ["OK added"], "ADD failed")
            expect(send(f, "ADD b edge c") == ["OK added"], "ADD failed")
            expect(
                send(
                    f,
                    "RULE triple(?X, edge, ?Y) -> tc(?X, ?Y) . "
                    "tc(?X, ?Y), triple(?Y, edge, ?Z) -> tc(?X, ?Z) .",
                )
                == ["OK attached"],
                "RULE failed",
            )
            reply = send(f, "MATERIALIZE")
            expect(reply[0].startswith("OK materialized"), f"MATERIALIZE: {reply}")

            reply = send(f, "ANSWERS tc")
            rows = {line for line in reply if line.startswith("ROW")}
            expect(
                rows == {"ROW a b", "ROW b c", "ROW a c"} and reply[-1] == "OK 3",
                f"ANSWERS tc: {reply}",
            )

            # An erroring command must leave the connection (and session)
            # usable: session hygiene is the whole point of the server.
            reply = send(f, "SPARQL this is not a pattern")
            expect(reply[0].startswith("ERR"), f"bad SPARQL accepted: {reply}")
            reply = send(f, "SPARQL { ?x edge ?y }")
            expect(reply[-1] == "OK 2", f"SPARQL: {reply}")
            reply = send(f, "SPARQL { ?x edge ?y }")  # cache hit path
            expect(reply[-1] == "OK 2", f"repeat SPARQL: {reply}")

            reply = send(f, "STATS")
            stats = dict(
                line.split()[1:3] for line in reply if line.startswith("STAT")
            )
            expect(stats.get("materializations") == "1", f"STATS: {reply}")
            expect(stats.get("sparql_cache_hits") == "1", f"STATS: {reply}")
            expect(stats.get("journal_enabled") == "false", f"STATS: {reply}")
            # One cached plan holds one program identity; the dictionary
            # holds at least the loaded and translated symbols.
            expect(stats.get("query_programs") == "1", f"STATS: {reply}")
            expect(
                int(stats.get("dictionary_symbols", "0")) > 0, f"STATS: {reply}"
            )

            # Static analysis of the session's data program: the attached
            # tc rules are pure datalog, so the verdict is a guarantee.
            reply = send(f, "ANALYZE")
            analysis = dict(
                line.split()[1:3] for line in reply if line.startswith("STAT")
            )
            expect(reply[-1] == "OK", f"ANALYZE: {reply}")
            expect(
                analysis.get("verdict") == "guaranteed-terminating",
                f"ANALYZE verdict: {reply}",
            )
            expect(analysis.get("method") == "datalog", f"ANALYZE: {reply}")
            expect(analysis.get("lint_errors") == "0", f"ANALYZE: {reply}")

            # EXPLAIN renders one PLAN line per join-plan line: the rule,
            # its strategy, and one access-path line per body atom with a
            # cardinality estimate.
            reply = send(f, "EXPLAIN")
            plans = [line for line in reply if line.startswith("PLAN")]
            expect(reply[-1] == "OK", f"EXPLAIN: {reply}")
            expect(
                any("strategy:" in line for line in plans),
                f"EXPLAIN shows no strategy: {reply}",
            )
            expect(
                any("rows~" in line for line in plans),
                f"EXPLAIN shows no estimates: {reply}",
            )
            expect(
                any("tc(?X, ?Y), triple(?Y, edge, ?Z)" in line for line in plans),
                f"EXPLAIN misses the tc rule: {reply}",
            )

            # EXPLAIN <pattern>: the translated SPARQL query's plans — a
            # triangle pattern must engage the leapfrog operator.
            reply = send(
                f, "EXPLAIN { ?x edge ?y . ?y edge ?z . ?z edge ?x }"
            )
            expect(reply[-1] == "OK", f"EXPLAIN pattern: {reply}")
            expect(
                any("leapfrog" in line for line in reply),
                f"EXPLAIN pattern chose no leapfrog: {reply}",
            )

            # An EXPLAIN parse error must not wedge the session either.
            reply = send(f, "EXPLAIN not a pattern")
            expect(reply[0].startswith("ERR"), f"bad EXPLAIN accepted: {reply}")
            expect(send(f, "PING") == ["OK pong"], "PING after bad EXPLAIN")

            # Hostile nesting: lines well under the 1 MiB line bound whose
            # patterns nest past the parser's depth limit must get an ERR,
            # not overflow a worker's stack and take the server down.
            deep_parens = (
                "FILTER({ ?x edge ?y }, "
                + "(" * 30000 + "?x = a" + ")" * 30000 + ")"
            )
            long_or = (
                "FILTER({ ?x edge ?y }, " + " || ".join(["?x = a"] * 30000) + ")"
            )
            for pattern in (deep_parens, long_or):
                reply = send(f, "SPARQL " + pattern)
                expect(
                    reply[0].startswith("ERR"),
                    f"over-nested SPARQL accepted: {reply[0][:80]}",
                )
            expect(send(f, "PING") == ["OK pong"], "PING after deep SPARQL")

        # A second concurrent-style connection still works after the first
        # closed, and SHUTDOWN stops the whole server.
        with connect(port) as s:
            f = s.makefile("rw")
            expect(send(f, "PING") == ["OK pong"], "second connection PING")
            expect(
                send(f, "SHUTDOWN") == ["OK shutting-down"], "SHUTDOWN failed"
            )

        proc.wait(timeout=15)
        expect(proc.returncode == 0, f"server exit code {proc.returncode}")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def misbehaving_clients(server):
    proc, port = start_server(
        server,
        "--max-conns", "1",
        "--idle-timeout-ms", "600",
        "--max-line", "1024",
        "--write-timeout-ms", "2000",
    )
    try:
        # Admission control: while one connection is held open, a second
        # must be shed immediately with ERR BUSY — not queued behind it.
        with connect(port) as held:
            hf = held.makefile("rw")
            expect(send(hf, "PING") == ["OK pong"], "held connection PING")
            with connect(port) as shed:
                sf = shed.makefile("rw")
                line = sf.readline().strip()
                expect(
                    line.startswith("ERR BUSY"), f"expected ERR BUSY, got {line!r}"
                )
                expect_closed(sf, "shed connection not closed")
            # The held connection was untouched by the shedding.
            expect(send(hf, "PING") == ["OK pong"], "held PING after shed")

        # Oversized line: a newline-free flood past --max-line gets an ERR
        # and a close, never unbounded buffering or a hang.
        s, f = admitted_connect(port)
        with s:
            f.write("x" * 5000)
            f.flush()
            line = f.readline().strip()
            expect(
                line.startswith("ERR line too long"),
                f"expected ERR line too long, got {line!r}",
            )
            expect_closed(f, "oversized-line connection not closed")

        # Idle reaping: a silent client is told why and disconnected.
        s, f = admitted_connect(port)
        with s:
            start = time.monotonic()
            line = f.readline().strip()  # blocks until the reaper speaks
            waited = time.monotonic() - start
            expect(
                line.startswith("ERR idle timeout"),
                f"expected ERR idle timeout, got {line!r}",
            )
            expect(waited >= 0.3, f"reaped suspiciously fast ({waited:.2f}s)")
            expect_closed(f, "idle connection not closed")

        # Graceful drain: SIGTERM with a connection still open must stop
        # accepting, close out, and exit 0 — the systemd-stop path.
        s, f = admitted_connect(port)
        with s:
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=15)
            expect(
                proc.returncode == 0, f"SIGTERM exit code {proc.returncode}"
            )
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def flag_parsing(server):
    # Rejected before binding: a negative or absurd --workers must never
    # reach the thread pool, and a port above 65535 must not wrap to
    # another one.
    for flags in (
        ["--workers", "-1"],
        ["--workers", "1000000000"],
        ["--port", "70000"],
    ):
        try:
            run = subprocess.run(
                [server, *flags], capture_output=True, text=True, timeout=15
            )
        except subprocess.TimeoutExpired:
            raise AssertionError(f"{flags} started a server") from None
        expect(run.returncode == 2, f"{flags}: exit code {run.returncode}")
        expect(
            "LISTENING" not in run.stdout, f"{flags}: announced {run.stdout!r}"
        )

    proc, port = start_server(server, "--regime", "active")
    try:
        with connect(port) as s:
            f = s.makefile("rw")
            expect(send(f, "PING") == ["OK pong"], "PING under --regime active")
            expect(
                send(f, "SHUTDOWN") == ["OK shutting-down"], "SHUTDOWN failed"
            )
        proc.wait(timeout=15)
        expect(proc.returncode == 0, f"server exit code {proc.returncode}")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def fresh_query_names(server):
    proc, port = start_server(server)
    try:
        with connect(port) as s:
            f = s.makefile("rw")
            expect(send(f, "ADD a p b") == ["OK added"], "ADD failed")
            expect(
                send(
                    f,
                    "RULE triple(?X, p, ?Y) -> q@0(?X) . "
                    "triple(?X, p, ?Y) -> answer@1(?X) .",
                )
                == ["OK attached"],
                "RULE failed",
            )
            reply = send(f, "MATERIALIZE")
            expect(reply[0].startswith("OK materialized"), f"MATERIALIZE: {reply}")
            reply = send(f, "SPARQL { ?x p ?y }")
            expect(reply[-1] == "OK 1", f"SPARQL beside q@0/answer@1: {reply}")
            expect(
                send(f, "SHUTDOWN") == ["OK shutting-down"], "SHUTDOWN failed"
            )
        proc.wait(timeout=15)
        expect(proc.returncode == 0, f"server exit code {proc.returncode}")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def main():
    server = sys.argv[1]
    scripted_session(server)
    misbehaving_clients(server)
    flag_parsing(server)
    fresh_query_names(server)
    print("server smoke test passed")


if __name__ == "__main__":
    main()
