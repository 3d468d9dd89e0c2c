"""The benchmark's side of the ``ddb`` surfaces: one ``ddb serve`` child
and newline-framed JSON connections to it, and CLI invocations."""

import json
import os
import selectors
import socket
import subprocess
import time


class Conn:
    """One wire connection: a request line out, a response line back."""

    def __init__(self, addr, timeout=60.0):
        host, port = addr.rsplit(":", 1)
        self.sock = socket.create_connection((host, int(port)), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = b""

    def poll(self):
        """Reads what has arrived; returns a complete response line or
        None. Call when the socket is readable (it blocks otherwise)."""
        data = self.sock.recv(1 << 16)
        if not data:
            raise ConnectionError("server closed the connection")
        self.buf += data
        line, sep, rest = self.buf.partition(b"\n")
        if not sep:
            return None
        self.buf = rest
        return line

    def frame(self, line):
        """Sends one encoded request line; returns the raw response line."""
        self.sock.sendall(line)
        reply = None
        while reply is None:
            reply = self.poll()
        return reply

    def call(self, request):
        return json.loads(self.frame(encode(request)))

    def close(self):
        self.sock.close()


def replay_rounds(conns, rounds):
    """Closed-loop replay on several connections from one thread.

    ``rounds`` is a list of rounds; a round holds one list of encoded
    request lines per connection. Each connection sends its next line as
    soon as the previous reply arrives; a round ends when every
    connection has finished its lines. Returns, per connection, the
    ``(raw reply, ms)`` of each line, and the wall time in seconds.
    """
    selector = selectors.DefaultSelector()
    for i, conn in enumerate(conns):
        selector.register(conn.sock, selectors.EVENT_READ, i)
    results = [[] for _ in conns]
    started = time.perf_counter()
    for lines in rounds:
        pos = [0] * len(conns)
        sent = [0.0] * len(conns)
        active = 0
        for i, conn in enumerate(conns):
            if lines[i]:
                sent[i] = time.perf_counter()
                conn.sock.sendall(lines[i][0])
                active += 1
        while active:
            for key, _ in selector.select():
                i = key.data
                reply = conns[i].poll()
                if reply is None:
                    continue
                results[i].append((reply, (time.perf_counter() - sent[i]) * 1e3))
                pos[i] += 1
                if pos[i] < len(lines[i]):
                    sent[i] = time.perf_counter()
                    conns[i].sock.sendall(lines[i][pos[i]])
                else:
                    active -= 1
    wall = time.perf_counter() - started
    selector.close()
    return results, wall


def encode(request):
    return (json.dumps(request, separators=(",", ":")) + "\n").encode()


class Server:
    """A ``ddb serve`` child on a free loopback port.

    ``start`` returns once the first ``ping`` is answered; the time from
    spawn to that answer is ``setup_s``.
    """

    def __init__(self, ddb, dbs, workers, log):
        self.log = log
        args = [ddb, "serve", "--addr", "127.0.0.1:0", "--workers", str(workers),
                "--threads", "1", "--drain-on-stdin-close"]
        for name, path in dbs:
            args += ["--db", f"{name}={path}"]
        self.args = args
        self.proc = None
        self.addr = None

    def start(self):
        t0 = time.perf_counter()
        with open(self.log, "ab") as log:
            self.proc = subprocess.Popen(self.args, stdin=subprocess.PIPE,
                                         stdout=subprocess.PIPE, stderr=log)
        try:
            banner = self.proc.stdout.readline().decode()
            if not banner.startswith("listening on "):
                raise RuntimeError(f"ddb serve did not start: {banner!r}")
            self.addr = banner.split()[-1]
            conn = Conn(self.addr)
            pong = conn.call({"op": "ping"})
            setup = time.perf_counter() - t0
            conn.close()
            if pong.get("answer") != "pong":
                raise RuntimeError(f"bad ping answer: {pong}")
        except BaseException:
            self.stop()
            raise
        return setup

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self):
        """Drains the server (stdin close) and waits for it; kills it if
        the drain does not finish. Returns the exit code: 0 only when the
        drain leaked no session."""
        if self.proc is None:
            return 0
        proc, self.proc = self.proc, None
        try:
            proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
        return proc.returncode


def run_cli(ddb, args):
    """One ``ddb`` invocation; returns (stdout, stderr, exit code,
    seconds, peak RSS in MiB)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([ddb] + args, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    # stderr is a line or two, far below a pipe's capacity, so draining
    # stdout first cannot block the child. Reaping with wait4 (not
    # communicate) keeps the child's resource usage.
    out = proc.stdout.read()
    err = proc.stderr.read()
    _, status, usage = os.wait4(proc.pid, 0)
    elapsed = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return out.decode(), err.decode(), proc.returncode, elapsed, usage.ru_maxrss / 1024.0
