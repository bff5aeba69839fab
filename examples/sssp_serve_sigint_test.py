#!/usr/bin/env python3
"""SIGINT must stop `sssp_serve --port` while a client sits idle on a socket.

usage: sssp_serve_sigint_test.py <sssp_serve> <graph.gr> <graph.pre>

Starts the daemon on a loopback port the kernel picked as free, opens one
connection, proves it is served with a single query, then leaves it idle
and sends SIGINT. Passes when the daemon exits cleanly within 5 s; a daemon
still running then is killed and the test fails.
"""
import signal
import socket
import subprocess
import sys
import time

SHUTDOWN_LIMIT_S = 5
STARTUP_LIMIT_S = 60


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def connect(proc, port):
    deadline = time.monotonic() + STARTUP_LIMIT_S
    while True:
        if proc.poll() is not None:
            raise RuntimeError(f"daemon exited early with {proc.returncode}")
        try:
            return socket.create_connection(("127.0.0.1", port), timeout=5)
        except OSError:
            if time.monotonic() > deadline:
                raise RuntimeError("daemon never started listening")
            time.sleep(0.05)


def main():
    daemon, graph, pre = sys.argv[1:4]
    port = free_port()
    proc = subprocess.Popen([daemon, graph, pre, "--port", str(port)])
    conn = None
    try:
        conn = connect(proc, port)
        conn.sendall(b"q 0 5\n")
        reply = conn.makefile("rb").readline().decode().strip()
        if not reply or reply.startswith("error"):
            print(f"FAIL: bad reply {reply!r}")
            return 1
        # The connection stays open and idle from here on.
        proc.send_signal(signal.SIGINT)
        try:
            rc = proc.wait(timeout=SHUTDOWN_LIMIT_S)
        except subprocess.TimeoutExpired:
            print(f"FAIL: daemon still running {SHUTDOWN_LIMIT_S} s after "
                  "SIGINT with an idle client connected")
            return 1
        print(f"daemon exited with status {rc} after SIGINT")
        return 0 if rc == 0 else 1
    finally:
        if conn is not None:
            conn.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
