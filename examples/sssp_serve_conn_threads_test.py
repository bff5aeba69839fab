#!/usr/bin/env python3
"""`sssp_serve --port` must not keep a thread per closed connection.

usage: sssp_serve_conn_threads_test.py <sssp_serve> <graph.gr> <graph.pre>

Starts the daemon on a free loopback port and reads its idle thread count
and mapped memory from /proc/<pid>. Then 200 clients in turn connect, get
one query answered, and close. Passes when the thread count is back within
a few of its idle count and the mapped memory has not grown by a stack per
connection; a thread that finished but was never joined keeps its stack
mapped until the daemon exits.
"""
import os
import socket
import subprocess
import sys
import time

CYCLES = 200
STARTUP_LIMIT_S = 60
SETTLE_LIMIT_S = 10
# Threads the accept loop may not have joined yet: the last connection's
# and one in flight.
THREAD_SLACK = 2
# Far below CYCLES default thread stacks (8 MiB each: 1.6 GiB), above the
# few 64 MiB malloc arenas that short-lived threads open and then reuse.
VM_GROWTH_LIMIT_KB = 512 * 1024


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
            return socket.create_connection(("127.0.0.1", port), timeout=10)
        except OSError:
            if time.monotonic() > deadline:
                raise RuntimeError("daemon never started listening")
            time.sleep(0.05)


def query(proc, port):
    with connect(proc, port) as conn:
        conn.sendall(b"q 0 5\n")
        reply = conn.makefile("rb").readline().decode().strip()
    if not reply or reply.startswith("error"):
        raise RuntimeError(f"bad reply {reply!r}")


def threads(pid):
    return len(os.listdir(f"/proc/{pid}/task"))


def vm_size_kb(pid):
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmSize:"):
                return int(line.split()[1])
    raise RuntimeError("no VmSize in /proc status")


def settle(pid, limit):
    """Waits (briefly) for the thread count to fall to `limit`."""
    deadline = time.monotonic() + SETTLE_LIMIT_S
    while threads(pid) > limit and time.monotonic() < deadline:
        time.sleep(0.05)
    return threads(pid)


def main():
    daemon, graph, pre = sys.argv[1:4]
    port = free_port()
    proc = subprocess.Popen([daemon, graph, pre, "--port", str(port)])
    try:
        # Two warm-up clients: the second accept joins the first's thread,
        # so the idle figures include one finished connection.
        query(proc, port)
        query(proc, port)
        time.sleep(0.2)  # the second connection's thread winds down
        idle_threads = threads(proc.pid)
        idle_vm = vm_size_kb(proc.pid)
        for _ in range(CYCLES):
            query(proc, port)
        busy_threads = settle(proc.pid, idle_threads + THREAD_SLACK)
        growth = vm_size_kb(proc.pid) - idle_vm
        print(f"threads: idle {idle_threads}, after {CYCLES} connections "
              f"{busy_threads}; mapped memory grew {growth} kB")
        if busy_threads > idle_threads + THREAD_SLACK:
            print("FAIL: connection threads pile up")
            return 1
        if growth > VM_GROWTH_LIMIT_KB:
            print("FAIL: finished connection threads were never joined")
            return 1
        return 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
