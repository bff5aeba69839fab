#!/usr/bin/env python3
"""Long request lines get exactly one reply from `sssp_serve`.

usage: sssp_serve_line_limit_test.py stdin|tcp <sssp_serve> <graph.gr> <graph.pre>

stdin: a 6000-byte `q` line (1500 targets) must get one reply with 1500
answers that agree with short queries for the same targets, and a line
longer than the daemon's cap must get exactly one `error: line too long`,
with the next line still answered.

tcp: a client that sends more than the cap with no newline must get one
`error: line too long` and be disconnected; a second client is then still
answered correctly.
"""
import socket
import subprocess
import sys
import time

# kMaxLineBytes in examples/sssp_serve.cpp.
MAX_LINE_BYTES = 1 << 20
TOO_LONG = "error: line too long"
TARGETS = [(i * 7) % 100 for i in range(1500)]
STARTUP_LIMIT_S = 60


def fail(msg):
    print(f"FAIL: {msg}")
    return 1


def check_stdin(daemon, graph, pre):
    long_q = "q 0 " + ",".join(str(t) for t in TARGETS)
    assert len(long_q) > 4096
    short_q = "q 0 " + ",".join(str(t) for t in range(100))
    oversize = "q 0 " + "5," * (MAX_LINE_BYTES // 2)
    text = "\n".join([long_q, short_q, oversize, "q 0 5"]) + "\n"
    run = subprocess.run([daemon, graph, pre], input=text, text=True,
                         capture_output=True, timeout=120)
    replies = run.stdout.splitlines()
    if run.returncode != 0:
        return fail(f"daemon exited with {run.returncode}: {run.stderr}")
    if len(replies) != 4:
        return fail(f"{len(replies)} replies to 4 lines: "
                    f"{[r[:60] for r in replies[:5]]}")
    long_a, short_a, too_long, last = replies
    answers = long_a.split()
    if len(answers) != len(TARGETS):
        return fail(f"{len(answers)} answers to {len(TARGETS)} targets")
    by_target = short_a.split()
    if answers != [by_target[t] for t in TARGETS]:
        return fail("long-line answers disagree with the short query")
    if too_long != TOO_LONG:
        return fail(f"oversize line answered {too_long[:60]!r}")
    if last != by_target[5]:
        return fail(f"line after the oversize one answered {last!r}")
    print("stdin: long line answered once, oversize line rejected once")
    return 0


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


def check_tcp(daemon, graph, pre):
    port = free_port()
    proc = subprocess.Popen([daemon, graph, pre, "--port", str(port)])
    try:
        first = connect(proc, port)
        first.sendall(b"q 0 5,17\n")
        reader = first.makefile("rb")
        want = reader.readline().decode().strip()
        if not want or want.startswith("error"):
            return fail(f"bad reply {want!r}")
        # Exactly one byte over the cap, so the daemon reads everything it
        # was sent before it closes (unread bytes would turn the close into
        # a reset).
        first.sendall(b"x" * (MAX_LINE_BYTES + 1))
        try:
            reply = reader.readline().decode().strip()
            after = reader.read()
        except socket.timeout:
            return fail("no reply to an over-long line with no newline")
        if reply != TOO_LONG:
            return fail(f"over-long line answered {reply[:60]!r}")
        if after:
            return fail(f"connection still open, sent {after[:60]!r}")
        first.close()

        second = connect(proc, port)
        second.sendall(b"q 0 5,17\n")
        got = second.makefile("rb").readline().decode().strip()
        second.close()
        if got != want:
            return fail(f"second client got {got!r}, want {want!r}")
        print("tcp: over-long line rejected once and closed; "
              "second client answered")
        return 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def main():
    mode, daemon, graph, pre = sys.argv[1:5]
    check = check_stdin if mode == "stdin" else check_tcp
    return check(daemon, graph, pre)


if __name__ == "__main__":
    sys.exit(main())
