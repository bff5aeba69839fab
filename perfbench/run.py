#!/usr/bin/env python3
"""Builds and runs the layered serving benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload road-uniform --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --selftest

The program is built from the repository's sources with CMake into the
directory named by CARGO_TARGET_DIR (default .bench_build), relative to
the repository root. The last line of standard output is the run's JSON
result; build output goes to standard error.
"""
import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 175


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    d = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build():
    """Configures (once) and builds the benchmark; returns the build dir."""
    for needed in ("src/CMakeLists.txt", "examples/sssp_serve.cpp"):
        if not (ROOT / needed).is_file():
            fail(f"{needed} is missing: the benchmark builds the library "
                 "from the repository's sources")
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed", 1)
    jobs = str(os.cpu_count() or 1)
    cmd = ["cmake", "--build", str(out), "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed", 1)
    return out


def commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def run(out, extra, capture=False):
    results = out / "results"
    results.mkdir(parents=True, exist_ok=True)
    cmd = [str(out / "perfbench"), "--out", str(results),
           "--daemon", str(out / "example_sssp_serve"),
           "--commit", commit()] + extra
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S, text=True,
                              capture_output=capture)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S}s", 1)


def selftest(out):
    """Short mode: the correctness gate trips on a wrong reference, and
    every metric in BENCHMARK.json is emitted with its unit."""
    ok = subprocess.run([str(out / "perfbench"), "--selftest"]).returncode == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cases = [(w["name"], 0, spec["end_to_end"]) for w in spec["workloads"]]
    cases.append((spec["workloads"][0]["name"], 1, spec["per_layer"]))
    for workload, trace, wanted in cases:
        r = run(out, ["--workload", workload, "--seed", "3", "--seconds", "1",
                      "--trace", str(trace), "--tiny"], capture=True)
        lines = r.stdout.strip().splitlines()
        if r.returncode != 0 or not lines:
            print(f"selftest: {workload} trace {trace}: exit {r.returncode}"
                  f"\n{r.stderr[-2000:]}")
            ok = False
            continue
        result = json.loads(lines[-1])
        got = result["metrics"]
        for m in wanted:
            have = got.get(m["name"])
            if have is None or have["unit"] != m["unit"]:
                print(f"selftest: {workload} trace {trace}: metric "
                      f"{m['name']} [{m['unit']}] missing or mis-united: "
                      f"{have}")
                ok = False
        extra = set(got) - {m["name"] for m in wanted}
        if extra:
            print(f"selftest: {workload} trace {trace}: metrics not in "
                  f"BENCHMARK.json: {sorted(extra)}")
            ok = False
        print(f"selftest: {workload} trace {trace}: "
              f"{len(wanted)} metrics checked, correct={result['correct']}")
        ok = ok and result["correct"]
    print("selftest: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    a = p.parse_args()
    if not a.selftest and not a.workload:
        fail("--workload is required")
    out = build()
    if a.selftest:
        return selftest(out)
    r = run(out, ["--workload", a.workload, "--seed", str(a.seed),
                  "--seconds", str(a.seconds), "--trace", str(a.trace)])
    return r.returncode


if __name__ == "__main__":
    sys.exit(main())
