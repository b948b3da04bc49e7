#!/usr/bin/env python3
"""Serving benchmark of this repository: build, run, record, compare.

    python3 perfbench/run.py --workload exact_closed --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --compare OLD.jsonl NEW.jsonl

A run builds the benchmark package (perfbench/CMakeLists.txt, which
builds the repository's own library and yoloc_serve) into .bench_build/,
runs one workload and prints one JSON object as the last line of stdout:
the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1. Each run also appends a record with the host and build
fingerprint to .bench_build/results.jsonl; --compare reads two such logs
and flags every comparison made across different fingerprints.
NOTES.md describes the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD_ROOT, "cmake")
RESULTS = os.path.join(BUILD_ROOT, "results.jsonl")
WORKLOADS = ("exact_closed", "exact_open_mixed", "analog_closed")
RUN_TIMEOUT_S = 170
# Fingerprint fields that must agree for two results to be comparable.
COMPARABLE = ("nproc", "cpu_model", "compiler", "build_type", "cxx_flags",
              "yoloc_options", "git_sha", "source_digest", "seconds")


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build():
    """Configure once, then build incrementally; returns the build dir."""
    for need in ("CMakeLists.txt", "src", "tools"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"no repository sources here: {need} is missing", 2)
    os.makedirs(BUILD_ROOT, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "build.log")
    steps = []
    if not os.path.exists(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", CMAKE_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", CMAKE_DIR, "-j", str(nproc()),
                  "--target", "perfbench", "perfbench_tests", "yoloc_serve"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail(f"build failed (log: {log_path})")
    return CMAKE_DIR


def source_digest():
    """sha256 over the program's sources and the benchmark's own files."""
    h = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    with open(os.path.join(ROOT, "CMakeLists.txt"), "rb") as f:
        h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def fingerprint(build_dir, args):
    fp = {"nproc": nproc(), "cpu_model": cpu_model(), "git_sha": git_sha(),
          "source_digest": source_digest(), "seed": args.seed,
          "seconds": args.seconds}
    with open(os.path.join(build_dir, "fingerprint.txt")) as f:
        for line in f:
            key, _, value = line.rstrip("\n").partition("=")
            fp[key] = value.strip()
    return fp


def differing(a, b):
    return [k for k in COMPARABLE if a.get(k) != b.get(k)]


def run_workload(args):
    build_dir = build()
    work_dir = os.path.join(BUILD_ROOT, "run")
    cmd = [os.path.join(build_dir, "perfbench"), "run",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--serve-bin", os.path.join(build_dir, "yoloc", "yoloc_serve"),
           "--work-dir", work_dir]
    # Own session, so a timeout or a signal stops the servers it started
    # as well.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)

    def kill_session():
        """Stops whatever the run left behind, e.g. after a crash."""
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()

    def stop(*_):
        kill_session()
        fail("interrupted")

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        kill_session()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    kill_session()
    lines = out.strip().splitlines()
    if not lines:
        fail(f"no result (exit code {proc.returncode})")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"malformed result line: {lines[-1][:200]}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result line lacks the expected keys")

    record = {"workload": args.workload, "trace": args.trace,
              "fingerprint": fingerprint(build_dir, args), "result": result}
    previous = None
    if os.path.exists(RESULTS):
        with open(RESULTS) as f:
            for line in f:
                r = json.loads(line)
                if r["workload"] == args.workload and r["trace"] == args.trace:
                    previous = r
    if previous is not None:
        diff = differing(previous["fingerprint"], record["fingerprint"])
        if diff:
            print(f"perfbench: fingerprint differs from the previous "
                  f"{args.workload} run in {', '.join(diff)}: do not compare "
                  f"these figures with it", file=sys.stderr)
    with open(RESULTS, "a") as f:
        f.write(json.dumps(record) + "\n")
    print(json.dumps({"record": {k: record[k] for k in
                                 ("workload", "trace", "fingerprint")}}))
    print(json.dumps(result))
    sys.exit(proc.returncode)


def self_test():
    build_dir = build()
    sys.exit(subprocess.call([os.path.join(build_dir, "perfbench_tests")]))


def load_records(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def compare(old_path, new_path):
    """Median per metric of two result logs, per workload and mode."""
    old, new = load_records(old_path), load_records(new_path)
    keys = sorted({(r["workload"], r["trace"]) for r in old} &
                  {(r["workload"], r["trace"]) for r in new})
    mismatch = False
    for workload, trace in keys:
        a = [r for r in old if (r["workload"], r["trace"]) == (workload, trace)]
        b = [r for r in new if (r["workload"], r["trace"]) == (workload, trace)]
        diff = sorted({k for x in a + b for y in a + b
                       for k in differing(x["fingerprint"], y["fingerprint"])})
        print(f"== {workload} trace={trace}: {len(a)} vs {len(b)} runs")
        if diff:
            mismatch = True
            print(f"   FINGERPRINTS DIFFER in {', '.join(diff)}: "
                  f"not a like-for-like comparison")
        for name in a[0]["result"]["metrics"]:
            va = [r["result"]["metrics"][name]["value"] for r in a]
            vb = [r["result"]["metrics"][name]["value"]
                  for r in b if name in r["result"]["metrics"]]
            if not vb:
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            ratio = f"{mb / ma:8.4f}" if ma else "       -"
            unit = a[0]["result"]["metrics"][name]["unit"]
            print(f"   {name:42s} {ma:14.6g} {mb:14.6g} {ratio}  {unit}")
    sys.exit(1 if mismatch else 0)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args()
    if args.compare:
        compare(*args.compare)
    if args.self_test:
        self_test()
    if args.workload is None:
        parser.error("--workload is required")
    run_workload(args)


if __name__ == "__main__":
    main()
