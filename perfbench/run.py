#!/usr/bin/env python3
"""Builds and runs the preview-server benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --compare RESULT_A.json RESULT_B.json

Run from the repository root. The first run configures and builds egp and
the benchmark (Release) under $CARGO_TARGET_DIR, default .bench_build;
later runs rebuild only what changed. The last line of stdout is the
result object. Each result is also saved, with the machine fingerprint,
under <build>/results/, and --compare refuses to compare two results whose
fingerprints differ in anything but the commit.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
PKG_BUILD = os.path.join(BUILD, "perfbench")
LOG = os.path.join(BUILD, "build.log")
RUN_TIMEOUT_S = 170
WORKLOADS = ("warm_schema", "warm_sampled", "discover_heavy", "cold_mixed")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(target):
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(PKG_BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      PKG_BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", PKG_BUILD, "--target", target, "-j", jobs])
    with open(LOG, "a") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(LOG) as text:
                    sys.stderr.write("".join(text.readlines()[-30:]))
                fail("build failed (see " + LOG + ")")


def source_id():
    """The commit when this is a git checkout, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return "tree-" + digest.hexdigest()[:16]


def compare(path_a, path_b):
    with open(path_a) as a, open(path_b) as b:
        first, second = json.load(a), json.load(b)
    fa = {k: v for k, v in first["fingerprint"].items() if k != "commit"}
    fb = {k: v for k, v in second["fingerprint"].items() if k != "commit"}
    if fa != fb:
        diff = sorted(k for k in set(fa) | set(fb) if fa.get(k) != fb.get(k))
        print("refusing to compare: fingerprints differ in " + ", ".join(diff))
        return 3
    ma, mb = first["result"]["metrics"], second["result"]["metrics"]
    for name in ma:
        if name in mb:
            va, vb = ma[name]["value"], mb[name]["value"]
            change = (vb - va) / va * 100 if va else float("nan")
            print(f"{name:34s} {va:14.4f} {vb:14.4f} {change:+8.2f}% "
                  f"{ma[name]['unit']}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar="RESULT")
    args = parser.parse_args()

    if args.compare:
        return compare(*args.compare)
    if not os.path.exists(os.path.join(ROOT, "perfbench", "CMakeLists.txt")):
        fail("run from the repository root")
    if args.self_test:
        build("perfbench_selftest")
        return subprocess.call([os.path.join(PKG_BUILD, "perfbench_selftest")])
    if not args.workload:
        parser.error("--workload is required")

    build("perfbench")
    server = os.path.join(PKG_BUILD, "egp", "tools", "egp_server")
    work = os.path.join(BUILD, "work")
    os.makedirs(work, exist_ok=True)
    command = [os.path.join(PKG_BUILD, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--server", server, "--work", work, "--commit", source_id()]
    # Its own process group, so a timeout also stops the server it spawned.
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(out)
        fail(f"benchmark binary exited with {proc.returncode}")

    fingerprint = {}
    for line in lines:
        if line.startswith("fingerprint "):
            fingerprint = json.loads(line[len("fingerprint "):])
    result = json.loads(lines[-1])
    results = os.path.join(BUILD, "results")
    os.makedirs(results, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results, name), "w") as saved:
        json.dump({"fingerprint": fingerprint, "result": result}, saved,
                  indent=1)
    sys.stdout.write(out)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
