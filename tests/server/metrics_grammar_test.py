#!/usr/bin/env python3
"""Grammar ctest for GET /metrics: boots the real egp_server binary on
an ephemeral port against the shipped sample dataset, scrapes /metrics
over HTTP (after serving a preview, so counters have moved), runs
tools/validate_metrics.py over the live exposition text, and checks that
every histogram series shares one `le` ladder that resolves the
sub-millisecond warm path.

usage: metrics_grammar_test.py <egp_server> <sample.nt> <validate_metrics.py>
"""

import re
import subprocess
import sys
import time
import urllib.request


def wait_for_port(proc, deadline_s=30.0):
    """Tails the server's stdout for its listening line."""
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            raise SystemExit("server exited before printing its port")
        sys.stderr.write(line)
        m = re.search(r"listening on 127\.0\.0\.1:(\d+)", line)
        if m:
            return int(m.group(1))
    raise SystemExit("timed out waiting for the server's listening line")


def fetch(port, path, body=None):
    url = f"http://127.0.0.1:{port}{path}"
    request = urllib.request.Request(
        url, data=body,
        headers={"Content-Type": "application/json"} if body else {})
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.read().decode("utf-8")


HISTOGRAM_FAMILIES = (
    "egp_http_request_duration_seconds",
    "egp_dataset_request_duration_seconds",
    "egp_loop_lag_seconds",
    "egp_mutex_wait_seconds",
)


def le_ladders(exposition):
    """Maps (family, other labels) to that series' `le` values, in order."""
    families = set(re.findall(r"^# TYPE (\S+) histogram$", exposition,
                              re.MULTILINE))
    ladders = {}
    for m in re.finditer(r"^(\S+)_bucket\{(.*)\} \S+$", exposition,
                         re.MULTILINE):
        family, labels = m.group(1), m.group(2)
        if family not in families:
            continue
        le = re.search(r'(?:^|,)le="([^"]*)"', labels)
        if le is None:
            raise SystemExit(f"{family} bucket without le: {labels}")
        rest = labels[:le.start()] + labels[le.end():]
        ladders.setdefault((family, rest), []).append(le.group(1))
    return ladders


def check_one_ladder(exposition):
    ladders = le_ladders(exposition)
    seen = {family for family, _ in ladders}
    missing = [f for f in HISTOGRAM_FAMILIES if f not in seen]
    if missing:
        raise SystemExit(f"/metrics is missing histogram series {missing}")
    distinct = {tuple(ladder) for ladder in ladders.values()}
    if len(distinct) != 1:
        raise SystemExit(f"histogram series use {len(distinct)} different "
                         f"le ladders: {sorted(distinct)}")
    ladder = distinct.pop()
    if ladder[-1] != "+Inf":
        raise SystemExit(f"le ladder does not end in +Inf: {ladder}")
    finite = [float(le) for le in ladder[:-1]]
    if not finite or min(finite) >= 0.0005:
        raise SystemExit(f"no finite le bound below 0.0005 s: {ladder}")
    print(f"metrics_grammar_test: {len(ladders)} histogram series share one "
          f"{len(ladder)}-bucket ladder from {ladder[0]} s")


def main():
    if len(sys.argv) != 4:
        raise SystemExit(__doc__)
    server_path, sample_nt, validator = sys.argv[1:4]
    proc = subprocess.Popen(
        [server_path, "--dataset", "sample=" + sample_nt,
         "--port", "0", "--workers", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    try:
        port = wait_for_port(proc)
        # Move the counters and histograms off their initial state so
        # the validator sees populated series, not just zeros.
        fetch(port, "/v1/preview",
              body=b'{"k":2,"n":6,"sample":{"rows":2,"seed":5}}')
        exposition = fetch(port, "/metrics")
    finally:
        proc.terminate()
        proc.wait(timeout=15)

    for series in ("egp_http_requests_total", "egp_loop_lag_seconds_bucket",
                   "egp_connections{", "egp_process_resident_bytes",
                   "egp_process_open_fds", "egp_process_uptime_seconds"):
        if series not in exposition:
            raise SystemExit(f"/metrics is missing {series!r}")

    result = subprocess.run(
        [sys.executable, validator], input=exposition,
        capture_output=True, text=True)
    sys.stdout.write(result.stdout)
    sys.stderr.write(result.stderr)
    if result.returncode != 0:
        raise SystemExit("validate_metrics.py rejected the live exposition")
    check_one_ladder(exposition)
    print("metrics_grammar_test: live /metrics output passed the grammar "
          "validator")


if __name__ == "__main__":
    main()
