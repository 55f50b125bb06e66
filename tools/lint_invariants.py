#!/usr/bin/env python3
"""Repo-invariant linter: rules generic tools can't express.

Scope: first-party C++ under src/, tools/, bench/ (tests are exempt —
they deliberately poke at internals, e.g. raw sockets for misbehaving
clients). Ten rule families, each born from a real bug class here:

  blocking-io   The event-loop serving core must never block on a
                socket. The convenience blocking wrappers (SendAll,
                RecvSome, WaitReadable — the non-`Until` variants) are
                for clients and tools only; server-side code uses the
                absolute-deadline `*Until` forms or non-blocking I/O.

  system-clock  Deadlines live on the CLOCK_MONOTONIC /steady_clock
                base. std::chrono::system_clock jumps with NTP/clock
                changes — a deadline on it can fire early, late, or
                never (PR 6 fixed exactly this bug class).

  naked-syscall Raw accept/read/write/recv/send/fsync calls skip both
                the EINTR retry loop and the fault-injection sites; all
                of them go through the Posix* wrappers in
                src/common/posix.h (PR 8 audited and fixed several
                unretried EINTR paths).

  naked-mutex   All locking goes through egp::Mutex / egp::MutexLock /
                egp::CondVar (src/common/mutex.h), which carry the
                Clang thread-safety annotations. A naked std::mutex is
                invisible to the -Wthread-safety proof.

  no-naked-stderr
                Library code (src/) must not write to stderr directly:
                fprintf(stderr, ...) / std::cerr bypass the level gate
                and interleave unpredictably with the logger and the
                access log. Everything goes through EGP_LOG from
                common/logging.h (whose implementation is the single
                allowed writer). Tools and benches own their process
                stderr and are exempt.

  one-json-writer
                Every JSON document src/ emits goes through the one
                append-only writer in src/io/json_writer.{h,cc}. Three
                hand-rolled escapers, per-character string building and
                ostringstream exporters were once the largest CPU cost
                of a sampled preview. Outside the writer, src/ may not
                define a `Quoted(`/`JsonEscape` helper, spell the
                `\\u%04x` escape format, or build JSON members by hand
                in string literals; and a JSON emitter (a file that uses
                the writer or the preview exporters) may not format
                numbers with a `"%.<n>g"` literal or an
                std::ostringstream. Other text formats (/metrics, the
                Markdown report) keep their own formatting.

  one-histogram
                Every bucketed histogram in src/ is the one Histogram in
                src/common/histogram.h, over its one log-spaced bound
                table, and every histogram family on /metrics is written
                by the one AppendHistogramSamples in
                src/server/metrics.cc. A second scheme once gave request
                latency a 500 µs floor that hid the whole warm path,
                while lock waits used other bounds and their own
                exposition loop. Outside those two places, src/ may not
                spell an `le=` label literal, declare an array of
                std::atomic<uint64_t> (buckets), or define a constexpr
                `k...Bounds` table.

  one-adjacency The graph's adjacency is the one CSR of
                src/graph/frozen_graph.h that every EntityGraph carries
                (EntityGraph::csr()). Per-entity edge-id lists once held
                the same adjacency a second time: the snapshot loader
                rebuilt them with push_back although the file holds the
                CSR, and row sampling chased edge ids through them; a
                per-relationship edge-id index did the same per type,
                and validation searched it linearly for every edge.
                src/ may not spell `out_edges_`/`in_edges_`/
                `rel_type_edges_` or call `OutEdges(`/`InEdges(`/
                `EdgesOfRelType(`.

  one-phase-model
                A request phase is timed once: by ScopedTracePhase
                (src/common/trace.h), which tags the profiler and adds
                the phase's self time to RequestTrace::phase_ns, or by
                the transport's own wall stamps into that array. Engine
                Timers once copied three of the same phases into the
                trace field by field, and the access log billed render
                to the handler while the profiler split it out. Code
                under src/service/ and src/server/ may not use `Timer`;
                the catalog, which times dataset loads rather than
                request phases, is the one exemption.

  layering      Modules form a DAG; an #include against the arrow
                (core/ including server/, say) couples the algorithm
                layer to the serving layer and eventually deadlocks the
                build graph. The matrix below is the whole truth.

Exit status 0 when clean; 1 with `path:line: [rule] message` findings
otherwise. Run from anywhere: paths resolve against the repo root.
"""

import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCAN_DIRS = ("src", "tools", "bench")
CXX_EXTENSIONS = (".h", ".hpp", ".cc", ".cpp")

# ---------------------------------------------------------------------------
# Rule: blocking-io
# ---------------------------------------------------------------------------
# The blocking convenience wrappers. `SendAllUntil(`/`RecvSomeUntil(` do
# not match: the character after the name must be `(`.
BLOCKING_IO_RE = re.compile(r"\b(SendAll|RecvSome|WaitReadable)\s*\(")
BLOCKING_IO_ALLOWED = {
    "src/server/socket.h",     # declares them
    "src/server/socket.cc",    # defines them
    "src/server/http_client.cc",  # a client: blocking by design
    "tools/egp_loadgen.cc",    # RST clients block by design (a tool)
}

# ---------------------------------------------------------------------------
# Rule: naked-syscall
# ---------------------------------------------------------------------------
# Bare interruptible syscalls. Matches `read(`, `::read(` etc., but not
# member calls (`.read(`, `->send(`), qualified names (`file.read(`),
# other identifiers ending in the name (`fread(`, `pread(`,
# `SendAll(`), or the Posix* wrappers themselves.
NAKED_SYSCALL_RE = re.compile(
    r"(?:::\s*|(?<![\w.:>]))(accept4?|read|write|fsync|recv|send)\s*\(")
NAKED_SYSCALL_ALLOWED = {
    "src/common/posix.h",  # the wrappers wrap the real syscalls
}

# ---------------------------------------------------------------------------
# Rule: system-clock
# ---------------------------------------------------------------------------
SYSTEM_CLOCK_RE = re.compile(r"\bsystem_clock\b")
SYSTEM_CLOCK_ALLOWED: set = set()  # no legitimate use exists today

# ---------------------------------------------------------------------------
# Rule: naked-mutex
# ---------------------------------------------------------------------------
NAKED_MUTEX_RE = re.compile(
    r"std::(mutex|shared_mutex|recursive_mutex|timed_mutex|condition_variable"
    r"|condition_variable_any|lock_guard|unique_lock|scoped_lock|shared_lock)\b"
    r"|#\s*include\s*<(mutex|condition_variable|shared_mutex)>"
)
NAKED_MUTEX_ALLOWED = {
    "src/common/mutex.h",  # the one wrapper over the standard primitives
}

# ---------------------------------------------------------------------------
# Rule: no-naked-stderr
# ---------------------------------------------------------------------------
# Direct stderr writes in library code. Applies to src/ only: tools and
# benches write their own process stderr (usage errors, progress).
NAKED_STDERR_RE = re.compile(r"\bfprintf\s*\(\s*stderr\b|\bstd::cerr\b")
NAKED_STDERR_ALLOWED = {
    "src/common/logging.cc",  # the logger is the single stderr writer
}

# ---------------------------------------------------------------------------
# Rule: one-json-writer
# ---------------------------------------------------------------------------
# Applies to src/ only. The writer itself is the one allowed home of an
# escaper and a number formatter.
JSON_WRITER_FILES = {"src/io/json_writer.h", "src/io/json_writer.cc"}
# A definition or declaration (return type first), not a call.
JSON_ESCAPER_DEF_RE = re.compile(r"\bstd::string\s+(Quoted|JsonEscape)\s*\(")
# The \u%04x format string, as spelled in C++ source ("\\u%04x").
JSON_UNICODE_FORMAT_RE = re.compile(r"\\\\u%0?4x")
# A hand-built JSON member: a string literal holding \"name\":
JSON_HAND_KEY_RE = re.compile(r'\\"[A-Za-z_]\w*\\"\s*:')
# What marks a file as a JSON emitter.
JSON_EMITTER_RE = re.compile(
    r'\bJsonWriter\b|#\s*include\s*"io/json_(writer|export)\.h"')
JSON_EMITTER_FORBIDDEN_RE = re.compile(r'"%\.\d+g"|\bstd::ostringstream\b')

# ---------------------------------------------------------------------------
# Rule: one-histogram
# ---------------------------------------------------------------------------
# Applies to src/ only. The histogram type owns the buckets and bounds;
# the one exposition function (a function body, not its whole file)
# owns the `le` label.
HISTOGRAM_FILES = {"src/common/histogram.h", "src/common/histogram.cc"}
HISTOGRAM_EXPOSITION_FILE = "src/server/metrics.cc"
HISTOGRAM_EXPOSITION_FUNCTION = "AppendHistogramSamples"
HISTOGRAM_FORBIDDEN_RE = re.compile(
    r'\ble=\\?"'
    r"|std::array\s*<\s*std::atomic\s*<\s*(?:std::)?uint64_t\s*>"
    r"|std::atomic\s*<\s*(?:std::)?uint64_t\s*>\s*\w+\s*\["
    r"|\bconstexpr\b.*\bk\w*Bounds\w*\s*[\[={]")
STRING_LITERAL_RE = re.compile(r'"(?:\\.|[^"\\\n])*"')

# ---------------------------------------------------------------------------
# Rule: one-adjacency
# ---------------------------------------------------------------------------
# Applies to src/ only: per-entity edge-list adjacency beside the CSR.
ADJACENCY_FORBIDDEN_RE = re.compile(
    r"\b(?:out_edges_|in_edges_|rel_type_edges_)\b"
    r"|\b(?:OutEdges|InEdges|EdgesOfRelType)\s*\(")

# ---------------------------------------------------------------------------
# Rule: one-phase-model
# ---------------------------------------------------------------------------
# Applies to the request path: every phase there is a ScopedTracePhase.
PHASE_MODEL_DIRS = ("src/service/", "src/server/")
PHASE_MODEL_ALLOWED = {
    "src/server/catalog.cc",  # times dataset loads, not request phases
}
PHASE_MODEL_FORBIDDEN_RE = re.compile(r"\bTimer\b|#\s*include\s*\"common/timer\.h\"")

# ---------------------------------------------------------------------------
# Rule: layering
# ---------------------------------------------------------------------------
# module -> modules it may #include from (first path component of a
# quoted include). Keep alphabetized; a module may always include
# itself. Tools and benches sit above every module and are unrestricted.
LAYERING = {
    "baseline": {"common", "graph"},
    "common": set(),
    "core": {"common", "graph"},
    "datagen": {"common", "graph"},
    "eval": {"common"},
    "graph": {"common"},
    "io": {"common", "core", "graph", "store"},
    "reduction": {"common", "core", "graph"},
    "server": {"common", "core", "graph", "io", "service"},
    "service": {"common", "core", "graph"},
    "store": {"common", "graph"},
}
QUOTED_INCLUDE_RE = re.compile(r'#\s*include\s*"([^"]+)"')

BLOCK_COMMENT_RE = re.compile(r"/\*.*?\*/", re.DOTALL)


def strip_comments(text: str) -> str:
    """Blanks out comments, preserving line numbers (and newlines inside
    block comments) so findings point at real code."""
    def blank(match: re.Match) -> str:
        return re.sub(r"[^\n]", " ", match.group(0))

    text = BLOCK_COMMENT_RE.sub(blank, text)
    return "\n".join(line.split("//", 1)[0] for line in text.split("\n"))


def function_body_lines(code: str, name: str) -> set:
    """1-based line numbers spanned by the definition of `void name(...)`
    in comment-stripped `code`; empty when there is none."""
    match = re.search(rf"\bvoid\s+{name}\s*\(", code)
    if match is None:
        return set()
    # Blank string literals so braces inside them are not counted.
    text = STRING_LITERAL_RE.sub(lambda m: " " * len(m.group(0)), code)
    depth = 0
    for i in range(match.end(), len(text)):
        if text[i] == ";" and depth == 0:
            return set()  # a declaration
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                first = text.count("\n", 0, match.start()) + 1
                return set(range(first, text.count("\n", 0, i) + 2))
    return set()


def scan_file(rel_path: str, findings: list) -> None:
    abs_path = os.path.join(REPO_ROOT, rel_path)
    with open(abs_path, encoding="utf-8") as f:
        raw = f.read()
    code = strip_comments(raw)
    lines = code.split("\n")

    parts = rel_path.split("/")
    module = parts[1] if parts[0] == "src" and len(parts) > 2 else None
    json_rules = (rel_path.startswith("src/")
                  and rel_path not in JSON_WRITER_FILES)
    json_emitter = json_rules and JSON_EMITTER_RE.search(code) is not None
    histogram_rules = (rel_path.startswith("src/")
                       and rel_path not in HISTOGRAM_FILES)
    histogram_exempt = (
        function_body_lines(code, HISTOGRAM_EXPOSITION_FUNCTION)
        if rel_path == HISTOGRAM_EXPOSITION_FILE else set())

    for lineno, line in enumerate(lines, start=1):
        if rel_path not in BLOCKING_IO_ALLOWED:
            m = BLOCKING_IO_RE.search(line)
            if m:
                findings.append(
                    f"{rel_path}:{lineno}: [blocking-io] blocking {m.group(1)}() "
                    f"outside the socket/client layer — use the deadline-based "
                    f"*Until form or non-blocking I/O")
        if rel_path not in NAKED_SYSCALL_ALLOWED:
            m = NAKED_SYSCALL_RE.search(line)
            if m:
                findings.append(
                    f"{rel_path}:{lineno}: [naked-syscall] raw {m.group(1)}() "
                    f"skips EINTR retry and fault injection — use "
                    f"Posix{m.group(1).capitalize()} from common/posix.h")
        if rel_path not in SYSTEM_CLOCK_ALLOWED and SYSTEM_CLOCK_RE.search(line):
            findings.append(
                f"{rel_path}:{lineno}: [system-clock] system_clock in a "
                f"deadline/timing path — use steady_clock or CLOCK_MONOTONIC "
                f"(system time jumps)")
        if rel_path not in NAKED_MUTEX_ALLOWED and NAKED_MUTEX_RE.search(line):
            findings.append(
                f"{rel_path}:{lineno}: [naked-mutex] raw standard-library "
                f"locking — use egp::Mutex/MutexLock/CondVar from "
                f"common/mutex.h (they carry the thread-safety annotations)")
        if (rel_path.startswith("src/")
                and rel_path not in NAKED_STDERR_ALLOWED
                and NAKED_STDERR_RE.search(line)):
            findings.append(
                f"{rel_path}:{lineno}: [no-naked-stderr] direct stderr "
                f"write in library code bypasses the level gate — use "
                f"EGP_LOG from common/logging.h")
        if json_rules:
            m = (JSON_ESCAPER_DEF_RE.search(line)
                 or JSON_UNICODE_FORMAT_RE.search(line)
                 or JSON_HAND_KEY_RE.search(line)
                 or (json_emitter and JSON_EMITTER_FORBIDDEN_RE.search(line)))
            if m:
                findings.append(
                    f"{rel_path}:{lineno}: [one-json-writer] "
                    f"`{m.group(0)}` starts a second JSON writer — emit "
                    f"JSON through JsonWriter (src/io/json_writer.h)")
        if histogram_rules and lineno not in histogram_exempt:
            m = HISTOGRAM_FORBIDDEN_RE.search(line)
            if m:
                findings.append(
                    f"{rel_path}:{lineno}: [one-histogram] `{m.group(0)}` "
                    f"starts a second histogram scheme — use Histogram "
                    f"(src/common/histogram.h) and render it through "
                    f"RenderMetricFamilies (src/server/metrics.h)")
        if rel_path.startswith("src/"):
            m = ADJACENCY_FORBIDDEN_RE.search(line)
            if m:
                findings.append(
                    f"{rel_path}:{lineno}: [one-adjacency] `{m.group(0)}` "
                    f"keeps a second adjacency — read the graph's CSR "
                    f"(EntityGraph::csr(), src/graph/frozen_graph.h)")
        if (rel_path.startswith(PHASE_MODEL_DIRS)
                and rel_path not in PHASE_MODEL_ALLOWED):
            m = PHASE_MODEL_FORBIDDEN_RE.search(line)
            if m:
                findings.append(
                    f"{rel_path}:{lineno}: [one-phase-model] `{m.group(0)}` "
                    f"times a request phase a second time — use "
                    f"ScopedTracePhase (src/common/trace.h)")
        if module is not None:
            for inc in QUOTED_INCLUDE_RE.findall(line):
                target = inc.split("/", 1)[0]
                if target not in LAYERING:
                    continue  # tests/testing helpers etc. — not a module
                allowed = LAYERING.get(module)
                if allowed is None:
                    findings.append(
                        f"{rel_path}:{lineno}: [layering] unknown module "
                        f"'{module}' — add it to LAYERING in "
                        f"tools/lint_invariants.py")
                    break
                if target != module and target not in allowed:
                    findings.append(
                        f"{rel_path}:{lineno}: [layering] {module}/ must not "
                        f"include {target}/ (allowed: "
                        f"{', '.join(sorted(allowed)) or 'nothing'})")


def main() -> int:
    findings: list = []
    scanned = 0
    for scan_dir in SCAN_DIRS:
        root = os.path.join(REPO_ROOT, scan_dir)
        for dirpath, _, filenames in os.walk(root):
            for name in sorted(filenames):
                if not name.endswith(CXX_EXTENSIONS):
                    continue
                rel = os.path.relpath(os.path.join(dirpath, name), REPO_ROOT)
                rel = rel.replace(os.sep, "/")
                scan_file(rel, findings)
                scanned += 1
    for finding in sorted(findings):
        print(finding)
    status = 1 if findings else 0
    print(f"lint_invariants: {scanned} files scanned, "
          f"{len(findings)} finding(s)", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
