"""Measurement helpers: percentiles, host stamp and steal, /proc readers,
traces.

Everything here observes the program from outside: it reads the trace
lines the server writes under ``REPRO_TRACE=1``, the ``/proc`` entries of
the serving processes, and the benchmark's own clocks.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.obs import quantile as obs_quantile


def quantile(values, q: float) -> float:
    """``repro.obs.quantile`` (nearest rank) over ``values`` in any order,
    so the benchmark's p50/p95 read a sample as the program's own do."""
    return obs_quantile(sorted(values), q)


# ----------------------------------------------------------------------
# Result records
# ----------------------------------------------------------------------
@dataclass
class Phase:
    """Counts and timings of one closed-loop round (or pass) of a phase;
    ``latencies`` are seconds, ``rows`` the tokens it answered."""

    name: str
    sent: int = 0
    ok: int = 0
    failed: int = 0
    wall_s: float = 0.0
    latencies: list = field(default_factory=list)
    rows: int = 0
    errors: list = field(default_factory=list)
    #: Share of the host's CPU time stolen while the round ran.
    steal: float = 0.0

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(what)

    def report(self) -> dict:
        out = {"phase": self.name, "sent": self.sent, "succeeded": self.ok,
               "failed": self.failed, "wall_s": round(self.wall_s, 4),
               "steal": round(self.steal, 4), "errors": self.errors}
        if self.latencies:
            out["p50_ms"] = round(self.p(0.50), 4)
        return out

    @property
    def rps(self) -> float:
        return self.ok / self.wall_s if self.wall_s else 0.0

    def p(self, q: float) -> float:
        return quantile(self.latencies, q) * 1e3


@dataclass
class Outcome:
    """What a workload hands back to ``run.py``."""

    phases: list
    e2e: dict
    layers: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)
    check_errors: list = field(default_factory=list)


# ----------------------------------------------------------------------
# Host stamp
# ----------------------------------------------------------------------
#: Repeats of the calibration loop; ``calib_ms`` is their median.
CALIB_REPEATS = 7


def calib_ms() -> float:
    """Median time of a fixed numpy loop over CALIB_REPEATS repeats, in
    milliseconds.

    Taken at the start and end of every run so a paired comparison can
    tell host drift from a change in the program. The median, not the
    best: contention from other tenants slows most repeats, and the
    covariate has to show it.
    """
    rng = np.random.default_rng(12345)
    base = rng.standard_normal((160, 160))
    times = []
    for _ in range(CALIB_REPEATS):
        t0 = time.perf_counter()
        a = base
        for _ in range(40):
            a = np.tanh(a @ base.T / 160.0)
            a = np.sort(a, axis=-1)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) clock ticks of all the host's CPUs so far, from
    ``/proc/stat``; (0, 0) where the kernel does not report them."""
    try:
        with open("/proc/stat") as f:
            fields = [int(v) for v in f.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def steal_share(before: tuple, after: tuple) -> float:
    """Share of CPU time the hypervisor gave to other tenants between
    two :func:`cpu_ticks` readings."""
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total > 0 else 0.0


#: A round during which the hypervisor stole more than this share of
#: the host's CPU time measured the other tenants, not the program: on
#: the reference host rounds at steal ~0.25 run 2-3x slower than rounds
#: at steal < 0.02, and steal comes in episodes of 10-30 s.
CALM_STEAL = 0.05
#: Share of a phase's rounds a metric is taken over at least: when fewer
#: are calm, the least-stolen ones fill up, and the run is reported as
#: contended.
MIN_CALM_SHARE = 1 / 3


def _min_calm(phases: list) -> int:
    return max(1, math.ceil(MIN_CALM_SHARE * len(phases)))


def calm(phases: list) -> list:
    """The rounds an end-to-end metric is taken over, in run order:
    every round with steal <= CALM_STEAL, or the least-stolen third of
    the rounds when fewer are calm."""
    if not contended(phases):
        return [p for p in phases if p.steal <= CALM_STEAL]
    keep = sorted(phases, key=lambda p: p.steal)[:_min_calm(phases)]
    return [p for p in phases if any(p is k for k in keep)]


def calm_median(phases: list, fn) -> float:
    """Median of ``fn(round)`` over the rounds :func:`calm` keeps."""
    return statistics.median(fn(p) for p in calm(phases))


def calm_quantile_ms(phases: list, q: float) -> float:
    """The ``q`` quantile, in ms, of the latencies of the rounds
    :func:`calm` keeps, pooled."""
    return quantile([lat for p in calm(phases) for lat in p.latencies],
                    q) * 1e3


def timed(name: str, fn):
    """``fn()`` and a :class:`Phase` with its wall time and steal share."""
    phase = Phase(name)
    ticks, t0 = cpu_ticks(), time.perf_counter()
    result = fn()
    phase.wall_s = time.perf_counter() - t0
    phase.steal = steal_share(ticks, cpu_ticks())
    return result, phase


def setup_s(setups: list) -> float:
    """Median wall time of the calm set-ups."""
    return statistics.median(p.wall_s for p in calm(setups))


def contended(phases: list) -> bool:
    """Whether fewer than a third of a phase's rounds were calm: its
    figures carry host contention, and a gate reading on them is
    unresolved."""
    return sum(p.steal <= CALM_STEAL for p in phases) < _min_calm(phases)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha(root: Path) -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def _src_digest(root: Path) -> str:
    """sha256 over ``src/**/*.py`` — identifies the code without git."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def host_stamp(root: Path) -> dict:
    return {"nproc": os.cpu_count(), "cpu": _cpu_model(),
            "python": platform.python_version(),
            "numpy": np.__version__, "git_sha": _git_sha(root),
            "src_sha256": _src_digest(root)}


# ----------------------------------------------------------------------
# /proc readers for the serving processes
# ----------------------------------------------------------------------
def _ppid(pid: int) -> int | None:
    try:
        with open(f"/proc/{pid}/stat") as f:
            stat = f.read()
    except OSError:
        return None
    # The command name may hold spaces; fields resume after its ')'.
    return int(stat.rsplit(")", 1)[1].split()[1])


def descendants(pid: int) -> list[int]:
    """Every live descendant of ``pid`` (a /proc scan)."""
    children = defaultdict(list)
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            parent = _ppid(int(entry))
            if parent is not None:
                children[parent].append(int(entry))
    out, todo = [], [pid]
    while todo:
        for child in children.get(todo.pop(), ()):
            out.append(child)
            todo.append(child)
    return out


def cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            return f.read().replace(b"\0", b" ").decode(errors="replace")
    except OSError:
        return ""


def server_pids(root_pid: int, include_root: bool = False) -> list[int]:
    """Serving processes under ``root_pid``: spawned workers (the
    multiprocessing resource tracker is not one), plus the root itself
    when it serves too (the gateway CLI)."""
    pids = [p for p in descendants(root_pid) if "spawn_main" in cmdline(p)]
    return ([root_pid] if include_root else []) + pids


def peak_rss_mb(pids) -> float:
    """Sum of the processes' peak resident set (VmHWM), in MiB."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


def cpu_seconds(pids) -> float:
    """User + system CPU seconds consumed so far by ``pids``."""
    tick = os.sysconf("SC_CLK_TCK")
    total = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        total += int(fields[11]) + int(fields[12])  # utime, stime
    return total / tick


def self_peak_rss_mb() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# REPRO_TRACE lines
# ----------------------------------------------------------------------
class TraceFile:
    """Reads the server's JSONL trace by byte offset, so each phase
    takes exactly the lines written while it ran (the server writes a
    request's line before it sends the response)."""

    def __init__(self, path: Path) -> None:
        self.path = Path(path)

    def offset(self) -> int:
        try:
            return self.path.stat().st_size
        except FileNotFoundError:
            return 0

    def lines(self, start: int, end: int) -> list[dict]:
        if end <= start:
            return []
        with open(self.path, "rb") as f:
            f.seek(start)
            blob = f.read(end - start)
        return [json.loads(line) for line in blob.splitlines() if line]


def span_total_s(line: dict) -> float:
    return sum(span["dur_s"] for span in line.get("spans", ()))


def span_s(line: dict, name: str) -> float:
    return sum(span["dur_s"] for span in line.get("spans", ())
               if span["name"] == name)


def residual_ms(wall_s: float, encode_s: float, decode_s: float,
                line: dict) -> float:
    """Client wall time not covered by client encode/decode or by any
    server span of the request's trace line, in milliseconds."""
    return (wall_s - encode_s - decode_s - span_total_s(line)) * 1e3


def id_collisions(lines) -> int:
    """Request ids that appear on more than one trace line."""
    counts = Counter(line["request_id"] for line in lines)
    return sum(1 for n in counts.values() if n > 1)


def aggregate_spans(lines, phase: str) -> dict:
    """Mean span durations (ms) per (kind, arm, phase)."""
    groups: dict = defaultdict(lambda: defaultdict(float))
    counts: Counter = Counter()
    for line in lines:
        key = (line["kind"], line.get("arm") or "", phase)
        counts[key] += 1
        bucket = groups[key]
        for span in line.get("spans", ()):
            bucket[span["name"]] += span["dur_s"]
    return {"/".join(key): {"count": counts[key],
                            **{name: round(total / counts[key] * 1e3, 4)
                               for name, total in sorted(spans.items())}}
            for key, spans in sorted(groups.items())}


def settle() -> None:
    """Collect and freeze the heap built so far (inputs, expectations),
    so the cyclic collector does not rescan it inside timed phases."""
    gc.collect()
    gc.freeze()


def log(msg: str) -> None:
    """Progress and reports go to stderr; stdout ends with the result."""
    print(msg, file=sys.stderr, flush=True)
