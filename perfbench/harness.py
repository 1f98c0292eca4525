"""Shared pieces of the benchmark: statistics, spans, host record, leaks.

Times are taken with ``time.monotonic()``, which on Linux reads the
system-wide ``CLOCK_MONOTONIC``; spans a child interpreter records can
therefore be placed on the parent's timeline without conversion.
"""

from __future__ import annotations

import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

#: a span tree's self times must add up to its root's duration within
#: this many seconds plus ``SUM_TOLERANCE_REL`` of the duration.
SUM_TOLERANCE_ABS = 0.002
SUM_TOLERANCE_REL = 0.001

#: a tail percentile needs this many samples beyond it.
TAIL_BEYOND = 10


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile ``p`` in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = (len(ordered) - 1) * p / 100.0
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def tail(values: Sequence[float]) -> Optional[Tuple[int, float]]:
    """``(percentile, value)``: the highest whole percentile with at least
    ``TAIL_BEYOND`` samples beyond it, or None when even the median has
    fewer (under ``2 * TAIL_BEYOND`` samples)."""
    n = len(values)
    p = math.floor(100 * (1 - TAIL_BEYOND / n)) if n else 0
    if p < 50:
        return None
    return p, percentile(values, p)


def geomean(values: Iterable[float]) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def summary(values: Sequence[float]) -> Dict[str, Any]:
    """Median, tail and sample count of one latency series."""
    out: Dict[str, Any] = {"n": len(values), "p50": median(values)}
    found = tail(values)
    out["tail_pct"], out["tail"] = found if found else (None, None)
    return out


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class Tracer:
    """In-memory span store; spans of one operation share ``op``."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []

    def add(self, op: str, name: str, start: float, end: float,
            parent: Optional[str] = None) -> Dict[str, Any]:
        span = {"op": op, "name": name, "start": start, "end": end,
                "parent": parent, "id": f"{op}/{len(self.spans)}"}
        self.spans.append(span)
        return span

    def by_op(self) -> Dict[str, List[Dict[str, Any]]]:
        grouped: Dict[str, List[Dict[str, Any]]] = {}
        for span in self.spans:
            grouped.setdefault(span["op"], []).append(span)
        return grouped


def _covered(interval: Tuple[float, float],
             children: List[Tuple[float, float]]) -> float:
    """Length of ``interval`` covered by the union of ``children``."""
    lo, hi = interval
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in children
                     if b > lo and a < hi)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: List[Dict[str, Any]]) -> Dict[str, float]:
    """Span id -> duration minus the time its child spans cover."""
    children: Dict[str, List[Tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"]))
    return {
        span["id"]: (span["end"] - span["start"])
        - _covered((span["start"], span["end"]), children.get(span["id"], []))
        for span in spans
    }


def sum_error(spans: List[Dict[str, Any]], root_id: str) -> float:
    """|sum of self times in the tree under ``root_id`` - root duration|.

    Zero when child spans nest inside their parents without overlapping
    each other; a child that leaks outside its parent or two siblings
    that overlap show up as error.
    """
    by_id = {span["id"]: span for span in spans}
    in_tree = set()
    for span in spans:
        node = span
        while node is not None:
            if node["id"] == root_id:
                in_tree.add(span["id"])
                break
            node = by_id.get(node["parent"]) if node["parent"] else None
    selfs = self_times(spans)
    root = by_id[root_id]
    return abs(sum(selfs[i] for i in in_tree) - (root["end"] - root["start"]))


def sum_tolerance(duration: float) -> float:
    return SUM_TOLERANCE_ABS + SUM_TOLERANCE_REL * duration


# ----------------------------------------------------------------------
# Processes
# ----------------------------------------------------------------------
def child_env(root: str, tmpdir: str) -> Dict[str, str]:
    """Environment for program processes: the checkout's sources, and a
    temp root inside the run directory so leftovers are visible."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["TMPDIR"] = tmpdir
    env.pop("PYTHONSTARTUP", None)
    return env


def run_process(argv: List[str], env: Dict[str, str], cwd: str,
                timeout: float, sessions: set
                ) -> Tuple[float, float, int, str, str, float]:
    """Spawn, wait, and return
    ``(start, end, returncode, stdout, stderr, peak_rss_mb)``.

    ``start``/``end`` bracket spawn to exit on the monotonic clock.  The
    child gets its own session, recorded in ``sessions``, so a timeout
    can kill everything it forked and the leak guard can find it.
    Output goes through unlinked files in ``cwd``, so the wait can be a
    plain ``wait4`` that also returns the child's peak resident size.
    """
    with tempfile.TemporaryFile(dir=cwd) as out, \
            tempfile.TemporaryFile(dir=cwd) as err:
        start = time.monotonic()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=out,
                                stderr=err, start_new_session=True)
        sessions.add(proc.pid)
        code, rss_mb = reap(proc, timeout)
        end = time.monotonic()
        out.seek(0)
        err.seek(0)
        stdout = out.read().decode(errors="replace")
        stderr = err.read().decode(errors="replace")
    if code == -signal.SIGKILL:
        stderr += "\n[killed by SIGKILL: timeout or out of memory]"
    return start, end, code, stdout, stderr, rss_mb


def reap(proc: subprocess.Popen, timeout: float) -> Tuple[int, float]:
    """Wait for ``proc``, killing its process group after ``timeout``.

    Returns ``(returncode, peak_rss_mb)``; the peak covers the process
    and every descendant it waited for.
    """
    timer = threading.Timer(timeout, kill_group, (proc.pid,))
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except OSError:
        pass


# ----------------------------------------------------------------------
# Host record and leak guard
# ----------------------------------------------------------------------
def host_record(root: str) -> Dict[str, Any]:
    import numpy

    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "n_cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "load_before": round(os.getloadavg()[0], 2),
        "cpu_times": cpu_times(),
    }


def cpu_times() -> Tuple[int, int]:
    """``(steal, total)`` jiffies of all CPUs, from /proc/stat."""
    try:
        with open("/proc/stat") as handle:
            fields = [int(v) for v in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def steal_share(before: Tuple[int, int]) -> float:
    """Share of CPU time the hypervisor took from this host since
    ``before``."""
    steal, total = cpu_times()
    elapsed = total - before[1]
    return (steal - before[0]) / elapsed if elapsed > 0 else 0.0


def _proc_table() -> List[Tuple[int, str, int]]:
    """``(pid, comm, session id)`` of every visible process."""
    table = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        comm = stat[stat.index("(") + 1:stat.rindex(")")]
        fields = stat[stat.rindex(")") + 2:].split()
        table.append((int(entry), comm, int(fields[3])))
    return table


def _shm_segments() -> set:
    try:
        return {name for name in os.listdir("/dev/shm")
                if name.startswith("repro-shm-")}
    except OSError:
        return set()


class LeakGuard:
    """Finds program processes (``repro-pool-wkr`` workers, servers,
    supervised children), temp files and shared-memory segments a run
    left behind.  ``sessions`` collects the session id of every program
    process the run started; their descendants inherit it."""

    def __init__(self, tmpdir: str) -> None:
        self.tmpdir = tmpdir
        self.sessions: set = set()
        self.shm_before = _shm_segments()
        self.own_pid = os.getpid()

    def check(self) -> List[str]:
        leaks = []
        for pid, comm, sid in _proc_table():
            if pid == self.own_pid:
                continue
            if sid in self.sessions:
                leaks.append(f"process pid={pid} comm={comm}")
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
        if os.path.isdir(self.tmpdir):
            leaks.extend(f"temp {name}" for name in os.listdir(self.tmpdir))
        leaks.extend(f"shm {name}"
                     for name in sorted(_shm_segments() - self.shm_before))
        return leaks


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)
