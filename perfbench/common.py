"""Metric names, statistics, host-speed scaling, child processes and provenance.

Host speed.  The machines this benchmark runs on share their cores with
other tenants' work: identical operations run up to 40% slower for seconds
to tens of seconds at a time, so two runs of the same code can differ by
20%.  Every timed unit of work (a set-up, a sweep pass, a supermarket point
or cycle, a chunk of the serve closed loop, a recovery) is therefore
followed by a fixed probe — numpy hashing and broadcasting, JSON decoding
and a dict loop, none of it the program's code — and the unit's time is
multiplied by ``PROBE_REFERENCE_S`` over the mean of the probes on either
side of it.  Reported times and rates are those of the
reference host speed: a slowdown of the program moves them in full, a
slowdown of the whole host moves program and probe alike and cancels.  The
unscaled medians are printed next to them.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import platform
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Median of 200 probes on the 2-core Xeon guest this benchmark was tuned on.
PROBE_REFERENCE_S = 0.095
#: Hard limit for one spawned process, well inside the 180 s a run may take.
PROCESS_TIMEOUT_S = 150.0

#: End-to-end metrics (``--trace 0``); every workload reports every one.
END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "cold_s": "s",
    "peak_rss_mb": "MB",
}

_PHASED = {
    "placement.share": "ratio",
    "placement.calls": "count",
    "topology.share": "ratio",
    "group_index.share": "ratio",
    "group_index.groups": "count",
    "group_index.fallback_rows": "count",
    "group_index.store_get_share": "ratio",
    "group_index.store_put_share": "ratio",
    "group_index.store_hit_ratio": "ratio",
    "sampling.share": "ratio",
    "batch_commit.share": "ratio",
    "queueing.share": "ratio",
    "workload.share": "ratio",
    "session.self_share": "ratio",
}

#: Per-layer metrics (``--trace 1``); every workload reports every one, and a
#: layer the workload never calls reads 0.
PER_LAYER = {
    **{f"{phase}.{name}": unit for phase in ("cold", "warm") for name, unit in _PHASED.items()},
    "batch_commit.rounds": "count",
    "batch_commit.scalar_share": "ratio",
    "session.commit_p99_ms": "ms",
    "journal.append_share": "ratio",
    "journal.checkpoint_share": "ratio",
    "journal.bytes": "bytes",
    "journal.replay_share": "ratio",
    "journal.replay_read_share": "ratio",
    "journal.verify_share": "ratio",
    "journal.checkpoints_verified": "count",
    "service.flushes": "count",
    "service.batch_size_mean": "count",
    "service.dispatch_p99_ms": "ms",
    "service.self_share": "ratio",
    "client.latency_p50_ms": "ms",
    "client.latency_p99_ms": "ms",
    "client.late_p99_ms": "ms",
    "client.samples": "count",
    "trace.overhead_share": "ratio",
    "trace.spans": "count",
}


def require_source() -> None:
    """Put the checkout's ``src/`` first on ``sys.path``; exit 2 without it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program source under {SRC}\n")
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (numpy's default rule)."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def segment_rates(start: float, stamps, size: int) -> list[float]:
    """Events per second over consecutive segments of ``size`` events.

    ``stamps`` are the completion times of equal-sized events that began at
    ``start``; a trailing partial segment is dropped.  Reporting the median
    of these rates, rather than total / elapsed, keeps one slow stretch of
    the host from moving the result.
    """
    edges = [start, *sorted(stamps)]
    return [size / (edges[i + size] - edges[i]) for i in range(0, len(edges) - size, size)]


class HostSpeed:
    """Rescales unit-of-work timings to the reference host speed (module docs)."""

    def __init__(self) -> None:
        import json

        import numpy as np

        rng = np.random.default_rng(0)
        self._keys = rng.integers(0, 1 << 20, size=100_000)
        self._rows = rng.integers(0, 45, size=(2000, 1))
        self._cols = rng.integers(0, 45, size=(1, 200))
        self._document = json.dumps([{"seq": i, "origins": list(range(i % 64))} for i in range(400)])
        self.probe()
        self._last = self.probe()

    def probe(self) -> float:
        """Seconds for a fixed mix of numpy hashing and broadcasting, JSON
        decoding and a dict loop — the kinds of work the workloads do."""
        import json

        import numpy as np

        begin = perf_counter()
        np.unique(self._keys)
        for _ in range(8):
            diff = np.abs(self._rows - self._cols)
            np.minimum(diff, 45 - diff).sum(axis=1)
        for _ in range(20):
            json.loads(self._document)
        table: dict[int, int] = {}
        for i in range(100_000):
            table[i & 1023] = table.get(i & 1023, 0) + i
        return perf_counter() - begin

    def factor(self) -> float:
        """Probe now; the reference-speed factor of the unit that just ended."""
        after = self.probe()
        factor = PROBE_REFERENCE_S / ((self._last + after) / 2.0)
        self._last = after
        return factor


def peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def _git_sha() -> str:
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (ROOT / ".git" / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown"


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed: int) -> dict:
    """Host, code version, seed and engine resolution of this run."""
    import numpy

    from repro.backends.registry import resolve_engine_name

    return {
        "host": {
            "nproc": os.cpu_count(),
            "cpu": _cpu_model(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
        "git_sha": _git_sha(),
        "src_digest": _src_digest(),
        "seed": seed,
        "auto_engine": {
            family: resolve_engine_name("auto", family) for family in ("assignment", "queueing")
        },
        "numba": importlib.util.find_spec("numba") is not None,
    }


class Spawned:
    """A child process whose stdout is read line by line, killed at a deadline."""

    def __init__(self, cmd, **popen) -> None:
        self.started = perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, **popen)
        self._timer = threading.Timer(PROCESS_TIMEOUT_S, self.proc.kill)
        self._timer.daemon = True
        self._timer.start()

    def wait_line(self, predicate) -> str:
        """Read stdout until a line satisfies ``predicate``; raise at EOF."""
        for line in self.proc.stdout:
            if predicate(line):
                return line
        raise RuntimeError(f"{self.proc.args[1]} exited with code {self.proc.wait()} before its marker line")

    def finish(self) -> tuple[int, list[str]]:
        """Rest of stdout and the exit code (blocks until the process ends)."""
        rest = self.proc.stdout.read().splitlines()
        code = self.proc.wait()
        self._timer.cancel()
        return code, rest

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._timer.cancel()
        self.proc.stdout.close()
