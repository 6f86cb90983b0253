"""Shared helpers: checkout paths, statistics, the machine record, children.

Nothing here imports ``repro``: the benchmark's own process stays a
thin orchestrator (load generator, clocks, child processes), so the program
under test never shares an interpreter with the code timing it.
"""

from __future__ import annotations

import json
import math
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout (git-ignored): fixtures, stores, ledgers.
WORK = ROOT / ".perfbench"

METRIC_NAME = re.compile(r"^[A-Za-z0-9_.-]+$")

#: A percentile is reported only when at least this many samples lie
#: beyond it (so p90 needs >= 100 samples, p50 needs >= 20).
MIN_BEYOND = 10


#: (name, unit) of the end-to-end metrics, in BENCHMARK.json order.  Every
#: workload reports all of them, each measured on its own unit of work.
END_TO_END = (("setup_s", "s"), ("latency_ms", "ms"), ("peak_rss_mb", "MB"))


class BenchError(RuntimeError):
    """A workload could not run to completion (the run exits non-zero)."""


def end_to_end(setup_s: float, latency_ms: float, peak_rss_mb: float) -> Dict:
    """The end-to-end metrics of a timed run, as ``{name: (value, unit)}``."""
    values = (setup_s, latency_ms, peak_rss_mb)
    return {name: (value, unit) for (name, unit), value in zip(END_TO_END, values)}


def check_checkout() -> None:
    """Fail fast unless the program's sources sit beside the benchmark."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(
            f"no program sources at {SRC / 'repro'}; run from a full checkout"
        )


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


def nearest_rank(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile, refused when fewer than 10 samples lie beyond.

    The rank is ``ceil(fraction * n)`` (1-based); the samples beyond it
    number ``n - rank``.  Below :data:`MIN_BEYOND` the tail is too thin to
    read a percentile from, so this raises instead of guessing.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must be in (0, 1)")
    ordered = sorted(samples)
    rank = max(1, math.ceil(fraction * len(ordered)))
    if len(ordered) - rank < MIN_BEYOND:
        raise ValueError(
            f"p{fraction * 100:g} needs {MIN_BEYOND} samples beyond it; "
            f"have {len(ordered)} samples"
        )
    return ordered[rank - 1]


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as :func:`statistics.quantiles` (n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_iqr(values: Sequence[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else math.inf


# ----------------------------------------------------------------------
# Machine record
# ----------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _numpy_version() -> Optional[str]:
    try:
        import numpy
    except ImportError:
        return None
    return numpy.__version__


def host_sample() -> Dict[str, object]:
    """Load average and cumulative steal ticks, taken around each run."""
    sample: Dict[str, object] = {"time": time.time()}
    try:
        sample["loadavg"] = [float(x) for x in os.getloadavg()]
    except OSError:
        sample["loadavg"] = None
    try:
        fields = Path("/proc/stat").read_text().splitlines()[0].split()
        # cpu user nice system idle iowait irq softirq steal ...
        sample["steal_ticks"] = int(fields[8]) if len(fields) > 8 else None
    except (OSError, ValueError, IndexError):
        sample["steal_ticks"] = None
    return sample


def machine_record() -> Dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": _numpy_version(),
        "git_sha": _git_sha(),
        "platform": platform.platform(),
    }


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------


def program_env(**extra: str) -> Dict[str, str]:
    """Environment for a child that imports the program from ``src/``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env.setdefault("PYTHONHASHSEED", "0")
    env.update(extra)
    return env


def spawn(argv: Sequence[str], **kwargs) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, *argv], cwd=ROOT, env=kwargs.pop("env", program_env()),
        **kwargs,
    )


def reap(proc: subprocess.Popen, timeout: float) -> Tuple[int, float]:
    """Wait for ``proc``; returns (exit code, peak RSS in MB).

    The peak comes from ``wait4``'s rusage: the largest resident set of
    the child or of any descendant it reaped (pool workers included),
    read from outside the program.
    """
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            raise BenchError(f"child {proc.args} did not exit within {timeout}s")
        time.sleep(0.01)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def terminate(proc: subprocess.Popen, timeout: float = 30.0) -> Tuple[int, float]:
    """SIGTERM (graceful drain), then reap; kills on timeout."""
    if proc.returncode is None:
        try:
            proc.send_signal(signal.SIGTERM)
        except ProcessLookupError:
            pass
    return reap(proc, timeout)


def peak_rss_mb(pid: int) -> float:
    """High-water resident set of a live process (``VmHWM``), from ``/proc``."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of a live process, from ``/proc``."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    ticks = int(fields[11]) + int(fields[12])   # utime, stime
    return ticks / os.sysconf("SC_CLK_TCK")


def read_json(path: Path):
    return json.loads(Path(path).read_text())


def write_json(path: Path, payload) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True))
