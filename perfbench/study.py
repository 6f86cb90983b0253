"""The study-cold workload (orchestrating side): cold Table-I studies in
fresh interpreters, repeated until the run's time is used, medians
reported.  ``latency_ms`` is the median study wall time; ``setup_s`` is
the median over set-up-only interpreters, :data:`PROBES_PER_STUDY` before
each study.

Each repetition is one ``study_child.py`` process with an empty compile
cache and an empty ``ArtifactStore``; its peak RSS (the study process or
its largest pool worker) is read from ``wait4`` when it is reaped.
"""

from __future__ import annotations

import shutil
import statistics
import time
from typing import Dict, List

import tracing
from common import (
    BENCH_DIR, WORK, BenchError, end_to_end, program_env, read_json, reap, spawn,
)

MIN_REPS = 3
MAX_REPS = 8
#: Set-up-only interpreters (import, devices, exit) before each study of a
#: timed run: a study gives one set-up sample per ~10 s, too few for a
#: steady median, and spreading the probes over the run samples the host
#: across all of it.
PROBES_PER_STUDY = 2
CHILD_TIMEOUT = 170.0


def one_setup(index: int) -> float:
    """Seconds from spawning a fresh interpreter to its devices being built."""
    out = WORK / "study" / f"setup-{index}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    spawned = time.monotonic()
    proc = spawn([str(BENCH_DIR / "study_child.py"), "--setup-only", str(out)])
    code, _ = reap(proc, CHILD_TIMEOUT)
    if code != 0 or not out.exists():
        raise BenchError(f"set-up probe {index} exited {code}")
    return read_json(out)["t_devices"] - spawned


def one_study(index: int, check_seed: int, trace_dir=None) -> Dict:
    base = WORK / "study" / f"rep-{index}"
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    out = base / "result.json"
    env = program_env(**({tracing.TRACE_DIR_ENV: str(trace_dir)} if trace_dir else {}))
    spawned = time.monotonic()
    proc = spawn(
        [str(BENCH_DIR / "study_child.py"), str(out), str(base / "store"),
         str(check_seed)],
        env=env,
    )
    code, peak_rss = reap(proc, CHILD_TIMEOUT)
    if code != 0 or not out.exists():
        raise BenchError(f"study repetition {index} exited {code}")
    result = read_json(out)
    result["setup_s"] = result["t_devices"] - spawned
    result["peak_rss_mb"] = peak_rss
    shutil.rmtree(base / "store", ignore_errors=True)
    return result


def run(seed: int, seconds: float, trace: bool) -> Dict:
    reps: List[Dict] = []
    setups: List[float] = []
    trace_dir = WORK / "trace" / "study-cold"
    if trace:
        # One untraced and one traced study: the difference in study_s is
        # the tracing overhead.
        shutil.rmtree(trace_dir, ignore_errors=True)
        reps.append(one_study(0, seed * 100))
        reps.append(one_study(1, seed * 100 + 1, trace_dir))
    else:
        started = time.monotonic()
        while len(reps) < MAX_REPS and (
            len(reps) < MIN_REPS or time.monotonic() - started < seconds
        ):
            setups += [one_setup(len(setups)) for _ in range(PROBES_PER_STUDY)]
            reps.append(one_study(len(reps), seed * 100 + len(reps)))

    failures = [failure for rep in reps for failure in rep["failures"]]
    for failure in failures:
        print(f"check failed: {failure}")
    tables = {str(rep["table"]) for rep in reps}
    result = {
        "attempted": len(reps),
        "failed": 0,
        "correct": not failures and len(tables) == 1,
        "reps": [
            {key: rep[key] for key in ("setup_s", "study_s", "peak_rss_mb",
                                      "circuits_checked")}
            for rep in reps
        ],
        "setup_probes_s": setups,
        "table1_proposed_r": reps[0]["proposed_r"],
        "metrics": end_to_end(
            setup_s=statistics.median(setups or [r["setup_s"] for r in reps]),
            latency_ms=1000.0 * statistics.median(r["study_s"] for r in reps),
            peak_rss_mb=statistics.median(r["peak_rss_mb"] for r in reps),
        ),
    }
    if trace:
        result["trace"] = {
            "dumps": tracing.load_dumps(trace_dir),
            "untraced_study_s": reps[0]["study_s"],
            "traced_study_s": reps[1]["study_s"],
        }
    return result
