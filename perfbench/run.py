"""The repository's benchmark: one command, every workload, checked outputs.

Timed run (end-to-end metrics, tracing off):

    python3 perfbench/run.py --workload study-cold --seed 1 --seconds 30 --trace 0

Traced run (per-layer metrics; writes .perfbench/ledger/<workload>-<seed>.json):

    python3 perfbench/run.py --workload serve-repeat --seed 1 --seconds 30 --trace 1

Steadiness report (each workload N times, median / quartiles / relative
IQR per metric next to its bound from BENCHMARK.json):

    python3 perfbench/run.py --report 5 [--workload serve-repeat ...]

The last line of a run's standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A failed output
check exits 1 after printing it; a run that cannot complete exits 2
without printing one.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
import time
from pathlib import Path

import layers
import serve
import study
from common import (
    METRIC_NAME, ROOT, WORK, BenchError, check_checkout, host_sample,
    machine_record, quartiles, relative_iqr, write_json,
)

WORKLOADS = ("study-cold", "serve-repeat")
SPEC = ROOT / "BENCHMARK.json"


def load_spec() -> dict:
    return json.loads(SPEC.read_text())


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if workload == "study-cold":
        return study.run(seed, seconds, trace)
    return serve.run(seed, seconds, trace)


def emit(args) -> int:
    spec = load_spec()
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}
    before = host_sample()
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    after = host_sample()
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_record(),
        "host_before": before, "host_after": after,
    }
    print("machine: " + json.dumps(record))
    if args.trace:
        metrics, document = layers.derive(result)
        ledger_path = WORK / "ledger" / f"{args.workload}-{args.seed}.json"
        write_json(ledger_path, {**record, **document, "per_layer": metrics})
        print(f"ledger: {ledger_path}")
        for expectation, held in document["expectations"].items():
            print(f"expectation {'held' if held else 'NOT held'}: {expectation}")
    else:
        metrics = result["metrics"]
    # The result line must carry exactly the declared metrics of its mode.
    reported = {name: unit for name, (_, unit) in metrics.items()}
    if reported != declared:
        raise BenchError(
            f"metrics {sorted(reported.items())} do not match the "
            f"{'per_layer' if args.trace else 'end_to_end'} list of {SPEC.name}"
        )
    for name, (value, unit) in metrics.items():
        if not METRIC_NAME.match(name):
            raise BenchError(f"metric name {name!r} is malformed")
        if value is None or not math.isfinite(value):
            raise BenchError(f"metric {name} has no value")
        if not args.trace and value <= 0:
            raise BenchError(f"end-to-end metric {name} is {value}, not positive")
    details = {key: value for key, value in result.items() if key != "trace"}
    write_json(
        WORK / "results" / f"{args.workload}-{args.seed}-trace{args.trace}.json",
        {**record, **details},
    )
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if result["correct"] else 1


def report(args) -> int:
    """Run each workload N times on seeds first_seed.. and summarize spread."""
    spec = load_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workload_list or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    values: dict = {}
    runs = []
    for workload in workloads:
        for index in range(args.report):
            seed = args.first_seed + index
            started = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(Path(__file__)), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=900,
            )
            wall = time.monotonic() - started
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                return 1
            out = json.loads(lines[-1])
            runs.append({"workload": workload, "seed": seed, "wall_s": wall, **out})
            print(f"{workload} seed {seed}: {wall:.1f}s "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in out["metrics"].items()),
                  flush=True)
            for name, metric in out["metrics"].items():
                values.setdefault((workload, name), []).append(metric["value"])
    print(f"\n{'workload':<14} {'metric':<18} {'median':>10} {'q1':>10} "
          f"{'q3':>10} {'rel.IQR':>8} {'bound':>6}  flag")
    flagged = 0
    summary = []
    for (workload, name), series in values.items():
        q1, median, q3 = quartiles(series)
        spread = relative_iqr(series)
        bound = bounds[name]
        flag = "OVER" if spread > bound else ("ok" if spread <= bound / 3 else "warn")
        flagged += flag == "OVER"
        summary.append({"workload": workload, "metric": name, "n": len(series),
                        "median": median, "q1": q1, "q3": q3,
                        "relative_iqr": spread, "bound": bound, "flag": flag})
        print(f"{workload:<14} {name:<18} {median:>10.4g} {q1:>10.4g} {q3:>10.4g} "
              f"{spread:>8.3f} {bound:>6.2f}  {flag}")
    path = WORK / "reports" / f"report-{int(time.time())}.json"
    write_json(path, {"machine": machine_record(), "runs": runs, "summary": summary})
    print(f"\nreport: {path}  ({flagged} metric(s) over their bound)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, action="append",
                        dest="workload_list")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", type=int, default=0, metavar="N",
                        help="steadiness report: run each workload N times")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    try:
        check_checkout()
        if args.report:
            return report(args)
        if not args.workload_list or len(args.workload_list) != 1:
            parser.error("a run takes exactly one --workload")
        args.workload = args.workload_list[0]
        if args.seconds is None:
            args.seconds = load_spec()["run_seconds"]
        return emit(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
