"""Per-layer metrics and the ledger of a traced run.

Each per-layer metric names the end-to-end metric it should move (see
README.md).  Every traced run prints all of them; a layer a workload
does not enter reads 0, which is itself the prediction for that
workload (compile passes on warm serve-repeat, training on serving).
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Tuple

import tracing
from common import nearest_rank

PASSES = (
    "SabreRouting", "OptimizationLoop", "NativeSynthesis", "Decompose",
    "GreedySubgraphLayout", "LineLayout", "TrivialLayout",
)
LAYERS = (
    "compiler", "ml", "simulation", "fom", "serving", "circuits",
    "predictor", "evaluation",
)

#: Cold level-3 compile profile quoted in ROADMAP.md (2-12 qubits, Q20-A).
ROADMAP_PASS_SHARES = {"routing": 0.35, "optimization_loop": 0.28, "synthesis": 0.12}


def catalogue() -> List[Tuple[str, str]]:
    """(name, unit) of every per-layer metric, in BENCHMARK.json order."""
    metrics: List[Tuple[str, str]] = []
    for name in PASSES:
        metrics += [(f"compiler.pass.{name}_s", "s"),
                    (f"compiler.pass.{name}.calls", "count")]
    metrics += [
        ("compiler.cache_hits", "count"),
        ("compiler.cache_misses", "count"),
        ("compiler.cache_entries", "count"),
        ("circuits.qasm.from_qasm_ms", "ms"),
        ("serving.parse_predict_payload_ms", "ms"),
        ("fom.features_ms", "ms"),
        ("fom.metrics_s", "s"),
        ("ml.train_s", "s"),
        ("ml.forest_fits", "count"),
        ("ml.forest.predict_ms", "ms"),
        ("simulation.ideal_s", "s"),
        ("simulation.execute_s", "s"),
        ("parallel.pools", "count"),
        ("evaluation.artifacts.put_s", "s"),
        ("evaluation.artifacts.get_s", "s"),
        ("evaluation.artifacts.bytes_written", "bytes"),
        ("serving.batcher.queue_wait_ms", "ms"),
        ("serving.batcher.circuits_per_batch", "count"),
        ("serving.batcher.batches", "count"),
        ("predictor.compile_ms", "ms"),
        ("predictor.featurize_ms", "ms"),
        ("predictor.predict_ms", "ms"),
        ("serving.transport_ms", "ms"),
        ("serving.cpu_ms_per_request", "ms"),
        ("loadgen.late_ms", "ms"),
        ("client.p50_ms.hi", "ms"),
        ("client.p90_ms.lo", "ms"),
        ("client.p90_ms.hi", "ms"),
        ("client.goodput_rps", "1/s"),
    ]
    metrics += [(f"layer.{name}.share", "ratio") for name in LAYERS]
    metrics.append(("trace.overhead_pct", "%"))
    return metrics


def _per(total: float, count: float, scale: float = 1000.0) -> float:
    return scale * total / count if count else 0.0


def pass_shares(names: Dict[str, Dict]) -> Dict[str, float]:
    """Routing / optimization-loop / synthesis shares of all pass time.

    Only outermost pass calls count, inclusive of the passes they call:
    ``OptimizationLoop.run`` calls other passes, which ROADMAP's profile
    counts as loop time.  Counting them again on their own would let the
    shares sum to more than 1.
    """
    passes = {n: e for n, e in names.items() if n.startswith("compiler.pass.")}
    total = sum(entry["outer_s"] for entry in passes.values()) or 1.0

    def share(*classes):
        return sum(passes.get(f"compiler.pass.{c}", {}).get("outer_s", 0.0)
                   for c in classes) / total
    return {
        "routing": share("SabreRouting"),
        "optimization_loop": share("OptimizationLoop"),
        "synthesis": share("NativeSynthesis", "VirtualRZ"),
    }


def derive(result: Dict) -> Tuple[Dict[str, Tuple[float, str]], Dict]:
    """Per-layer metric values and the ledger document of a traced run."""
    trace = result["trace"]
    dumps = trace["dumps"]
    steps = result.get("steps")
    windows: Optional[List[Tuple[float, float]]] = None
    if steps:
        # After warm-up: every rate step's segments.
        windows = [tuple(w) for step in steps for w in step["windows"]]
    whole = tracing.ledger(dumps, windows)
    names, events = whole["names"], Counter(whole["events"])

    def total(name):
        return names.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return names.get(name, {}).get("calls", 0)

    circuits = (calls("circuits.qasm.from_qasm") if steps
                else calls("fom.features"))
    values: Dict[str, float] = {}
    for name in PASSES:
        values[f"compiler.pass.{name}_s"] = total(f"compiler.pass.{name}")
        values[f"compiler.pass.{name}.calls"] = calls(f"compiler.pass.{name}")
    values.update({
        "compiler.cache_hits": events["compiler.cache_hit"],
        "compiler.cache_misses": events["compiler.cache_miss"],
        "compiler.cache_entries": sum(d["compile_cache"]["size"] for d in dumps),
        "circuits.qasm.from_qasm_ms": _per(total("circuits.qasm.from_qasm"), circuits),
        "serving.parse_predict_payload_ms": _per(
            total("serving.parse_predict_payload"), circuits),
        "fom.features_ms": _per(total("fom.features"), circuits),
        "fom.metrics_s": total("fom.metrics"),
        "ml.train_s": total("ml.train"),
        "ml.forest_fits": calls("ml.forest.fit"),
        "ml.forest.predict_ms": _per(total("ml.forest.predict"),
                                     calls("ml.forest.predict")),
        "simulation.ideal_s": total("simulation.ideal"),
        "simulation.execute_s": total("simulation.execute"),
        "parallel.pools": events["parallel.pool"],
        "evaluation.artifacts.put_s": total("evaluation.artifacts.put"),
        "evaluation.artifacts.get_s": total("evaluation.artifacts.get"),
        "evaluation.artifacts.bytes_written": sum(
            d["counters"].get("evaluation.artifacts.bytes_written", 0) for d in dumps),
    })
    for name in LAYERS:
        values[f"layer.{name}.share"] = whole["layers"].get(name, {}).get("share", 0.0)

    document: Dict = {"ledger": whole}
    if steps:
        lo, hi = steps[0], steps[1]
        values.update({
            "serving.batcher.queue_wait_ms": hi["queue_wait_ms"],
            "serving.batcher.circuits_per_batch": hi["circuits_per_batch"],
            "serving.batcher.batches": sum(step["batches"] for step in steps),
            "predictor.compile_ms": lo["compile_ms"],
            "predictor.featurize_ms": lo["featurize_ms"],
            "predictor.predict_ms": lo["predict_ms"],
            "serving.transport_ms": lo.get("transport_ms", 0.0),
            "serving.cpu_ms_per_request": hi["cpu_ms_per_request"],
            "client.p50_ms.hi": hi["best_segment_p50_ms"],
            "client.p90_ms.lo": lo["p90_ms"],
            "client.p90_ms.hi": hi["p90_ms"],
            "client.goodput_rps": result["goodput_rps"],
        })
        late_ms = [1000.0 * late for late in trace["late_s"]]
        try:
            values["loadgen.late_ms"] = nearest_rank(late_ms, 0.90)
        except ValueError:
            values["loadgen.late_ms"] = max(late_ms)
        untraced = trace["untraced_lo"]["best_segment_p50_ms"]
        traced = lo["best_segment_p50_ms"]
        values["trace.overhead_pct"] = 100.0 * (traced - untraced) / untraced
        document["overhead"] = {"metric": "latency_ms", "untraced": untraced,
                                "traced": traced}
        document["steps"] = []
        for step in steps:
            step_ledger = tracing.ledger(dumps, [tuple(w) for w in step["windows"]])
            document["steps"].append({**step, "ledger": step_ledger})
        document["expectations"] = {
            "no compile pass runs after warm-up":
                all(_pass_calls(step) == 0 for step in document["steps"]),
        }
    else:
        untraced, traced = trace["untraced_study_s"], trace["traced_study_s"]
        values["trace.overhead_pct"] = 100.0 * (traced - untraced) / untraced
        document["overhead"] = {"metric": "latency_ms", "untraced": untraced,
                                "traced": traced}
        shares = pass_shares(names)
        document["pass_shares"] = {
            "measured": shares, "roadmap_profile": ROADMAP_PASS_SHARES,
        }
        layers = whole["layers"]
        largest = max(layers, key=lambda name: layers[name]["self_s"])
        document["expectations"] = {
            "compiler has the largest self-time share": largest == "compiler",
        }
        document["pool_workers"] = (
            "traced: spawned workers re-import study_child.py, install the "
            "same wrappers and write their spans at exit; their top-level "
            "spans are adopted by the main-process call that waited on them"
        )
    for name, _unit in catalogue():
        values.setdefault(name, 0.0)
    units = dict(catalogue())
    return {name: (float(values[name]), units[name]) for name in units}, document


def _pass_calls(step: Dict) -> int:
    return sum(entry["calls"] for name, entry in step["ledger"]["names"].items()
               if name.startswith("compiler.pass."))
