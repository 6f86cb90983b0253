"""Command-line interface: ``python -m repro <command>``.

Subcommands:

* ``compile``  — compile a QASM file for a device, print stats + QASM.
* ``compile-search`` — predictor-guided beam-search compilation
  (:mod:`repro.compiler.search`), leaderboard-warmed.
* ``execute``  — compile + run on the noisy emulator, print counts.
* ``features`` — print the 30-dim feature vector of a compiled circuit.
* ``predict``  — batch-score QASM files with a trained estimator
  (the :class:`~repro.predictor.service.FomService` frontend).
* ``serve``    — run the long-lived serving daemon (dynamic request
  batching over a model registry; see :mod:`repro.serving`).
* ``client``   — talk to a running daemon
  (healthz/stats/reload/predict/foms).
* ``study``    — run the correlation study and print Table I / Fig. 3.
* ``drift-study`` — walk a device's true calibration away from its
  report and measure estimator staleness + refresh strategies
  (:mod:`repro.evaluation.drift`).
* ``devices``  — list the built-in devices and their calibration summary.
* ``zoo``      — list or inspect the parameterized device-zoo families.
* ``docs-cli`` — emit the generated CLI reference page (docs/cli.md).

Every ``--device`` option accepts the built-in names (``q20a``, ``q20b``)
or a zoo spec like ``zoo:heavy_hex:16:noisy:1`` (see ``zoo --list``).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from .circuits.qasm import from_qasm, to_qasm
from .compiler import compile_circuit
from .evaluation import StudyConfig, format_fig3, format_table_i, run_study
from .fom import FEATURE_NAMES, esp, expected_fidelity, feature_dict
from .hardware import (
    BUILTIN_DEVICES,
    ZOO_SPEC_GRAMMAR,
    ZOO_SPEC_HELP,
    Device,
    resolve_device,
    zoo_summary,
)
from .simulation import execute_and_label


def _load_device(name: str) -> Device:
    try:
        return resolve_device(name)
    except ValueError as exc:
        raise SystemExit(str(exc))


def _load_circuit(path: str):
    with open(path) as handle:
        return from_qasm(handle.read())


def _collect_qasm_paths(sources: Sequence[str]) -> List[Path]:
    """QASM files from a mix of file and directory arguments.

    Directories contribute their ``*.qasm`` entries (sorted); explicit
    files are taken as-is.  Missing paths and empty directories are
    errors — a batch scorer silently scoring nothing helps nobody.
    """
    paths: List[Path] = []
    for source in sources:
        path = Path(source)
        if path.is_dir():
            found = sorted(path.glob("*.qasm"))
            if not found:
                raise SystemExit(f"no .qasm files in directory {path}")
            paths.extend(found)
        elif path.is_file():
            paths.append(path)
        else:
            raise SystemExit(f"no such file or directory: {path}")
    return paths


def _print_foms(title: str, paths: List[Path], panel: dict) -> None:
    """The ``--foms`` panel: one row per circuit, one column per metric."""
    print(title)
    print(f"{'circuit':<24}" + "".join(f"{name:>20}" for name in panel))
    for index, path in enumerate(paths):
        print(f"{path.stem:<24}" + "".join(
            f"{values[index]:>20.4f}" for values in panel.values()
        ))


def _print_predictions(
    title: str, paths: List[Path], chunks, flush: bool = False
) -> None:
    """The predictions table, one row per value as each chunk lands."""
    print(title)
    print(f"{'circuit':<24} {'predicted_hellinger':>20}")
    position = 0
    for chunk in chunks:
        for value in chunk:
            print(f"{paths[position].stem:<24} {value:>20.4f}", flush=flush)
            position += 1


def _cmd_compile(args: argparse.Namespace) -> int:
    device = _load_device(args.device)
    circuit = _load_circuit(args.qasm)
    result = compile_circuit(
        circuit, device, optimization_level=args.level, seed=args.seed
    )
    compiled = result.circuit
    print(f"# device: {device.name}  level: {args.level}", file=sys.stderr)
    print(
        f"# gates: {compiled.size()}  cz: {compiled.num_nonlocal_gates()}  "
        f"depth: {compiled.depth()}  "
        f"swaps: {result.properties.get('routing_swaps', 0)}",
        file=sys.stderr,
    )
    print(
        f"# expected fidelity: {expected_fidelity(compiled, device):.4f}  "
        f"ESP: {esp(compiled, device):.4f}",
        file=sys.stderr,
    )
    print(to_qasm(compiled), end="")
    return 0


def _cmd_compile_search(args: argparse.Namespace) -> int:
    from .compiler import compile_search, reset_search_stats, search_stats
    from .evaluation.persistence import PersistenceError, load_model

    device = _load_device(args.device)
    paths = _collect_qasm_paths(args.qasm)
    try:
        estimator = load_model(args.model)
    except PersistenceError as exc:
        raise SystemExit(str(exc))
    circuits = [_load_circuit(str(path)) for path in paths]
    reset_search_stats()
    kwargs = {}
    if args.beam_width is not None:
        kwargs["beam_width"] = args.beam_width
    if args.generations is not None:
        kwargs["generations"] = args.generations
    results = compile_search(
        circuits, device, estimator,
        seed=args.seed, store=args.store,
        max_workers=args.max_workers, **kwargs,
    )
    print(
        f"# device: {device.name}  model: {args.model}", file=sys.stderr
    )
    print(
        f"{'circuit':<24} {'source':<12} {'gates':>6} {'depth':>6} "
        f"{'predicted':>10} {'fidelity':>10}  config"
    )
    for path, result in zip(paths, results):
        info = result.properties["search"]
        config = info["config"]
        knobs = " ".join(f"{key}={config[key]}" for key in sorted(config))
        print(
            f"{path.stem:<24} {info['source']:<12} "
            f"{result.circuit.size():>6} {result.circuit.depth():>6} "
            f"{info['predicted_distance']:>10.4f} "
            f"{info['expected_fidelity']:>10.4f}  {knobs}"
        )
    stats = search_stats()
    print(
        "# " + "  ".join(f"{key}={stats[key]}" for key in sorted(stats)),
        file=sys.stderr,
    )
    if args.emit_qasm:
        for result in results:
            print(to_qasm(result.circuit), end="")
    return 0


def _cmd_execute(args: argparse.Namespace) -> int:
    device = _load_device(args.device)
    circuit = _load_circuit(args.qasm)
    result = compile_circuit(
        circuit, device, optimization_level=args.level, seed=args.seed
    )
    distance, execution = execute_and_label(
        result.circuit, device, shots=args.shots, seed=args.seed
    )
    print(f"device: {device.name}  shots: {args.shots}")
    print(f"success probability: {execution.success_probability:.4f}")
    print(f"hellinger distance:  {distance:.4f}")
    print("counts:")
    for key, count in sorted(
        execution.counts.items(), key=lambda kv: -kv[1]
    )[: args.top]:
        print(f"  {key}  {count}")
    return 0


def _cmd_features(args: argparse.Namespace) -> int:
    device = _load_device(args.device)
    circuit = _load_circuit(args.qasm)
    result = compile_circuit(
        circuit, device, optimization_level=args.level, seed=args.seed
    )
    values = feature_dict(result.circuit)
    for name in FEATURE_NAMES:
        print(f"{name:<32} {values[name]:.6f}")
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    from .evaluation.persistence import PersistenceError
    from .fom.metrics import FOM_ORDER, PROPOSED_LABEL
    from .predictor.service import FomService

    device = _load_device(args.device)
    paths = _collect_qasm_paths(args.qasm)
    level = "search" if args.search else args.level
    try:
        service = FomService.load(
            args.model, device,
            optimization_level=level, seed=args.seed,
            chunk_size=args.chunk_size,
            search_store=args.search_store,
            beam_width=args.beam_width,
            generations=args.generations,
        )
    except (PersistenceError, ValueError) as exc:
        raise SystemExit(str(exc))
    circuits = (_load_circuit(str(path)) for path in paths)
    title = f"# device: {device.name}  level: {level}  model: {args.model}"
    if args.foms:
        panel = service.score_established_foms(
            circuits, max_workers=args.max_workers
        )
        columns = FOM_ORDER + [PROPOSED_LABEL]
        _print_foms(title, paths, {name: panel[name] for name in columns})
    else:
        # Stream: predictions print as each chunk lands, so a large corpus
        # shows progress (and never lives in memory all at once).
        _print_predictions(title, paths, service.predict_stream(
            circuits, max_workers=args.max_workers
        ))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .evaluation.persistence import PersistenceError
    from .serving import ModelSource, ServerConfig, ServingDaemon

    _load_device(args.device)  # fail fast on a bad device spec
    # Sources rather than a built registry: sharded daemons ship them to
    # each spawn worker, which builds its own registry (shared-nothing);
    # unsharded daemons build it in-process.
    service_kwargs = dict(
        optimization_level=args.level, seed=args.seed,
        num_trials=args.num_trials,
    )
    if args.model is not None:
        source = ModelSource("file", args.model, args.device, service_kwargs)
    else:
        source = ModelSource(
            "store", args.store, args.device, service_kwargs,
            name=args.name, fingerprint=args.fingerprint,
        )
    try:
        config = ServerConfig(
            host=args.host,
            port=args.port,
            max_batch=args.max_batch,
            queue_limit=args.queue_limit,
            request_timeout=args.request_timeout,
            max_workers=args.max_workers,
            reload_interval=args.reload_interval,
            shards=args.shards,
        )
        daemon = ServingDaemon([source], config)
    except (PersistenceError, ValueError) as exc:
        raise SystemExit(str(exc))
    asyncio.run(daemon.serve_forever())
    return 0


def _format_latency(value) -> str:
    """One latency cell of the ``client stats`` table.

    Percentiles are ``null`` until the daemon has served at least one
    request — render those as ``n/a``, never crash on them.
    """
    return "n/a" if value is None else f"{value * 1000.0:.1f}ms"


def _render_stats(stats: dict) -> str:
    """Human-readable ``repro client stats`` rendering (``--json`` skips)."""

    def counters(mapping: dict) -> str:
        items = " ".join(
            f"{key}={value}" for key, value in sorted(mapping.items())
        )
        return items or "none"

    models = stats.get("models", {})
    queue = stats.get("queue", {})
    batches = stats.get("batches", {})
    latency = stats.get("latency", {})
    lines = [
        f"uptime: {stats.get('uptime_s', 0.0):.1f}s"
        + ("  (draining)" if stats.get("draining") else ""),
        "serving: " + (", ".join(models.get("serving", [])) or "none"),
        f"reload: checks={models.get('reload_checks', 0)} "
        f"refreshes={models.get('refreshes', 0)} "
        f"swaps={models.get('swaps', 0)}",
        "requests: " + counters(stats.get("requests", {})),
        "responses: " + counters(stats.get("responses", {})),
        f"queue: depth={queue.get('depth', 0)} "
        f"waiting={queue.get('requests_waiting', 0)} "
        f"in_flight={queue.get('in_flight', 0)} "
        f"limit={queue.get('limit', 0)} "
        f"rejected={queue.get('rejected_total', 0)}",
        f"batches: total={batches.get('total', 0)} "
        f"requests={batches.get('requests_total', 0)} "
        f"warm={batches.get('warm_total', 0)}",
        f"latency: p50={_format_latency(latency.get('request_p50_s'))} "
        f"p99={_format_latency(latency.get('request_p99_s'))} "
        f"max={_format_latency(latency.get('request_max_s'))} "
        f"samples={latency.get('samples', 0)}",
    ]
    return "\n".join(lines)


def _served_title(header: dict) -> str:
    """The title line of a table the daemon answered."""
    return (
        f"# model: {header['model']}@{header['fingerprint']}  "
        f"level: {header['optimization_level']}"
    )


def _cmd_client(args: argparse.Namespace) -> int:
    import json

    from .serving import ServingClient, ServingError, StreamInterrupted

    if getattr(args, "stream", False) and args.action != "predict":
        raise SystemExit("--stream applies to the predict action only")
    client = ServingClient(args.host, args.port, timeout=args.timeout)
    try:
        if args.action == "healthz":
            status, payload = client.healthz()
            print(json.dumps(payload, indent=2))
            return 0 if status == 200 else 1
        if args.action == "stats":
            stats = client.stats()
            if args.json:
                print(json.dumps(stats, indent=2))
            else:
                print(_render_stats(stats))
            return 0
        if args.action == "reload":
            report = client.reload()
            if args.json:
                print(json.dumps(report, indent=2))
                return 0
            for swap in report.get("swapped", []):
                previous = swap.get("previous_fingerprint")
                print(
                    f"swapped: {swap['model']} -> v{swap['version']} "
                    f"@{swap['fingerprint']}"
                    + (f" (was @{previous})" if previous else " (new)")
                )
            if not report.get("swapped"):
                print("no model changes detected")
            for entry in report.get("serving", []):
                print(
                    f"serving: {entry['name']}@{entry['fingerprint']} "
                    f"v{entry['version']}"
                )
            return 0
        # predict / foms: batch-score QASM files through the daemon.
        if not args.qasm:
            raise SystemExit(f"client {args.action} needs QASM files/dirs")
        paths = _collect_qasm_paths(args.qasm)
        qasm = [path.read_text() for path in paths]
        if args.action == "foms":
            response = client.foms(
                qasm, model=args.model, fingerprint=args.fingerprint,
                optimization_level=args.level,
            )
            if args.json:
                print(json.dumps(response, indent=2))
                return 0
            _print_foms(_served_title(response), paths, response["foms"])
            return 0
        if args.stream:
            stream = client.predict_stream(
                qasm, model=args.model, fingerprint=args.fingerprint,
                optimization_level=args.level, chunk_size=args.chunk_size,
            )
            if args.json:
                # NDJSON passthrough: the announcement, then one line
                # per chunk as it arrives.
                print(json.dumps(stream.header), flush=True)
                for chunk in stream:
                    print(json.dumps({"predictions": chunk}), flush=True)
                return 0
            _print_predictions(
                _served_title(stream.header), paths, stream, flush=True
            )
            return 0
        response = client.predict(
            qasm, model=args.model, fingerprint=args.fingerprint,
            optimization_level=args.level,
        )
        if args.json:
            print(json.dumps(response, indent=2))
            return 0
        _print_predictions(
            _served_title(response), paths, [response["predictions"]]
        )
        return 0
    except (ServingError, StreamInterrupted) as exc:
        raise SystemExit(str(exc))
    except (ConnectionError, OSError) as exc:
        raise SystemExit(
            f"cannot reach daemon at http://{args.host}:{args.port}: {exc}"
        )
    finally:
        client.close()


def _cmd_study(args: argparse.Namespace) -> int:
    if args.full:
        config = StudyConfig(shots=2000, seed=args.seed)
    else:
        config = StudyConfig(
            max_qubits=args.max_qubits,
            shots=args.shots,
            seed=args.seed,
            param_grid={
                "n_estimators": [50],
                "max_depth": [None, 10],
                "min_samples_leaf": [1, 2],
                "min_samples_split": [2],
            },
        )
    config.cache_dir = args.cache_dir
    config.max_workers = args.max_workers
    devices = (
        [_load_device(spec) for spec in args.devices]
        if args.devices else None
    )
    result = run_study(devices=devices, config=config)
    print(format_table_i(result))
    print()
    print(
        format_fig3(
            {
                name: report.feature_importances
                for name, report in result.reports.items()
            }
        )
    )
    return 0


def _cmd_drift_study(args: argparse.Namespace) -> int:
    import dataclasses
    import json

    from .evaluation.drift import (
        DriftStudyConfig,
        default_drift_study_config,
        format_drift_table,
        run_drift_study,
    )

    study = default_drift_study_config(progress=args.progress)
    study.max_qubits = args.max_qubits
    study.shots = args.shots
    study.seed = args.seed
    study.max_workers = args.max_workers
    config = DriftStudyConfig(
        device=args.device,
        steps=args.steps,
        drift_scale=args.drift_scale,
        duration_drift=args.duration_drift,
        drift_seed=args.drift_seed,
        refresh_trees=tuple(args.refresh_trees),
        replace=args.replace,
        study=study,
        cache_dir=args.cache_dir,
        progress=args.progress,
    )
    try:
        result = run_drift_study(config)
    except (ValueError, RuntimeError) as exc:
        raise SystemExit(str(exc))
    if args.json:
        print(json.dumps(dataclasses.asdict(result), indent=2))
    else:
        print(format_drift_table(result))
    return 0


def _cmd_devices(args: argparse.Namespace) -> int:
    for name, factory in sorted(BUILTIN_DEVICES.items()):
        device = factory()
        cal = device.reported_calibration
        print(
            f"{name}: {device.name}, {device.num_qubits} qubits, "
            f"{len(device.coupling.edges)} couplers, "
            f"mean CZ fidelity {cal.mean_two_qubit_fidelity():.4f}, "
            f"mean readout {cal.mean_readout_fidelity():.4f}"
        )
    print("(zoo families: `python -m repro zoo --list`)")
    return 0


def _cmd_zoo(args: argparse.Namespace) -> int:
    if args.list or args.spec is None:
        print(zoo_summary())
        return 0
    device = _load_device(
        args.spec if args.spec.lower().startswith("zoo:") else f"zoo:{args.spec}"
    )
    cal = device.reported_calibration
    degrees = [device.coupling.degree(q) for q in range(device.num_qubits)]
    print(f"{device.name}: {device.num_qubits} qubits, "
          f"{len(device.coupling.edges)} couplers")
    print(f"degree: min {min(degrees)}, max {max(degrees)}, "
          f"mean {sum(degrees) / len(degrees):.2f}")
    print(f"mean CZ fidelity {cal.mean_two_qubit_fidelity():.4f}, "
          f"mean readout {cal.mean_readout_fidelity():.4f}")
    print("edges:", " ".join(f"{a}-{b}" for a, b in device.coupling.edges))
    return 0


def render_cli_docs() -> str:
    """The generated CLI reference page (the ``docs/cli.md`` payload).

    Every subcommand's ``--help``, rendered at a pinned 80-column width
    (argparse reads ``COLUMNS``), so the page is byte-stable across
    terminals — the property the docs-sync check in CI relies on.
    """
    import os

    previous = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    try:
        parser = build_parser()
        lines = [
            "<!-- Generated by `python -m repro docs-cli > docs/cli.md`.",
            "     Do not edit by hand: CI diffs this page against the live",
            "     --help output (`python -m repro docs-cli --check docs/cli.md`). -->",
            "",
            "# CLI reference",
            "",
            "Every command runs as `python -m repro <command>`.  This page is",
            "generated from the argparse tree; the per-command sections below",
            "are the exact `--help` texts.",
            "",
            "## repro",
            "",
            "```text",
            parser.format_help().rstrip("\n"),
            "```",
        ]
        for action in parser._actions:
            if not isinstance(action, argparse._SubParsersAction):
                continue
            for name, subparser in action.choices.items():
                lines += [
                    "",
                    f"## repro {name}",
                    "",
                    "```text",
                    subparser.format_help().rstrip("\n"),
                    "```",
                ]
        return "\n".join(lines) + "\n"
    finally:
        if previous is None:
            os.environ.pop("COLUMNS", None)
        else:
            os.environ["COLUMNS"] = previous


def _cmd_docs_cli(args: argparse.Namespace) -> int:
    page = render_cli_docs()
    if args.check is not None:
        path = Path(args.check)
        try:
            committed = path.read_text()
        except OSError as exc:
            raise SystemExit(f"cannot read {path}: {exc}")
        if committed != page:
            raise SystemExit(
                f"{path} is out of sync with the live --help output; "
                "regenerate it with `python -m repro docs-cli > docs/cli.md`"
            )
        print(f"{path} is in sync")
        return 0
    print(page, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, level: bool = True):
        p.add_argument("--device", default="q20a", help=ZOO_SPEC_HELP)
        if level:
            p.add_argument("--level", type=int, default=3, choices=range(4))
        p.add_argument("--seed", type=int, default=0)

    p_compile = sub.add_parser("compile", help="compile a QASM file")
    p_compile.add_argument("qasm")
    common(p_compile)
    p_compile.set_defaults(func=_cmd_compile)

    p_search = sub.add_parser(
        "compile-search",
        help="predictor-guided beam-search compilation",
        description=(
            "Compile QASM files with the beam search over pass "
            "configurations (optimization_level='search'): candidates are "
            "ranked by a trained estimator's predicted Hellinger distance, "
            "and only the surviving front is re-scored exactly — never "
            "worse than stock level 3 by construction.  With --store, "
            "winning configurations persist to a leaderboard and later "
            "runs warm-start from the incumbent."
        ),
    )
    p_search.add_argument(
        "qasm", nargs="+",
        help="QASM files and/or directories containing *.qasm",
    )
    common(p_search, level=False)
    p_search.add_argument(
        "--model", required=True,
        help="path to a trained estimator (.npz written by save_model)",
    )
    p_search.add_argument(
        "--beam-width", type=int, default=None,
        help="configurations surviving each generation (default: 4)",
    )
    p_search.add_argument(
        "--generations", type=int, default=None,
        help="neighbor-expansion rounds after the stock seeds (default: 2)",
    )
    p_search.add_argument(
        "--store", default=None,
        help="leaderboard directory: warm-start from incumbents, persist "
             "winners (default: search cold, keep nothing)",
    )
    p_search.add_argument(
        "--emit-qasm", action="store_true",
        help="print the compiled QASM of every circuit after the table",
    )
    p_search.add_argument(
        "--max-workers", type=int, default=None,
        help="worker-pool size for the batched search (default: one per CPU)",
    )
    p_search.set_defaults(func=_cmd_compile_search)

    p_exec = sub.add_parser("execute", help="compile + noisy execution")
    p_exec.add_argument("qasm")
    common(p_exec)
    p_exec.add_argument("--shots", type=int, default=2000)
    p_exec.add_argument("--top", type=int, default=10,
                        help="show this many outcomes")
    p_exec.set_defaults(func=_cmd_execute)

    p_feat = sub.add_parser("features", help="30-dim feature vector")
    p_feat.add_argument("qasm")
    common(p_feat)
    p_feat.set_defaults(func=_cmd_features)

    p_pred = sub.add_parser(
        "predict",
        help="batch-score QASM files with a trained estimator",
        description=(
            "Load a persisted estimator (.npz from save_model / "
            "train_fom_estimator.py) and a device once, then compile, "
            "featurize, and score every given QASM file (or every *.qasm "
            "in given directories) in batches.  With --foms, print the "
            "paper's full metric panel instead of predictions only."
        ),
    )
    p_pred.add_argument(
        "qasm", nargs="+",
        help="QASM files and/or directories containing *.qasm",
    )
    common(p_pred)
    p_pred.add_argument(
        "--model", required=True,
        help="path to a trained estimator (.npz written by save_model)",
    )
    p_pred.add_argument(
        "--foms", action="store_true",
        help="also print the four established figures of merit",
    )
    p_pred.add_argument(
        "--max-workers", type=int, default=None,
        help="worker-pool size for the batched stages (default: one per CPU)",
    )
    p_pred.add_argument(
        "--chunk-size", type=int, default=128,
        help="circuits scored per streamed chunk (memory ceiling)",
    )
    p_pred.add_argument(
        "--search", action="store_true",
        help="compile with the predictor-guided beam search instead of "
             "--level (the model doubles as the search cost model)",
    )
    p_pred.add_argument(
        "--search-store", default=None,
        help="with --search: leaderboard directory for warm starts",
    )
    p_pred.add_argument(
        "--beam-width", type=int, default=None,
        help="with --search: beam width (default: 4)",
    )
    p_pred.add_argument(
        "--generations", type=int, default=None,
        help="with --search: expansion generations (default: 2)",
    )
    p_pred.set_defaults(func=_cmd_predict)

    p_serve = sub.add_parser(
        "serve",
        help="run the long-lived serving daemon",
        description=(
            "Start an asyncio HTTP daemon that loads a model registry once "
            "(a save_model .npz via --model, or every estimator artifact in "
            "an ArtifactStore directory via --store) and coalesces "
            "concurrent predict requests into dynamic batches.  Endpoints: "
            "POST /predict, POST /foms, GET /healthz, GET /stats.  SIGTERM "
            "drains in-flight batches and exits 0."
        ),
    )
    source = p_serve.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--model", help="path to a trained estimator (.npz from save_model)"
    )
    source.add_argument(
        "--store",
        help="ArtifactStore directory; registers every estimator artifact",
    )
    p_serve.add_argument(
        "--name", default=None,
        help="with --store: register only artifacts with this name",
    )
    p_serve.add_argument(
        "--fingerprint", default=None,
        help="with --store: register only artifacts with this fingerprint",
    )
    common(p_serve)
    p_serve.add_argument("--num-trials", type=int, default=4)
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=8377,
        help="TCP port (0 picks a free one; printed on startup)",
    )
    p_serve.add_argument(
        "--max-batch", type=int, default=64,
        help="most circuits in one dynamic batch (a batch starts as soon "
             "as the pipeline is idle; requests coalesce while they queue "
             "behind a running batch)",
    )
    p_serve.add_argument(
        "--queue-limit", type=int, default=1024,
        help="circuits queued before new requests get 503 (backpressure)",
    )
    p_serve.add_argument(
        "--request-timeout", type=float, default=60.0,
        help="seconds before a queued request is answered 504",
    )
    p_serve.add_argument(
        "--max-workers", type=int, default=1,
        help="pipeline workers per batch: above 1, compile and featurize "
             "fan out over a shared process pool (1 = in-process, "
             "predictable latency; raise on multi-core boxes)",
    )
    p_serve.add_argument(
        "--reload-interval", type=float, default=0.0,
        help="seconds between automatic model-source staleness checks and "
             "hot swaps (0 = only on explicit POST /reload)",
    )
    p_serve.add_argument(
        "--shards", type=int, default=1,
        help="worker processes, each with its own registry + batcher + "
             "GIL (1 = serve in-process; 0 = one per CPU).  Requests "
             "route by consistent hash of (model, fingerprint, level) "
             "with round-robin spill when a lane saturates; responses "
             "are byte-identical to --shards 1",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_client = sub.add_parser(
        "client",
        help="talk to a running serving daemon",
        description=(
            "Drive a daemon started with `repro serve`: check health, dump "
            "stats, or batch-score QASM files through POST /predict / "
            "POST /foms."
        ),
    )
    p_client.add_argument(
        "action", choices=("healthz", "stats", "reload", "predict", "foms"),
    )
    p_client.add_argument(
        "qasm", nargs="*",
        help="QASM files and/or directories (predict/foms only)",
    )
    p_client.add_argument("--host", default="127.0.0.1")
    p_client.add_argument("--port", type=int, default=8377)
    p_client.add_argument(
        "--model", default=None, help="registered model name to score with"
    )
    p_client.add_argument(
        "--fingerprint", default=None,
        help="registered model fingerprint to score with",
    )
    p_client.add_argument(
        "--level", type=int, default=None, choices=range(4),
        help="optimization level override (default: the model's)",
    )
    p_client.add_argument(
        "--timeout", type=float, default=120.0,
        help="client-side socket timeout in seconds",
    )
    p_client.add_argument(
        "--json", action="store_true",
        help="print the raw JSON response instead of the table",
    )
    p_client.add_argument(
        "--stream", action="store_true",
        help="predict only: request a chunked streaming response and "
             "print predictions as chunks arrive (identical values to a "
             "non-streamed predict)",
    )
    p_client.add_argument(
        "--chunk-size", type=int, default=None,
        help="with --stream: circuits per streamed chunk "
             "(default: the model's pipeline chunk size)",
    )
    p_client.set_defaults(func=_cmd_client)

    p_study = sub.add_parser("study", help="run the correlation study")
    p_study.add_argument("--full", action="store_true")
    p_study.add_argument("--max-qubits", type=int, default=10)
    p_study.add_argument("--shots", type=int, default=1000)
    p_study.add_argument("--seed", type=int, default=0)
    p_study.add_argument(
        "--devices", nargs="+", default=None, metavar="DEVICE",
        help="study these devices instead of the paper's Q20 pair; "
             f"each is {ZOO_SPEC_HELP}",
    )
    p_study.add_argument(
        "--cache-dir", default=None,
        help="checkpoint datasets/models here; reruns skip unchanged stages",
    )
    p_study.add_argument(
        "--max-workers", type=int, default=None,
        help="worker-pool size for batched stages (default: one per CPU)",
    )
    p_study.set_defaults(func=_cmd_study)

    p_drift = sub.add_parser(
        "drift-study",
        help="measure estimator staleness under calibration drift",
        description=(
            "Walk a device's *true* calibration away from its frozen "
            "report with the zoo's drift map, then measure how the "
            "step-0 estimator decays on freshly-labelled circuits and "
            "how well two refresh strategies recover: a full grid-search "
            "retrain vs appending a few fresh trees to the stale forest "
            "(fine-tune).  Every stage caches through --cache-dir, so a "
            "rerun with unchanged inputs is a pure read."
        ),
    )
    p_drift.add_argument(
        "--device", default="zoo:grid:12:typical:0", help=ZOO_SPEC_HELP
    )
    p_drift.add_argument(
        "--steps", type=int, default=3,
        help="drifted snapshots after the training-time calibration",
    )
    p_drift.add_argument(
        "--drift-scale", type=float, default=1.0,
        help="multiplies the tier's per-step drift magnitudes",
    )
    p_drift.add_argument(
        "--duration-drift", type=float, default=0.0,
        help="also drift gate/readout durations by this magnitude "
             "(default 0: durations are control-stack settings)",
    )
    p_drift.add_argument("--drift-seed", type=int, default=0)
    p_drift.add_argument(
        "--refresh-trees", type=int, nargs="+", default=[4, 8, 16],
        metavar="N",
        help="fine-tune curve: fresh trees appended per refresh point",
    )
    p_drift.add_argument(
        "--replace", action="store_true",
        help="fresh trees replace the oldest (constant-size forest) "
             "instead of growing it",
    )
    p_drift.add_argument("--max-qubits", type=int, default=6)
    p_drift.add_argument("--shots", type=int, default=400)
    p_drift.add_argument("--seed", type=int, default=0)
    p_drift.add_argument(
        "--cache-dir", default=None,
        help="artifact store: datasets, reports, estimators, and the "
             "finished study are fingerprint-cached here",
    )
    p_drift.add_argument(
        "--max-workers", type=int, default=None,
        help="worker-pool size for batched stages (default: one per CPU)",
    )
    p_drift.add_argument(
        "--progress", action="store_true",
        help="print per-step progress lines while the study runs",
    )
    p_drift.add_argument(
        "--json", action="store_true",
        help="print the full result as JSON instead of the table",
    )
    p_drift.set_defaults(func=_cmd_drift_study)

    p_dev = sub.add_parser("devices", help="list built-in devices")
    p_dev.set_defaults(func=_cmd_devices)

    p_zoo = sub.add_parser(
        "zoo", help="list or inspect device-zoo families",
        description=(
            "With --list (or no spec): enumerate every topology family, "
            f"its sizing rules, and the noise tiers.  With a spec "
            f"({ZOO_SPEC_GRAMMAR}, the zoo: prefix optional here): print "
            "that device's topology and calibration summary."
        ),
    )
    p_zoo.add_argument("spec", nargs="?", default=None,
                       help="device spec, e.g. heavy_hex:16:noisy")
    p_zoo.add_argument("--list", action="store_true",
                       help="enumerate families and tiers")
    p_zoo.set_defaults(func=_cmd_zoo)

    p_docs = sub.add_parser(
        "docs-cli",
        help="emit the generated CLI reference (docs/cli.md)",
        description=(
            "Render every subcommand's --help as one markdown page at a "
            "pinned 80-column width.  Regenerate the committed page with "
            "`python -m repro docs-cli > docs/cli.md`; --check exits "
            "nonzero if that page has drifted from the live help (the CI "
            "docs job)."
        ),
    )
    p_docs.add_argument(
        "--check", default=None, metavar="PATH",
        help="compare PATH against the rendered page instead of printing",
    )
    p_docs.set_defaults(func=_cmd_docs_cli)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
