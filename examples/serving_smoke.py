"""Serving-daemon smoke check: boot, drive, verify, drain, leave nothing.

This is the CI ``serving-smoke`` job's driver (and runnable locally).
Against the artifacts ``predict_service.py --workdir DIR`` leaves
behind, it:

1. starts ``python -m repro serve`` as a real subprocess on a free port,
2. drives it with :class:`~repro.serving.client.ServingClient` —
   ``healthz``, several **concurrent** ``predict`` requests (those that
   queue behind a running batch coalesce), a ``foms`` panel, and
   ``stats``,
3. asserts every daemon response is **bit-identical** to a direct
   :class:`~repro.predictor.service.FomService` call on the same inputs
   (float64 values survive the JSON round-trip exactly), and that
   re-sending them is answered warm (``/stats`` ``warm_total`` rises)
   in unchanged bytes,
4. exercises the hot-reload loop: ``repro client reload`` with an
   unchanged file is a no-op, then the model file is overwritten with a
   fine-tuned estimator and reloaded **under concurrent traffic** — no
   request drops, the superseded fingerprint stays pinnable with its old
   answers, and post-swap responses are bit-identical to both a direct
   service on the new file and a freshly restarted daemon,
5. sends a corpus-sized request at an optimization level the daemon
   has not compiled yet, SIGTERMs the daemon once ``/stats`` reports it
   in flight, and asserts the response still arrives bit-identical
   (graceful drain) and the process exits 0, and
6. verifies nothing is left behind: the port is closed and no stray
   process still references the workdir.

Exit code 0 = all of the above held.

Run:  python examples/predict_service.py --quick --workdir /tmp/serve
      python examples/serving_smoke.py --workdir /tmp/serve
"""

import argparse
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from repro.circuits.qasm import from_qasm
from repro.evaluation.persistence import save_model
from repro.predictor import FomService
from repro.serving import ServingClient

FOM_LABELS = (
    "Number of gates", "Circuit depth", "Expected fidelity", "ESP",
    "Proposed approach",
)


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def processes_referencing(needle: str, ignore: set) -> list:
    """PIDs whose command line mentions ``needle`` (orphan detector)."""
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit() or int(entry.name) in ignore:
            continue
        try:
            cmdline = (entry / "cmdline").read_bytes().replace(b"\0", b" ")
        except OSError:
            continue
        if needle.encode() in cmdline:
            found.append((int(entry.name), cmdline.decode(errors="replace")))
    return found


def check_warm_repeat(client, requests: list, responses: list) -> None:
    """Re-send ``requests`` once their first answers are in: every
    circuit is compiled now, so each must be answered warm (the
    ``/stats`` warm counter rises once per request) in unchanged bytes."""
    before = client.stats()["batches"]["warm_total"]
    for index, request in enumerate(requests):
        repeat = client.predict(request)
        if json.dumps(repeat) != json.dumps(responses[index]):
            fail(f"warm repeat of request {index} changed its bytes:\n"
                 f"  first:  {responses[index]}\n  repeat: {repeat}")
    warm = client.stats()["batches"]["warm_total"] - before
    if warm != len(requests):
        fail(f"{warm} of {len(requests)} repeated requests answered warm")
    print(f"[smoke] {len(requests)} repeated requests answered warm, "
          "bytes unchanged")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--workdir", required=True,
        help="directory predict_service.py wrote model.npz + circuits/ into",
    )
    parser.add_argument("--device", default="q20a")
    parser.add_argument("--level", type=int, default=3)
    args = parser.parse_args()

    workdir = Path(args.workdir)
    model_path = workdir / "model.npz"
    qasm_paths = sorted((workdir / "circuits").glob("*.qasm"))
    if not model_path.is_file() or not qasm_paths:
        fail(f"no serving artifacts under {workdir}; "
             "run predict_service.py --workdir first")
    qasm = [path.read_text() for path in qasm_paths]
    # Three concurrent requests out of the corpus (distinct sizes, so the
    # coalesced batch interleaves unequal requests).
    requests = [qasm[0:3], qasm[3:5], qasm[5:11]]

    print(f"[smoke] starting daemon for {model_path}")
    daemon = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--model", str(model_path), "--device", args.device,
         "--level", str(args.level), "--port", "0", "--max-batch", "64"],
        stdout=subprocess.PIPE, text=True,
    )
    try:
        line = daemon.stdout.readline()
        if "listening on http://" not in line:
            fail(f"daemon failed to announce itself: {line!r}")
        port = int(line.split("listening on http://")[1]
                   .split(" ")[0].rsplit(":", 1)[1])
        print(f"[smoke] daemon up on port {port}")
        client = ServingClient(port=port)

        status, health = client.healthz()
        if status != 200 or health["status"] != "serving":
            fail(f"healthz: {status} {health}")
        print(f"[smoke] healthz OK ({health['models']})")

        # Concurrent predict requests: those that arrive while a batch
        # runs queue behind it and coalesce into the next one.
        responses = [None] * len(requests)
        errors = []

        def drive(index: int) -> None:
            worker_client = ServingClient(port=port)
            try:
                responses[index] = worker_client.predict(requests[index])
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append((index, exc))
            finally:
                worker_client.close()

        threads = [
            threading.Thread(target=drive, args=(index,))
            for index in range(len(requests))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=600)
        if errors:
            fail(f"concurrent predict failed: {errors}")

        # Bit-identity: the daemon's answers must equal a direct
        # FomService call on the same per-request inputs.
        service = FomService.load(
            model_path, args.device, optimization_level=args.level, seed=0
        )
        for index, request in enumerate(requests):
            direct = service.predict(
                [from_qasm(text) for text in request]
            ).tolist()
            served = responses[index]["predictions"]
            if served != direct:
                fail(f"request {index} not bit-identical:\n"
                     f"  served: {served}\n  direct: {direct}")
        print(f"[smoke] {len(requests)} concurrent requests bit-identical "
              "to direct FomService calls")
        check_warm_repeat(client, requests, responses)

        panel = client.foms(qasm[:3])["foms"]
        direct_panel = service.score_established_foms(
            [from_qasm(text) for text in qasm[:3]]
        )
        for label in FOM_LABELS:
            if panel[label] != direct_panel[label].tolist():
                fail(f"foms[{label!r}] mismatch: {panel[label]} "
                     f"vs {direct_panel[label].tolist()}")
        print("[smoke] foms panel bit-identical")

        stats = client.stats()
        if stats["batches"]["total"] < 1:
            fail(f"no batches recorded: {stats}")
        sizes = stats["batches"]["size_histogram"]
        print(f"[smoke] stats OK: {stats['batches']['requests_total']} "
              f"requests over {stats['batches']['total']} batches "
              f"(sizes {sizes}), stages "
              f"{ {k: round(v, 3) for k, v in stats['latency']['stages_s'].items()} }")

        # ------------------------------------------------------------------
        # Hot reload: overwrite the model file, swap mid-traffic.
        # ------------------------------------------------------------------

        def cli_reload() -> str:
            completed = subprocess.run(
                [sys.executable, "-m", "repro", "client", "reload",
                 "--port", str(port)],
                capture_output=True, text=True, timeout=300,
            )
            if completed.returncode != 0:
                fail(f"repro client reload failed: {completed.stderr}")
            return completed.stdout

        output = cli_reload()
        if "no model changes detected" not in output:
            fail(f"reload of an unchanged file should be a no-op: {output!r}")
        print("[smoke] reload with unchanged file is a no-op")

        old_fingerprint = responses[0]["fingerprint"]
        old_direct = {
            index: responses[index]["predictions"]
            for index in range(len(requests))
        }

        # A cheap refresh: append fine-tuned trees to the serving
        # estimator and write the result over the daemon's model file.
        rng = np.random.default_rng(7)
        tuned = service.estimator.fine_tune(
            rng.uniform(size=(40, 30)), rng.uniform(size=40), n_trees=4
        )
        save_model(tuned, model_path)

        # Reload while concurrent predict traffic is in flight: nothing
        # may drop, and every response must match one of the two models.
        live_responses = []
        live_errors = []
        reload_done = threading.Event()

        def live_traffic() -> None:
            worker_client = ServingClient(port=port)
            try:
                while not reload_done.is_set():
                    live_responses.append(worker_client.predict(qasm[:2]))
            except Exception as exc:  # noqa: BLE001 - reported below
                live_errors.append(exc)
            finally:
                worker_client.close()

        live_threads = [
            threading.Thread(target=live_traffic) for _ in range(3)
        ]
        for thread in live_threads:
            thread.start()
        output = cli_reload()
        reload_done.set()
        for thread in live_threads:
            thread.join(timeout=600)
        if live_errors:
            fail(f"requests dropped during hot swap: {live_errors}")
        if "swapped: model -> v2" not in output:
            fail(f"reload did not report the swap: {output!r}")

        refreshed_service = FomService.load(
            model_path, args.device, optimization_level=args.level, seed=0
        )
        circuits_2 = [from_qasm(text) for text in qasm[:2]]
        old_answer = service.predict(circuits_2).tolist()
        new_answer = refreshed_service.predict(circuits_2).tolist()
        if old_answer == new_answer:
            fail("fine-tuned model predicts identically; swap is untestable")
        for response in live_responses:
            expected = (
                old_answer
                if response["fingerprint"] == old_fingerprint
                else new_answer
            )
            if response["predictions"] != expected:
                fail(f"mid-swap response matches neither model: {response}")
        print(f"[smoke] hot swap under traffic: {len(live_responses)} "
              "requests answered, all bit-identical to old or new model")

        # Post-swap: unpinned requests serve the new model; the old
        # fingerprint stays pinnable with its pre-swap answers.
        after = client.predict(qasm[:2])
        if after["fingerprint"] == old_fingerprint:
            fail("unpinned request still served by the superseded model")
        if after["predictions"] != new_answer:
            fail("post-swap response not bit-identical to the new model")
        pinned = client.predict(qasm[:2], fingerprint=old_fingerprint)
        if pinned["predictions"] != old_answer:
            fail("pinned old fingerprint no longer answers like the old model")
        for index, request in enumerate(requests):
            repeat = client.predict(request, fingerprint=old_fingerprint)
            if repeat["predictions"] != old_direct[index]:
                fail(f"pinned request {index} drifted after the swap")
        status, health = client.healthz()
        if health["reload"]["swaps"] != 1:
            fail(f"healthz should count exactly one swap: {health['reload']}")
        served_now = {model["fingerprint"]: model["version"]
                      for model in health["models"]}
        if served_now.get(after["fingerprint"]) != "2":
            fail(f"healthz does not list the refreshed model: {health}")
        print("[smoke] post-swap serving v2; old fingerprint still pinnable")

        # The hot-swapped daemon must answer exactly like a daemon booted
        # fresh from the overwritten file.
        restarted = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--model", str(model_path), "--device", args.device,
             "--level", str(args.level), "--port", "0", "--max-batch", "64"],
            stdout=subprocess.PIPE, text=True,
        )
        try:
            line = restarted.stdout.readline()
            if "listening on http://" not in line:
                fail(f"restarted daemon failed to announce: {line!r}")
            restart_port = int(line.split("listening on http://")[1]
                               .split(" ")[0].rsplit(":", 1)[1])
            restart_client = ServingClient(port=restart_port)
            try:
                from_restart = restart_client.predict(qasm[:2])
            finally:
                restart_client.close()
            if from_restart["predictions"] != after["predictions"]:
                fail("hot-swapped daemon and restarted daemon disagree:\n"
                     f"  swapped:   {after['predictions']}\n"
                     f"  restarted: {from_restart['predictions']}")
            if from_restart["fingerprint"] != after["fingerprint"]:
                fail("fingerprint mismatch between swap and restart")
        finally:
            restarted.send_signal(signal.SIGTERM)
            try:
                restarted.wait(timeout=120)
            except subprocess.TimeoutExpired:
                restarted.kill()
                restarted.wait(timeout=30)
        print("[smoke] hot-swapped responses bit-identical to a freshly "
              "restarted daemon")
        service = refreshed_service  # the drain check below uses v2
        client.close()

        # Graceful drain: a corpus-sized request at a level the daemon
        # has not compiled yet keeps its batch running long enough to
        # SIGTERM mid-batch; the response must still arrive.
        drain_level = 2 if args.level == 3 else 3
        drain_result = {}

        def drain_request() -> None:
            drain_client = ServingClient(port=port)
            try:
                drain_result["response"] = drain_client.predict(
                    qasm, optimization_level=drain_level
                )
            except Exception as exc:  # noqa: BLE001 - reported below
                drain_result["error"] = exc
            finally:
                drain_client.close()

        drain_thread = threading.Thread(target=drain_request)
        drain_thread.start()
        with ServingClient(port=port) as stats_client:
            while stats_client.stats()["queue"]["in_flight"] == 0:
                if not drain_thread.is_alive():
                    fail("drain request finished before SIGTERM could land "
                         "mid-batch")
                time.sleep(0.005)
        daemon.send_signal(signal.SIGTERM)
        drain_thread.join(timeout=600)
        if "error" in drain_result:
            fail(f"in-flight request dropped during drain: "
                 f"{drain_result['error']}")
        direct = service.predict(
            [from_qasm(text) for text in qasm], optimization_level=drain_level
        )
        if drain_result["response"]["predictions"] != direct.tolist():
            fail("drained response not bit-identical")
        print(f"[smoke] SIGTERM drain answered the in-flight request "
              f"({len(qasm)} circuits at level {drain_level})")

        returncode = daemon.wait(timeout=120)
        if returncode != 0:
            fail(f"daemon exited {returncode} after SIGTERM")
        print("[smoke] daemon exited 0")
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait(timeout=30)

    # Nothing left behind: port closed, no process still references the
    # model path.
    with socket.socket() as probe:
        if probe.connect_ex(("127.0.0.1", port)) == 0:
            fail(f"port {port} still accepting connections after shutdown")
    orphans = processes_referencing(str(model_path), ignore={os.getpid()})
    if orphans:
        fail(f"orphaned processes still reference {model_path}: {orphans}")
    print("[smoke] no orphans, port closed — single-process phase PASSED")

    sharded_phase(model_path, qasm, args)
    print("[smoke] serving smoke PASSED")


def sharded_phase(model_path: Path, qasm: list, args) -> None:
    """``--shards 2``: byte-identity through the dispatcher, streaming,
    and a SIGTERM landing mid-stream — the stream still completes, the
    parent exits 0, and both worker processes are reaped."""
    print("[smoke] starting sharded daemon (--shards 2)")
    daemon = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--model", str(model_path), "--device", args.device,
         "--level", str(args.level), "--port", "0", "--shards", "2",
         "--max-batch", "64"],
        stdout=subprocess.PIPE, text=True,
    )
    try:
        line = daemon.stdout.readline()
        if "listening on http://" not in line or "shards: 2" not in line:
            fail(f"sharded daemon failed to announce itself: {line!r}")
        port = int(line.split("listening on http://")[1]
                   .split(" ")[0].rsplit(":", 1)[1])
        client = ServingClient(port=port)
        status, health = client.healthz()
        shards = health.get("shards", {})
        if status != 200 or shards.get("live") != 2:
            fail(f"sharded healthz: {status} {health}")
        worker_pids = [worker["pid"] for worker in shards["workers"]]
        if len(set(worker_pids)) != 2 or daemon.pid in worker_pids:
            fail(f"expected 2 distinct worker pids: {worker_pids}")
        print(f"[smoke] sharded daemon up on port {port} "
              f"(workers {worker_pids})")

        # Concurrent requests through the dispatcher must be
        # bit-identical to a direct service on the same inputs.
        service = FomService.load(
            model_path, args.device, optimization_level=args.level, seed=0
        )
        requests = [qasm[0:3], qasm[3:5], qasm[5:11]]
        responses = [None] * len(requests)
        errors = []

        def drive(index: int) -> None:
            worker_client = ServingClient(port=port)
            try:
                responses[index] = worker_client.predict(requests[index])
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append((index, exc))
            finally:
                worker_client.close()

        threads = [
            threading.Thread(target=drive, args=(index,))
            for index in range(len(requests))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=600)
        if errors:
            fail(f"sharded concurrent predict failed: {errors}")
        for index, request in enumerate(requests):
            direct = service.predict(
                [from_qasm(text) for text in request]
            ).tolist()
            if responses[index]["predictions"] != direct:
                fail(f"sharded request {index} not bit-identical")
        print(f"[smoke] {len(requests)} concurrent sharded requests "
              "bit-identical to direct FomService calls")
        check_warm_repeat(client, requests, responses)

        stats = client.stats()
        per_shard = stats.get("shards", {}).get("per_shard", [])
        if len(per_shard) != 2 or stats["shards"]["live"] != 2:
            fail(f"sharded stats missing per-shard reports: {stats}")
        print(f"[smoke] merged stats OK "
              f"({stats['latency']['samples']} latency samples over "
              f"{[entry['latency_samples'] for entry in per_shard]})")

        # Streaming over the corpus, then SIGTERM mid-stream: the drain
        # lets the stream run to its terminator before workers stop.
        stream = client.predict_stream(qasm, chunk_size=2)
        received = list(next(stream))
        daemon.send_signal(signal.SIGTERM)
        for part in stream:
            received.extend(part)
        direct = service.predict(
            [from_qasm(text) for text in qasm]
        ).tolist()
        if received != direct:
            fail("streamed corpus (SIGTERM mid-stream) not bit-identical")
        print(f"[smoke] SIGTERM mid-stream: all {len(received)} streamed "
              "predictions arrived, bit-identical")
        client.close()

        returncode = daemon.wait(timeout=120)
        if returncode != 0:
            fail(f"sharded daemon exited {returncode} after SIGTERM")
        print("[smoke] sharded daemon exited 0")
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait(timeout=30)

    # No orphans: both spawn workers must be gone with their parent.
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        survivors = [
            pid for pid in worker_pids if Path(f"/proc/{pid}").is_dir()
        ]
        if not survivors:
            break
        time.sleep(0.1)
    if survivors:
        fail(f"orphaned shard workers after shutdown: {survivors}")
    with socket.socket() as probe:
        if probe.connect_ex(("127.0.0.1", port)) == 0:
            fail(f"port {port} still accepting connections after shutdown")
    print("[smoke] sharded phase: no orphaned workers, port closed")


if __name__ == "__main__":
    main()
