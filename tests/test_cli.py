"""Unit tests for the command-line interface."""


import pytest

from repro.cli import build_parser, main
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.qasm import to_qasm


@pytest.fixture
def qasm_file(tmp_path):
    qc = QuantumCircuit(3, 3)
    qc.h(0).cx(0, 1).cx(1, 2)
    qc.measure_all()
    path = tmp_path / "ghz.qasm"
    path.write_text(to_qasm(qc))
    return str(path)


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_devices_command(capsys):
    assert main(["devices"]) == 0
    out = capsys.readouterr().out
    assert "Q20-A" in out
    assert "Q20-B" in out
    assert "mean CZ fidelity" in out


def test_compile_command(qasm_file, capsys):
    assert main(["compile", qasm_file, "--device", "q20b", "--level", "2"]) == 0
    captured = capsys.readouterr()
    assert "OPENQASM 2.0;" in captured.out
    assert "prx" in captured.out or "cz" in captured.out
    assert "expected fidelity" in captured.err


def test_execute_command(qasm_file, capsys):
    assert main([
        "execute", qasm_file, "--device", "q20a",
        "--shots", "200", "--level", "1",
    ]) == 0
    out = capsys.readouterr().out
    assert "hellinger distance" in out
    assert "counts:" in out


def test_features_command(qasm_file, capsys):
    assert main(["features", qasm_file, "--level", "1"]) == 0
    out = capsys.readouterr().out
    assert "liveness" in out
    assert "parallelism" in out
    assert len(out.strip().splitlines()) == 30


def test_unknown_device_rejected(qasm_file):
    with pytest.raises(SystemExit, match="unknown device"):
        main(["compile", qasm_file, "--device", "bogus"])


def test_zoo_list_enumerates_families(capsys):
    assert main(["zoo", "--list"]) == 0
    out = capsys.readouterr().out
    for family in ("line", "ring", "ladder", "star", "grid", "heavy_hex", "random"):
        assert family in out
    assert "noise tiers" in out
    # The acceptance bar: at least five families enumerated.
    assert sum(1 for line in out.splitlines() if line[:1].isalpha()) - 2 >= 5


def test_zoo_inspect_device(capsys):
    assert main(["zoo", "ring:6:noisy:2"]) == 0
    out = capsys.readouterr().out
    assert "zoo-ring6-noisy-s2" in out
    assert "6 qubits, 6 couplers" in out
    assert "mean CZ fidelity" in out


def test_zoo_bad_spec_rejected():
    with pytest.raises(SystemExit, match="unknown zoo family"):
        main(["zoo", "moebius:8"])
    with pytest.raises(SystemExit, match="unknown noise tier"):
        main(["zoo", "ring:8:pristine"])


def test_compile_on_zoo_device(qasm_file, capsys):
    assert main([
        "compile", qasm_file, "--device", "zoo:ring:6:clean:1", "--level", "2",
    ]) == 0
    captured = capsys.readouterr()
    assert "OPENQASM 2.0;" in captured.out
    assert "zoo-ring6-clean-s1" in captured.err


def test_execute_on_zoo_device(qasm_file, capsys):
    assert main([
        "execute", qasm_file, "--device", "zoo:star:4",
        "--shots", "100", "--level", "1",
    ]) == 0
    out = capsys.readouterr().out
    assert "hellinger distance" in out


# ----------------------------------------------------------------------
# predict: the FomService frontend.


@pytest.fixture
def model_file(tmp_path):
    import numpy as np

    from repro.evaluation import save_model
    from repro.predictor import HellingerEstimator

    rng = np.random.default_rng(0)
    estimator = HellingerEstimator(
        param_grid={
            "n_estimators": [4],
            "max_depth": [3],
            "min_samples_leaf": [1],
            "min_samples_split": [2],
        },
        seed=0,
    ).fit(rng.uniform(size=(40, 30)), rng.uniform(size=40))
    path = tmp_path / "model.npz"
    save_model(estimator, path)
    return str(path)


@pytest.fixture
def qasm_dir(tmp_path):
    from repro.circuits.random import random_circuit

    directory = tmp_path / "circuits"
    directory.mkdir()
    for seed in range(3):
        qc = random_circuit(3, 6, seed=seed, measure=True)
        (directory / f"rand_{seed}.qasm").write_text(to_qasm(qc))
    return directory


def test_predict_command_on_files(model_file, qasm_file, capsys):
    assert main([
        "predict", qasm_file, "--model", model_file,
        "--device", "q20a", "--level", "1",
    ]) == 0
    out = capsys.readouterr().out
    assert "predicted_hellinger" in out
    assert "ghz" in out
    # Header comment + column header + one row.
    assert len(out.strip().splitlines()) == 3


def test_predict_command_on_directory(model_file, qasm_dir, capsys):
    assert main([
        "predict", str(qasm_dir), "--model", model_file, "--level", "1",
    ]) == 0
    out = capsys.readouterr().out
    for seed in range(3):
        assert f"rand_{seed}" in out


def test_predict_command_foms_panel(model_file, qasm_dir, capsys):
    assert main([
        "predict", str(qasm_dir), "--model", model_file,
        "--level", "1", "--foms",
    ]) == 0
    out = capsys.readouterr().out
    for column in ("Number of gates", "Circuit depth", "Expected fidelity",
                   "ESP", "Proposed approach"):
        assert column in out


def test_predict_command_rejects_bad_inputs(model_file, qasm_dir, tmp_path, qasm_file):
    with pytest.raises(SystemExit, match="no such file or directory"):
        main(["predict", "missing.qasm", "--model", model_file])
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(SystemExit, match="no .qasm files"):
        main(["predict", str(empty), "--model", model_file])
    not_model = tmp_path / "junk.npz"
    not_model.write_text("not a model")
    with pytest.raises(SystemExit, match="not a repro model file"):
        main(["predict", qasm_file, "--model", str(not_model)])


def test_predict_command_rejects_bad_chunk_size(model_file, qasm_file):
    with pytest.raises(SystemExit, match="chunk_size must be positive"):
        main(["predict", qasm_file, "--model", model_file, "--chunk-size", "0"])


# ----------------------------------------------------------------------
# compile-search and predict --search: the beam-search frontends.


def test_compile_search_command(model_file, qasm_dir, tmp_path, capsys):
    store = tmp_path / "leaderboard"
    assert main([
        "compile-search", str(qasm_dir), "--model", model_file,
        "--beam-width", "2", "--generations", "1",
        "--store", str(store), "--max-workers", "1",
    ]) == 0
    captured = capsys.readouterr()
    assert "predicted" in captured.out
    assert "search" in captured.out
    assert "searches=" in captured.err
    assert list(store.glob("leaderboard_*.json"))
    # Warm rerun reports incumbents.
    assert main([
        "compile-search", str(qasm_dir), "--model", model_file,
        "--beam-width", "2", "--generations", "1",
        "--store", str(store), "--max-workers", "1",
    ]) == 0
    captured = capsys.readouterr()
    assert "leaderboard" in captured.out
    assert "warm_starts=3" in captured.err


def test_compile_search_emit_qasm(model_file, qasm_file, capsys):
    assert main([
        "compile-search", qasm_file, "--model", model_file,
        "--beam-width", "2", "--generations", "0",
        "--max-workers", "1", "--emit-qasm",
    ]) == 0
    assert "OPENQASM 2.0;" in capsys.readouterr().out


def test_predict_command_search(model_file, qasm_dir, tmp_path, capsys):
    store = tmp_path / "leaderboard"
    assert main([
        "predict", str(qasm_dir), "--model", model_file, "--search",
        "--search-store", str(store), "--beam-width", "2",
        "--generations", "1", "--max-workers", "1",
    ]) == 0
    out = capsys.readouterr().out
    assert "level: search" in out
    assert "predicted_hellinger" in out
    assert list(store.glob("leaderboard_*.json"))


# ----------------------------------------------------------------------
# docs-cli: the generated CLI reference.


def test_docs_cli_emits_every_subcommand(capsys):
    assert main(["docs-cli"]) == 0
    page = capsys.readouterr().out
    for command in ("compile", "compile-search", "execute", "features",
                    "predict", "serve", "client", "study", "devices",
                    "zoo", "docs-cli"):
        assert f"## repro {command}" in page
    assert page.startswith("<!-- Generated by")


def test_docs_cli_check_mode(tmp_path, capsys):
    from repro.cli import render_cli_docs

    page = tmp_path / "cli.md"
    page.write_text(render_cli_docs())
    assert main(["docs-cli", "--check", str(page)]) == 0
    assert "in sync" in capsys.readouterr().out
    page.write_text("stale contents\n")
    with pytest.raises(SystemExit, match="out of sync"):
        main(["docs-cli", "--check", str(page)])
    with pytest.raises(SystemExit, match="cannot read"):
        main(["docs-cli", "--check", str(tmp_path / "missing.md")])


def test_docs_cli_output_width_pinned(capsys, monkeypatch):
    from repro.cli import render_cli_docs

    monkeypatch.setenv("COLUMNS", "210")
    wide = render_cli_docs()
    monkeypatch.setenv("COLUMNS", "60")
    narrow = render_cli_docs()
    assert wide == narrow


# ----------------------------------------------------------------------
# The zoo spec grammar is quoted from one constant everywhere.


def test_zoo_spec_grammar_shared_across_parsers():
    from repro.hardware import ZOO_SPEC_GRAMMAR

    parser = build_parser()
    subparsers = next(
        action for action in parser._actions
        if hasattr(action, "choices") and "zoo" in (action.choices or {})
    )
    for command in ("predict", "study", "zoo", "compile-search"):
        assert ZOO_SPEC_GRAMMAR in subparsers.choices[command].format_help()


def test_drift_study_command(tmp_path, capsys):
    cache_dir = str(tmp_path / "drift-cache")
    argv = [
        "drift-study", "--device", "zoo:line:6:clean:1", "--steps", "1",
        "--refresh-trees", "2", "--shots", "150", "--cache-dir", cache_dir,
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "drift study: zoo-line6-clean-s1" in out
    assert "stale_r" in out and "retrain_r" in out and "ft2_r" in out
    assert "cached result" not in out
    # Warm rerun: same command reads the finished study back.
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "cached result" in out


def test_drift_study_command_json(tmp_path, capsys):
    import json

    argv = [
        "drift-study", "--device", "zoo:line:6:clean:1", "--steps", "1",
        "--refresh-trees", "2", "--shots", "150",
        "--cache-dir", str(tmp_path / "cache"), "--json",
    ]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["from_cache"] is False
    assert len(payload["steps"]) == 1
    assert payload["steps"][0]["fine_tune"][0]["trees"] == 2


def test_drift_study_command_rejects_bad_knobs(tmp_path):
    with pytest.raises(SystemExit):
        main(["drift-study", "--steps", "0"])
