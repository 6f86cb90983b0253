"""The one trial builder against the frozen copies it replaced.

Level 2, the level-3 trials, the whole-compile key and every search
configuration are built by ``repro.compiler.compile``'s trial builder.
Their pass cache keys, pass by pass, must equal those of the
hand-synchronised pipelines frozen in ``trial_reference.py``, so warm
pass caches, whole-compile entries and committed leaderboards all stay
valid.
"""

import pytest

from repro.circuits.random import random_circuit
from repro.compiler.cache import CompileCache
from repro.compiler.compile import _build_pipeline, _compile_key, _prefix, _stock_trials
from repro.compiler.passes.base import circuit_cache_fingerprint
from repro.compiler.search import PassConfig, stock_configs
from repro.hardware import make_q20a, make_zoo_device

from . import trial_reference as reference

SEEDS = (0, 3, 17, 1234)
NUM_TRIALS = (1, 2, 3, 4, 6)


@pytest.fixture(scope="module", params=["q20a", "heavy_hex"])
def device(request):
    if request.param == "q20a":
        return make_q20a()
    return make_zoo_device(request.param, 16, seed=1)


def keys(pipeline):
    return [(type(pass_).__name__, pass_.cache_key()) for pass_ in pipeline]


def all_keys(pipelines):
    return [keys(pipeline) for pipeline in pipelines]


@pytest.mark.parametrize("keep_final_rz", [False, True])
@pytest.mark.parametrize("seed", SEEDS)
def test_level2_pipeline_matches_reference(device, seed, keep_final_rz):
    assert keys(_build_pipeline(device, 2, seed, keep_final_rz)) == keys(
        reference.level2_pipeline(device, seed, keep_final_rz)
    )


@pytest.mark.parametrize("keep_final_rz", [False, True])
@pytest.mark.parametrize("num_trials", NUM_TRIALS)
@pytest.mark.parametrize("seed", SEEDS)
def test_level3_trials_match_reference(device, seed, num_trials, keep_final_rz):
    built = [_prefix()] + _stock_trials(device, seed, keep_final_rz, num_trials)
    assert all_keys(built) == all_keys(
        reference.level3_pipelines(device, seed, keep_final_rz, num_trials)
    )


@pytest.mark.parametrize("num_trials", NUM_TRIALS)
def test_whole_compile_keys_match_reference(device, num_trials):
    """``_compile_key`` hashes the same pass keys the frozen pipelines give."""
    circuit = random_circuit(4, 8, seed=num_trials, measure=True)
    cache = CompileCache()
    for seed in SEEDS:
        for keep_final_rz in (False, True):
            for level in (2, 3):
                if level == 2:
                    pipelines = [reference.level2_pipeline(device, seed, keep_final_rz)]
                else:
                    pipelines = reference.level3_pipelines(
                        device, seed, keep_final_rz, num_trials
                    )
                pass_keys = tuple(
                    tuple(pass_.cache_key() for pass_ in pipeline)
                    for pipeline in pipelines
                )
                key = _compile_key(
                    cache, circuit, device, level, seed, keep_final_rz, num_trials
                )
                assert key[:6] == (
                    "compile",
                    circuit_cache_fingerprint(circuit),
                    level,
                    keep_final_rz,
                    num_trials,
                    hash(pass_keys),
                )


def _configs():
    """Every ``stock_configs(4)`` row and each of its ``neighbors(4)``,
    plus a lookahead-free config (two ladder steps from stock)."""
    configs = [PassConfig(layout="line", lookahead_size=0, opt_iterations=2)]
    for config in stock_configs(4):
        configs.append(config)
        configs.extend(config.neighbors(4))
    return configs


@pytest.mark.parametrize("keep_final_rz", [False, True])
@pytest.mark.parametrize("seed", SEEDS)
def test_search_configs_match_reference(device, seed, keep_final_rz):
    configs = _configs()
    assert {config.layout for config in configs} == {"greedy", "trivial", "line"}
    assert any(config.lookahead_size == 0 for config in configs)
    for config in configs:
        assert keys(config.passes(device, seed, keep_final_rz)) == keys(
            reference.config_passes(config, device, seed, keep_final_rz)
        ), config


@pytest.mark.parametrize("num_trials", NUM_TRIALS)
def test_stock_configs_are_the_level3_trials(device, num_trials):
    configs = stock_configs(num_trials)
    assert len(configs) == num_trials
    for seed in SEEDS:
        for keep_final_rz in (False, True):
            trials = reference._trial_suffixes(device, seed, keep_final_rz, num_trials)
            assert [
                keys(config.passes(device, seed, keep_final_rz)) for config in configs
            ] == all_keys(trials)


def test_pass_config_rejects_unknown_layout():
    with pytest.raises(ValueError, match="layout"):
        PassConfig(layout="spiral")
