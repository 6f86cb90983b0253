"""FROZEN reference copy of the trial pipelines as of 909f677.

Do not edit (beyond these header lines and absolute imports): the
cache-key tests compare the one trial builder in
``repro/compiler/compile.py`` against this verbatim snapshot of the two
hand-synchronised copies it replaced — the level-3 ``_trial_suffixes``
(with the ``_layout_pass`` and ``_trial_suffix`` it called), the level-2
branch of ``_build_pipeline`` and ``PassConfig.passes`` (here a function
of the config) — the same pattern ``tests/ml/reference_impl.py`` and
``tests/evaluation/persistence_reference.py`` use.
"""

from __future__ import annotations

from typing import List

from repro.compiler.passes.base import Pass
from repro.compiler.passes.decompose import Decompose
from repro.compiler.passes.layout import GreedySubgraphLayout, LineLayout, TrivialLayout
from repro.compiler.passes.optimization import OptimizationLoop
from repro.compiler.passes.routing import SabreRouting
from repro.compiler.passes.synthesis import NativeSynthesis, VirtualRZ
from repro.hardware.device import Device


def _layout_pass(
    device: Device, optimization_level: int, seed: int, layout: str | None
) -> Pass:
    coupling = device.coupling
    if layout == "line":
        return LineLayout(coupling)
    if layout == "trivial" or (layout is None and optimization_level <= 1):
        return TrivialLayout(coupling)
    return GreedySubgraphLayout(coupling, seed=seed)


def _trial_suffix(
    device: Device, seed: int, keep_final_rz: bool,
    layout: str | None, routing_seed: int,
) -> List[Pass]:
    """The trial-varying tail of the level-2/3 pipeline (post-"body")."""
    return [
        _layout_pass(device, 2, seed, layout),
        SabreRouting(device.coupling, seed=routing_seed, lookahead=True),
        Decompose(),
        OptimizationLoop(),
        NativeSynthesis(),
        VirtualRZ(keep_final_rz=keep_final_rz),
    ]


def _trial_suffixes(
    device: Device, seed: int, keep_final_rz: bool, num_trials: int
) -> List[List[Pass]]:
    """The level-3 trials: a greedy, trivial and line layout, then more
    greedy ones, each with its own layout and routing seed."""
    layouts = ["greedy", "trivial", "line"] + ["greedy"] * max(0, num_trials - 3)
    suffixes = []
    for trial in range(num_trials):
        layout = layouts[trial % len(layouts)]
        suffixes.append(_trial_suffix(
            device, seed + trial, keep_final_rz,
            layout if layout != "greedy" else None,
            routing_seed=seed * 1000 + trial,
        ))
    return suffixes


def level2_pipeline(device: Device, seed: int, keep_final_rz: bool) -> List[Pass]:
    """The level-2 branch of ``_build_pipeline``."""
    # Level 3 runs several trials of level 2's suffix.
    return [Decompose(), OptimizationLoop()] + _trial_suffix(
        device, seed, keep_final_rz, None, routing_seed=seed
    )


def level3_pipelines(
    device: Device, seed: int, keep_final_rz: bool, num_trials: int
) -> List[List[Pass]]:
    """The level-3 prefix, then every trial suffix (``_compile_key``'s order)."""
    return [[Decompose(), OptimizationLoop()]] + _trial_suffixes(
        device, seed, keep_final_rz, num_trials
    )


def config_passes(
    config, device: Device, seed: int, keep_final_rz: bool
) -> List[Pass]:
    """``PassConfig.passes`` of ``config``."""
    return [
        _layout_pass(
            device, 2, seed + config.layout_seed_offset,
            None if config.layout == "greedy" else config.layout,
        ),
        SabreRouting(
            device.coupling,
            seed=seed * 1000 + config.routing_seed_offset,
            lookahead=config.lookahead_size > 0,
            lookahead_size=config.lookahead_size,
        ),
        Decompose(),
        OptimizationLoop(max_iterations=config.opt_iterations),
        NativeSynthesis(),
        VirtualRZ(keep_final_rz=keep_final_rz),
    ]
