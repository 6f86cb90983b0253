"""Device calibration data and the staleness (drift) model.

A :class:`Calibration` snapshot stores everything the established
hardware-aware figures of merit consume: per-qubit single-qubit gate
fidelities, per-edge two-qubit gate fidelities, readout fidelities,
T1/T2 relaxation times, and operation durations.

The paper observes that ESP correlates *worse* than expected fidelity and
attributes it to "possibly outdated T1, T2 times" (Section V-B).  We model
this directly: a device carries a *true* calibration (used by the noisy
executor) and a *reported* snapshot produced by :func:`drift_calibration`,
which perturbs fidelities mildly and relaxation times strongly — exactly the
asymmetry that penalizes ESP's extra term.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Tuple

import numpy as np

from .coupling import CouplingMap, Edge


@dataclass
class GateDurations:
    """Operation durations in nanoseconds."""

    one_qubit: float = 40.0
    two_qubit: float = 120.0
    readout: float = 1000.0

    def of(self, num_qubits: int, is_measure: bool) -> float:
        if is_measure:
            return self.readout
        return self.one_qubit if num_qubits == 1 else self.two_qubit


@dataclass
class Calibration:
    """One calibration snapshot of a device.

    Attributes:
        one_qubit_fidelity: per-qubit average single-qubit gate fidelity.
        two_qubit_fidelity: per-edge two-qubit (CZ) gate fidelity.
        readout_fidelity: per-qubit readout assignment fidelity
            (probability the measured bit equals the pre-measurement state).
        t1: per-qubit T1 relaxation time in nanoseconds.
        t2: per-qubit T2 dephasing time in nanoseconds.
        durations: operation durations.
        timestamp: arbitrary label for bookkeeping (e.g. "true", "stale").
    """

    one_qubit_fidelity: Dict[int, float]
    two_qubit_fidelity: Dict[Edge, float]
    readout_fidelity: Dict[int, float]
    t1: Dict[int, float]
    t2: Dict[int, float]
    durations: GateDurations = field(default_factory=GateDurations)
    timestamp: str = "true"

    def __post_init__(self) -> None:
        for name, table in (
            ("one_qubit_fidelity", self.one_qubit_fidelity),
            ("readout_fidelity", self.readout_fidelity),
        ):
            for qubit, value in table.items():
                if not 0.0 < value <= 1.0:
                    raise ValueError(f"{name}[{qubit}] = {value} outside (0, 1]")
        for edge, value in self.two_qubit_fidelity.items():
            if not 0.0 < value <= 1.0:
                raise ValueError(f"two_qubit_fidelity[{edge}] = {value} outside (0, 1]")
            if edge != tuple(sorted(edge)):
                raise ValueError(f"edge {edge} must be sorted (low, high)")
        for table_name, table in (("t1", self.t1), ("t2", self.t2)):
            for qubit, value in table.items():
                if value <= 0:
                    raise ValueError(f"{table_name}[{qubit}] = {value} must be > 0")

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------

    def edge_fidelity(self, a: int, b: int) -> float:
        """Two-qubit gate fidelity along the (unordered) edge ``(a, b)``."""
        return self.two_qubit_fidelity[tuple(sorted((a, b)))]

    def min_relaxation(self, qubit: int) -> float:
        """``min(T1, T2)`` for the ESP decay factor."""
        return min(self.t1[qubit], self.t2[qubit])

    def mean_two_qubit_fidelity(self) -> float:
        values = list(self.two_qubit_fidelity.values())
        return float(np.mean(values)) if values else 1.0

    def mean_readout_fidelity(self) -> float:
        values = list(self.readout_fidelity.values())
        return float(np.mean(values)) if values else 1.0

    def content_key(self) -> Tuple:
        """The snapshot's content: every table's sorted items and the
        durations, without the bookkeeping timestamp.

        Every device key is derived from this one encoding.  It is built
        afresh on each call, never memoized, so an in-place edit of a
        table changes the key.
        """
        durations = self.durations
        return (
            tuple(sorted(self.one_qubit_fidelity.items())),
            tuple(sorted(self.two_qubit_fidelity.items())),
            tuple(sorted(self.readout_fidelity.items())),
            tuple(sorted(self.t1.items())),
            tuple(sorted(self.t2.items())),
            (durations.one_qubit, durations.two_qubit, durations.readout),
        )

    def copy(self, timestamp: str | None = None) -> "Calibration":
        return Calibration(
            one_qubit_fidelity=dict(self.one_qubit_fidelity),
            two_qubit_fidelity=dict(self.two_qubit_fidelity),
            readout_fidelity=dict(self.readout_fidelity),
            t1=dict(self.t1),
            t2=dict(self.t2),
            durations=replace(self.durations),
            timestamp=timestamp or self.timestamp,
        )


def random_calibration(
    coupling: CouplingMap,
    rng: np.random.Generator,
    one_qubit_fidelity: Tuple[float, float] = (0.9985, 0.9998),
    two_qubit_fidelity: Tuple[float, float] = (0.975, 0.995),
    readout_fidelity: Tuple[float, float] = (0.95, 0.99),
    t1_us: Tuple[float, float] = (25.0, 60.0),
    t2_us: Tuple[float, float] = (8.0, 40.0),
    durations: GateDurations | None = None,
) -> Calibration:
    """Draw a heterogeneous but realistic calibration for ``coupling``.

    Ranges default to values typical of 20-qubit superconducting devices
    (IQM Q20 series ballpark).  T1/T2 are stored in nanoseconds.
    """
    n = coupling.num_qubits
    t2_raw = rng.uniform(t2_us[0] * 1e3, t2_us[1] * 1e3, size=n)
    t1_raw = rng.uniform(t1_us[0] * 1e3, t1_us[1] * 1e3, size=n)
    # Physical constraint: T2 <= 2 * T1.
    t2_raw = np.minimum(t2_raw, 2.0 * t1_raw)
    return Calibration(
        one_qubit_fidelity={
            q: float(rng.uniform(*one_qubit_fidelity)) for q in range(n)
        },
        two_qubit_fidelity={
            edge: float(rng.uniform(*two_qubit_fidelity))
            for edge in coupling.edges
        },
        readout_fidelity={
            q: float(rng.uniform(*readout_fidelity)) for q in range(n)
        },
        t1={q: float(t1_raw[q]) for q in range(n)},
        t2={q: float(t2_raw[q]) for q in range(n)},
        durations=durations or GateDurations(),
        timestamp="true",
    )


def drift_calibration(
    calibration: Calibration,
    rng: np.random.Generator,
    fidelity_drift: float = 0.3,
    relaxation_drift: float = 0.6,
    duration_drift: float = 0.0,
) -> Calibration:
    """Produce a *stale* snapshot that has drifted away from the truth.

    Fidelity infidelities — single-qubit, two-qubit, *and* readout
    assignment — are rescaled by ``lognormal(0, fidelity_drift)`` (mild
    mis-estimation), while T1/T2 are rescaled by
    ``lognormal(0, relaxation_drift)`` (strong mis-estimation).  Relaxation
    times drift hardest because they are measured least often on real
    hardware — this is the mechanism behind the paper's observation that
    ESP underperforms plain expected fidelity.

    Durations do NOT drift by default: they are control-stack settings,
    not measured quantities, so a stale report still states them exactly.
    ``duration_drift > 0`` opts into modelling a retuned pulse schedule
    (each duration rescaled by ``lognormal(0, duration_drift)``).  The
    extra draws happen after all fidelity/relaxation draws, so the default
    keeps the RNG stream — and every downstream reported calibration —
    byte-identical to older revisions.
    """
    if fidelity_drift < 0 or relaxation_drift < 0 or duration_drift < 0:
        raise ValueError("drift magnitudes must be non-negative")

    def drift_fidelity(value: float) -> float:
        infidelity = (1.0 - value) * float(rng.lognormal(0.0, fidelity_drift))
        return float(np.clip(1.0 - infidelity, 0.5, 1.0))

    def drift_time(value: float) -> float:
        return float(value * rng.lognormal(0.0, relaxation_drift))

    stale = Calibration(
        one_qubit_fidelity={
            q: drift_fidelity(v) for q, v in calibration.one_qubit_fidelity.items()
        },
        two_qubit_fidelity={
            e: drift_fidelity(v) for e, v in calibration.two_qubit_fidelity.items()
        },
        readout_fidelity={
            q: drift_fidelity(v) for q, v in calibration.readout_fidelity.items()
        },
        t1={q: drift_time(v) for q, v in calibration.t1.items()},
        t2={q: drift_time(v) for q, v in calibration.t2.items()},
        durations=replace(calibration.durations),
        timestamp="stale",
    )
    if duration_drift > 0:
        base = calibration.durations
        stale.durations = GateDurations(
            one_qubit=float(base.one_qubit * rng.lognormal(0.0, duration_drift)),
            two_qubit=float(base.two_qubit * rng.lognormal(0.0, duration_drift)),
            readout=float(base.readout * rng.lognormal(0.0, duration_drift)),
        )
    return stale


def drift_walk(
    calibration: Calibration,
    rng: np.random.Generator,
    steps: int,
    fidelity_drift: float = 0.3,
    relaxation_drift: float = 0.6,
    duration_drift: float = 0.0,
) -> "list[Calibration]":
    """Iterate the drift map: a stochastic walk over calibration snapshots.

    Returns ``steps`` snapshots where snapshot ``k`` is
    :func:`drift_calibration` applied ``k + 1`` times from ``calibration``
    (the drift-study analogue of the paper's iterated Hopf-square Markov
    dynamics: what matters is the trajectory under repeated application,
    not a single perturbation).  Infidelity clipping to ``[0, 0.5]``
    bounds the walk; T1/T2 random-walk multiplicatively.  Timestamps are
    ``"drift-1"``, ``"drift-2"``, ...
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    snapshots = []
    current = calibration
    for k in range(steps):
        current = drift_calibration(
            current,
            rng,
            fidelity_drift=fidelity_drift,
            relaxation_drift=relaxation_drift,
            duration_drift=duration_drift,
        )
        current.timestamp = f"drift-{k + 1}"
        snapshots.append(current)
    return snapshots
