"""Device model: topology + native gates + calibration (true and reported).

A :class:`Device` bundles everything the compiler and the noisy executor
need.  The *true* calibration drives the executor's error channel; the
*reported* calibration is what figure-of-merit computations see — mirroring
real QPU operation, where published calibration data lags behind the
hardware's actual state.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field
from typing import FrozenSet, Tuple

import numpy as np

from .calibration import Calibration, drift_calibration, random_calibration
from .coupling import CouplingMap

#: Native gate set of IQM crystal devices: phased-RX plus CZ.
IQM_NATIVE_GATES = frozenset({"prx", "rz", "cz", "measure", "barrier"})


@dataclass
class NoiseProfile:
    """Parameters of the executor's noise channel beyond plain calibration.

    Attributes:
        crosstalk_two_two: extra error added to a two-qubit gate per
            *simultaneously executing* two-qubit gate on an adjacent edge.
        crosstalk_two_one: extra error added per simultaneous single-qubit
            gate on a neighbouring qubit.
        coherent_strength: magnitude of the coherent (shape-distorting)
            component of the error distribution.
        scramble_locality: fraction of error mass that stays "near" the true
            distribution (bit-flip scrambled) rather than going to the
            decayed background.
        garbage_one_bias: probability that a bit reads 1 in the fully
            decohered background distribution.  Values below 0.5 model the
            amplitude-damping pull towards ``|0...0>`` that real
            superconducting devices show.
        readout_asymmetry: excess probability of 1 -> 0 readout decay
            relative to 0 -> 1 excitation errors.
        shot_noise: executors always sample finitely; kept here for clarity.
    """

    crosstalk_two_two: float = 0.004
    crosstalk_two_one: float = 0.001
    coherent_strength: float = 0.1
    scramble_locality: float = 0.5
    garbage_one_bias: float = 0.35
    readout_asymmetry: float = 2.0
    shot_noise: bool = True


@dataclass
class Device:
    """A compilation and execution target."""

    name: str
    coupling: CouplingMap
    true_calibration: Calibration
    reported_calibration: Calibration
    native_gates: FrozenSet[str] = field(default_factory=lambda: IQM_NATIVE_GATES)
    noise: NoiseProfile = field(default_factory=NoiseProfile)

    @property
    def num_qubits(self) -> int:
        return self.coupling.num_qubits

    @property
    def routing_tables(self):
        """Precomputed routing lookup tables, cached per topology.

        Distance matrix, adjacency matrix, and neighbour lists are shared
        by every layout/routing trial that targets this device (see
        :class:`~repro.hardware.coupling.RoutingTables`).
        """
        return self.coupling.routing_tables()

    def content_key(self) -> Tuple:
        """Everything the compiler and the executor read off this device.

        The name, the topology's memoized fingerprint, the sorted native
        gates, both calibrations' content keys and the noise parameters.
        The executor's profile memo and the on-disk device fingerprint
        are keyed by it.
        """
        return (
            self.name,
            self.coupling.fingerprint(),
            tuple(sorted(self.native_gates)),
            self.reported_calibration.content_key(),
            self.true_calibration.content_key(),
            astuple(self.noise),
        )

    def supports(self, gate_name: str) -> bool:
        return gate_name in self.native_gates

    def validate_circuit(self, circuit) -> None:
        """Raise ``ValueError`` if the circuit is not executable on this device."""
        if circuit.num_qubits > self.num_qubits:
            raise ValueError(
                f"circuit uses {circuit.num_qubits} qubits, device has "
                f"{self.num_qubits}"
            )
        for instruction in circuit.instructions:
            if instruction.name == "barrier":
                continue
            if not self.supports(instruction.name):
                raise ValueError(
                    f"gate '{instruction.name}' is not native to {self.name} "
                    f"(native: {sorted(self.native_gates)})"
                )
            if instruction.num_qubits == 2 and not self.coupling.has_edge(
                *instruction.qubits
            ):
                raise ValueError(
                    f"two-qubit gate on non-adjacent qubits {instruction.qubits}"
                )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Device({self.name!r}, qubits={self.num_qubits}, "
            f"edges={len(self.coupling.edges)})"
        )


def make_device(
    name: str,
    coupling: CouplingMap,
    seed: int,
    noise: NoiseProfile | None = None,
    native_gates: FrozenSet[str] = IQM_NATIVE_GATES,
    fidelity_drift: float = 0.3,
    relaxation_drift: float = 0.6,
    **calibration_ranges,
) -> Device:
    """Create a device with a random true calibration and a drifted snapshot."""
    rng = np.random.default_rng(seed)
    true_cal = random_calibration(coupling, rng, **calibration_ranges)
    reported = drift_calibration(
        true_cal, rng,
        fidelity_drift=fidelity_drift,
        relaxation_drift=relaxation_drift,
    )
    return Device(
        name=name,
        coupling=coupling,
        true_calibration=true_cal,
        reported_calibration=reported,
        native_gates=native_gates,
        noise=noise or NoiseProfile(),
    )
