"""The 30-dimensional, depth-independent circuit feature vector (Section IV-B).

The proposed figure of merit trains on a fixed-size vectorized circuit
representation that requires *no calibration data*.  Following the paper
(which builds on the MQT Predictor encoding [40] and the SupermarQ feature
suite [41]), the vector contains:

* the hardware-agnostic established metrics (gate counts, circuit depth),
* **liveness** — how actively qubits are utilized,
* **parallelism** — operational concurrency per layer,
* **directed program communication** — the ratio between actual and maximal
  average node degree of the circuit's *directed* interaction graph,
* **gate ratios** — the circuit's operational density,
* interaction-graph statistics and other structural features.

Every feature is a plain float, its size independent of circuit depth.
:data:`FEATURE_NAMES` fixes the ordering; :data:`FEATURE_GROUPS` maps each
feature to one of the seven categories of the paper's Fig. 3.

This module is the serving hot path: :class:`~repro.predictor.service.FomService`
featurizes every circuit it scores.  :func:`feature_dict` therefore makes
**one traversal** of the instruction list — a single loop simultaneously
tallies gate counts, advances the depth frontier, assigns ASAP layer levels
(reproducing :meth:`repro.circuits.dag.CircuitDag.layers` without building
DAG nodes), collects interaction-graph edges, and tracks the critical path
— and every per-layer / per-qubit statistic is then reduced with numpy on
the arrays that traversal filled.  Interaction-graph degree and clustering
statistics come from a dense adjacency matrix rather than a per-circuit
``networkx`` graph, which keeps the extractor dependency-free (``networkx``
is now a test-only extra used to cross-check these stats).  Numerical
equivalence with the original multi-pass implementation is pinned to
<= 1e-12 by golden tests against the frozen copy in
``tests/fom/reference_features.py``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

import numpy as np

from ..circuits.circuit import QuantumCircuit
from ..parallel import parallel_map

#: Feature ordering of the vector (length 30).
FEATURE_NAMES: List[str] = [
    # Gate counts (5)
    "total_gates",
    "one_qubit_gates",
    "two_qubit_gates",
    "measurement_count",
    "gates_per_qubit",
    # Circuit depth (3)
    "depth",
    "depth_per_qubit",
    "weighted_depth",
    # Gate ratios (4)
    "two_qubit_ratio",
    "one_qubit_ratio",
    "gate_density",
    "two_qubit_density",
    # Liveness (5)
    "liveness",
    "liveness_std",
    "liveness_min",
    "idle_streak_max",
    "idle_streak_mean",
    # Parallelism (5)
    "parallelism",
    "mean_layer_occupancy",
    "max_layer_occupancy",
    "parallel_two_qubit_fraction",
    "max_simultaneous_two_qubit",
    # Directed program communication (5)
    "directed_communication",
    "undirected_communication",
    "interaction_degree_max",
    "interaction_degree_mean",
    "interaction_clustering",
    # Other (3)
    "active_qubits",
    "entanglement_ratio",
    "critical_two_qubit_fraction",
]

#: Fig. 3 category of every feature.
FEATURE_GROUPS: Dict[str, str] = {
    "total_gates": "Gate counts",
    "one_qubit_gates": "Gate counts",
    "two_qubit_gates": "Gate counts",
    "measurement_count": "Gate counts",
    "gates_per_qubit": "Gate counts",
    "depth": "Circuit depth",
    "depth_per_qubit": "Circuit depth",
    "weighted_depth": "Circuit depth",
    "two_qubit_ratio": "Gate ratios",
    "one_qubit_ratio": "Gate ratios",
    "gate_density": "Gate ratios",
    "two_qubit_density": "Gate ratios",
    "liveness": "Liveness",
    "liveness_std": "Liveness",
    "liveness_min": "Liveness",
    "idle_streak_max": "Liveness",
    "idle_streak_mean": "Liveness",
    "parallelism": "Parallelism",
    "mean_layer_occupancy": "Parallelism",
    "max_layer_occupancy": "Parallelism",
    "parallel_two_qubit_fraction": "Parallelism",
    "max_simultaneous_two_qubit": "Parallelism",
    "directed_communication": "Dir. prog. comm.",
    "undirected_communication": "Dir. prog. comm.",
    "interaction_degree_max": "Dir. prog. comm.",
    "interaction_degree_mean": "Dir. prog. comm.",
    "interaction_clustering": "Dir. prog. comm.",
    "active_qubits": "Other features",
    "entanglement_ratio": "Other features",
    "critical_two_qubit_fraction": "Other features",
}

#: Category display order of Fig. 3.
GROUP_ORDER = [
    "Liveness",
    "Gate ratios",
    "Dir. prog. comm.",
    "Parallelism",
    "Gate counts",
    "Circuit depth",
    "Other features",
]

NUM_FEATURES = len(FEATURE_NAMES)


def feature_vector(circuit: QuantumCircuit) -> np.ndarray:
    """Compute the 30-dim feature vector of a (compiled) circuit."""
    values = feature_dict(circuit)
    return np.array([values[name] for name in FEATURE_NAMES], dtype=float)


def feature_dict(circuit: QuantumCircuit) -> Dict[str, float]:
    """Compute all features as a name -> value dict, in one traversal.

    The loop below is the only place the instruction list is iterated;
    everything downstream reduces the arrays it filled.  Four concerns are
    interleaved per instruction:

    * **tallies** — gate counts, interaction edges, entangled qubits;
    * **depth frontier** — per-qubit/clbit levels reproducing
      :meth:`QuantumCircuit.depth` (measurements occupy a level);
    * **layer levels** — ASAP levels reproducing
      ``CircuitDag.layers(include_directives=False)``: barriers and
      measurements constrain ordering but occupy no layer;
    * **critical path** — per-node chain lengths reproducing
      ``CircuitDag.critical_path`` (including its exact tie-breaking, so
      the two-qubit fraction matches the reference bit for bit).
    """
    num_qubits = circuit.num_qubits
    num_instructions = len(circuit.instructions)

    total = one_q = two_q = measures = 0

    # Depth frontier (QuantumCircuit.depth semantics, measurements counted).
    depth_frontier = [0] * max(num_qubits, 1)
    cl_frontier = [0] * max(circuit.num_clbits, 1)
    depth = 0

    # ASAP layer levels (CircuitDag.layers(include_directives=False)).
    qubit_level = [-1] * num_qubits
    clbit_level = [-1] * max(circuit.num_clbits, 1)
    max_level = -1
    gate_levels: List[int] = []      # one entry per layered gate
    gate_widths: List[int] = []      # its qubit count
    busy_qubits: List[int] = []      # gate qubits, level = repeat(gate_levels)

    entangled: set = set()
    directed_edges: set = set()
    undirected_edges: set = set()

    # Critical path (CircuitDag.critical_path semantics: chains do not
    # cross barriers, ties resolve in predecessor-set iteration order).
    last_on_qubit = [-1] * max(num_qubits, 1)
    last_on_clbit = [-1] * max(circuit.num_clbits, 1)
    chain_len = [0] * num_instructions    # barriers keep 0, as in the DAG
    chain_parent = [-1] * num_instructions
    best_len, best_end = -1, -1

    for index, instruction in enumerate(circuit.instructions):
        qubits = instruction.qubits
        name = instruction.name

        if name == "barrier":
            # Ordering constraint only: propagate the predecessors' layer
            # level, take no part in depth, tallies, or the critical path.
            pred_level = -1
            for q in qubits:
                if qubit_level[q] > pred_level:
                    pred_level = qubit_level[q]
            for q in qubits:
                qubit_level[q] = pred_level
                last_on_qubit[q] = index
            continue

        is_measure = name == "measure"
        clbits = instruction.clbits

        # Critical path: candidate predecessors in the same insertion
        # order as CircuitDag's per-node sets, so the set iteration (and
        # with it the tie-break between equal-length chains) is identical.
        # The one-predecessor case (most gates) skips the set entirely.
        cands: List[int] = []
        for q in qubits:
            p = last_on_qubit[q]
            if p >= 0:
                cands.append(p)
        for c in clbits:
            p = last_on_clbit[c]
            if p >= 0:
                cands.append(p)
        node_len, node_parent = 1, -1
        if len(cands) == 1:
            cand = chain_len[cands[0]]
            if cand:
                node_len, node_parent = cand + 1, cands[0]
        else:
            for p in set(cands):
                cand = chain_len[p]
                if cand + 1 > node_len:
                    node_len, node_parent = cand + 1, p
        chain_len[index] = node_len
        chain_parent[index] = node_parent
        if node_len > best_len:
            best_len, best_end = node_len, index

        # Depth frontier and layer level, in one sweep over the operands.
        level = 0
        pred_level = -1
        for q in qubits:
            if depth_frontier[q] > level:
                level = depth_frontier[q]
            if qubit_level[q] > pred_level:
                pred_level = qubit_level[q]
        for c in clbits:
            if cl_frontier[c] > level:
                level = cl_frontier[c]
            if clbit_level[c] > pred_level:
                pred_level = clbit_level[c]
        level += 1
        if level > depth:
            depth = level

        # Layer level: measures inherit their predecessors' level
        # (ordering constraint only); gates open or join a layer.
        my_level = pred_level if is_measure else pred_level + 1

        if is_measure:
            measures += 1
        else:
            total += 1
            width = len(qubits)
            gate_levels.append(my_level)
            gate_widths.append(width)
            if my_level > max_level:
                max_level = my_level
            if width == 1:
                one_q += 1
            else:
                two_q += 1
                entangled.update(qubits)
                if width == 2:
                    a, b = qubits
                    directed_edges.add((a, b))
                    undirected_edges.add((a, b) if a <= b else (b, a))
            busy_qubits.extend(qubits)

        for q in qubits:
            depth_frontier[q] = level
            qubit_level[q] = my_level
            last_on_qubit[q] = index
        for c in clbits:
            cl_frontier[c] = level
            clbit_level[c] = my_level
            last_on_clbit[c] = index

    # Active = touched by any non-barrier operation = has a depth level.
    active = [q for q in range(num_qubits) if depth_frontier[q] > 0]
    n_active = max(len(active), 1)
    real_layers = max_level + 1
    n_layers = max(real_layers, 1)

    features: Dict[str, float] = {
        "total_gates": float(total),
        "one_qubit_gates": float(one_q),
        "two_qubit_gates": float(two_q),
        "measurement_count": float(measures),
        "gates_per_qubit": total / n_active,
        "depth": float(depth),
        "depth_per_qubit": depth / n_active,
        "two_qubit_ratio": two_q / max(total, 1),
        "one_qubit_ratio": one_q / max(total, 1),
        "gate_density": total / (n_layers * n_active),
        "two_qubit_density": two_q / (n_layers * n_active),
        "active_qubits": float(len(active)),
        # Entangled qubits all carry gates, so they are a subset of active.
        "entanglement_ratio": len(entangled) / len(active) if active else 0.0,
        "critical_two_qubit_fraction": _critical_two_qubit_fraction(
            circuit, chain_parent, best_end
        ),
    }
    features.update(
        _liveness_stats(
            busy_qubits, gate_levels, gate_widths, active, real_layers
        )
    )
    parallel_stats = _parallelism_stats(
        gate_levels, gate_widths, real_layers, n_active, total
    )
    features["weighted_depth"] = parallel_stats.pop("_weighted_depth")
    features.update(parallel_stats)
    features.update(
        _communication_stats(directed_edges, undirected_edges, n_active)
    )
    return features


def _critical_two_qubit_fraction(
    circuit: QuantumCircuit, chain_parent: List[int], best_end: int
) -> float:
    """Fraction of operations on the critical path that are two-qubit gates."""
    if best_end < 0:
        return 0.0
    path: List[int] = []
    cursor = best_end
    while cursor != -1:
        path.append(cursor)
        cursor = chain_parent[cursor]
    instructions = circuit.instructions
    two_q = sum(
        1 for index in path
        if instructions[index].num_qubits >= 2 and instructions[index].is_unitary
    )
    return two_q / len(path)


def _liveness_stats(
    busy_qubits: List[int],
    gate_levels: List[int],
    gate_widths: List[int],
    active: List[int],
    n_layers: int,
) -> Dict[str, float]:
    """SupermarQ liveness: per-qubit fraction of layers in which it is busy."""
    if n_layers == 0 or not active:
        return {
            "liveness": 0.0,
            "liveness_std": 0.0,
            "liveness_min": 0.0,
            "idle_streak_max": 0.0,
            "idle_streak_mean": 0.0,
        }
    row_of = np.zeros(max(active) + 1, dtype=np.intp)
    row_of[active] = np.arange(len(active))
    busy = np.zeros((len(active), n_layers), dtype=bool)
    busy_levels = np.repeat(gate_levels, gate_widths)
    busy[row_of[busy_qubits], busy_levels] = True
    fractions = busy.mean(axis=1)
    streaks = np.empty(len(active))
    for row in range(len(active)):
        ticks = np.flatnonzero(busy[row])
        runs = np.diff(np.concatenate(([-1], ticks, [n_layers]))) - 1
        streaks[row] = runs.max() / n_layers
    return {
        "liveness": float(fractions.mean()),
        "liveness_std": float(fractions.std()),
        "liveness_min": float(fractions.min()),
        "idle_streak_max": float(streaks.max()),
        "idle_streak_mean": float(streaks.mean()),
    }


def _parallelism_stats(
    gate_levels: List[int],
    gate_widths: List[int],
    n_layers: int,
    n_active: int,
    total: int,
) -> Dict[str, float]:
    """SupermarQ parallelism plus layer-occupancy statistics.

    ``_weighted_depth`` rides along (the layer -> contains-a-2q-gate map is
    already in hand): depth where a layer containing a two-qubit gate costs
    3 time units — a calibration-free proxy for circuit duration.
    """
    if n_layers == 0:
        return {
            "parallelism": 0.0,
            "mean_layer_occupancy": 0.0,
            "max_layer_occupancy": 0.0,
            "parallel_two_qubit_fraction": 0.0,
            "max_simultaneous_two_qubit": 0.0,
            "_weighted_depth": 0.0,
        }
    if n_active > 1:
        parallelism = (total / n_layers - 1.0) / (n_active - 1.0)
        parallelism = float(np.clip(parallelism, 0.0, 1.0))
    else:
        parallelism = 0.0
    levels = np.asarray(gate_levels)
    widths = np.asarray(gate_widths)
    occupancy = np.bincount(levels, weights=widths, minlength=n_layers) / n_active
    layer_two_q = np.bincount(levels[widths >= 2], minlength=n_layers)
    total_two_q = int(layer_two_q.sum())
    parallel_two_q = int(layer_two_q[layer_two_q >= 2].sum())
    two_q_layers = int(np.count_nonzero(layer_two_q))
    max_pairs = max(n_active // 2, 1)
    return {
        "parallelism": parallelism,
        "mean_layer_occupancy": float(occupancy.mean()),
        "max_layer_occupancy": float(occupancy.max()),
        "parallel_two_qubit_fraction": (
            parallel_two_q / total_two_q if total_two_q else 0.0
        ),
        "max_simultaneous_two_qubit": float(layer_two_q.max()) / max_pairs,
        "_weighted_depth": 3.0 * two_q_layers + 1.0 * (n_layers - two_q_layers),
    }


def _communication_stats(
    directed_edges: set, undirected_edges: set, n_active: int
) -> Dict[str, float]:
    """Directed/undirected program communication and interaction-graph stats.

    Degree and clustering statistics are computed on a dense adjacency
    matrix over the interaction graph's nodes (qubits incident to at least
    one two-qubit gate, matching the node set of the ``networkx`` graph the
    original implementation built): ``diag(A^3)`` counts twice the
    triangles through each node, so the local clustering coefficient is
    ``diag(A^3) / (k * (k - 1))`` — the same integer ratio ``nx.clustering``
    evaluates.
    """
    if n_active <= 1:
        return {
            "directed_communication": 0.0,
            "undirected_communication": 0.0,
            "interaction_degree_max": 0.0,
            "interaction_degree_mean": 0.0,
            "interaction_clustering": 0.0,
        }
    max_directed = n_active * (n_active - 1)
    max_undirected = max_directed / 2
    stats = {
        "directed_communication": len(directed_edges) / max_directed,
        "undirected_communication": len(undirected_edges) / max_undirected,
        "interaction_degree_max": 0.0,
        "interaction_degree_mean": 0.0,
        "interaction_clustering": 0.0,
    }
    if not undirected_edges:
        return stats
    nodes = sorted({q for edge in undirected_edges for q in edge})
    index_of = {q: i for i, q in enumerate(nodes)}
    adjacency = np.zeros((len(nodes), len(nodes)), dtype=np.int64)
    for a, b in undirected_edges:
        adjacency[index_of[a], index_of[b]] = 1
        adjacency[index_of[b], index_of[a]] = 1
    degrees = adjacency.sum(axis=1)
    paths3 = np.diagonal(adjacency @ adjacency @ adjacency)
    pairs = degrees * (degrees - 1)
    clustering = np.where(pairs > 0, paths3 / np.maximum(pairs, 1), 0.0)
    stats["interaction_degree_max"] = int(degrees.max()) / (n_active - 1)
    stats["interaction_degree_mean"] = float(degrees.mean()) / (n_active - 1)
    stats["interaction_clustering"] = float(clustering.mean())
    return stats


def feature_matrix(
    circuits: Iterable[QuantumCircuit],
    max_workers: Optional[int] = 1,
) -> np.ndarray:
    """Stack feature vectors of many circuits into an ``(M, 30)`` matrix.

    ``max_workers`` fans the per-circuit extraction over
    :func:`repro.parallel.parallel_map` (``None``: one worker per CPU; the
    signature default stays sequential because extraction is cheap per
    circuit).  Extraction is pure Python and GIL-bound, so a pooled run
    uses the process pool, which scales with cores where threads cannot
    (:func:`feature_vector` is a module-level function, so it ships to
    workers directly).  The result is row-identical for every worker
    count.  An empty input yields an empty ``(0, 30)`` matrix.
    """
    circuits = list(circuits)
    if not circuits:
        return np.empty((0, NUM_FEATURES))
    return np.vstack(
        parallel_map(
            feature_vector,
            circuits,
            max_workers=max_workers,
            mode="process",
        )
    )
