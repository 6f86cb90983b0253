"""Probability distributions over measurement bitstrings.

The paper quantifies execution quality with the Hellinger distance between a
circuit's true (noiseless) distribution and the empirical distribution
observed on a QPU (Eq. 1).  This module provides that distance plus the
related distribution utilities used throughout the library.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Mapping

Distribution = Mapping[str, float]
Counts = Mapping[str, int]


def normalize(distribution: Distribution) -> Dict[str, float]:
    """Return a normalized copy (probabilities summing to one)."""
    total = float(sum(distribution.values()))
    if total <= 0:
        raise ValueError("distribution has non-positive total mass")
    return {k: v / total for k, v in distribution.items()}


def counts_to_distribution(counts: Counts) -> Dict[str, float]:
    """Convert integer counts to a normalized probability distribution."""
    total = sum(counts.values())
    if total <= 0:
        raise ValueError("counts are empty")
    return {k: v / total for k, v in counts.items()}


def validate_distribution(distribution: Distribution, atol: float = 1e-6) -> None:
    """Raise ``ValueError`` if probabilities are negative or don't sum to 1."""
    total = 0.0
    for key, prob in distribution.items():
        if prob < -atol:
            raise ValueError(f"negative probability {prob} for '{key}'")
        total += prob
    if not math.isclose(total, 1.0, abs_tol=max(atol, 1e-6)):
        raise ValueError(f"probabilities sum to {total}, expected 1")


def hellinger_distance(p: Distribution, q: Distribution) -> float:
    """Hellinger distance between two bitstring distributions (Eq. 1).

    ``d(P, Q) = (1/sqrt(2)) * sqrt( sum_i (sqrt(p_i) - sqrt(q_i))^2 )``
    lies in ``[0, 1]``: 0 for identical distributions, 1 for disjoint support.

    The accumulation runs in sorted-key order: float addition is not
    associative, and set iteration order follows the per-interpreter
    string-hash salt, so an unsorted sum differs in the last ulp between
    interpreters (enough to decohere downstream model training).
    """
    keys = sorted(set(p) | set(q))
    acc = 0.0
    for key in keys:
        acc += (math.sqrt(p.get(key, 0.0)) - math.sqrt(q.get(key, 0.0))) ** 2
    return min(1.0, math.sqrt(acc) / math.sqrt(2.0))


def hellinger_fidelity(p: Distribution, q: Distribution) -> float:
    """``(1 - d^2)^2`` — Qiskit's Hellinger fidelity, for cross-checks."""
    d2 = hellinger_distance(p, q) ** 2
    return (1.0 - d2) ** 2


def total_variation_distance(p: Distribution, q: Distribution) -> float:
    """Total variation distance ``0.5 * sum |p_i - q_i|`` in ``[0, 1]``.

    Summed in sorted-key order for hash-salt invariance (see
    :func:`hellinger_distance`).
    """
    keys = sorted(set(p) | set(q))
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


def bhattacharyya_coefficient(p: Distribution, q: Distribution) -> float:
    """Overlap ``sum sqrt(p_i q_i)`` in ``[0, 1]``.

    Summed in sorted-key order for hash-salt invariance (see
    :func:`hellinger_distance`).
    """
    keys = sorted(set(p) & set(q))
    return sum(math.sqrt(p[k] * q[k]) for k in keys)


def cross_entropy(p: Distribution, q: Distribution, epsilon: float = 1e-12) -> float:
    """Cross entropy ``-sum p_i log q_i`` with clipping for missing outcomes."""
    acc = 0.0
    for key, prob in p.items():
        if prob <= 0:
            continue
        acc -= prob * math.log(max(q.get(key, 0.0), epsilon))
    return acc


def shannon_entropy(p: Distribution) -> float:
    """Shannon entropy in bits."""
    acc = 0.0
    for prob in p.values():
        if prob > 0:
            acc -= prob * math.log2(prob)
    return acc


def uniform_distribution(num_bits: int) -> Dict[str, float]:
    """The uniform distribution over ``2**num_bits`` bitstrings."""
    dim = 1 << num_bits
    prob = 1.0 / dim
    return {format(i, f"0{num_bits}b"): prob for i in range(dim)}


def mix(p: Distribution, q: Distribution, weight_p: float) -> Dict[str, float]:
    """Convex mixture ``weight_p * P + (1 - weight_p) * Q``."""
    if not 0.0 <= weight_p <= 1.0:
        raise ValueError("weight_p must lie in [0, 1]")
    out: Dict[str, float] = {}
    for key, prob in p.items():
        out[key] = out.get(key, 0.0) + weight_p * prob
    for key, prob in q.items():
        out[key] = out.get(key, 0.0) + (1.0 - weight_p) * prob
    return out


def apply_bitflip_confusion(
    distribution: Distribution,
    p0_to_1: Iterable[float],
    p1_to_0: Iterable[float],
) -> Dict[str, float]:
    """Push a distribution through independent per-bit readout confusion.

    Bit ``c`` of a bitstring (right-most character is bit 0) flips
    ``0 -> 1`` with probability ``p0_to_1[c]`` and ``1 -> 0`` with
    probability ``p1_to_0[c]``.  Implemented as a sequence of single-bit
    channel applications, so cost is ``O(num_bits * support * 2)``.
    """
    p01 = list(p0_to_1)
    p10 = list(p1_to_0)
    current = dict(distribution)
    width = len(next(iter(current))) if current else 0
    if width and (len(p01) < width or len(p10) < width):
        raise ValueError("confusion probabilities shorter than bitstring width")
    for bit in range(width):
        pos = width - 1 - bit  # character position of bit `bit`
        nxt: Dict[str, float] = {}
        e01, e10 = p01[bit], p10[bit]
        for key, prob in current.items():
            if prob == 0.0:
                continue
            if key[pos] == "0":
                stay, flip = (1.0 - e01), e01
                flipped = key[:pos] + "1" + key[pos + 1:]
            else:
                stay, flip = (1.0 - e10), e10
                flipped = key[:pos] + "0" + key[pos + 1:]
            if stay:
                nxt[key] = nxt.get(key, 0.0) + prob * stay
            if flip:
                nxt[flipped] = nxt.get(flipped, 0.0) + prob * flip
        current = nxt
    return current


def marginalize(distribution: Distribution, keep_bits: Iterable[int]) -> Dict[str, float]:
    """Marginal distribution over the given bit indices (bit 0 = right-most)."""
    keep = sorted(set(keep_bits))
    out: Dict[str, float] = {}
    for key, prob in distribution.items():
        width = len(key)
        sub = "".join(key[width - 1 - b] for b in reversed(keep))
        out[sub] = out.get(sub, 0.0) + prob
    return out
