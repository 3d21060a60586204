"""Finite-window sequence iteration machinery.

Checks the self-improving inequality

    a_k <= 2^(-eps k) + delta * sum_j a_j 2^(-2 eps |k-j|)   for k >= S,

extracts the geometric-decay constant M it implies, and evaluates the
two-sided convolution majorant of the master shell inequality.  Sequences are
finite windows a_0..a_K; the check is therefore necessary-but-finite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class DecaySequence:
    """Finite nonnegative sequence a_0..a_K."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1 or self.values.size == 0:
            raise ValueError("need a nonempty 1-d sequence")
        if not np.all(np.isfinite(self.values)) or np.any(self.values < 0):
            raise ValueError("entries must be finite and nonnegative")

    def __len__(self) -> int:
        return self.values.size

    @property
    def sup_norm(self) -> float:
        return float(self.values.max())


@dataclass(frozen=True)
class IterationParams:
    """eps > 0, admissible smallness delta, and the starting index S."""

    eps: float
    delta: float
    S: int = 0

    def __post_init__(self):
        if self.eps <= 0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        cap = delta_cap(self.eps)
        if not 0.0 < self.delta < cap:
            raise ValueError(f"delta must lie in (0, {cap}), got {self.delta}")
        if self.S < 0:
            raise ValueError(f"S must be >= 0, got {self.S}")


def delta_cap(eps: float) -> float:
    """Largest admissible smallness constant: (1 - 2^-eps) / 2."""
    return (1.0 - 2.0 ** (-eps)) / 2.0


def two_sided_kernel(size: int, rate: float) -> np.ndarray:
    """The matrix 2^(-rate |j-k|) over indices j, k in 0..size-1."""
    k = np.arange(size, dtype=float)
    return 2.0 ** (-rate * np.abs(k[:, None] - k[None, :]))


def _rhs(a: np.ndarray, eps: float, delta: float) -> np.ndarray:
    k = np.arange(a.size, dtype=float)
    return 2.0 ** (-eps * k) + delta * (two_sided_kernel(a.size, 2.0 * eps) @ a)


def hypothesis_holds(a: DecaySequence, params: IterationParams):
    """Check the inequality for every k in [S, K].

    Returns (holds, first_violation); first_violation is None when it holds.
    """
    rhs = _rhs(a.values, params.eps, params.delta)
    for k in range(params.S, len(a)):
        if a.values[k] > rhs[k]:
            return False, k
    return True, None


def decay_bound(a: DecaySequence, params: IterationParams, start: int = 0) -> float:
    """Minimal M with a_k <= M * sup|a| * 2^(-eps k) over k >= start.

    Extracted by brute force; requires the hypothesis to hold.  The value for
    a zero sequence is 0.
    """
    holds, k_bad = hypothesis_holds(a, params)
    if not holds:
        raise ValueError(f"iteration hypothesis violated at k={k_bad}")
    sup = a.sup_norm
    if sup == 0.0:
        return 0.0
    k = np.arange(len(a), dtype=float)[start:]
    return float(np.max(a.values[start:] * 2.0 ** (params.eps * k)) / sup)


def iterate_map(a: DecaySequence, params: IterationParams) -> DecaySequence:
    """Fixed point of b -> min(b, RHS(b)) from a (monotone decreasing), within 200 rounds."""
    b = a.values.copy()
    for _ in range(200):
        nb = np.minimum(b, _rhs(b, params.eps, params.delta))
        if np.array_equal(nb, b):
            break
        b = nb
    return DecaySequence(b)


def convolution_majorant(a: DecaySequence, theta: float, C0delta: float,
                         Crho: float) -> DecaySequence:
    """Right side of the master shell inequality.

    k -> C0delta * sum_j a_j 2^(-theta|j-k|) + Crho * 2^(-theta k).
    """
    if theta <= 0:
        raise ValueError(f"theta must be positive, got {theta}")
    k = np.arange(len(a), dtype=float)
    vals = C0delta * (two_sided_kernel(len(a), theta) @ a.values) + Crho * 2.0 ** (-theta * k)
    return DecaySequence(vals)
