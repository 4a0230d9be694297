"""Diagnostics for almost-everywhere convergence on simulated trajectories.

A trajectory batch is an M x W matrix of realized sequence values.  The
diagnostics are the bounded-sup functional E sup_{m >= n} |x_m|/(1 + |x_m|)
(which tends to 0 iff the sequence tends to 0 a.e.) and regulator
extraction: the smallest per-trajectory factor v with |x_n| <= v * delta_n
for a chosen null sequence delta_n.

Every infinite-horizon quantity here is truncated at the batch window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, IndexOutOfRange, NonpositiveDelta
from .estimates import ConfidenceValue, mean_estimate

__all__ = [
    "TrajectoryBatch",
    "RegulatorExtraction",
    "regulator_ratio_matrix",
    "criterion_functional",
    "extract_regulator",
]


@dataclass(frozen=True)
class TrajectoryBatch:
    """M x W matrix of sequence values; column j holds index index_start + j."""

    values: np.ndarray
    index_start: int = 1

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
            raise DomainError(f"a batch needs a 2-D value matrix, got shape {v.shape}")
        # NaN propagates through min and max, and +-inf shows in one of them
        if not (np.isfinite(v.min()) and np.isfinite(v.max())):
            raise DomainError("batch values must all be finite")
        if self.index_start < 1:
            raise DomainError(f"index_start must be >= 1, got {self.index_start}")
        object.__setattr__(self, "values", v)

    @property
    def last_index(self) -> int:
        return self.index_start + self.values.shape[1] - 1

    def indices(self) -> np.ndarray:
        return np.arange(self.index_start, self.last_index + 1, dtype=float)

    def column_of(self, n: int) -> int:
        if not self.index_start <= n <= self.last_index:
            raise IndexOutOfRange(f"index {n} outside the window [{self.index_start}, {self.last_index}]")
        return n - self.index_start


@dataclass(frozen=True)
class RegulatorExtraction:
    """Per-trajectory regulator factors for a fixed null sequence."""

    factors: np.ndarray
    delta_values: np.ndarray


def regulator_ratio_matrix(values: np.ndarray, delta: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise |values| / delta with delta broadcast across trajectories.

    This single expression is shared by regulator extraction and by the
    direct simulation of sup-regulators, so the two agree bitwise.  As in
    numpy, ``out`` (which may be ``values``) receives the result; without it
    a new array is returned and ``values`` is left as it is.
    """
    delta = np.asarray(delta, dtype=float)
    if delta.size == 0 or np.any(~np.isfinite(delta)) or np.any(delta <= 0.0):
        raise NonpositiveDelta("every delta_n must be finite and positive")
    ratios = np.abs(np.asarray(values, dtype=float), out=out)
    return np.divide(ratios, delta, out=ratios)


def criterion_functional(batch: TrajectoryBatch, n: int) -> ConfidenceValue:
    """Estimate E sup_{m >= n} |x_m| / (1 + |x_m|) over the batch window.

    The sup runs over m <= batch.last_index only, so the value is a lower
    bound of the infinite-horizon quantity.

    t -> t/(1+t) is increasing on t >= 0, so the sup of the transformed
    entries is the transform of the sup; only one max per trajectory needed.
    """
    col = batch.column_of(n)
    window = batch.values[:, col:]
    sups = np.maximum(window.max(axis=1), -window.min(axis=1))  # max |x| without an |x| copy
    transformed = sups / (1.0 + sups)
    return mean_estimate(transformed)


def extract_regulator(batch: TrajectoryBatch, delta_seq) -> RegulatorExtraction:
    """Smallest per-trajectory v with |x_n| <= v * delta_n on the window.

    v = max_n |x_n| / delta_n, so the factorization holds exactly (not up to
    tolerance) for every entry of every trajectory.
    """
    delta = delta_seq.values(batch.indices())
    ratios = regulator_ratio_matrix(batch.values, delta)
    return RegulatorExtraction(factors=ratios.max(axis=1), delta_values=delta)
