"""Diagnostics for almost-everywhere convergence on blocks of simulated trajectories.

A row block is a plain 2-D array, one trajectory per row, whose column k
holds index index_start + k; ``simulate.simulate_trajectories`` hands its
reducer one block per row chunk, never a whole batch.  The diagnostics are
the per-row terms of the bounded-sup functional E sup_{m >= n} |x_m|/(1 + |x_m|)
(which tends to 0 iff the sequence tends to 0 a.e.) and regulator
extraction: the smallest per-row factor v with |x_n| <= v * delta_n for a
chosen null sequence delta_n.  Both are truncated at the block's last column.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, NonpositiveDelta

__all__ = [
    "regulator_ratio_matrix",
    "criterion_functional",
    "extract_regulator",
]


def _row_block(block) -> np.ndarray:
    block = np.asarray(block, dtype=float)
    if block.ndim != 2 or block.size == 0:
        raise DomainError(f"a row block must be a nonempty 2-D array, got shape {block.shape}")
    return block


def _finite_rows(per_row: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(per_row)):  # NaN and +-inf propagate into a row's max
        raise DomainError("row block values must all be finite")
    return per_row


def regulator_ratio_matrix(values: np.ndarray, delta: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise |values| / delta with delta broadcast across trajectories.

    This is the expression ``extract_regulator`` maximises per row, and the
    reference that acceptance criterion 10 and ``tests/test_simulate.py``
    compare the extracted regulator against.  As in
    numpy, ``out`` (which may be ``values``) receives the result; without it
    a new array is returned and ``values`` is left as it is.
    """
    delta = np.asarray(delta, dtype=float)
    if delta.size == 0 or np.any(~np.isfinite(delta)) or np.any(delta <= 0.0):
        raise NonpositiveDelta("every delta_n must be finite and positive")
    ratios = np.abs(np.asarray(values, dtype=float), out=out)
    return np.divide(ratios, delta, out=ratios)


def criterion_functional(block, n: int, index_start: int = 1, out: np.ndarray | None = None) -> np.ndarray:
    """Per-row terms sup_{m >= n} |x_m| / (1 + |x_m|) of a row block starting at index_start, into ``out`` if given.

    Their mean over all rows (``estimates.mean_estimate``) estimates the
    functional; the sup stops at the block's last column, so it is a lower
    bound of the infinite-horizon quantity.  t -> t/(1+t) is increasing on
    t >= 0, so one max per row is needed.  A window start outside the block,
    or a non-finite value in the window, raises ``DomainError``.
    """
    block = _row_block(block)
    last = index_start + block.shape[1] - 1
    if not 1 <= index_start <= n <= last:
        raise DomainError(f"window start {n} outside the block's indices [{index_start}, {last}] (index_start >= 1)")
    window = block[:, n - index_start :]
    sups = _finite_rows(np.maximum(window.max(axis=1), -window.min(axis=1), out=out))  # max |x| without an |x| copy
    return np.divide(sups, 1.0 + sups, out=sups)


def extract_regulator(block, delta: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Per-row regulator factor v = max_n |x_n| / delta_n of a row block, into ``out`` if given.

    ``delta`` holds delta_n at the block's columns; v is the smallest factor
    with |x_n| <= v * delta_n.  The ratios are formed in place, so a float64
    ``block`` is overwritten.  A non-finite value raises ``DomainError``.
    """
    block = _row_block(block)
    return _finite_rows(regulator_ratio_matrix(block, delta, out=block).max(axis=1, out=out))
