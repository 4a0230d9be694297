"""Diagnostics for almost-everywhere convergence, folded over index blocks of simulated trajectories.

An index block is a plain 2-D array with one row per index and one column
per trajectory: row k holds index index_start + k.
``simulate.simulate_trajectories`` hands its reducer one block at a time,
never a whole batch, and each diagnostic folds it into ``out``, the caller's
running per-trajectory maxima (zeros before the first block).  Max is exact,
so the fold gives the same bits in any block order and size.  The
diagnostics are the per-trajectory terms of the bounded-sup functional
E sup_{m >= n} |x_m|/(1 + |x_m|) (which tends to 0 iff the sequence tends to
0 a.e.) and regulator extraction: the smallest per-trajectory factor v with
|x_n| <= v * delta_n for a chosen null sequence delta_n.  Both are truncated
at the last index folded in.
"""

from __future__ import annotations

import numpy as np

from .bounds import _check_integer
from .errors import DomainError, NonpositiveDelta

__all__ = [
    "regulator_ratio_matrix",
    "criterion_functional",
    "criterion_terms",
    "extract_regulator",
]


def _index_block(block) -> np.ndarray:
    block = np.asarray(block, dtype=float)
    if block.ndim != 2 or block.size == 0:
        raise DomainError(f"an index block must be a nonempty 2-D array, got shape {block.shape}")
    return block


def _finite(per_trajectory: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(per_trajectory)):  # NaN and +-inf propagate into a trajectory's max
        raise DomainError("index block values must all be finite")
    return per_trajectory


def regulator_ratio_matrix(values: np.ndarray, delta: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise |values| / delta, with delta broadcast as numpy broadcasts it.

    A delta of shape (width,) spans the columns of a batch with one
    trajectory per row; ``extract_regulator`` passes a (k, 1) column for an
    index block.  This is the expression ``extract_regulator`` maximises per
    trajectory, and the reference that acceptance criterion 10 and
    ``tests/test_simulate.py`` compare the extracted regulator against.  As
    in numpy, ``out`` (which may be ``values``) receives the result; without
    it a new array is returned and ``values`` is left as it is.
    """
    delta = np.asarray(delta, dtype=float)
    if delta.size == 0 or np.any(~np.isfinite(delta)) or np.any(delta <= 0.0):
        raise NonpositiveDelta("every delta_n must be finite and positive")
    ratios = np.abs(np.asarray(values, dtype=float), out=out)
    return np.divide(ratios, delta, out=ratios)


def criterion_functional(block, n: int, index_start: int, out: np.ndarray) -> np.ndarray:
    """Fold an index block into ``out``, the per-trajectory sups of |x_m| over m >= n, and return it.

    Row k of ``block`` holds index index_start + k.  ``out`` holds the sups
    of the blocks folded before (zeros before the first) and receives the
    larger of them and this block's.  Rows before n add nothing, so a block
    wholly before n leaves ``out`` as it is.  Once the last block is in,
    ``criterion_terms`` gives the functional's terms.  A non-finite value in
    the window, or a window start or index_start that is not an integer >= 1,
    raises ``DomainError``.
    """
    block = _index_block(block)
    _check_integer("window start", n, 1)
    _check_integer("index_start", index_start, 1)
    window = block[max(0, n - index_start) :]  # no rows when the block lies wholly before n: the sups stay 0
    sups = window.max(axis=0, initial=0.0)
    np.maximum(sups, -window.min(axis=0, initial=0.0), out=sups)  # max |x| without an |x| copy
    return _finite(np.maximum(out, sups, out=out))


def criterion_terms(sups: np.ndarray) -> np.ndarray:
    """Per-trajectory terms t / (1 + t) of the folded sups; their mean (``estimates.mean_estimate``) estimates the functional.

    t -> t/(1+t) is increasing on t >= 0, so it is applied once, to the
    running sup, never folded itself.  The sup stops at the last index
    folded in, so the mean is a lower bound of the infinite-horizon quantity.
    """
    return sups / (1.0 + sups)


def extract_regulator(block, delta: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fold an index block into ``out``, the per-trajectory regulator factors v = max_n |x_n| / delta_n, and return it.

    ``delta`` holds delta_n at the block's rows; v is the smallest factor
    with |x_n| <= v * delta_n.  ``out`` holds the factors of the blocks
    folded before (zeros before the first: every ratio is >= 0) and receives
    the larger of them and this block's.  The ratios are formed in place, so
    a float64 ``block`` is overwritten.  A non-finite value raises
    ``DomainError``.
    """
    block = _index_block(block)
    ratios = regulator_ratio_matrix(block, np.asarray(delta, dtype=float)[:, None], out=block)
    np.maximum(ratios[0], out, out=ratios[0])  # the running factors join the block's first row
    return _finite(ratios.max(axis=0, out=out))
