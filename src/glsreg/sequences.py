"""Deterministic null sequences and the pairs that feed the series bounds.

Two sequence types cover the closed-form results: power decay with a
logarithmic correction and an optional tabulated head,
``n**(-rate) * ln(n+1)**log_power * L(n)``, and geometric decay
``scale * q**n``.  A :class:`DecaySequencePair` holds a numerator sequence
``eps_n`` and a slower-decaying normaliser ``beta_n`` whose ratio powers the
series ``sum_n (eps_n / beta_n)**p``; construction validates that the ratio
actually decays so the series has a chance to converge somewhere.

The module also holds the one chunked summation loop that the exact oracles
and the series bounds share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError

__all__ = [
    "PowerLogSequence",
    "GeometricSequence",
    "DecaySequencePair",
]

_FIRST_CHUNK_CELLS = 1 << 10  # cells in the first chunk of a chunked sum
# largest chunk of a chunked sum; it sizes no matrix, but it fixes how the terms
# are grouped for summation, and so the bits of every certified sum
_CHUNK_CELLS = 1 << 23


def _chunked_sum(
    term: Callable[[np.ndarray], np.ndarray],
    lo: int,
    hi: int,
    stop: Callable[[float, int], bool] | None = None,
) -> float:
    """Sum term(n) over the integers lo..hi, chunk by chunk.

    Chunks start at _FIRST_CHUNK_CELLS cells and double up to _CHUNK_CELLS,
    so a sum that may stop early touches only a few thousand cells when its
    first terms already decide it.  With ``stop``, the sum returns after the
    first chunk for which ``stop(total, top)`` holds, ``top`` being the last
    index summed.  The helper certifies nothing: the caller's predicate
    carries the certificate that the terms past ``top`` may be dropped.
    """
    total = 0.0
    size = _FIRST_CHUNK_CELLS
    while lo <= hi:
        top = min(hi, lo + size - 1)
        total += float(np.sum(term(np.arange(lo, top + 1, dtype=float))))
        if stop is not None and stop(total, top):
            break
        lo = top + 1
        size = min(2 * size, _CHUNK_CELLS)
    return total


@dataclass(frozen=True)
class PowerLogSequence:
    """a_n = n**(-rate) * ln(n+1)**log_power * L(n) for n >= 1.

    L is tabulated on n = 1..len(table) and extended by its last value, or is
    1 when there is no table.  Past the table the sequence is an exact power
    law with a log correction, so the certified series machinery applies
    unchanged; the table models a slowly varying head and need only be
    positive and finite.
    """

    rate: float
    log_power: float = 0.0
    table: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if not (math.isfinite(self.rate) and self.rate > 0):
            raise DomainError(f"decay rate must be positive, got {self.rate}")
        if not math.isfinite(self.log_power):
            raise DomainError(f"log exponent must be finite, got {self.log_power}")
        if any(not (math.isfinite(v) and v > 0) for v in self.table):
            raise DomainError("slowly varying table values must be finite and positive")

    def values(self, n: np.ndarray) -> np.ndarray:
        n = np.asarray(n, dtype=float)
        if np.any(n < 1):
            raise DomainError("sequence indices must be >= 1")
        a = n ** (-self.rate)
        if self.log_power != 0:  # ln(n+1)**0 is exactly 1, so skip the log
            a = a * np.log(n + 1.0) ** self.log_power
        if self.table:
            a = a * np.asarray(self.table)[np.minimum(n.astype(int), len(self.table)) - 1]
        return a


@dataclass(frozen=True)
class GeometricSequence:
    """a_n = scale * q**n for n >= 0."""

    q: float
    scale: float = 1.0

    def __post_init__(self) -> None:
        if not (0.0 < self.q < 1.0):
            raise DomainError(f"geometric ratio must lie in (0, 1), got {self.q}")
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise DomainError(f"geometric scale must be positive, got {self.scale}")


@dataclass(frozen=True)
class DecaySequencePair:
    """Numerator eps_n and normaliser beta_n with a decaying ratio.

    Both sequences have the same type: two geometric sequences (ratio
    (q/Q)**n with q < Q) or two power laws (ratio again a power law past the
    tables, with rate eps.rate - beta.rate > 0).  Mixing the types would
    give a ratio that either explodes or decays faster than any power, and
    none of the closed forms apply.
    """

    eps_seq: PowerLogSequence | GeometricSequence
    beta_seq: PowerLogSequence | GeometricSequence

    def __post_init__(self) -> None:
        e, b = self.eps_seq, self.beta_seq
        if type(e) is not type(b):
            raise DomainError(f"cannot pair a {type(e).__name__} with a {type(b).__name__}")
        if isinstance(e, GeometricSequence):
            if not e.q < b.q:
                raise DomainError(f"need q < Q for a decaying ratio, got q={e.q}, Q={b.q}")
        elif not b.rate < e.rate:
            raise DomainError(f"normaliser must decay slower than the numerator, got rates {e.rate} vs {b.rate}")

    def ratio_values(self, n: np.ndarray) -> np.ndarray:
        """eps_n / beta_n at indices n >= 1 of a power-law pair; a geometric pair has its closed form."""
        return self.eps_seq.values(n) / self.beta_seq.values(n)
