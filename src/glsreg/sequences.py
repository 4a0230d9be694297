"""Deterministic null sequences and the pairs that feed the series bounds.

Two families cover the closed-form results: power decay with a logarithmic
correction, ``n**(-rate) * ln(n+1)**log_power``, and geometric decay
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
from typing import Callable, Union

import numpy as np

from .errors import DomainError

__all__ = [
    "PowerLogSequence",
    "SlowlyVaryingSequence",
    "GeometricSequence",
    "DecaySequencePair",
    "sequence_from_config",
    "pair_from_config",
]

_FIRST_CHUNK_CELLS = 1 << 10  # cells in the first chunk of a chunked sum
_CHUNK_CELLS = 1 << 23  # largest chunk: matrix cells generated per scheduling unit


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
    """a_n = n**(-rate) * ln(n+1)**log_power for n >= 1."""

    rate: float
    log_power: float = 0.0
    kind = "power_log"
    first_index = 1

    def __post_init__(self) -> None:
        if not (math.isfinite(self.rate) and self.rate > 0):
            raise DomainError(f"decay rate must be positive, got {self.rate}")
        if not math.isfinite(self.log_power):
            raise DomainError(f"log exponent must be finite, got {self.log_power}")

    def values(self, n: np.ndarray) -> np.ndarray:
        n = np.asarray(n, dtype=float)
        if np.any(n < self.first_index):
            raise DomainError(f"sequence indices must be >= {self.first_index}")
        if self.log_power == 0:  # ln(n+1)**0 is exactly 1, so skip the log
            return n ** (-self.rate)
        return n ** (-self.rate) * np.log(n + 1.0) ** self.log_power


@dataclass(frozen=True)
class SlowlyVaryingSequence:
    """a_n = n**(-rate) * L(n) with L tabulated on n = 1..len(table).

    Beyond the table L is extended by its last value, so the tail is an exact
    power law and the certified series machinery applies unchanged.  The
    table models a slowly varying correction; it must be positive and finite
    but is otherwise unconstrained on its finite head.
    """

    rate: float
    table: tuple[float, ...]
    kind = "slowly_varying"
    first_index = 1

    def __post_init__(self) -> None:
        if not (math.isfinite(self.rate) and self.rate > 0):
            raise DomainError(f"decay rate must be positive, got {self.rate}")
        if len(self.table) == 0:
            raise DomainError("a slowly varying table needs at least one value")
        if any(not (math.isfinite(v) and v > 0) for v in self.table):
            raise DomainError("slowly varying table values must be finite and positive")

    def values(self, n: np.ndarray) -> np.ndarray:
        n = np.asarray(n, dtype=float)
        if np.any(n < self.first_index):
            raise DomainError(f"sequence indices must be >= {self.first_index}")
        idx = np.minimum(n.astype(int), len(self.table)) - 1
        return n ** (-self.rate) * np.asarray(self.table)[idx]


@dataclass(frozen=True)
class GeometricSequence:
    """a_n = scale * q**n for n >= 0."""

    q: float
    scale: float = 1.0
    kind = "geometric"
    first_index = 0

    def __post_init__(self) -> None:
        if not (0.0 < self.q < 1.0):
            raise DomainError(f"geometric ratio must lie in (0, 1), got {self.q}")
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise DomainError(f"geometric scale must be positive, got {self.scale}")

    def values(self, n: np.ndarray) -> np.ndarray:
        n = np.asarray(n, dtype=float)
        if np.any(n < self.first_index):
            raise DomainError(f"sequence indices must be >= {self.first_index}")
        return self.scale * self.q**n


DecaySequence = Union[PowerLogSequence, SlowlyVaryingSequence, GeometricSequence]

_POWER_KINDS = ("power_log", "slowly_varying")


@dataclass(frozen=True)
class DecaySequencePair:
    """Numerator eps_n and normaliser beta_n with a decaying ratio.

    Compatible kinds only: geometric with geometric (ratio delta**n with
    delta = q/Q in (0,1)), or power-type with power-type (ratio again
    power-log, with rate eps.rate - beta.rate > 0).  Mixing the families
    would give a ratio that either explodes or decays faster than any power,
    and none of the closed forms apply.
    """

    eps_seq: DecaySequence
    beta_seq: DecaySequence

    def __post_init__(self) -> None:
        e, b = self.eps_seq, self.beta_seq
        if e.kind == "geometric" and b.kind == "geometric":
            if not e.q < b.q:
                raise DomainError(f"need q < Q for a decaying ratio, got q={e.q}, Q={b.q}")
        elif e.kind in _POWER_KINDS and b.kind in _POWER_KINDS:
            if not b.rate < e.rate:
                raise DomainError(
                    f"normaliser must decay slower than the numerator, got rates {e.rate} vs {b.rate}"
                )
        else:
            raise DomainError(f"incompatible sequence kinds {e.kind!r} and {b.kind!r}")

    @property
    def kind(self) -> str:
        return "geometric" if self.eps_seq.kind == "geometric" else "power_log"

    @property
    def first_index(self) -> int:
        return max(self.eps_seq.first_index, self.beta_seq.first_index)

    @property
    def delta(self) -> float:
        """Ratio q/Q of a geometric pair; the ratio sequence is delta**n."""
        if self.kind != "geometric":
            raise DomainError("delta is only defined for geometric pairs")
        return self.eps_seq.q / self.beta_seq.q

    @property
    def ratio_rate(self) -> float:
        """Power-decay rate of eps_n / beta_n for power-type pairs."""
        if self.kind != "power_log":
            raise DomainError("ratio_rate is only defined for power-type pairs")
        return self.eps_seq.rate - self.beta_seq.rate

    @property
    def ratio_log_power(self) -> float:
        """ln(n+1) exponent of eps_n / beta_n for power-type pairs."""
        if self.kind != "power_log":
            raise DomainError("ratio_log_power is only defined for power-type pairs")
        e = self.eps_seq.log_power if isinstance(self.eps_seq, PowerLogSequence) else 0.0
        b = self.beta_seq.log_power if isinstance(self.beta_seq, PowerLogSequence) else 0.0
        return e - b

    def ratio_values(self, n: np.ndarray) -> np.ndarray:
        return self.eps_seq.values(n) / self.beta_seq.values(n)


def sequence_from_config(obj: dict) -> DecaySequence:
    """Build one sequence from its schema-validated config.

    Shapes (the numerator uses keys alpha/m, the normaliser theta/nu with
    the sign convention beta_n = n**(-theta) * ln(n+1)**(-nu); theta wins
    when both rates are given):
      {"form": "power_log", "alpha": 1.0, "m": 0.0}
      {"form": "power_log", "theta": 0.5, "nu": 0.0}
      {"form": "geometric", "q": 0.25}   (or "Q" for the normaliser)
      {"form": "slowly_varying", "alpha": 1.0, "table": [1.0, ...]}
    """
    form = obj["form"]
    if form == "power_log":
        if "theta" in obj:
            return PowerLogSequence(rate=float(obj["theta"]), log_power=-float(obj.get("nu", 0.0)))
        return PowerLogSequence(rate=float(obj["alpha"]), log_power=float(obj.get("m", 0.0)))
    if form == "geometric":
        ratio = obj["Q"] if "Q" in obj else obj["q"]
        return GeometricSequence(q=float(ratio), scale=float(obj.get("scale", 1.0)))
    return SlowlyVaryingSequence(rate=float(obj["alpha"]), table=tuple(float(v) for v in obj["table"]))


def pair_from_config(obj: dict) -> DecaySequencePair:
    """Build the pair {"eps": <sequence config>, "beta": <sequence config>}."""
    return DecaySequencePair(eps_seq=sequence_from_config(obj["eps"]), beta_seq=sequence_from_config(obj["beta"]))
