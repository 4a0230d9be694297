"""Monte Carlo point estimates with confidence half-widths.

All half-widths in this package use the two-sided 99% normal quantile.
Binomial half-widths carry the z^2/(2M) Wilson correction so a zero count
still yields a usable uncertainty band.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EmptySample

__all__ = ["Z99", "ConfidenceValue", "mean_estimate", "proportion_estimate", "power_mean_estimate"]

#: Two-sided 99% normal quantile used for every confidence half-width.
Z99 = 2.576


@dataclass(frozen=True)
class ConfidenceValue:
    """A point estimate together with its 99% confidence half-width."""

    value: float
    half_width: float


def mean_estimate(samples: np.ndarray) -> ConfidenceValue:
    """Sample mean with normal-approximation half-width."""
    x = np.asarray(samples, dtype=float).ravel()
    if x.size == 0:
        raise EmptySample("mean of an empty sample")
    if x.size == 1:
        return ConfidenceValue(float(x[0]), math.inf)
    hw = Z99 * float(np.std(x, ddof=1)) / math.sqrt(x.size)
    return ConfidenceValue(float(np.mean(x)), hw)


def proportion_estimate(hits: int, total: int) -> ConfidenceValue:
    """Binomial proportion with a conservative half-width."""
    if total <= 0:
        raise EmptySample("proportion of an empty sample")
    p_hat = hits / total
    hw = Z99 * math.sqrt(p_hat * (1.0 - p_hat) / total) + Z99 * Z99 / (2.0 * total)
    return ConfidenceValue(p_hat, hw)


def power_mean_estimate(samples: np.ndarray, p: float) -> ConfidenceValue:
    """Empirical p-norm (mean |x|^p)^(1/p) with a delta-method half-width.

    Powers are accumulated in shifted log space, so exponents with
    p * ln max|x| beyond the float range stay finite; where p * ln max|x|
    itself overflows, only the samples at the max count.  p must be finite
    and at least 1.
    """
    if not (math.isfinite(p) and p >= 1.0):
        raise DomainError(f"moment exponent must be finite and >= 1, got {p}")
    x = np.abs(np.asarray(samples, dtype=float).ravel())
    if x.size == 0:
        raise EmptySample("p-norm of an empty sample")
    m = x.size
    top = float(np.max(x))
    if top == 0.0:
        return ConfidenceValue(0.0, 0.0)
    with np.errstate(divide="ignore", over="ignore"):
        log_pow = p * np.log(x)
    c = float(np.max(log_pow))
    if math.isinf(c):  # p ln max|x| overflows, so (|x| / max|x|)**p is 0 below the max
        w = (x == top).astype(float)
        m1 = float(np.mean(w))
        value = top * m1 ** (1.0 / p)
    else:
        w = np.exp(log_pow - c)
        m1 = float(np.mean(w))
        value = math.exp((c + math.log(m1)) / p)
    if m == 1:
        return ConfidenceValue(value, math.inf)
    m2 = float(np.mean(w * w))
    var_rel = max(0.0, (m2 - m1 * m1)) * m / (m - 1) / (m1 * m1)
    half_width = Z99 * value * math.sqrt(var_rel / m) / p
    return ConfidenceValue(value, half_width)
