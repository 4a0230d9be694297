"""Verification records: one bound-vs-estimate comparison per check.

Every record gets its verdict from one rule.  The violation is signed so
that positive means the claim looks broken, and the allowance is 3
confidence half-widths + truncation risk + numeric tolerance:

- FAIL when the violation is NaN or exceeds the allowance;
- otherwise PASS for an equality or for a violation <= 0;
- otherwise INCONCLUSIVE: a one-sided bound whose estimate lands inside
  the allowance band, which finite-sample Monte Carlo can refute but never
  confirm.

A run exits 1 exactly when some record FAILs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import __version__
from .estimates import Z99

__all__ = ["CheckRecord", "VerificationReport"]

#: Half-width multiplier turning a 99% interval into a verdict allowance.
HALF_WIDTH_FACTOR = 3.0


@dataclass(frozen=True)
class CheckRecord:
    """Outcome of one verification check.

    ``kind`` orients the comparison: "upper" asserts estimate <= theoretical,
    "lower" asserts estimate >= theoretical, "equality" asserts agreement
    within the allowance.  ``claim`` states the inequality in words;
    ``params`` records the knobs the check ran with.
    """

    check_id: str
    claim: str
    kind: str
    theoretical: float
    estimate: float
    half_width: float = 0.0
    truncation_bound: float = 0.0
    tolerance: float = 0.0
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in ("upper", "lower", "equality"):
            raise ValueError(f"unknown check kind {self.kind!r}")

    @property
    def violation(self) -> float:
        if self.kind == "upper":
            return self.estimate - self.theoretical
        if self.kind == "lower":
            return self.theoretical - self.estimate
        diff = self.estimate - self.theoretical
        return math.nan if math.isnan(diff) else abs(diff)

    @property
    def allowance(self) -> float:
        return HALF_WIDTH_FACTOR * self.half_width + self.truncation_bound + self.tolerance

    @property
    def verdict(self) -> str:
        violation = self.violation
        if math.isnan(violation) or violation > self.allowance:
            return "FAIL"
        if self.kind == "equality" or violation <= 0.0:
            return "PASS"
        return "INCONCLUSIVE"

    def to_dict(self) -> dict:
        return {
            "check_id": self.check_id,
            "claim": self.claim,
            "kind": self.kind,
            "theoretical": self.theoretical,
            "estimate": self.estimate,
            "half_width": self.half_width,
            "truncation_bound": self.truncation_bound,
            "tolerance": self.tolerance,
            "params": self.params,
            "violation": self.violation,
            "allowance": self.allowance,
            "verdict": self.verdict,
        }


@dataclass(frozen=True)
class VerificationReport:
    """All check records of one verification run plus provenance."""

    records: tuple[CheckRecord, ...]
    seed: int

    def counts(self) -> dict:
        out = {"PASS": 0, "FAIL": 0, "INCONCLUSIVE": 0}
        for r in self.records:
            out[r.verdict] += 1
        return out

    @property
    def exit_code(self) -> int:
        """1 when some check FAILs, else 0."""
        return int(any(r.verdict == "FAIL" for r in self.records))

    def to_dict(self) -> dict:
        return {
            "checks": [r.to_dict() for r in self.records],
            "summary": self.counts(),
            "provenance": {
                "seed": self.seed,
                "half_width_factor": HALF_WIDTH_FACTOR,
                "half_width_quantile": Z99,
                "tool_version": __version__,
            },
        }

    def to_text(self) -> str:
        """Human-readable fixed-width table, one line per check."""
        width = max(len(name) for name in ("check", *(r.check_id for r in self.records)))
        head = f"{'check':<{width}} {'verdict':<13} {'theoretical':>14} {'estimate':>14} {'allowance':>12}"
        lines = [head, "-" * len(head)]
        for r in self.records:
            lines.append(
                f"{r.check_id:<{width}} {r.verdict:<13} {r.theoretical:>14.6g} {r.estimate:>14.6g} "
                f"{r.allowance:>12.3g}"
            )
        c = self.counts()
        lines.append("-" * len(head))
        lines.append(
            f"pass {c['PASS']}  fail {c['FAIL']}  inconclusive {c['INCONCLUSIVE']}  "
            f"(seed {self.seed}, version {__version__})"
        )
        return "\n".join(lines) + "\n"
