"""Verification records: one bound-vs-estimate comparison per check.

Verdict semantics are deliberately conservative.  A check FAILs only when
the observed violation exceeds its combined allowance (3 confidence
half-widths + truncation risk + numeric tolerance).  A one-sided bound whose
estimate lands inside the allowance band is INCONCLUSIVE when the check
demands statistically clean separation (``strict``); finite-sample Monte
Carlo can refute such a bound but never confirm it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import __version__
from .estimates import Z99

__all__ = ["CheckRecord", "VerificationReport", "verdict_for", "combined_allowance"]

#: Package version stamped into reports.
TOOL_VERSION = __version__

#: Half-width multiplier turning a 99% interval into a verdict allowance.
HALF_WIDTH_FACTOR = 3.0


def combined_allowance(half_width: float, truncation_bound: float = 0.0, tolerance: float = 0.0) -> float:
    return HALF_WIDTH_FACTOR * half_width + truncation_bound + tolerance


def verdict_for(violation: float, allowance: float, strict: bool, equality: bool = False) -> str:
    """PASS / FAIL / INCONCLUSIVE from a signed violation and its allowance.

    ``violation`` is oriented so positive means the claim looks broken
    (estimate above an upper bound, below a lower bound, or |difference|
    for equalities).  FAIL needs the violation to clear the allowance.
    Equality checks are two-verdict: agreement within the allowance is a
    PASS.  One-sided checks PASS on an observed violation <= 0, except that
    strict ones demand full-allowance separation and report INCONCLUSIVE
    from inside the band.
    """
    if math.isnan(violation):
        return "FAIL"
    if violation > allowance:
        return "FAIL"
    if equality:
        return "PASS"
    if violation <= -allowance:
        return "PASS"
    if violation <= 0.0 and not strict:
        return "PASS"
    return "INCONCLUSIVE"


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
    strict: bool = False
    allow_inconclusive: bool = True
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
        return combined_allowance(self.half_width, self.truncation_bound, self.tolerance)

    @property
    def verdict(self) -> str:
        return verdict_for(self.violation, self.allowance, self.strict, self.kind == "equality")

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
            "strict": self.strict,
            "allow_inconclusive": self.allow_inconclusive,
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
    config_sha256: str = ""
    tool_version: str = TOOL_VERSION

    def counts(self) -> dict:
        out = {"PASS": 0, "FAIL": 0, "INCONCLUSIVE": 0}
        for r in self.records:
            out[r.verdict] += 1
        return out

    @property
    def exit_code(self) -> int:
        """0 unless a check failed or was inconclusive without permission."""
        for r in self.records:
            v = r.verdict
            if v == "FAIL" or (v == "INCONCLUSIVE" and not r.allow_inconclusive):
                return 1
        return 0

    def to_dict(self) -> dict:
        return {
            "checks": [r.to_dict() for r in self.records],
            "summary": self.counts(),
            "provenance": {
                "seed": self.seed,
                "config_sha256": self.config_sha256,
                "half_width_factor": HALF_WIDTH_FACTOR,
                "half_width_quantile": Z99,
                "tool_version": self.tool_version,
            },
        }

    def to_text(self) -> str:
        """Human-readable fixed-width table, one line per check."""
        head = f"{'check':<28} {'verdict':<13} {'theoretical':>14} {'estimate':>14} {'allowance':>12}"
        lines = [head, "-" * len(head)]
        for r in self.records:
            lines.append(
                f"{r.check_id:<28} {r.verdict:<13} {r.theoretical:>14.6g} {r.estimate:>14.6g} "
                f"{r.allowance:>12.3g}"
            )
        c = self.counts()
        lines.append("-" * len(head))
        lines.append(
            f"pass {c['PASS']}  fail {c['FAIL']}  inconclusive {c['INCONCLUSIVE']}  "
            f"(seed {self.seed}, version {self.tool_version})"
        )
        return "\n".join(lines) + "\n"
