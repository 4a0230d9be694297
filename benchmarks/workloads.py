"""Workloads of the glsreg benchmark: generated configs, operations and output checks.

Each workload is a fixed list of operations.  An operation is one
``glsreg <subcommand> --config ... --out ...`` call on a config generated here
from the workload seed; its ``check`` reads the artifacts the call wrote and
returns a list of problems (empty when the output is correct).  Parameters are
drawn from fixed ranges with ``random.Random(seed)``; grid sizes, trajectory
counts and model exponents stay fixed, so every seed asks for the same work.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

#: Check ids whose FAIL is documented (README, acceptance criterion 4).
EXPECTED_FAIL_PREFIX = "tail-asymptote-"

#: Record ids of the default verify catalogue at the time the benchmark was written.
KNOWN_VERIFY_RECORDS = frozenset(
    [f"moment-sup-bound-p{p}" for p in ("2.5", "3", "4", "6")]
    + [f"tail-oracle-agreement-u{u}" for u in ("1", "2", "5", "10", "20")]
    + [f"bonferroni-sandwich-eps{e}" for e in ("0.25", "0.5", "0.75")]
    + ["tail-asymptote-constant", "tail-asymptote-approach"]
    + [f"moment-lower-bound-p{p}" for p in ("1", "1.5", "1.8", "1.98")]
    + ["moment-blowup-bracket"]
    + [f"natural-envelope-bound-p{p}" for p in ("8", "10", "12")]
    + ["sigma-closed-form", "sigma-uniform-cap"]
    + [f"conjugate-closed-form-v{v}" for v in ("1", "2", "3")]
    + [f"norm-axioms-{a}" for a in ("homogeneity", "anti-monotonicity", "extremal-reduction", "natural-norm-one")]
    + ["criterion-monotone", "criterion-small-at-100", "regulator-factorization", "regulator-eta-bitwise"]
)

SIM_TRAJECTORIES = 100_000
VERIFY_TRAJECTORIES = 20_000
GRID_POINTS = 100


@dataclass(frozen=True)
class Op:
    """One CLI call: ``glsreg <args>``, its main artifact and its output check."""

    name: str
    args: tuple[str, ...]
    out_dir: Path
    artifact: str
    expect_exit: int
    check: Callable[[Path], list[str]]
    cells: int = 0  # Monte Carlo cells (trajectories x indices) the call simulates


def _write_config(path: Path, cfg: dict) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
    return path


def _op(name: str, command: str, cfg: dict, work: Path, artifact: str, check, expect_exit=0, extra=(), cells=0) -> Op:
    cfg = {"schema_version": 1, "command": command, **cfg}
    config = _write_config(work / "configs" / f"{name}.json", cfg)
    out = work / "out" / name
    args = (command, "--config", str(config), "--out", str(out), *extra)
    return Op(name, args, out, artifact, expect_exit, check, cells)


def _close(a: float, b: float, rel: float) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=1e-300)


def _read(out: Path, name: str) -> dict:
    return json.loads((out / name).read_text())


# ---------------------------------------------------------------------------
# verify-catalogue


def _check_verify_report(out: Path) -> list[str]:
    report = _read(out, "report.json")
    problems = []
    seen = set()
    for rec in report["checks"]:
        cid, verdict = rec["check_id"], rec["verdict"]
        seen.add(cid)
        want = "FAIL" if cid.startswith(EXPECTED_FAIL_PREFIX) and cid in KNOWN_VERIFY_RECORDS else "PASS"
        if verdict != want:
            problems.append(f"{cid}: {verdict}, expected {want}")
    missing = sorted(KNOWN_VERIFY_RECORDS - seen)
    if missing:
        problems.append(f"records missing from the catalogue: {', '.join(missing)}")
    return problems


def verify_catalogue(seed: int, work: Path) -> list[Op]:
    cfg = {"trajectories": VERIFY_TRAJECTORIES, "seed": seed % 2**32}
    return [_op("verify", "verify", cfg, work, "report.json", _check_verify_report, expect_exit=1)]


# ---------------------------------------------------------------------------
# simulate-mc


def _simulate_check(cfg: dict, exact_tail: bool):
    def check(out: Path) -> list[str]:
        from glsreg.simulate import exact_eta_tail, plan_from_config, resolve_n_last

        problems = []
        rows = (out / "eta.csv").read_text().count("\n") - 1
        if rows != cfg["trajectories"]:
            problems.append(f"eta.csv has {rows} rows, expected {cfg['trajectories']}")
        summary = _read(out, "summary.json")
        n_last = resolve_n_last(plan_from_config(cfg))
        if summary["n_last"] != n_last:
            problems.append(f"summary n_last {summary['n_last']} != resolve_n_last {n_last}")
        if exact_tail:
            # the suite's own FAIL rule: 3 x 99% half-width + truncation risk
            for row in summary["tails"]:
                exact = exact_eta_tail(cfg["model"]["alpha"], cfg["eps"], row["u"])
                allowance = 3.0 * row["half_width"] + summary["truncation_bound"]
                if not abs(row["value"] - exact) <= allowance:
                    problems.append(f"tail at u={row['u']}: {row['value']} vs exact {exact} (allowance {allowance})")
        return problems

    return check


def simulate_mc(seed: int, work: Path) -> list[Op]:
    from glsreg.simulate import plan_from_config, resolve_n_last

    rng = random.Random(seed)
    sim_seed = seed % 2**32
    ops = []
    # alpha = 1 and eps = 0.5 fix n_last (496 and 39 at 100k trajectories): only the streams vary
    for name, kind, exact in (
        ("simulate-exp", "exponential_power", True),
        ("simulate-halfnormal", "gaussian_power", False),
    ):
        cfg = {
            "model": {"kind": kind, "alpha": 1.0, "index_start": 1},
            "eps": 0.5,
            "trajectories": SIM_TRAJECTORIES,
            "seed": sim_seed,
            "p_grid": sorted(round(rng.uniform(1.1, 1.9), 6) for _ in range(2)),
            "u_grid": sorted(round(rng.uniform(lo, hi), 6) for lo, hi in ((0.5, 1.5), (1.5, 3.0), (3.0, 6.0))),
        }
        cells = SIM_TRAJECTORIES * resolve_n_last(plan_from_config(cfg))  # index_start = 1
        ops.append(
            _op(name, "simulate", cfg, work, "eta.csv", _simulate_check(cfg, exact), extra=("--format", "csv"),
                cells=cells)
        )
    return ops


# ---------------------------------------------------------------------------
# analytic-cli


def _check_norm(out: Path) -> list[str]:
    rep = _read(out, "norm.json")
    problems = []
    if rep["unbounded"] or not abs(rep["gls_norm"] - 1.0) <= 1e-9:
        problems.append(f"natural-weight norm {rep['gls_norm']} != 1")
    grand = rep.get("classical_grand_norm")
    if not (isinstance(grand, float) and math.isfinite(grand) and grand > 0):
        problems.append(f"classical grand norm {grand!r} is not finite and positive")
    return problems


def _power_root_conjugate(m: float, v: float) -> float:
    """sup_{p >= 1} (p v - p ln(p) / m): stationary point p = e^(m v - 1), else p = 1."""
    return math.exp(m * v - 1.0) / m if m * v >= 1.0 else v


def _check_conjugate(m: float):
    def check(out: Path) -> list[str]:
        rep = _read(out, "conjugate.json")
        problems = []
        for row in rep["conjugate"]:
            want = _power_root_conjugate(m, row["v"])
            if not abs(row["value"] - want) <= 1e-9 * max(1.0, want):
                problems.append(f"h*({row['v']}) = {row['value']}, closed form {want}")
        for row in rep["tail_bound"]:
            h = _power_root_conjugate(m, math.log(row["t"]))
            if not _close(row["value"], min(1.0, math.exp(-h)), 1e-9 * (1.0 + h)):
                problems.append(f"tail bound at t={row['t']} = {row['value']}, closed form {math.exp(-h)}")
        return problems

    return check


def _check_bound(sigma_of: Callable[[float], float] | None, bound_of: Callable[[float], float], rel: float):
    def check(out: Path) -> list[str]:
        rows = _read(out, "bound.json")["rows"]
        problems = []
        for row in rows:
            p = row["p"]
            if sigma_of is not None and not _close(row["sigma"], sigma_of(p), rel):
                problems.append(f"sigma({p}) = {row['sigma']}, closed form {sigma_of(p)}")
            if not _close(row["bound"], bound_of(p), rel):
                problems.append(f"bound({p}) = {row['bound']}, closed form {bound_of(p)}")
        return problems

    return check


def analytic_cli(seed: int, work: Path) -> list[Op]:
    from scipy.special import zeta

    rng = random.Random(seed)
    ops = []

    atoms = [round(rng.lognormvariate(0.0, 0.7), 6) for _ in range(4)]
    weights = [round(rng.uniform(0.2, 1.0), 6) for _ in range(4)]
    norm_cfg = {
        "moments": {"kind": "discrete", "atoms": atoms, "weights": weights},
        "psi": {"form": "natural"},
        "grand_q": round(rng.uniform(2.0, 5.0), 6),
    }
    ops.append(_op("norm-natural", "norm", norm_cfg, work, "norm.json", _check_norm))

    # p* = e^(m v - 1) stays below the scan cap (1e4) for m <= 2, v <= 4 and t <= 50
    m = round(rng.uniform(0.5, 2.0), 6)
    v_hi = round(rng.uniform(3.0, 4.0), 6)
    t_hi = round(rng.uniform(30.0, 50.0), 6)
    conj_cfg = {
        "psi": {"form": "power_root", "m": m},
        "v_grid": [v_hi * i / (GRID_POINTS - 1) for i in range(GRID_POINTS)],
        "t_grid": [math.e * (t_hi / math.e) ** (i / (GRID_POINTS - 1)) for i in range(GRID_POINTS)],
    }
    ops.append(_op("conjugate-power", "conjugate", conj_cfg, work, "conjugate.json", _check_conjugate(m)))

    q_big = round(rng.uniform(0.3, 0.7), 6)
    delta = round(rng.uniform(0.1, 0.9), 6)
    m_geo = round(rng.uniform(0.5, 3.0), 6)
    geo_cfg = {
        "psi": {"form": "power_root", "m": m_geo},
        "p_grid": [1.0, 1.5, 2.0, 3.0, 5.0, 8.0],
        "pair": {"eps": {"form": "geometric", "q": q_big * delta}, "beta": {"form": "geometric", "Q": q_big}},
        "rel_tol": 1e-9,
    }
    delta_eff = (q_big * delta) / q_big

    def geo_sigma(p: float) -> float:
        return (1.0 - delta_eff**p) ** (-1.0 / p)

    ops.append(
        _op("bound-geometric", "bound", geo_cfg, work, "bound.json",
            _check_bound(geo_sigma, lambda p: p ** (1.0 / m_geo) * geo_sigma(p), 1e-12))
    )

    # ratio n^(-r) with r in [1, 1.5]: sigma(p) = zeta(p r)^(1/p), finite for p >= 2
    theta = round(rng.uniform(0.2, 0.5), 6)
    r = round(rng.uniform(1.0, 1.5), 6)
    rel_tol = 1e-6
    pl_cfg = {
        "psi": {"form": "power_root", "m": 1.0},
        "p_grid": [2.0, 2.5, 3.0, 4.0, 5.0],
        "pair": {"eps": {"form": "power_log", "alpha": theta + r}, "beta": {"form": "power_log", "theta": theta}},
        "rel_tol": rel_tol,
    }
    rate = (theta + r) - theta

    def pl_sigma(p: float) -> float:
        return float(zeta(p * rate)) ** (1.0 / p)

    ops.append(
        _op("bound-powerlog", "bound", pl_cfg, work, "bound.json", _check_bound(pl_sigma, lambda p: p * pl_sigma(p), rel_tol))
    )

    eps = round(rng.uniform(0.3, 0.7), 6)
    m_reg = round(rng.uniform(0.5, 3.0), 6)
    p_lo = 1.0 / eps
    reg_cfg = {
        "psi": {"form": "power_root", "m": m_reg},
        "p_grid": [p_lo * f for f in (1.1, 1.5, 2.0, 3.0, 5.0)],
        "alpha": 1.0,
        "eps": eps,
        "index_start": int(rng.randint(1, 4)),
    }
    ops.append(
        _op("bound-regulator", "bound", reg_cfg, work, "bound.json",
            _check_bound(None, lambda p: p ** (1.0 / m_reg) * (p * eps - 1.0) ** (-1.0 / p), 1e-12))
    )
    return ops


WORKLOADS = {
    "verify-catalogue": verify_catalogue,
    "simulate-mc": simulate_mc,
    "analytic-cli": analytic_cli,
}
