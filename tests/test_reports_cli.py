"""Verdict records, artifact persistence, and the command-line surface."""

import itertools
import json
import math
import os
import shutil
import subprocess
import sys
import tarfile
import tracemalloc
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import glsreg
from glsreg import persist as persist_module
from glsreg.bounds import sigma_function
from glsreg.cli import main
from glsreg.estimates import power_mean_estimate
from glsreg.generating import Extremal, PowerRoot, Tabulated, TwoSidedSingular, natural_function
from glsreg.moments import (
    classical_grand_norm,
    constant_moments,
    empirical_tail,
    gls_norm_scan,
    half_normal_moments,
    std_exponential_moments,
    table_moments,
)
from glsreg.persist import (
    atomic_write_text,
    canonical_json,
    config_sha256,
    json_safe,
    sidecar_path,
    write_eta_samples,
    write_json,
)
from glsreg.reports import (
    HALF_WIDTH_FACTOR,
    CheckRecord,
    VerificationReport,
)
from glsreg.sequences import DecaySequencePair, GeometricSequence, PowerLogSequence
from glsreg.simulate import plan_from_config, simulate_eta

CONFIG_DIR = "configs"

NORM = {
    "schema_version": 1,
    "command": "norm",
    "psi": {"form": "power_root", "m": 1.0},
    "moments": {"kind": "std_exponential"},
}
SIMULATE = {
    "schema_version": 1,
    "command": "simulate",
    "model": {"kind": "exponential_power", "alpha": 1.0},
    "eps": 0.5,
    "trajectories": 10,
    "truncation": {"n_last": 5},
}
BOUND_REGULATOR = {
    "schema_version": 1,
    "command": "bound",
    "psi": {"form": "power_root", "m": 1.0},
    "p_grid": [3.0],
    "alpha": 1.0,
    "eps": 0.5,
}

CONJUGATE = {"schema_version": 1, "command": "conjugate", "psi": {"form": "power_root", "m": 3.0}, "v_grid": [4, 5]}


def bound_pair(eps_seq: dict, beta_seq: dict) -> dict:
    return {
        "schema_version": 1,
        "command": "bound",
        "psi": {"form": "power_root", "m": 1.0},
        "p_grid": [2.0],
        "pair": {"eps": eps_seq, "beta": beta_seq},
    }


# Every config here must exit 2: the loader rejects a NaN or Infinity
# literal or a number past the float range, the schema rejects its shape,
# or a constructor's domain check (q < Q, matching sequence types, knot
# order, matching lengths, eps < alpha) rejects its values while the
# command builds its objects.
REJECTED_CONFIGS = {
    "psi-unknown-form": {**NORM, "psi": {"form": "mystery"}},
    "psi-missing-field": {**NORM, "psi": {"form": "power_root"}},
    "psi-bad-value": {**NORM, "psi": {"form": "power_root", "m": -1.0}},
    "sequence-unknown-form": bound_pair({"form": "nope"}, {"form": "geometric", "Q": 0.5}),
    "power-log-without-rate": bound_pair({"form": "power_log"}, {"form": "power_log", "theta": 0.5}),
    "pair-q-not-below-Q": bound_pair({"form": "geometric", "q": 0.5}, {"form": "geometric", "Q": 0.25}),
    "pair-geometric-with-power-log": bound_pair({"form": "geometric", "q": 0.25}, {"form": "power_log", "theta": 0.5}),
    "slowly-varying-empty-table": bound_pair(
        {"form": "slowly_varying", "alpha": 1.0, "table": []}, {"form": "power_log", "theta": 0.5}
    ),
    "model-unknown-kind": {**SIMULATE, "model": {"kind": "bogus"}},
    "model-missing-alpha": {**SIMULATE, "model": {"kind": "exponential_power"}},
    "model-missing-kind": {**SIMULATE, "model": {"alpha": 1.0}},
    "plan-missing-eps": {k: v for k, v in SIMULATE.items() if k != "eps"},
    "plan-trajectories-not-integer": {**SIMULATE, "trajectories": "many"},
    "unknown-top-level-key": {**NORM, "colour": "blue"},
    "geometric-without-ratio": bound_pair({"form": "geometric"}, {"form": "geometric", "Q": 0.5}),
    # a sequence takes one spelling: alpha/m or theta/nu, q or Q
    "power-log-alpha-with-nu": bound_pair(
        {"form": "power_log", "alpha": 2.0, "nu": 5.0}, {"form": "power_log", "theta": 0.5}
    ),
    "power-log-theta-with-m": bound_pair(
        {"form": "power_log", "alpha": 2.0}, {"form": "power_log", "theta": 0.5, "m": 7.0}
    ),
    "power-log-alpha-and-theta": bound_pair(
        {"form": "power_log", "alpha": 2.0}, {"form": "power_log", "alpha": 0.2, "theta": 0.5}
    ),
    "geometric-q-and-Q": bound_pair({"form": "geometric", "q": 0.25}, {"form": "geometric", "q": 0.1, "Q": 0.5}),
    "table-knots-descending": {**NORM, "psi": {"form": "table", "points": [[4.0, 2.0], [1.0, 1.0]]}},
    "moments-table-knots-descending": {**NORM, "moments": {"kind": "table", "points": [[2.0, 1.0], [1.0, 1.5]]}},
    "discrete-length-mismatch": {**NORM, "moments": {"kind": "discrete", "atoms": [1.0, 2.0], "weights": [1.0]}},
    "natural-psi-without-moments": {"schema_version": 1, "command": "conjugate", "psi": {"form": "natural"}},
    # only the natural weight reads the moment curve: any other form built it and dropped it
    "conjugate-moments-unread": {**CONJUGATE, "moments": {"kind": "std_exponential"}},
    "simulate-eps-not-below-alpha": {**SIMULATE, "model": {"kind": "exponential_power", "alpha": 0.3}},
    "simulate-n-last-before-index-start": {
        **SIMULATE,
        "model": {"kind": "exponential_power", "alpha": 1.0, "index_start": 5},
        "truncation": {"n_last": 2},
    },
    "bound-eps-not-below-alpha": {**BOUND_REGULATOR, "alpha": 0.3},
    "schema-version-true": {**NORM, "schema_version": True},
    "verify-seed-past-u64": {"schema_version": 1, "command": "verify", "seed": 2**64},
    "simulate-seed-past-u64": {**SIMULATE, "seed": 2**64},
    # json.dumps writes these as the bare literals NaN and Infinity, which json.load would accept
    "simulate-p-grid-nan": {**SIMULATE, "p_grid": [math.nan]},
    "simulate-p-grid-infinity": {**SIMULATE, "p_grid": [math.inf]},
    "simulate-u-grid-nan": {**SIMULATE, "u_grid": [math.nan]},
    "simulate-p-grid-below-one": {**SIMULATE, "p_grid": [0.5]},
    "simulate-u-grid-negative": {**SIMULATE, "u_grid": [-1.0]},
    "bound-p-grid-nan": {**BOUND_REGULATOR, "p_grid": [math.nan, 3.0]},
    # an integer literal past the float range passed the schema, then died in float() with a traceback
    "bound-p-grid-integer-past-float-range": {**BOUND_REGULATOR, "p_grid": [10**400]},
    # (1, b) with b the float after 1 holds no float
    "two-sided-holds-no-float": {**NORM, "psi": {"form": "two_sided", "b": 1.0000000000000002, "alpha": 1.0, "beta": 0.0}},
    "grand-q-holds-no-float": {**NORM, "grand_q": 1.0000000000000002},
    # a field the bound mode ignores is a setting that changes nothing: the regulator takes no rel_tol,
    # the pair route no eps or index_start
    "bound-regulator-with-rel-tol": {**BOUND_REGULATOR, "rel_tol": 0.5},
    "bound-pair-with-eps-and-index-start": {
        **bound_pair({"form": "geometric", "q": 0.25}, {"form": "geometric", "Q": 0.5}),
        "eps": 0.9,
        "index_start": 7,
    },
}


def record(**kw):
    base = dict(
        check_id="demo",
        claim="estimate stays below the bound",
        kind="upper",
        theoretical=1.0,
        estimate=0.9,
    )
    base.update(kw)
    return CheckRecord(**base)


def oriented(kind: str, violation: float, **kw):
    """A record of the given kind whose violation is ``violation``."""
    sign = -1.0 if kind == "lower" else 1.0
    return record(kind=kind, theoretical=1.0, estimate=1.0 + sign * violation, **kw)


# violation, allowance, verdict of a one-sided (upper or lower) check, verdict of an equality
VERDICT_TABLE = [
    (math.nan, 0.25, "FAIL", "FAIL"),
    (0.5, 0.25, "FAIL", "FAIL"),
    (0.25, 0.25, "INCONCLUSIVE", "PASS"),
    (0.125, 0.25, "INCONCLUSIVE", "PASS"),
    (0.0, 0.25, "PASS", "PASS"),
    (-0.5, 0.25, "PASS", None),  # an equality's violation is never negative
    (1e300, math.inf, "INCONCLUSIVE", "PASS"),
    (math.nan, math.inf, "FAIL", "FAIL"),
]
VERDICT_CASES = [
    pytest.param(kind, violation, allowance, verdict, id=f"{kind}-{violation:g}-within-{allowance:g}")
    for violation, allowance, one_sided, equality in VERDICT_TABLE
    for kind, verdict in (("upper", one_sided), ("lower", one_sided), ("equality", equality))
    if verdict is not None
]


class TestCheckRecord:
    @pytest.mark.parametrize("kind, violation, allowance, verdict", VERDICT_CASES)
    def test_verdict_rule(self, kind, violation, allowance, verdict):
        r = oriented(kind, violation, tolerance=allowance)
        assert r.allowance == allowance
        assert r.violation == violation or (math.isnan(r.violation) and math.isnan(violation))
        assert r.verdict == verdict

    def test_violation_orientation(self):
        assert record(kind="upper", estimate=1.3).violation == pytest.approx(0.3)
        assert record(kind="lower", estimate=1.3).violation == pytest.approx(-0.3)
        assert record(kind="equality", estimate=0.4).violation == pytest.approx(0.6)
        assert math.isnan(record(kind="equality", estimate=math.nan).violation)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            record(kind="sideways")

    def test_allowance_composition(self):
        r = record(half_width=0.01, truncation_bound=0.002, tolerance=0.003)
        assert r.allowance == pytest.approx(HALF_WIDTH_FACTOR * 0.01 + 0.005)

    def test_verdict_uses_equality_mode(self):
        near = record(kind="equality", estimate=1.0 + 1e-9, tolerance=1e-6)
        assert near.verdict == "PASS"

    def test_to_dict_carries_derived_fields(self):
        d = record(estimate=1.2, params={"p": 3.0}).to_dict()
        assert d["verdict"] == "FAIL"
        assert d["violation"] == pytest.approx(0.2)
        assert d["params"] == {"p": 3.0}


class TestVerificationReport:
    def test_counts_and_exit(self):
        rep = VerificationReport(
            records=(record(), record(check_id="bad", estimate=2.0)),
            seed=1,
        )
        assert rep.counts() == {"PASS": 1, "FAIL": 1, "INCONCLUSIVE": 0}
        assert rep.exit_code == 1

    def test_exit_code_is_one_exactly_when_a_record_fails(self):
        by_verdict = {
            "PASS": record(),
            "FAIL": record(estimate=2.0),
            "INCONCLUSIVE": record(estimate=1.125, tolerance=0.25),
        }
        for n in range(4):
            for mix in itertools.product(by_verdict, repeat=n):
                rep = VerificationReport(records=tuple(by_verdict[v] for v in mix), seed=1)
                assert [r.verdict for r in rep.records] == list(mix)
                assert rep.exit_code == int("FAIL" in mix), mix

    def test_text_table_aligns_every_row(self):
        ids = ("demo", "norm-axioms-anti-monotonicity", "norm-axioms-extremal-reduction")
        rows = VerificationReport(records=tuple(record(check_id=i) for i in ids), seed=1).to_text().splitlines()
        head, body = rows[0], rows[2 : 2 + len(ids)]
        offset = head.index("verdict")
        for check_id, row in zip(ids, body):
            assert row[:offset].rstrip() == check_id
            assert row[offset:].startswith("PASS ")
            assert len(row) == len(head)

    def test_text_table_lists_every_check(self):
        rep = VerificationReport(records=(record(), record(check_id="second")), seed=9)
        text = rep.to_text()
        assert "demo" in text and "second" in text
        assert "pass 2  fail 0  inconclusive 0" in text
        assert "(seed 9" in text

    def test_dict_provenance(self):
        rep = VerificationReport(records=(record(),), seed=4)
        d = rep.to_dict()
        assert d["provenance"]["seed"] == 4
        assert "config_sha256" not in d["provenance"]  # the CLI adds it with the rest of its provenance
        assert d["summary"]["PASS"] == 1


class TestPersist:
    def test_json_safe_replaces_nonfinite(self):
        tree = {"a": [1.0, math.inf], "b": {"c": math.nan}, "d": "text"}
        safe = json_safe(tree)
        assert safe["a"] == [1.0, "inf"]
        assert safe["b"]["c"] == "nan"
        json.dumps(safe)

    def test_canonical_json_is_sorted_with_newline(self):
        text = canonical_json({"b": 1, "a": 2})
        assert text.index('"a"') < text.index('"b"')
        assert text.endswith("\n")

    def test_config_sha_ignores_key_order(self):
        assert config_sha256({"a": 1, "b": [2, 3]}) == config_sha256({"b": [2, 3], "a": 1})
        assert config_sha256({"a": 1}) != config_sha256({"a": 2})

    def test_atomic_write_and_json_round_trip(self, tmp_path):
        path = tmp_path / "x.json"
        atomic_write_text(path, "hello\n")
        assert path.read_text() == "hello\n"
        write_json(path, {"k": [1, 2]})
        assert json.loads(path.read_text()) == {"k": [1, 2]}

    def test_sidecar_name(self, tmp_path):
        assert str(sidecar_path(tmp_path / "eta.csv")).endswith("eta.csv.meta.json")

    def test_eta_samples_round_trip(self, tmp_path):
        samples = np.rec.fromarrays([[1.25, 0.1 + 0.2]], names="value")
        path = tmp_path / "eta.csv"
        write_eta_samples(samples, {"seed": 3}, path)
        assert path.read_bytes() == b"trajectory_id,eta_value\n0,1.25\n1,0.30000000000000004\n"
        values = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)[:, 1]
        np.testing.assert_array_equal(values, [1.25, 0.1 + 0.2])
        assert json.loads(sidecar_path(path).read_text())["seed"] == 3

    def test_eta_samples_streamed_bytes_match_one_string(self, tmp_path):
        # 40 001 rows: two full blocks of 2**14 rows and a partial one, with the extreme reprs
        values = np.random.default_rng(7).exponential(size=40_001) * 3.0
        values[[0, 16_384, 40_000]] = [5e-324, 1e300, 0.1 + 0.2]
        path = tmp_path / "eta.csv"
        write_eta_samples(np.rec.fromarrays([values], names="value"), {}, path)
        lines = ["trajectory_id,eta_value"]
        lines.extend(f"{i},{v!r}" for i, v in enumerate(values.tolist()))
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()

    def test_eta_samples_peak_memory_below_quarter_of_file(self, tmp_path, monkeypatch):
        # the peak is about one block of rows, whatever the file size; blocks of 2**10 rows
        # show that on a 1 MB file, where the default 2**14 would need a file of about 8 MB
        monkeypatch.setattr(persist_module, "_ETA_BLOCK_ROWS", 1 << 10)
        samples = np.rec.fromarrays([np.random.default_rng(8).exponential(size=40_001)], names="value")
        path = tmp_path / "eta.csv"
        tracemalloc.start()
        try:
            write_eta_samples(samples, {}, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size / 4

    def test_atomic_write_of_failing_pieces_leaves_no_file(self, tmp_path):
        def pieces():
            yield "trajectory_id,eta_value\n"
            yield "0,1.0\n"
            raise RuntimeError("formatting failed")

        path = tmp_path / "eta.csv"
        with pytest.raises(RuntimeError, match="formatting failed"):
            atomic_write_text(path, pieces())
        assert list(tmp_path.iterdir()) == []


class TestRunSuite:
    def test_unknown_check_raises(self):
        from glsreg.errors import GLSError
        from glsreg.verify import run_suite

        with pytest.raises(GLSError):
            run_suite(["no-such-check"])

    def test_subset_report_round_trips(self):
        from glsreg.verify import run_suite

        report = run_suite(["conjugate-closed-form", "sigma-closed-form"], seed=1)
        assert report.exit_code == 0
        assert report.counts()["FAIL"] == 0
        assert report.to_dict()["provenance"]["seed"] == 1
        ids = {r.check_id for r in report.records}
        assert any(i.startswith("conjugate") for i in ids)

    def test_each_plan_simulated_once_per_suite(self, monkeypatch):
        import glsreg.verify as verify

        plans = []

        def counting(plan):
            plans.append(plan)
            return glsreg.simulate.simulate_eta(plan)

        monkeypatch.setattr(verify, "simulate_eta", counting)
        checks = ["moment-sup-bound", "tail-oracle-agreement", "natural-envelope-bound", "convergence-diagnostics"]
        verify.run_suite(checks, seed=1, trajectories=500)
        assert len(plans) == 3 and len(set(plans)) == 3
        verify.run_suite(checks, seed=1, trajectories=500)
        assert len(plans) == 6

    def test_each_stream_drawn_once_per_suite(self, monkeypatch):
        # the n0 = 2 and n0 = 1 plans share every row past index 1, so the n0 = 1 plan draws
        # only its head row; the convergence check keeps its own fold pass beside simulate_eta's
        import glsreg.verify as verify
        from glsreg.simulate import resolve_n_last

        # cells are counted where every pass draws them, the shared stream layout; the caller is
        # the function that iterates it: the dense pass the convergence check runs, or simulate_eta
        passes = []
        stream = glsreg.simulate._uniform_tiles
        callers = {"simulate_trajectories": "convergence-diagnostics", "simulate_eta": "simulate_eta"}

        def counted(plan, cells):
            caller = callers[sys._getframe(1).f_code.co_name]
            drawn = 0
            for indices, columns, tile in stream(plan, cells):
                drawn += tile.size
                yield indices, columns, tile
            passes.append((caller, plan, drawn))

        monkeypatch.setattr(glsreg.simulate, "_uniform_tiles", counted)
        verify.run_suite(seed=1, trajectories=500)
        n_last = resolve_n_last(verify._exponential_plan(1, 500))
        convergence = verify._exponential_plan(1, 500, alpha=2.0)
        one_pass_per_plan = 500 * (n_last - 1) + 500 * n_last + 2 * 500 * resolve_n_last(convergence)
        assert sum(cells for *_, cells in passes) == one_pass_per_plan - 500 * (n_last - 1)
        assert [caller for caller, plan, _ in passes if plan == convergence] == [
            "convergence-diagnostics",
            "simulate_eta",
        ]

    @pytest.mark.parametrize(
        "checks, drawn",
        [
            (["moment-sup-bound", "tail-oracle-agreement", "natural-envelope-bound"], lambda n: [(2, n), (1, 1)]),
            (["tail-oracle-agreement", "moment-sup-bound"], lambda n: [(1, n), (2, n)]),  # a later start: a fresh pass
        ],
        ids=["head-fold", "fresh-pass"],
    )
    def test_shared_stream_records_match_checks_run_alone(self, monkeypatch, checks, drawn):
        import glsreg.verify as verify
        from glsreg.simulate import resolve_n_last

        together = verify.run_suite(checks, seed=1, trajectories=500)
        alone = [r for check in checks for r in verify.run_suite([check], seed=1, trajectories=500).records]
        assert [canonical_json(r.to_dict()) for r in together.records] == [canonical_json(r.to_dict()) for r in alone]
        plans = []

        def counting(plan):
            plans.append((plan.index_start, resolve_n_last(plan)))
            return glsreg.simulate.simulate_eta(plan)

        monkeypatch.setattr(verify, "simulate_eta", counting)
        verify.run_suite(checks, seed=1, trajectories=500)
        assert plans == drawn(resolve_n_last(verify._exponential_plan(1, 500)))

    def test_regulator_factorization_fails_when_eta_is_low(self):
        from glsreg.verify import _eta_values, check_convergence_diagnostics

        def lowered(plan):
            values, trunc = _eta_values(plan)
            return values * (1.0 - 1e-12), trunc

        def verdict(eta_values):
            records = check_convergence_diagnostics(1, 500, eta_values)
            return next(r.verdict for r in records if r.check_id == "regulator-factorization")

        assert verdict(_eta_values) == "PASS"
        assert verdict(lowered) == "FAIL"

    @pytest.mark.parametrize("n_last", [99, 100])
    def test_convergence_diagnostics_reject_n_last_below_the_last_window_start(self, monkeypatch, n_last):
        # the fold cannot tell a window past the data from one whose sups are 0, so the check must
        import glsreg.verify as verify
        from glsreg.errors import DomainError
        from glsreg.simulate import FixedTruncation, SimulationPlan

        planned = verify._exponential_plan

        def truncated(*args, **kwargs):
            plan = planned(*args, **kwargs)
            return SimulationPlan(plan.model, plan.eps, plan.trajectories, FixedTruncation(n_last=n_last), plan.seed)

        monkeypatch.setattr(verify, "_exponential_plan", truncated)
        if n_last < 100:
            with pytest.raises(DomainError, match="window start 100 lies past the simulated indices"):
                verify.run_suite(["convergence-diagnostics"], seed=1, trajectories=100)
        else:
            report = verify.run_suite(["convergence-diagnostics"], seed=1, trajectories=100)
            small = next(r for r in report.records if r.check_id == "criterion-small-at-100")
            assert small.estimate > 0.0  # one index in the window, and its draws are nonzero

    def test_catalogue_matches_schema_enum(self):
        from glsreg.verify import CHECKS

        schema = json.loads(resources.files("glsreg").joinpath("experiment_config.schema.json").read_text())
        branch = next(
            b for b in schema["oneOf"] if b["properties"]["command"].get("const") == "verify"
        )
        enum = set(branch["properties"]["checks"]["items"]["enum"])
        assert enum == set(CHECKS)

    @pytest.mark.parametrize("seed", [42, 7, 301])
    def test_tail_regimes_pass(self, seed):
        from glsreg.verify import CHECKS, run_suite

        ids = list(CHECKS)
        assert ids.index("tail-regimes") == ids.index("tail-asymptote") + 1
        report = run_suite(["tail-regimes"], seed=seed)
        assert [(r.check_id, r.verdict) for r in report.records] == [
            ("tail-regimes-large-u", "PASS"),
            ("tail-regimes-approach", "PASS"),
            ("tail-regimes-small-u", "PASS"),
        ]

    def test_tail_regimes_large_u_records_fail_at_a_wrong_rate(self, monkeypatch):
        # claiming the rate e^(u 2^eps) at n0 = 1 multiplies the ratio by e^(u (2^eps - 1))
        import glsreg.verify as verify
        from glsreg.simulate import exact_eta_tail

        def misrated(alpha, eps, u, **kwargs):
            return exact_eta_tail(alpha, eps, u, **kwargs) * math.exp(u * (2.0**eps - 1.0))

        monkeypatch.setattr(verify, "exact_eta_tail", misrated)
        verdicts = {r.check_id: r.verdict for r in verify.check_tail_regimes(42, 100, None)}
        assert verdicts == {
            "tail-regimes-large-u": "FAIL",
            "tail-regimes-approach": "FAIL",
            "tail-regimes-small-u": "PASS",
        }

    def test_tail_regimes_small_u_record_fails_on_the_exact_tail(self, monkeypatch):
        # the power law belongs to sigma1: the exact tail tends to 1, so its ratio reads u^(1/eps) / 2
        import glsreg.verify as verify
        from glsreg.simulate import exact_eta_tail

        def tail_for_sum(c, gamma, index_start=1):
            return exact_eta_tail(1.0, gamma, c, index_start=index_start)

        monkeypatch.setattr(verify, "exp_power_sum", tail_for_sum)
        small = next(r for r in verify.check_tail_regimes(42, 100, None) if r.check_id == "tail-regimes-small-u")
        assert small.estimate == pytest.approx(0.00125, rel=1e-6)
        assert small.verdict == "FAIL"


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args):
    result = runner.invoke(main, list(args))
    if result.exception is not None and not isinstance(result.exception, SystemExit):
        raise result.exception
    return result


def run_cli_process(tmp_path, cfg: dict) -> subprocess.CompletedProcess:
    """The CLI on ``cfg`` in a fresh interpreter, with its own stdout and stderr."""
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    package_parent = str(Path(glsreg.__file__).resolve().parent.parent)
    return subprocess.run(
        [sys.executable, "-m", "glsreg.cli", cfg["command"], "--config", str(path), "--out", str(tmp_path / "o")],
        env={**os.environ, "PYTHONPATH": os.pathsep.join([package_parent, os.environ.get("PYTHONPATH", "")])},
        capture_output=True,
        text=True,
    )


def reference_norm_axiom_violations(seed: int, cases: int) -> dict[str, float]:
    """The randomized norm-axiom sweep one case at a time, one gls_norm call per norm."""
    from glsreg.generating import Extremal, Product, natural_function
    from glsreg.moments import MomentFunction, discrete_moments, gls_norm, scaled_moments, sup_moment_function
    from glsreg.verify import _random_generating

    def random_moment_curve(rng):
        k = int(rng.integers(1, 7))
        atoms = rng.lognormal(mean=0.0, sigma=1.0, size=k)
        weights = rng.uniform(0.2, 1.0, size=k)
        return discrete_moments(atoms, weights)

    rng = np.random.default_rng(seed)
    worst = {"homogeneity": 0.0, "anti_monotonicity": -math.inf, "extremal": 0.0, "natural": 0.0}
    n_points = 96
    for _ in range(cases):
        m = random_moment_curve(rng)
        psi = _random_generating(rng)

        c = float(rng.lognormal(mean=0.0, sigma=1.0))
        base = gls_norm(m, psi, n_points=n_points, refine=False)
        scaled = gls_norm(scaled_moments(m, c), psi, n_points=n_points, refine=False)
        if math.isfinite(base) and base > 0 and math.isfinite(scaled):
            worst["homogeneity"] = max(worst["homogeneity"], abs(scaled - c * base) / (c * base))

        k = 1.0 + float(rng.uniform(0.0, 2.0))
        grown = MomentFunction(psi.domain, lambda p, k=k: np.full_like(p, k))
        big = gls_norm(m, Product((psi, grown)), n_points=n_points, refine=False)
        if math.isfinite(base) and math.isfinite(big):
            worst["anti_monotonicity"] = max(worst["anti_monotonicity"], big - base)

        r = float(rng.uniform(1.0, 8.0))
        worst["extremal"] = max(worst["extremal"], abs(gls_norm(m, Extremal(r)) - m.value(r)))

        natural = natural_function(m)
        worst["natural"] = max(worst["natural"], abs(gls_norm(m, natural, n_points=n_points, refine=False) - 1.0))
        family = sup_moment_function([m, random_moment_curve(rng)])
        fam_norm = max(
            gls_norm(member, natural_function(family), n_points=n_points, refine=False)
            for member in (m, family)
        )
        worst["natural"] = max(worst["natural"], abs(fam_norm - 1.0))
    return worst


class TestNormAxiomSweep:
    @pytest.mark.parametrize("seed, cases", [(42, 250), (7, 250), (42, 1000)])
    def test_lane_sweep_equals_one_case_at_a_time(self, seed, cases):
        from glsreg.verify import norm_axiom_violations

        got = norm_axiom_violations(seed, cases)
        want = reference_norm_axiom_violations(seed, cases)
        assert all(type(v) is float for v in got.values())
        assert got == want
        assert {k: v.hex() for k, v in got.items()} == {k: v.hex() for k, v in want.items()}

    def test_no_cases_violate_nothing(self):
        from glsreg.verify import norm_axiom_violations

        assert norm_axiom_violations(1, 0) == reference_norm_axiom_violations(1, 0)

    def test_one_scan_per_kind_of_norm(self, monkeypatch):
        from glsreg import moments
        from glsreg.verify import norm_axiom_violations

        # base, scaled, grown weight, extremal, natural and the sup family's own norm: a member's
        # norm under the family's natural weight is at most the family's, so no member is scanned
        scan, scans = moments.supremum_scan, []

        def counting(*args, **kwargs):
            scans.append(args)
            return scan(*args, **kwargs)

        monkeypatch.setattr(moments, "supremum_scan", counting)
        norm_axiom_violations(42, 10)
        assert len(scans) == 6

    def test_sweep_peak_memory_under_2_mib(self):
        from glsreg.verify import norm_axiom_violations

        # the lane tables are evaluated in chunks of at most 2**15 atom-table cells (256 KiB) and
        # the extremal scan takes the sweep's 96 points, so the sweep peaks at about 1.7 MiB; a
        # whole (atoms x lanes x n) table at once and a 250 x 512 extremal grid reached 4.87 MiB
        tracemalloc.start()
        try:
            norm_axiom_violations(42, 250)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 << 20


class TestNormCommand:
    def test_natural_curve_has_unit_norm(self, runner, tmp_path):
        out = tmp_path / "o"
        result = invoke(
            runner, "norm", "--config", f"{CONFIG_DIR}/norm_natural.json",
            "--out", str(out), "--format", "csv",
        )
        assert result.exit_code == 0
        payload = json.loads((out / "norm.json").read_text())
        assert payload["gls_norm"] == 1.0
        assert payload["classical_grand_norm"] > 0.0
        assert "config_sha256" in payload["provenance"]
        assert (out / "ratio_curve.csv").exists()

    def test_svg_format(self, runner, tmp_path):
        out = tmp_path / "o"
        result = invoke(
            runner, "norm", "--config", f"{CONFIG_DIR}/norm_natural.json",
            "--out", str(out), "--format", "svg",
        )
        assert result.exit_code == 0
        svg = (out / "ratio_curve.svg").read_text()
        assert svg.startswith("<svg") and "</svg>" in svg


    def test_two_float_interval(self, runner, tmp_path):
        # (1, b) holds the float after 1 alone, so the scan samples that one exponent
        cfg = {**NORM, "psi": {"form": "two_sided", "b": 1.0000000000000004, "alpha": 1.0, "beta": 0.0}}
        (tmp_path / "n.json").write_text(json.dumps(cfg))
        result = invoke(runner, "norm", "--config", str(tmp_path / "n.json"), "--out", str(tmp_path / "o"))
        assert result.exit_code == 0, result.output
        payload = json.loads((tmp_path / "o" / "norm.json").read_text())
        assert payload["argmax_p"] == math.nextafter(1.0, math.inf)
        assert payload["gls_norm"] == 2.0**-52  # ||f||_1 (p - 1) for the standard exponential

    def test_table_moments_frozen(self, runner, tmp_path):
        # log-log interpolation through the knots against psi(p) = p: the ratio is largest at p = 1
        cfg = {**NORM, "moments": {"kind": "table", "points": [[1, 1], [2, 1.5], [8, 3]]}, "grand_q": 3}
        (tmp_path / "n.json").write_text(json.dumps(cfg))
        result = invoke(runner, "norm", "--config", str(tmp_path / "n.json"), "--out", str(tmp_path / "o"))
        assert result.exit_code == 0, result.output
        payload = json.loads((tmp_path / "o" / "norm.json").read_text())
        del payload["provenance"]
        assert payload == {
            "command": "norm",
            "gls_norm": 1.0,
            "argmax_p": 1.0,
            "unbounded": False,
            "classical_grand_norm": 1.9999999999987836,
        }


class TestConjugateCommand:
    def test_closed_form_curve(self, runner, tmp_path):
        out = tmp_path / "o"
        result = invoke(
            runner, "conjugate", "--config", f"{CONFIG_DIR}/conjugate_power.json",
            "--out", str(out), "--format", "csv",
        )
        assert result.exit_code == 0
        rows = (out / "conjugate.csv").read_text().splitlines()
        assert rows[0] == "v,h_star"
        for line in rows[1:]:
            v, h = (float(c) for c in line.split(","))
            # below v = 1 the inner maximiser e^(v-1) sits under the p >= 1
            # floor and the sup is attained at p = 1
            expect = math.exp(v - 1.0) if v >= 1.0 else v
            assert h == pytest.approx(expect, abs=1e-6)
        tail_rows = (out / "tail_bound.csv").read_text().splitlines()
        assert tail_rows[0] == "t,bound"
        bounds = [float(line.split(",")[1]) for line in tail_rows[1:]]
        assert all(0.0 <= b <= 1.0 for b in bounds)
        assert bounds == sorted(bounds, reverse=True)

    def test_svg_with_nothing_finite(self, runner, tmp_path):
        # h*(v) = inf at v = 4 and 5 for p^(1/3): the plot keeps its frame and draws no line
        cfg = {"schema_version": 1, "command": "conjugate", "psi": {"form": "power_root", "m": 3.0}, "v_grid": [4, 5]}
        (tmp_path / "c.json").write_text(json.dumps(cfg))
        out = tmp_path / "o"
        result = invoke(runner, "conjugate", "--config", str(tmp_path / "c.json"), "--out", str(out), "--format", "svg")
        assert result.exit_code == 0
        assert [row["value"] for row in json.loads((out / "conjugate.json").read_text())["conjugate"]] == ["inf"] * 2
        svg = (out / "conjugate.svg").read_text()
        assert svg.startswith("<svg") and svg.endswith("</svg>\n")
        assert "<desc>v,h*(v)\n4.0,inf\n5.0,inf</desc>" in svg and "<polyline" not in svg

    def test_weight_past_the_float_range_keeps_stderr_empty(self, tmp_path):
        # p**(1/0.0072) passes the float range on the scan grid, where +inf is its value
        cfg = {**CONJUGATE, "psi": {"form": "power_root", "m": 0.0072}, "v_grid": [1, 2], "t_grid": [3, 10]}
        result = run_cli_process(tmp_path, cfg)
        assert result.returncode == 0, result.stderr
        assert result.stderr == ""
        payload = json.loads((tmp_path / "o" / "conjugate.json").read_text())
        # -p ln psi falls for every v below 1/m, so h*(v) = v at p = 1
        assert [row["value"] for row in payload["conjugate"]] == [1.0, 2.0]

    def test_weight_below_the_float_range_keeps_the_conjugate_finite(self, tmp_path):
        # psi = (p - 1)^-100 (10000 - p)^-100 underflows to 0 on the whole grid, so ln psi must come in closed form
        psi = {"form": "two_sided", "b": 10000.0, "alpha": 100.0, "beta": 100.0}
        result = run_cli_process(tmp_path, {**CONJUGATE, "psi": psi, "v_grid": [1], "t_grid": [3]})
        assert result.returncode == 0, result.stderr
        assert result.stderr == ""
        h_star = json.loads((tmp_path / "o" / "conjugate.json").read_text())["conjugate"][0]["value"]
        p = np.geomspace(1.0 + 1e-9, 10000.0 * (1.0 - 1e-12), 200_001)
        reference = np.max(p * (1.0 + 100.0 * np.log(p - 1.0) + 100.0 * np.log(10000.0 - p)))
        assert h_star == pytest.approx(reference, rel=1e-9)

    def test_one_scan_per_grid(self, runner, tmp_path, monkeypatch):
        from glsreg import moments

        calls = []
        scan = moments.supremum_scan

        def counted(*args, **kwargs):
            calls.append(args)
            return scan(*args, **kwargs)

        monkeypatch.setattr(moments, "supremum_scan", counted)
        cfg = {
            "schema_version": 1,
            "command": "conjugate",
            "psi": {"form": "power_root", "m": 1.3},
            "v_grid": np.linspace(0.0, 3.5, 100).tolist(),
            "t_grid": np.geomspace(math.e, 40.0, 100).tolist(),
        }
        (tmp_path / "c.json").write_text(json.dumps(cfg))
        result = invoke(runner, "conjugate", "--config", str(tmp_path / "c.json"), "--out", str(tmp_path / "o"))
        assert result.exit_code == 0
        assert len(calls) == 2


class TestBoundCommand:
    def test_sequence_mode(self, runner, tmp_path):
        out = tmp_path / "o"
        result = invoke(
            runner, "bound", "--config", f"{CONFIG_DIR}/bound_geometric.json",
            "--out", str(out), "--format", "csv",
        )
        assert result.exit_code == 0
        payload = json.loads((out / "bound.json").read_text())
        assert payload["mode"] == "sequence"
        for row in payload["rows"]:
            assert math.isfinite(row["bound"]) and row["sigma"] >= 1.0
            # psi is the power root p^(1/2), and the weighted-sum bound is psi(p) sigma(p)
            assert row["bound"] == pytest.approx(row["p"] ** 0.5 * row["sigma"], rel=1e-12)
        assert (out / "bounds.csv").read_text().splitlines()[0] == "p,sigma,bound"

    def test_regulator_mode(self, runner, tmp_path):
        out = tmp_path / "o"
        result = invoke(runner, "bound", "--config", f"{CONFIG_DIR}/bound_regulator.json", "--out", str(out))
        assert result.exit_code == 0
        payload = json.loads((out / "bound.json").read_text())
        assert payload["mode"] == "regulator"
        assert all(math.isfinite(row["bound"]) for row in payload["rows"])

    def test_svg_with_nothing_finite(self, runner, tmp_path):
        # p eps <= 1 at every exponent: every regulator bound is inf
        (tmp_path / "b.json").write_text(json.dumps({**BOUND_REGULATOR, "p_grid": [1, 1.5]}))
        out = tmp_path / "o"
        result = invoke(runner, "bound", "--config", str(tmp_path / "b.json"), "--out", str(out), "--format", "svg")
        assert result.exit_code == 0
        assert "finite at 0/2 exponents" in result.output
        svg = (out / "bounds.svg").read_text()
        assert svg.startswith("<svg") and svg.endswith("</svg>\n")
        assert "<desc>p,bound\n1.0,inf\n1.5,inf</desc>" in svg and "<polyline" not in svg

    def test_slowly_varying_pair_frozen_rows(self, runner, tmp_path):
        # ratio n^-2 ln(n+1) L(n) with L = 3, 1, 0.5, 0.5, ...; rows frozen from SlowlyVaryingSequence,
        # the class this form built before it became a PowerLogSequence table
        cfg = bound_pair(
            {"form": "slowly_varying", "alpha": 2.5, "table": [3.0, 1.0, 0.5]},
            {"form": "power_log", "theta": 0.5, "nu": 1.0},
        )
        (tmp_path / "b.json").write_text(json.dumps({**cfg, "p_grid": [1.0, 2.0, 4.0]}))
        result = invoke(runner, "bound", "--config", str(tmp_path / "b.json"), "--out", str(tmp_path / "o"))
        assert result.exit_code == 0
        rows = json.loads((tmp_path / "o" / "bound.json").read_text())["rows"]
        assert rows == [
            {"p": 1.0, "sigma": 2.7705710055252135, "bound": 2.7705710055252135},
            {"p": 2.0, "sigma": 2.1003878784964907, "bound": 4.200775756992981},
            {"p": 4.0, "sigma": 2.0796009620600726, "bound": 8.31840384824029},
        ]

    def test_series_diverging_at_one_exponent_writes_inf_rows(self, runner, tmp_path):
        # the ratio n^-1 sums to inf at p = 1: that row reads inf in every format and the command exits 0
        cfg = bound_pair({"form": "power_log", "alpha": 1.5}, {"form": "power_log", "theta": 0.5})
        (tmp_path / "b.json").write_text(json.dumps({**cfg, "p_grid": [1.0, 2.0]}))
        for fmt in ("json", "csv", "svg"):
            out = tmp_path / fmt
            result = invoke(runner, "bound", "--config", str(tmp_path / "b.json"), "--out", str(out), "--format", fmt)
            assert result.exit_code == 0
            assert "sequence bound finite at 1/2 exponents" in result.output
        assert json.loads((tmp_path / "json" / "bound.json").read_text())["rows"] == [
            {"p": 1.0, "sigma": "inf", "bound": "inf"},
            {"p": 2.0, "sigma": 1.2825494580101517, "bound": 2.5650989160203035},
        ]
        assert "1.0,inf,inf" in (tmp_path / "csv" / "bounds.csv").read_text().splitlines()
        svg = (tmp_path / "svg" / "bounds.svg").read_text()
        assert "<desc>p,bound\n1.0,inf\n2.0,2.5650989160203035</desc>" in svg
        assert '<polyline points="60.00,380.00"' in svg  # the one finite point

    def test_unreachable_tolerance_exits_1(self, runner, tmp_path):
        # p gamma - 1 = 1e-3 cannot certify 1e-9 within the term cap: a typed error, found before summing
        cfg = bound_pair({"form": "power_log", "alpha": 1.0}, {"form": "power_log", "theta": 0.5})
        (tmp_path / "b.json").write_text(json.dumps({**cfg, "p_grid": [2.002], "rel_tol": 1e-9}))
        result = runner.invoke(main, ["bound", "--config", str(tmp_path / "b.json"), "--out", str(tmp_path / "o")])
        assert result.exit_code == 1
        assert "Error: remainder bound after 100000000 terms stays above 1e-09 x the sum" in result.output
        assert not (tmp_path / "o").exists()


class TestSimulateCommand:
    def write_config(self, tmp_path, seed=3):
        cfg = {
            "schema_version": 1,
            "command": "simulate",
            "model": {"kind": "exponential_power", "alpha": 1.0},
            "eps": 0.5,
            "trajectories": 50,
            "seed": seed,
            "truncation": {"n_last": 40},
            "p_grid": [2.5],
            "u_grid": [1.0],
        }
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_far_truncation_target_exits_1_fast(self, runner, tmp_path, deadline):
        # eps 0.25 at u_min 1e-4 puts the threshold's first estimate past 2**53
        cfg = {**SIMULATE, "eps": 0.25, "trajectories": 2000, "truncation": {"u_min": 1e-4}}
        (tmp_path / "s.json").write_text(json.dumps(cfg))
        with deadline(2.0):
            result = invoke(runner, "simulate", "--config", str(tmp_path / "s.json"), "--out", str(tmp_path / "o"))
        assert result.exit_code == 1
        assert "Error: meeting rho = 5e-07 needs n_last = " in result.output
        assert "> 10000000" in result.output
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "kind, needs",
        [("exponential_power", "n_last > 1e+300"), ("gaussian_power", "n_last > 10000000")],
        ids=["exponential_power", "gaussian_power"],
    )
    def test_truncation_target_past_float_range_exits_1(self, runner, tmp_path, deadline, kind, needs):
        # u_min 1e-200 is valid under the schema, but no float index meets the target;
        # the half-normal rate u_min**2 / 2 underflows to 0 on the way
        cfg = {**SIMULATE, "model": {"kind": kind, "alpha": 1.0}, "truncation": {"u_min": 1e-200}}
        (tmp_path / "s.json").write_text(json.dumps(cfg))
        with deadline(2.0):
            result = invoke(runner, "simulate", "--config", str(tmp_path / "s.json"), "--out", str(tmp_path / "o"))
        assert result.exit_code == 1
        assert result.output.splitlines() == [f"Error: meeting rho = 0.0001 needs {needs}"]
        assert not (tmp_path / "o").exists()

    def test_index_power_past_the_float_range_exits_1(self, tmp_path):
        # the half-normal rate u_min**2 / 2 = 5e-321 puts the threshold near 7.2e201 at eps 0.8,
        # where n**1.6 alone passes the float range: a typed error, not a traceback
        model = {"kind": "gaussian_power", "alpha": 1.0}
        result = run_cli_process(tmp_path, {**SIMULATE, "model": model, "eps": 0.8, "truncation": {"u_min": 1e-160}})
        assert result.returncode == 1
        assert result.stderr.startswith("Error: meeting rho = 0.0001 needs n_last = ")
        assert result.stderr.endswith(" > 10000000\n") and "Traceback" not in result.stderr
        assert not (tmp_path / "o").exists()

    def test_reruns_are_byte_identical(self, runner, tmp_path):
        cfg = self.write_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        first = invoke(runner, "simulate", "--config", str(cfg), "--out", str(out1), "--format", "csv")
        assert first.exit_code == 0
        assert invoke(runner, "simulate", "--config", str(cfg), "--out", str(out2)).exit_code == 0
        assert (out1 / "eta.csv").read_bytes() == (out2 / "eta.csv").read_bytes()
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()
        assert (out1 / "tails.csv").exists()
        meta = json.loads((out1 / "eta.csv.meta.json").read_text())
        assert meta["seed"] == 3 and meta["n_last"] == 40

    def test_one_trajectory_has_infinite_half_widths(self, runner, tmp_path):
        cfg = {**SIMULATE, "trajectories": 1, "p_grid": [1.5, 2.5]}
        (tmp_path / "s.json").write_text(json.dumps(cfg))
        result = invoke(runner, "simulate", "--config", str(tmp_path / "s.json"), "--out", str(tmp_path / "o"))
        assert result.exit_code == 0, result.output
        p_norms = json.loads((tmp_path / "o" / "summary.json").read_text())["p_norms"]
        assert [row["p"] for row in p_norms] == [1.5, 2.5]
        assert [row["half_width"] for row in p_norms] == ["inf", "inf"]

    def test_seed_flag_overrides_config(self, runner, tmp_path):
        cfg = self.write_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        invoke(runner, "simulate", "--config", str(cfg), "--out", str(out1))
        invoke(runner, "simulate", "--config", str(cfg), "--out", str(out2), "--seed", "4")
        assert (out1 / "eta.csv").read_bytes() != (out2 / "eta.csv").read_bytes()
        assert json.loads((out2 / "summary.json").read_text())["provenance"]["seed"] == 4


class TestVerifyCommand:
    def test_fast_suite_passes(self, runner, tmp_path):
        out = tmp_path / "o"
        result = invoke(
            runner, "verify", "--config", f"{CONFIG_DIR}/verify_fast.json",
            "--out", str(out), "--format", "csv",
        )
        assert result.exit_code == 0
        payload = json.loads((out / "report.json").read_text())
        assert payload["summary"]["FAIL"] == 0
        assert payload["summary"]["PASS"] > 0
        assert (out / "report.txt").exists()
        rows = (out / "report.csv").read_text().splitlines()
        assert rows[0] == "check_id,verdict,violation,allowance"
        assert "pass" in result.output

    def test_seed_flag_lands_in_provenance(self, runner, tmp_path):
        out = tmp_path / "o"
        invoke(
            runner, "verify", "--config", f"{CONFIG_DIR}/verify_fast.json",
            "--out", str(out), "--seed", "123",
        )
        payload = json.loads((out / "report.json").read_text())
        assert payload["provenance"]["seed"] == 123


def _psi_form(psi_cfg: dict, psi):
    """A norm config with this psi block; its report against gls_norm_scan on ``psi``."""

    def expected() -> dict:
        scan = gls_norm_scan(std_exponential_moments(), psi)
        return {"gls_norm": scan.value, "argmax_p": scan.argmax, "unbounded": scan.unbounded}

    return {**NORM, "psi": psi_cfg}, "norm.json", expected


def _moments_form(moments_cfg: dict, curve):
    """A norm config with this moments block and grand_q 3; its report against the library on ``curve()``."""

    def expected() -> dict:
        scan = gls_norm_scan(curve(), PowerRoot(m=1.0))
        grand = classical_grand_norm(curve(), 3.0)
        return {"gls_norm": scan.value, "argmax_p": scan.argmax, "classical_grand_norm": grand}

    return {**NORM, "moments": moments_cfg, "grand_q": 3}, "norm.json", expected


def _pair_form(eps_cfg: dict, beta_cfg: dict, eps_seq, beta_seq):
    """A sequence-mode bound config with this pair block; its rows against sigma_function on the pair."""
    p_grid = [2.0, 3.0]

    def expected() -> dict:
        pair = DecaySequencePair(eps_seq, beta_seq)
        sigmas = [sigma_function(pair, p) for p in p_grid]
        return {"rows": [{"p": p, "sigma": s, "bound": p * s} for p, s in zip(p_grid, sigmas)]}  # psi(p) = p

    return {**bound_pair(eps_cfg, beta_cfg), "p_grid": p_grid}, "bound.json", expected


def _simulate_grids():
    """A simulate config with both report grids; its summary against the estimators on simulate_eta."""
    cfg = {**SIMULATE, "trajectories": 200, "truncation": {"n_last": 40}, "p_grid": [1.5, 2.5], "u_grid": [0.5, 1, 3]}

    def expected() -> dict:
        values = simulate_eta(plan_from_config(cfg)).value
        p_norms = [(p, power_mean_estimate(values, p)) for p in (1.5, 2.5)]
        tails = [(u, empirical_tail(values, u)) for u in (0.5, 1.0, 3.0)]  # the report writes u 1 as 1.0
        return {
            "p_norms": [{"p": p, "value": e.value, "half_width": e.half_width} for p, e in p_norms],
            "tails": [{"u": u, "value": e.value, "half_width": e.half_width} for u, e in tails],
        }

    return cfg, "summary.json", expected


# Every config form the CLI's readers build: (config, report file, the report's entries from direct library calls)
CONFIG_FORMS = {
    "psi-power-root": _psi_form({"form": "power_root", "m": 1}, PowerRoot(m=1.0)),
    "psi-two-sided": _psi_form(
        {"form": "two_sided", "b": 4.0, "alpha": 0.5, "beta": 1.0}, TwoSidedSingular(b=4.0, alpha=0.5, beta=1.0)
    ),
    "psi-extremal": _psi_form({"form": "extremal", "r": 2.0}, Extremal(r=2.0)),
    "psi-table": _psi_form(
        {"form": "table", "points": [[1, 1.0], [4.0, 4]]}, Tabulated(points=((1.0, 1.0), (4.0, 4.0)))
    ),
    "psi-natural": _psi_form({"form": "natural"}, natural_function(std_exponential_moments())),
    "moments-half-normal": _moments_form({"kind": "half_normal"}, half_normal_moments),
    "moments-constant": _moments_form({"kind": "constant", "value": 2.5}, lambda: constant_moments(2.5)),
    "moments-table": _moments_form(
        {"kind": "table", "points": [[1, 1], [2, 1.5], [8, 3]]},
        lambda: table_moments([1.0, 2.0, 8.0], [1.0, 1.5, 3.0]),
    ),
    "power-log-alpha-m": _pair_form(
        {"form": "power_log", "alpha": 2.0, "m": 1.0},
        {"form": "power_log", "alpha": 0.5, "m": -1.0},
        PowerLogSequence(rate=2.0, log_power=1.0),
        PowerLogSequence(rate=0.5, log_power=-1.0),
    ),
    "power-log-theta-nu": _pair_form(
        {"form": "power_log", "theta": 2.0, "nu": 1.0},
        {"form": "power_log", "theta": 0.5, "nu": -0.5},
        PowerLogSequence(rate=2.0, log_power=-1.0),
        PowerLogSequence(rate=0.5, log_power=0.5),
    ),
    "geometric-q-Q-scale": _pair_form(
        {"form": "geometric", "q": 0.25, "scale": 3.0},
        {"form": "geometric", "Q": 0.5, "scale": 2.0},
        GeometricSequence(q=0.25, scale=3.0),
        GeometricSequence(q=0.5, scale=2.0),
    ),
    "slowly-varying": _pair_form(
        {"form": "slowly_varying", "alpha": 2.5, "table": [3.0, 1.0, 0.5]},
        {"form": "slowly_varying", "alpha": 0.5, "table": [1, 2.0]},
        PowerLogSequence(rate=2.5, table=(3.0, 1.0, 0.5)),
        PowerLogSequence(rate=0.5, table=(1.0, 2.0)),
    ),
    "simulate-report-grids": _simulate_grids(),
}


class TestConfigForms:
    @pytest.mark.parametrize("cfg, report, expected", CONFIG_FORMS.values(), ids=CONFIG_FORMS.keys())
    def test_command_matches_library(self, runner, tmp_path, cfg, report, expected):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        result = invoke(runner, cfg["command"], "--config", str(path), "--out", str(tmp_path / "o"))
        assert result.exit_code == 0, result.output
        payload = json.loads((tmp_path / "o" / report).read_text())
        want = json_safe(expected())  # as the report writes it
        assert {key: payload[key] for key in want} == want


# One small config per command for the artifact table; SIMULATE has no u_grid
ARTIFACT_CONFIGS = {
    "norm": NORM,
    "conjugate": {"schema_version": 1, "command": "conjugate", "psi": {"form": "power_root", "m": 1.0}},
    "bound": BOUND_REGULATOR,
    "simulate": SIMULATE,
    "verify": {"schema_version": 1, "command": "verify", "checks": ["conjugate-closed-form"], "seed": 1},
}
REPORTS = {
    "norm": {"norm.json"},
    "conjugate": {"conjugate.json"},
    "bound": {"bound.json"},
    "simulate": {"summary.json", "eta.csv", "eta.csv.meta.json"},
    "verify": {"report.json", "report.txt"},
}
EXTRAS = {
    ("norm", "csv"): {"ratio_curve.csv"},
    ("norm", "svg"): {"ratio_curve.svg"},
    ("conjugate", "csv"): {"conjugate.csv", "tail_bound.csv"},
    ("conjugate", "svg"): {"conjugate.svg"},
    ("bound", "csv"): {"bounds.csv"},
    ("bound", "svg"): {"bounds.svg"},
    ("simulate", "svg"): {"tails.svg"},
    ("verify", "csv"): {"report.csv"},
}


class TestArtifactMap:
    @pytest.mark.parametrize("fmt", ["json", "csv", "svg"])
    @pytest.mark.parametrize("command", list(ARTIFACT_CONFIGS))
    def test_each_run_writes_exactly_its_files(self, runner, tmp_path, command, fmt):
        (tmp_path / "c.json").write_text(json.dumps(ARTIFACT_CONFIGS[command]))
        out = tmp_path / "o"
        result = invoke(runner, command, "--config", str(tmp_path / "c.json"), "--out", str(out), "--format", fmt)
        assert result.exit_code == 0, result.output
        written = {path.name for path in out.iterdir()}
        assert written == REPORTS[command] | EXTRAS.get((command, fmt), set())


class TestCliErrors:
    def test_missing_config_file(self, runner, tmp_path):
        result = runner.invoke(main, ["norm", "--config", str(tmp_path / "nope.json")])
        assert result.exit_code == 2

    def test_invalid_json(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        result = runner.invoke(main, ["norm", "--config", str(bad)])
        assert result.exit_code == 2

    def test_command_mismatch(self, runner, tmp_path):
        result = runner.invoke(
            main, ["conjugate", "--config", f"{CONFIG_DIR}/norm_natural.json", "--out", str(tmp_path)]
        )
        assert result.exit_code == 2
        assert "norm" in result.output

    def test_schema_violation_points_at_field(self, runner, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(
            json.dumps(
                {
                    "schema_version": 1,
                    "command": "norm",
                    "moments": {"kind": "bogus"},
                    "psi": {"form": "power_root", "m": 1.0},
                }
            )
        )
        result = runner.invoke(main, ["norm", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert result.exit_code == 2
        assert "moments" in result.output

    def test_unknown_check_id_rejected(self, runner, tmp_path):
        cfg = tmp_path / "v.json"
        cfg.write_text(
            json.dumps({"schema_version": 1, "command": "verify", "checks": ["not-a-check"]})
        )
        result = runner.invoke(main, ["verify", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert result.exit_code == 2

    def test_help_lists_common_flags(self, runner, tmp_path):
        configs = {
            "norm": "norm_natural",
            "conjugate": "conjugate_power",
            "bound": "bound_regulator",
            "simulate": "simulate_small",
            "verify": "verify_fast",
        }
        for command, config in configs.items():
            result = runner.invoke(main, [command, "--help"])
            assert result.exit_code == 0
            for flag in ("--config", "--out", "--format"):
                assert flag in result.output, (command, flag)
            assert "--threads" not in result.output
            assert ("--seed" in result.output) == (command in ("simulate", "verify")), command
            if command not in ("simulate", "verify"):
                args = [command, "--config", f"{CONFIG_DIR}/{config}.json", "--out", str(tmp_path), "--seed", "5"]
                rejected = runner.invoke(main, args)
                assert rejected.exit_code == 2 and "No such option '--seed'" in rejected.output, command

    @pytest.mark.parametrize("cfg", REJECTED_CONFIGS.values(), ids=REJECTED_CONFIGS.keys())
    def test_rejected_config_exits_2(self, runner, tmp_path, cfg):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        result = runner.invoke(main, [cfg["command"], "--config", str(path), "--out", str(tmp_path / "o")])
        assert result.exit_code == 2, result.output
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "command, text, encoding",
        [
            # 1e400 read as inf: bound wrote "p": "inf" rows and exited 0, conjugate exited 1
            ("bound", json.dumps(BOUND_REGULATOR).replace("[3.0]", "[1e400]"), "utf-8"),
            ("conjugate", json.dumps(CONJUGATE).replace("[4, 5]", "[4, 1e400]"), "utf-8"),
            # a file that is not UTF-8 died with a UnicodeDecodeError traceback and exit 1
            ("norm", json.dumps(NORM), "utf-16"),
        ],
        ids=["bound-p-grid-1e400", "conjugate-v-grid-1e400", "norm-utf-16"],
    )
    def test_config_text_outside_json_exits_2(self, runner, tmp_path, command, text, encoding):
        path = tmp_path / "bad.json"
        path.write_bytes(text.encode(encoding))
        result = runner.invoke(main, [command, "--config", str(path), "--out", str(tmp_path / "o")])
        assert result.exit_code == 2, result.output
        assert "config is not valid JSON" in result.output
        assert not (tmp_path / "o").exists()

    def test_seed_at_the_largest_u64_loads(self, runner, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**SIMULATE, "seed": 2**64 - 1}))
        result = runner.invoke(main, ["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
        assert result.exit_code == 0, result.output
        assert json.loads((tmp_path / "o" / "summary.json").read_text())["provenance"]["seed"] == 2**64 - 1

    def test_mixed_sequence_spelling_names_its_key(self, runner, tmp_path):
        # no key of the other spelling is silently dropped, nor settled by precedence
        for name, where in (
            ("power-log-alpha-with-nu", "pair/eps/nu"),
            ("power-log-theta-with-m", "pair/beta/m"),
            ("power-log-alpha-and-theta", "pair/beta/theta"),
            ("geometric-q-and-Q", "pair/beta/Q"),
        ):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(REJECTED_CONFIGS[name]))
            result = runner.invoke(main, ["bound", "--config", str(path), "--out", str(tmp_path / name)])
            assert result.exit_code == 2, name
            assert f"config rejected by schema at {where}: additional properties are not allowed" in result.output

    def test_version_option(self, runner):
        result = runner.invoke(main, ["--version"])
        assert result.exit_code == 0
        assert glsreg.__version__ in result.output


class TestPackaging:
    def test_copied_package_validates_configs(self, tmp_path):
        # the package alone, as an installed copy sees it: no source tree around it
        site = tmp_path / "site"
        shutil.copytree(Path(glsreg.__file__).parent, site / "glsreg", ignore=shutil.ignore_patterns("__pycache__"))
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(REJECTED_CONFIGS["unknown-top-level-key"]))
        result = subprocess.run(
            [sys.executable, "-m", "glsreg.cli", "norm", "--config", str(cfg), "--out", str(tmp_path / "o")],
            cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": str(site)},
            capture_output=True,
            text=True,
        )
        assert result.returncode == 2, result.stderr
        assert "colour" in result.stderr

    def test_sdist_ships_schema(self, tmp_path):
        root = Path(__file__).resolve().parents[1]
        tree = tmp_path / "tree"
        shutil.copytree(root / "src", tree / "src", ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        for name in ("pyproject.toml", "README.md"):
            shutil.copy(root / name, tree / name)
        dist = tmp_path / "dist"
        build = "import sys, setuptools.build_meta as backend; backend.build_sdist(sys.argv[1])"
        result = subprocess.run([sys.executable, "-c", build, str(dist)], cwd=tree, capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        (sdist,) = dist.glob("glsreg-*.tar.gz")
        assert sdist.name == f"glsreg-{glsreg.__version__}.tar.gz"
        with tarfile.open(sdist) as tar:
            names = tar.getnames()
        assert f"glsreg-{glsreg.__version__}/src/glsreg/experiment_config.schema.json" in names
