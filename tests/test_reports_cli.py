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
from glsreg.cli import main
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


def bound_pair(eps_seq: dict, beta_seq: dict) -> dict:
    return {
        "schema_version": 1,
        "command": "bound",
        "psi": {"form": "power_root", "m": 1.0},
        "p_grid": [2.0],
        "pair": {"eps": eps_seq, "beta": beta_seq},
    }


# Every config here must exit 2: the loader rejects a NaN or Infinity
# literal, the schema rejects its shape, or a constructor's domain check
# (q < Q, knot order, matching lengths, eps < alpha) rejects its values
# while the command builds its objects.
REJECTED_CONFIGS = {
    "psi-unknown-form": {**NORM, "psi": {"form": "mystery"}},
    "psi-missing-field": {**NORM, "psi": {"form": "power_root"}},
    "psi-bad-value": {**NORM, "psi": {"form": "power_root", "m": -1.0}},
    "sequence-unknown-form": bound_pair({"form": "nope"}, {"form": "geometric", "Q": 0.5}),
    "power-log-without-rate": bound_pair({"form": "power_log"}, {"form": "power_log", "theta": 0.5}),
    "pair-q-not-below-Q": bound_pair({"form": "geometric", "q": 0.5}, {"form": "geometric", "Q": 0.25}),
    "model-unknown-kind": {**SIMULATE, "model": {"kind": "bogus"}},
    "model-missing-alpha": {**SIMULATE, "model": {"kind": "exponential_power"}},
    "model-missing-kind": {**SIMULATE, "model": {"alpha": 1.0}},
    "plan-missing-eps": {k: v for k, v in SIMULATE.items() if k != "eps"},
    "plan-trajectories-not-integer": {**SIMULATE, "trajectories": "many"},
    "unknown-top-level-key": {**NORM, "colour": "blue"},
    "geometric-without-ratio": bound_pair({"form": "geometric"}, {"form": "geometric", "Q": 0.5}),
    "table-knots-descending": {**NORM, "psi": {"form": "table", "points": [[4.0, 2.0], [1.0, 1.0]]}},
    "discrete-length-mismatch": {**NORM, "moments": {"kind": "discrete", "atoms": [1.0, 2.0], "weights": [1.0]}},
    "natural-psi-without-moments": {"schema_version": 1, "command": "conjugate", "psi": {"form": "natural"}},
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
    "bound-p-grid-nan": {**BOUND_REGULATOR, "p_grid": [math.nan, 3.0]},
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
        rep = VerificationReport(records=(record(),), seed=4, config_sha256="abc")
        d = rep.to_dict()
        assert d["provenance"]["seed"] == 4
        assert d["provenance"]["config_sha256"] == "abc"
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

        report = run_suite(["conjugate-closed-form", "sigma-closed-form"], seed=1, config_sha="deadbeef")
        assert report.exit_code == 0
        assert report.counts()["FAIL"] == 0
        assert report.to_dict()["provenance"]["config_sha256"] == "deadbeef"
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

    def test_catalogue_matches_schema_enum(self):
        from glsreg.verify import CHECKS

        schema = json.loads(resources.files("glsreg").joinpath("experiment_config.schema.json").read_text())
        branch = next(
            b for b in schema["oneOf"] if b["properties"]["command"].get("const") == "verify"
        )
        enum = set(branch["properties"]["checks"]["items"]["enum"])
        assert enum == set(CHECKS)


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args):
    result = runner.invoke(main, list(args))
    if result.exception is not None and not isinstance(result.exception, SystemExit):
        raise result.exception
    return result


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

    def test_unreachable_tolerance_exits_1(self, runner, tmp_path):
        # p gamma - 1 = 1e-3 cannot certify 1e-9 within the term cap: a typed error, found before summing
        cfg = bound_pair({"form": "power_log", "alpha": 1.0}, {"form": "power_log", "theta": 0.5})
        (tmp_path / "b.json").write_text(json.dumps({**cfg, "p_grid": [2.002], "rel_tol": 1e-9}))
        result = runner.invoke(main, ["bound", "--config", str(tmp_path / "b.json"), "--out", str(tmp_path / "o")])
        assert result.exit_code == 1
        assert "Error: remainder bound after 100000000 terms stays above 1e-09 x the sum" in result.output


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

    def test_normaliser_rate_wins_over_numerator_rate(self, runner, tmp_path):
        rows = {}
        for name, beta in (
            ("both", {"form": "power_log", "alpha": 0.2, "theta": 0.5}),
            ("theta", {"form": "power_log", "theta": 0.5}),
        ):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(bound_pair({"form": "power_log", "alpha": 2.0}, beta)))
            result = invoke(runner, "bound", "--config", str(path), "--out", str(tmp_path / name))
            assert result.exit_code == 0
            rows[name] = json.loads((tmp_path / name / "bound.json").read_text())["rows"]
        assert rows["both"] == rows["theta"]

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
