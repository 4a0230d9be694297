"""Spans around glsreg's public layer functions, and the per-layer metrics read from them.

Spans are recorded from the benchmark's files only.  ``instrument`` swaps each
function named in ``LAYER_FUNCTIONS`` for a wrapper that opens a span around
the call, in every loaded ``glsreg`` module that holds the function (so the
names ``glsreg.verify`` imported are wrapped too, and oracle and simulation
spans nest under the check that made them), and gives every entry of
``glsreg.verify.CHECKS`` a span of its own.  The originals go back on exit.
Spans stay in memory until the run writes its trace file.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import math
import os
import statistics
import sys
import time

#: Public functions that get a span, with the arguments recorded on it.
LAYER_FUNCTIONS = {
    "glsreg.verify": {"run_suite": ("seed", "trajectories"), "norm_axiom_violations": ("seed", "cases")},
    "glsreg.simulate": {
        "simulate_eta": ("plan",),
        "simulate_trajectories": ("plan",),
        "exact_eta_tail": ("u",),
        "exact_eta_moment": ("p",),
        "bonferroni_sums": ("u",),
    },
    "glsreg.criteria": {"criterion_functional": ("n",), "extract_regulator": ()},
    "glsreg.moments": {
        "gls_norm_scan": (),
        "classical_grand_norm": ("q",),
        "young_fenchel": ("v",),
        "exponential_tail_bound": ("t",),
    },
    "glsreg.bounds": {"sigma_function": ("p", "force_series"), "regulator_lp_bound": ("p",)},
    "glsreg.persist": {"write_eta_samples": ("samples", "path")},
    "glsreg.estimates": {"power_mean_estimate": ("samples", "p")},
}

#: Check ids of the default verify catalogue; each should get a ``verify.<id>`` span.
CHECK_IDS = (
    "moment-sup-bound",
    "tail-oracle-agreement",
    "bonferroni-sandwich",
    "tail-asymptote",
    "moment-blowup-bracket",
    "natural-envelope-bound",
    "sigma-closed-form",
    "conjugate-closed-form",
    "norm-axioms",
    "convergence-diagnostics",
)

MOMENT_P = (1.0, 1.5, 1.8, 1.98)
TAIL_U_REPS = ((0.01, 3), (0.1, 10), (1.0, 50), (10.0, 50))
BONFERRONI_U_REPS = ((0.05, 10), (1.0, 50), (100.0, 50))
SIM_100K = 100_000


class Tracer:
    """In-memory span recorder: name, start, end, parent and call attributes."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        rec = {"id": len(self.spans), "name": name, "parent": self._open[-1] if self._open else None, "attrs": attrs}
        self.spans.append(rec)
        self._open.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def wrap(self, fn, name: str, params=()):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = {}
            if params:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for key in params:
                    attrs.update(_describe(key, bound.arguments[key]))
            with self.span(name, **attrs) as rec:
                result = fn(*args, **kwargs)
            if "path" in attrs:
                rec["attrs"]["bytes"] = os.path.getsize(attrs["path"])
            return result

        return traced

    def find(self, name: str, within: dict | None = None, **attrs) -> list[dict]:
        """Spans called ``name`` whose attributes match, optionally inside span ``within``."""
        return [
            s
            for s in self.spans
            if s["name"] == name
            and all(s["attrs"].get(k) == v for k, v in attrs.items())
            and (within is None or self.inside(s, within["id"]))
        ]

    def inside(self, span: dict, ancestor: int) -> bool:
        parent = span["parent"]
        while parent is not None:
            if parent == ancestor:
                return True
            parent = self.spans[parent]["parent"]
        return False


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def _describe(key: str, value) -> dict:
    if hasattr(value, "trajectories") and hasattr(value, "model"):  # a SimulationPlan
        from glsreg.simulate import resolve_n_last

        n_last = resolve_n_last(value)
        return {
            "model": value.model.kind,
            "trajectories": value.trajectories,
            "n_last": n_last,
            "cells": value.trajectories * (n_last - value.index_start + 1),
        }
    if isinstance(value, (bool, int, float, str)):
        return {key: value}
    if isinstance(value, os.PathLike):
        return {key: os.fspath(value)}
    return {key: len(value)}


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap every layer function and verify check in spans for the duration of the block."""
    import glsreg.verify

    replacement = {}
    for module_name, functions in LAYER_FUNCTIONS.items():
        module = importlib.import_module(module_name)
        for fname, params in functions.items():
            original = getattr(module, fname)
            replacement[id(original)] = (original, tracer.wrap(original, f"{module_name[7:]}.{fname}", params))

    patches = []  # (namespace, key, original, wrapper)
    modules = [m for n, m in sys.modules.items() if n == "glsreg" or n.startswith("glsreg.")]
    for module in modules:
        namespace = vars(module)
        for key, value in list(namespace.items()):
            hit = replacement.get(id(value))
            if hit is not None and hit[0] is value:
                patches.append((namespace, key, value, hit[1]))
    checks = glsreg.verify.CHECKS
    patches.extend((checks, cid, fn, tracer.wrap(fn, f"verify.{cid}")) for cid, fn in list(checks.items()))

    for namespace, key, _, wrapper in patches:
        namespace[key] = wrapper
    try:
        yield
    finally:
        for namespace, key, original, _ in reversed(patches):
            namespace[key] = original


# ---------------------------------------------------------------------------
# probes: direct calls that supply the layers a workload's operations do not reach


def run_layer_probes(tracer: Tracer, seed: int, scratch) -> None:
    """Call each layer with fixed inputs, inside ``instrument``.

    The whole catalogue and the 100k simulations run only when the workload's
    own traced operations have not already recorded them.
    """
    import numpy as np

    from glsreg import bounds, estimates, generating, moments, persist, sequences, simulate, verify

    sim_seed = seed % 2**32
    if not tracer.find("verify.run_suite"):
        with tracer.span("probe.verify-suite"):
            verify.run_suite(seed=sim_seed, trajectories=20_000)

    for model in (simulate.ExponentialPower(alpha=1.0), simulate.GaussianPower(alpha=1.0)):
        if tracer.find("simulate.simulate_eta", model=model.kind, trajectories=SIM_100K):
            continue
        with tracer.span(f"probe.simulate-{model.kind}"):
            plan = simulate.SimulationPlan(model=model, eps=0.5, trajectories=SIM_100K, seed=sim_seed)
            samples = simulate.simulate_eta(plan)
            if model.kind == "exponential_power":
                persist.write_eta_samples(samples, {}, scratch / "probe-eta.csv")
                estimates.power_mean_estimate(np.asarray([s.value for s in samples]), 1.5)

    with tracer.span("probe.exact-tail"):
        for u, reps in TAIL_U_REPS:
            for _ in range(reps):
                simulate.exact_eta_tail(1.0, 0.5, u)
    with tracer.span("probe.bonferroni"):
        for u, reps in BONFERRONI_U_REPS:
            for _ in range(reps):
                simulate.bonferroni_sums(0.5, u)

    exp_moments = moments.std_exponential_moments()
    natural = generating.natural_function(exp_moments)
    power_root = generating.PowerRoot(m=1.0)
    with tracer.span("probe.gls-norm-scan"):
        for _ in range(10):
            moments.gls_norm_scan(exp_moments, natural)
    with tracer.span("probe.classical-grand-norm"):
        for _ in range(10):
            moments.classical_grand_norm(exp_moments, 3.0)
    with tracer.span("probe.young-fenchel"):
        for v in np.linspace(0.0, 4.0, 40):
            moments.young_fenchel(power_root, float(v))
    with tracer.span("probe.exponential-tail-bound"):
        for t in np.geomspace(math.e, 50.0, 40):
            moments.exponential_tail_bound(power_root, float(t))

    power_pair = sequences.DecaySequencePair(sequences.PowerLogSequence(rate=1.5), sequences.PowerLogSequence(rate=0.5))
    geometric_pair = sequences.DecaySequencePair(sequences.GeometricSequence(q=0.45), sequences.GeometricSequence(q=0.5))
    envelope = bounds.MomentEnvelope(power_root, alpha=1.0)
    with tracer.span("probe.sigma-power-log"):
        for p in (2.0, 5.0):
            for _ in range(5):
                bounds.sigma_function(power_pair, p)
    with tracer.span("probe.sigma-geometric-series"):
        for _ in range(20):
            bounds.sigma_function(geometric_pair, 1.0, 1e-9, force_series=True)
    with tracer.span("probe.regulator-lp-bound"):
        for _ in range(50):
            bounds.regulator_lp_bound(envelope, 0.5, 4.0)


# ---------------------------------------------------------------------------
# per-layer metrics


def layer_metrics(tracer: Tracer) -> tuple[dict, list[str]]:
    """Per-layer metrics from the recorded spans, plus the metrics whose span is missing."""
    metrics: dict[str, dict] = {}
    missing: list[str] = []
    nowhere = {"id": -1}  # stands in for a missing parent span: nothing is found inside it

    def put(name: str, unit: str, value) -> None:
        metrics[name] = {"value": value, "unit": unit}

    def first(metric: str, span_name: str, within=None, **attrs):
        found = tracer.find(span_name, within, **attrs)
        if not found:
            missing.append(metric)
            return None
        return found[0]

    def scope(span):
        return nowhere if span is None else span

    def timed(metric: str, span_name: str, within=None, reduce=statistics.median, **attrs) -> None:
        found = tracer.find(span_name, within, **attrs)
        if found:
            put(metric, "s", reduce([duration(s) for s in found]))
        else:
            missing.append(metric)

    def simulation(label: str, span) -> None:
        if span is not None:
            put(f"simulate.{span['name'][9:]}.{label}.cells_per_s", "1/s", span["attrs"]["cells"] / duration(span))
            put(f"simulate.n_last.{label}", "count", span["attrs"]["n_last"])
            if span["name"] == "simulate.simulate_eta":
                put(f"simulate.simulate_eta.{label}.s", "s", duration(span))

    suite = first("verify.run_suite", "verify.run_suite")
    checks = {cid: first(f"verify.{cid}.s", f"verify.{cid}", scope(suite)) for cid in CHECK_IDS}
    for cid, span in checks.items():
        if span is not None:
            put(f"verify.{cid}.s", "s", duration(span))
    if suite is not None:
        ops = [s for s in tracer.spans if s["name"].startswith("op.") and tracer.inside(suite, s["id"])]
        covered = sum(duration(s) for s in checks.values() if s is not None)
        put("verify.check_span_share", "ratio", covered / duration(ops[0] if ops else suite))

    timed("verify.norm_axiom_violations.s", "verify.norm_axiom_violations", scope(checks["norm-axioms"]))
    for p in MOMENT_P:
        name = f"simulate.exact_eta_moment.p{p:g}"
        span = first(f"{name}.s", "simulate.exact_eta_moment", scope(checks["moment-blowup-bracket"]), p=p)
        if span is not None:
            put(f"{name}.s", "s", duration(span))
            put(f"{name}.tail_evals", "count", len(tracer.find("simulate.exact_eta_tail", span)))
    oracle = scope(checks["tail-oracle-agreement"])
    simulation("exp-20k", first("simulate.simulate_eta.exp-20k.s", "simulate.simulate_eta", oracle))
    diagnostics = scope(checks["convergence-diagnostics"])
    simulation("10k", first("simulate.simulate_trajectories.10k", "simulate.simulate_trajectories", diagnostics))
    timed("criteria.extract_regulator.s", "criteria.extract_regulator", diagnostics)
    timed("criteria.criterion_functional.s", "criteria.criterion_functional", diagnostics, reduce=sum)

    for label, kind in (("exp-100k", "exponential_power"), ("halfnormal-100k", "gaussian_power")):
        simulation(label, first(f"simulate.simulate_eta.{label}.s", "simulate.simulate_eta", model=kind, trajectories=SIM_100K))
    write = first("persist.write_eta_samples.s", "persist.write_eta_samples", samples=SIM_100K)
    if write is not None:
        put("persist.write_eta_samples.s", "s", duration(write))
        put("persist.write_eta_samples.bytes", "bytes", write["attrs"]["bytes"])
    timed("estimates.power_mean_estimate.s", "estimates.power_mean_estimate", samples=SIM_100K)

    def probe(name: str):
        return scope(first(f"probe.{name}", f"probe.{name}"))

    tails = probe("exact-tail")
    for u, _ in TAIL_U_REPS:
        timed(f"simulate.exact_eta_tail.u{u:g}.s_per_call", "simulate.exact_eta_tail", tails, u=u)
    sums = probe("bonferroni")
    for u, _ in BONFERRONI_U_REPS:
        timed(f"simulate.bonferroni_sums.u{u:g}.s_per_call", "simulate.bonferroni_sums", sums, u=u)
    power_log = probe("sigma-power-log")
    for p in (2.0, 5.0):
        timed(f"bounds.sigma_function.power_log.p{p:g}.s", "bounds.sigma_function", power_log, p=p)
    for metric, span_name, probe_name in (
        ("moments.gls_norm_scan.s", "moments.gls_norm_scan", "gls-norm-scan"),
        ("moments.classical_grand_norm.s", "moments.classical_grand_norm", "classical-grand-norm"),
        ("moments.young_fenchel.s_per_call", "moments.young_fenchel", "young-fenchel"),
        ("moments.exponential_tail_bound.s_per_call", "moments.exponential_tail_bound", "exponential-tail-bound"),
        ("bounds.sigma_function.geometric_series.s", "bounds.sigma_function", "sigma-geometric-series"),
        ("bounds.regulator_lp_bound.s", "bounds.regulator_lp_bound", "regulator-lp-bound"),
    ):
        timed(metric, span_name, probe(probe_name))
    return metrics, missing
