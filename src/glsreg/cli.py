"""Command-line front end: norm, conjugate, bound, simulate, verify.

Every subcommand is one body under the ``_command`` skeleton.  The skeleton
declares --config/--out/--format (and --seed for the seeded commands), reads
the JSON experiment config and checks it against the package's
experiment_config.schema.json with the package's own checker, glsreg.schema.
The body builds its objects with this module's config readers (and
simulate.plan_from_config) and returns an artifact map (file name -> JSON
tree, text, or writer taking the path), a summary and an exit status.  The
skeleton writes the map into --out only after the body returns, so a failed
command writes nothing, then prints the summary.  Config problems
(schema violations, and domain checks the schema cannot express) raise
click.UsageError, which exits with status 2; runtime math failures exit
with status 1; verify exits with the report's own status.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
from importlib import resources
from pathlib import Path

import click

from . import __version__
from .errors import GLSError

_SCHEMA_NAME = "experiment_config.schema.json"


def _finite(parse, literal: str):
    value = parse(literal)  # json.load takes NaN and +-Infinity, which are not JSON, and reads 1e400 as inf
    if not math.isfinite(float(value)):  # an integer past the float range raises OverflowError here
        raise ValueError(f"{literal} is not a finite number")
    return value


def _load_config(path: str, command: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            number = functools.partial(_finite, float)
            cfg = json.load(fh, parse_float=number, parse_constant=number, parse_int=functools.partial(_finite, int))
    except (ValueError, OverflowError) as bad:  # not JSON, not UTF-8, or a number past the float range
        raise click.UsageError(f"config is not valid JSON: {bad}") from None
    if not isinstance(cfg, dict) or cfg.get("command") != command:
        raise click.UsageError(
            f"config command {cfg.get('command') if isinstance(cfg, dict) else cfg!r} "
            f"does not match subcommand '{command}'"
        )
    from .schema import find_error

    schema = json.loads(resources.files(__package__).joinpath(_SCHEMA_NAME).read_text())
    problem = find_error(cfg, schema)
    if problem is not None:
        path, message = problem
        where = "/".join(str(part) for part in path) or "(top level)"
        raise click.UsageError(f"config rejected by schema at {where}: {message}")
    return cfg


@contextlib.contextmanager
def _building():
    """Scope where a command builds its objects from a schema-valid config.

    The constructors still run the domain checks the schema cannot express
    (q < Q, knot order, matching lengths, eps < alpha); a GLSError here is
    re-raised as a click.UsageError, which exits with status 2.
    """
    try:
        yield
    except GLSError as bad:
        raise click.UsageError(f"config rejected: {bad}") from bad


def _command(seeded: bool = False):
    """Register a body as the subcommand of its own name.

    The body gets the schema-checked config, the --format value and, when
    ``seeded``, the --seed value.  It returns (artifacts, summary, status):
    artifacts maps a file name in --out to a JSON tree, a text, or a writer
    that takes the path.  The map is written only after the body returns, so
    a failed command writes nothing; then the summary is echoed and the
    command exits with the status.
    """
    params = [
        click.option(
            "--config", "config_path", required=True, type=click.Path(exists=True, dir_okay=False),
            help="Experiment config (JSON).",
        ),
        click.option(
            "--out", "out_dir", default="out", show_default=True, type=click.Path(file_okay=False),
            help="Directory for artifacts.",
        ),
        click.option(
            "--format", "fmt", type=click.Choice(("json", "csv", "svg")), default="json", show_default=True,
            help="Extra artifact format beside the JSON report.",
        ),
    ]
    if seeded:
        params.append(click.option("--seed", type=click.IntRange(0, 2**64 - 1), help="Override the config seed."))

    def register(body):
        @functools.wraps(body)
        def command(config_path, out_dir, fmt, **options):
            cfg = _load_config(config_path, body.__name__)
            try:
                artifacts, summary, status = body(cfg, fmt, **options)
            except GLSError as bad:
                raise click.ClickException(str(bad)) from bad
            from .persist import atomic_write_text, write_json

            for name, artifact in artifacts.items():
                path = Path(out_dir) / name
                if callable(artifact):
                    artifact(path)
                elif isinstance(artifact, str):
                    atomic_write_text(path, artifact)
                else:
                    write_json(path, artifact)
            click.echo(summary)
            click.get_current_context().exit(status)

        for param in reversed(params):
            command = param(command)
        return main.command()(command)

    return register


def _provenance(cfg: dict, seed=None) -> dict:
    from .persist import config_sha256

    prov = {"config_sha256": config_sha256(cfg), "tool_version": __version__}
    if seed is not None:
        prov["seed"] = seed
    return prov


def _csv(header: str, rows) -> str:
    def cell_text(cell) -> str:
        return cell if isinstance(cell, str) else repr(float(cell))

    lines = [header]
    lines.extend(",".join(cell_text(cell) for cell in row) for row in rows)
    return "\n".join(lines) + "\n"


def _svg(x, y, title: str, x_label: str, y_label: str) -> str:
    from .svg import line_plot_svg

    return line_plot_svg(x, y, title=title, x_label=x_label, y_label=y_label)


def _moments_from_config(obj: dict):
    from . import moments

    kind = obj["kind"]
    if kind == "std_exponential":
        return moments.std_exponential_moments()
    if kind == "half_normal":
        return moments.half_normal_moments()
    if kind == "constant":
        return moments.constant_moments(float(obj["value"]))
    if kind == "discrete":
        return moments.discrete_moments(obj["atoms"], obj["weights"])
    pts = obj["points"]
    return moments.table_moments([p for p, _ in pts], [v for _, v in pts])


def _psi_from_config(cfg: dict, moments_obj=None):
    """Generating function from the config's psi block.

    The 'natural' form normalises the config's own moment curve, so it needs
    a moments block to lean on; without one it raises a GLSError, which
    ``_building`` rejects like any other config error.
    """
    from . import generating

    psi = cfg["psi"]
    if psi["form"] == "natural":
        if moments_obj is None:
            raise GLSError("psi form 'natural' needs a moments block in the config")
        return generating.natural_function(moments_obj)
    if psi["form"] == "power_root":
        return generating.PowerRoot(m=float(psi["m"]))
    if psi["form"] == "two_sided":
        return generating.TwoSidedSingular(b=float(psi["b"]), alpha=float(psi["alpha"]), beta=float(psi["beta"]))
    if psi["form"] == "extremal":
        return generating.Extremal(r=float(psi["r"]))
    return generating.Tabulated(points=tuple((float(p), float(v)) for p, v in psi["points"]))


def _pair_from_config(obj: dict):
    """Sequence pair from the config's pair block.

    The schema lets each sequence use one spelling: a power_log is alpha/m
    (n**(-alpha) ln(n+1)**m) or theta/nu (n**(-theta) ln(n+1)**(-nu)), and a
    geometric is q or Q.
    """
    from .sequences import DecaySequencePair, GeometricSequence, PowerLogSequence

    def sequence(seq: dict):
        if seq["form"] == "geometric":
            ratio = seq["Q"] if "Q" in seq else seq["q"]
            return GeometricSequence(q=float(ratio), scale=float(seq.get("scale", 1.0)))
        if seq["form"] == "slowly_varying":  # a power law with a tabulated head L(n)
            return PowerLogSequence(rate=float(seq["alpha"]), table=tuple(float(v) for v in seq["table"]))
        if "theta" in seq:
            return PowerLogSequence(rate=float(seq["theta"]), log_power=-float(seq.get("nu", 0.0)))
        return PowerLogSequence(rate=float(seq["alpha"]), log_power=float(seq.get("m", 0.0)))

    return DecaySequencePair(eps_seq=sequence(obj["eps"]), beta_seq=sequence(obj["beta"]))


@click.group(context_settings={"help_option_names": ["-h", "--help"]})
@click.version_option(version=__version__, prog_name="glsreg")
def main() -> None:
    """Grand Lebesgue norms, conjugate tail bounds, and regulator checks."""


@_command()
def norm(cfg, fmt):
    """Sup-norm of a moment curve against a generating function."""
    from . import moments

    with _building():
        m = _moments_from_config(cfg["moments"])
        psi = _psi_from_config(cfg, m)
        q = cfg.get("grand_q")  # the grand norm fails only on an empty (1, q) domain: a config error
        grand = {} if q is None else {"classical_grand_norm": moments.classical_grand_norm(m, float(q))}
    scan = moments.gls_norm_scan(m, psi)
    report = {
        "command": "norm",
        "gls_norm": scan.value,
        "argmax_p": scan.argmax,
        "unbounded": scan.unbounded,
        "provenance": _provenance(cfg),
        **grand,
    }
    artifacts = {"norm.json": report}
    if fmt == "csv":
        artifacts["ratio_curve.csv"] = _csv("p,ratio", zip(scan.grid, scan.objective))
    elif fmt == "svg":
        artifacts["ratio_curve.svg"] = _svg(scan.grid, scan.objective, "moment-to-weight ratio", "p", "ratio")
    summary = f"gls_norm {scan.value:.9g} at p {scan.argmax:.6g}" + (" (unbounded)" if scan.unbounded else "")
    return artifacts, summary, 0


@_command()
def conjugate(cfg, fmt):
    """Conjugate transform of a generating function and its tail bound."""
    import numpy as np

    from . import moments

    with _building():
        m = _moments_from_config(cfg["moments"]) if "moments" in cfg else None
        psi = _psi_from_config(cfg, m)
    v_grid = [float(v) for v in cfg.get("v_grid", np.linspace(0.0, 5.0, 26))]
    t_grid = [float(t) for t in cfg.get("t_grid", np.geomspace(math.e, 100.0, 25))]
    conj = list(zip(v_grid, moments.young_fenchel(psi, np.asarray(v_grid)).tolist()))
    tail = list(zip(t_grid, moments.exponential_tail_bound(psi, np.asarray(t_grid)).tolist()))
    report = {
        "command": "conjugate",
        "conjugate": [{"v": v, "value": h} for v, h in conj],
        "tail_bound": [{"t": t, "value": b} for t, b in tail],
        "provenance": _provenance(cfg),
    }
    artifacts = {"conjugate.json": report}
    if fmt == "csv":
        artifacts["conjugate.csv"] = _csv("v,h_star", conj)
        artifacts["tail_bound.csv"] = _csv("t,bound", tail)
    elif fmt == "svg":
        artifacts["conjugate.svg"] = _svg(v_grid, [h for _, h in conj], "conjugate transform", "v", "h*(v)")
    return artifacts, f"conjugate evaluated at {len(v_grid)} points, tail bound at {len(t_grid)}", 0


@_command()
def bound(cfg, fmt):
    """Moment bounds: regulator envelope or weighted-sum route."""
    from . import bounds as bmod
    from .errors import Divergent, InvalidExponent
    from .generating import check_eps

    with _building():
        psi = _psi_from_config(cfg)
        if "pair" in cfg:
            pair = _pair_from_config(cfg["pair"])
        else:
            env = bmod.MomentEnvelope(psi, float(cfg["alpha"]), int(cfg.get("index_start", 1)))
            eps = float(cfg["eps"])
            check_eps(eps, env.alpha)
    p_grid = [float(p) for p in cfg["p_grid"]]
    rel_tol = float(cfg.get("rel_tol", 1e-6))
    rows = []
    if "pair" in cfg:
        mode = "sequence"
        for p in p_grid:
            try:
                sigma = bmod.sigma_function(pair, p, rel_tol)
            except Divergent:
                sigma = math.inf
            rows.append({"p": p, "sigma": sigma, "bound": psi.value(p) * sigma})
    else:
        mode = "regulator"
        for p in p_grid:
            try:
                value = bmod.regulator_lp_bound(env, eps, p)
            except InvalidExponent:
                value = math.inf
            rows.append({"p": p, "bound": value})
    artifacts = {"bound.json": {"command": "bound", "mode": mode, "rows": rows, "provenance": _provenance(cfg)}}
    if fmt == "csv":
        header = "p,sigma,bound" if mode == "sequence" else "p,bound"
        artifacts["bounds.csv"] = _csv(header, [tuple(r.values()) for r in rows])
    elif fmt == "svg":
        artifacts["bounds.svg"] = _svg(p_grid, [r["bound"] for r in rows], f"{mode} moment bound", "p", "bound")
    finite_count = sum(1 for r in rows if math.isfinite(r["bound"]))
    return artifacts, f"{mode} bound finite at {finite_count}/{len(rows)} exponents", 0


@_command(seeded=True)
def simulate(cfg, fmt, seed):
    """Simulate the a.e.-convergence regulator and summarise it."""
    import dataclasses

    import numpy as np

    from .estimates import power_mean_estimate
    from .moments import empirical_tail
    from .persist import config_sha256, write_eta_samples
    from .simulate import plan_from_config, resolve_n_last, simulate_eta, truncation_bound

    with _building():
        plan = plan_from_config(cfg)
    if seed is not None:
        plan = dataclasses.replace(plan, seed=seed)
    p_grid = [float(p) for p in cfg.get("p_grid", ())]
    u_grid = [float(u) for u in cfg.get("u_grid", ())]
    n_last = resolve_n_last(plan)
    samples = simulate_eta(plan)
    values = samples.value
    trunc = truncation_bound(plan, values)
    metadata = {
        "command": "simulate",
        "config_sha256": config_sha256(cfg),
        "seed": plan.seed,
        "trajectories": plan.trajectories,
        "index_start": plan.index_start,
        "n_last": n_last,
        "truncation_bound": trunc,
        "model": plan.model.kind,
        "eps": plan.eps,
    }
    p_norms = []
    for p in p_grid:
        est = power_mean_estimate(values, p)
        p_norms.append({"p": p, "value": est.value, "half_width": est.half_width})
    tails = []
    for u in u_grid:
        est = empirical_tail(values, u)
        tails.append({"u": u, "value": est.value, "half_width": est.half_width})
    summary = {
        "command": "simulate",
        "mean": float(values.mean()),
        "max": float(values.max()),
        "n_last": n_last,
        "truncation_bound": trunc,
        "p_norms": p_norms,
        "tails": tails,
        "provenance": _provenance(cfg, seed=plan.seed),
    }
    artifacts = {"eta.csv": functools.partial(write_eta_samples, samples, metadata), "summary.json": summary}
    if fmt == "csv" and u_grid:
        artifacts["tails.csv"] = _csv("u,value,half_width", [(t["u"], t["value"], t["half_width"]) for t in tails])
    elif fmt == "svg":
        u_grid = np.asarray(u_grid) if u_grid else np.geomspace(1.0, max(2.0, float(values.max())), 33)
        tail_vals = [empirical_tail(values, float(u)).value for u in u_grid]
        artifacts["tails.svg"] = _svg(u_grid, tail_vals, "empirical regulator tail", "u", "P(eta >= u)")
    return artifacts, f"simulated {plan.trajectories} trajectories to n={n_last}; mean eta {values.mean():.6g}", 0


@_command(seeded=True)
def verify(cfg, fmt, seed):
    """Run the verification suite and exit with its verdict."""
    from .verify import run_suite

    report = run_suite(
        check_ids=cfg.get("checks"),
        seed=int(seed if seed is not None else cfg.get("seed", 42)),
        trajectories=int(cfg.get("trajectories", 20_000)),
    )
    text = report.to_text()
    tree = report.to_dict()
    tree["provenance"].update(_provenance(cfg, report.seed))
    artifacts = {"report.json": tree, "report.txt": text}
    if fmt == "csv":
        artifacts["report.csv"] = _csv(
            "check_id,verdict,violation,allowance",
            [(r.check_id, r.verdict, r.violation, r.allowance) for r in report.records],
        )
    return artifacts, text.removesuffix("\n"), report.exit_code


if __name__ == "__main__":
    main()
