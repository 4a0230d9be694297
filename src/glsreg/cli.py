"""Command-line front end: norm, conjugate, bound, simulate, verify.

Each subcommand reads one JSON experiment config, validates it against the
package's experiment_config.schema.json (with the package's own checker,
glsreg.schema), builds its objects from it, writes
its artifacts into --out, and prints a one-line summary.  Config problems
(schema violations, and domain checks the schema cannot express) exit with
status 2; runtime math failures exit with status 1; verify exits with the
report's own status.
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
from .errors import ConfigError, GLSError

_SCHEMA_NAME = "experiment_config.schema.json"


def _reject_constant(literal: str):
    # json.load accepts NaN and +-Infinity, which are not JSON and would pass the schema as numbers
    raise click.UsageError(f"config is not valid JSON: {literal} is not a number")


def _load_config(path: str, command: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh, parse_constant=_reject_constant)
    except json.JSONDecodeError as bad:
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
    (q < Q, knot order, matching lengths, eps < alpha); a failure here is a
    config error.
    """
    try:
        yield
    except GLSError as bad:
        raise ConfigError(f"config rejected: {bad}") from bad


def _common(fn):
    for opt in reversed(
        (
            click.option(
                "--config",
                "config_path",
                required=True,
                type=click.Path(exists=True, dir_okay=False),
                help="Experiment config (JSON).",
            ),
            click.option(
                "--out",
                "out_dir",
                default="out",
                show_default=True,
                type=click.Path(file_okay=False),
                help="Directory for artifacts.",
            ),
            click.option(
                "--format",
                "fmt",
                type=click.Choice(("json", "csv", "svg")),
                default="json",
                show_default=True,
                help="Extra artifact format beside the JSON report.",
            ),
        )
    ):
        fn = opt(fn)
    return fn


_seed = click.option("--seed", type=click.IntRange(0, 2**64 - 1), default=None, help="Override the config seed.")


def _trap(fn):
    @functools.wraps(fn)
    def inner(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ConfigError as bad:
            raise click.UsageError(str(bad)) from bad
        except GLSError as bad:
            raise click.ClickException(str(bad)) from bad

    return inner


def _out(out_dir: str) -> Path:
    path = Path(out_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _provenance(cfg: dict, seed=None) -> dict:
    from .persist import config_sha256

    prov = {"config_sha256": config_sha256(cfg), "tool_version": __version__}
    if seed is not None:
        prov["seed"] = seed
    return prov


def _write_csv(path: Path, header: str, rows) -> None:
    from .persist import atomic_write_text

    def cell_text(cell) -> str:
        return cell if isinstance(cell, str) else repr(float(cell))

    lines = [header]
    lines.extend(",".join(cell_text(cell) for cell in row) for row in rows)
    atomic_write_text(path, "\n".join(lines) + "\n")


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
    a moments block to lean on.
    """
    from . import generating

    if cfg["psi"]["form"] == "natural":
        if moments_obj is None:
            raise ConfigError("psi form 'natural' needs a moments block in the config")
        return generating.natural_function(moments_obj)
    return generating.from_config(cfg["psi"])


@click.group(context_settings={"help_option_names": ["-h", "--help"]})
@click.version_option(version=__version__, prog_name="glsreg")
def main() -> None:
    """Grand Lebesgue norms, conjugate tail bounds, and regulator checks."""


@main.command()
@_common
@_trap
def norm(config_path, out_dir, fmt) -> None:
    """Sup-norm of a moment curve against a generating function."""
    cfg = _load_config(config_path, "norm")
    from . import moments
    from .persist import json_safe, write_json

    with _building():
        m = _moments_from_config(cfg["moments"])
        psi = _psi_from_config(cfg, m)
    scan = moments.gls_norm_scan(m, psi)
    report = {
        "command": "norm",
        "gls_norm": scan.value,
        "argmax_p": scan.argmax,
        "unbounded": scan.unbounded,
        "provenance": _provenance(cfg),
    }
    if "grand_q" in cfg:
        report["classical_grand_norm"] = moments.classical_grand_norm(m, float(cfg["grand_q"]))
    out = _out(out_dir)
    write_json(out / "norm.json", json_safe(report))
    if fmt == "csv":
        _write_csv(out / "ratio_curve.csv", "p,ratio", zip(scan.grid, scan.objective))
    elif fmt == "svg":
        from .svg import line_plot_svg
        from .persist import atomic_write_text

        atomic_write_text(
            out / "ratio_curve.svg",
            line_plot_svg(scan.grid, scan.objective, title="moment-to-weight ratio", x_label="p", y_label="ratio"),
        )
    click.echo(f"gls_norm {scan.value:.9g} at p {scan.argmax:.6g}" + (" (unbounded)" if scan.unbounded else ""))


@main.command()
@_common
@_trap
def conjugate(config_path, out_dir, fmt) -> None:
    """Conjugate transform of a generating function and its tail bound."""
    cfg = _load_config(config_path, "conjugate")
    import numpy as np

    from . import moments
    from .persist import atomic_write_text, json_safe, write_json

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
    out = _out(out_dir)
    write_json(out / "conjugate.json", json_safe(report))
    if fmt == "csv":
        _write_csv(out / "conjugate.csv", "v,h_star", conj)
        _write_csv(out / "tail_bound.csv", "t,bound", tail)
    elif fmt == "svg":
        from .svg import line_plot_svg

        atomic_write_text(
            out / "conjugate.svg",
            line_plot_svg(
                v_grid,
                [h for _, h in conj],
                title="conjugate transform",
                x_label="v",
                y_label="h*(v)",
            ),
        )
    click.echo(f"conjugate evaluated at {len(v_grid)} points, tail bound at {len(t_grid)}")


@main.command()
@_common
@_trap
def bound(config_path, out_dir, fmt) -> None:
    """Moment bounds: regulator envelope or weighted-sum route."""
    cfg = _load_config(config_path, "bound")
    from . import bounds as bmod
    from .errors import Divergent, InvalidExponent
    from .generating import check_eps
    from .persist import atomic_write_text, json_safe, write_json
    from .sequences import pair_from_config

    with _building():
        psi = _psi_from_config(cfg)
        if "pair" in cfg:
            pair = pair_from_config(cfg["pair"])
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
    report = {"command": "bound", "mode": mode, "rows": rows, "provenance": _provenance(cfg)}
    out = _out(out_dir)
    write_json(out / "bound.json", json_safe(report))
    if fmt == "csv":
        header = "p,sigma,bound" if mode == "sequence" else "p,bound"
        _write_csv(out / "bounds.csv", header, [tuple(r.values()) for r in rows])
    elif fmt == "svg":
        from .svg import line_plot_svg

        atomic_write_text(
            out / "bounds.svg",
            line_plot_svg(
                p_grid,
                [r["bound"] for r in rows],
                title=f"{mode} moment bound",
                x_label="p",
                y_label="bound",
            ),
        )
    finite_count = sum(1 for r in rows if math.isfinite(r["bound"]))
    click.echo(f"{mode} bound finite at {finite_count}/{len(rows)} exponents")


@main.command()
@_common
@_seed
@_trap
def simulate(config_path, out_dir, fmt, seed) -> None:
    """Simulate the a.e.-convergence regulator and summarise it."""
    cfg = _load_config(config_path, "simulate")
    import dataclasses

    import numpy as np

    from .estimates import power_mean_estimate
    from .moments import empirical_tail
    from .persist import atomic_write_text, config_sha256, json_safe, write_eta_samples, write_json
    from .simulate import plan_from_config, resolve_n_last, simulate_eta, truncation_bound

    with _building():
        plan = plan_from_config(cfg)
    if seed is not None:
        plan = dataclasses.replace(plan, seed=seed)
    n_last = resolve_n_last(plan)
    samples = simulate_eta(plan)
    values = samples.value
    trunc = truncation_bound(plan, values)
    out = _out(out_dir)
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
    write_eta_samples(samples, metadata, out / "eta.csv")
    p_norms = []
    for p in plan.p_grid:
        est = power_mean_estimate(values, p)
        p_norms.append({"p": p, "value": est.value, "half_width": est.half_width})
    tails = []
    for u in plan.u_grid:
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
    write_json(out / "summary.json", json_safe(summary))
    if fmt == "csv" and plan.u_grid:
        _write_csv(
            out / "tails.csv",
            "u,value,half_width",
            [(row["u"], row["value"], row["half_width"]) for row in summary["tails"]],
        )
    elif fmt == "svg":
        from .svg import line_plot_svg

        u_grid = np.asarray(plan.u_grid) if plan.u_grid else np.geomspace(1.0, max(2.0, float(values.max())), 33)
        tail_vals = [empirical_tail(values, float(u)).value for u in u_grid]
        atomic_write_text(
            out / "tails.svg",
            line_plot_svg(u_grid, tail_vals, title="empirical regulator tail", x_label="u", y_label="P(eta >= u)"),
        )
    click.echo(f"simulated {plan.trajectories} trajectories to n={n_last}; mean eta {values.mean():.6g}")


@main.command()
@_common
@_seed
@click.pass_context
@_trap
def verify(ctx, config_path, out_dir, fmt, seed) -> None:
    """Run the verification suite and exit with its verdict."""
    cfg = _load_config(config_path, "verify")
    from .persist import atomic_write_text, config_sha256, json_safe, write_json
    from .verify import run_suite

    report = run_suite(
        check_ids=cfg.get("checks"),
        seed=int(seed if seed is not None else cfg.get("seed", 42)),
        trajectories=int(cfg.get("trajectories", 20_000)),
        config_sha=config_sha256(cfg),
    )
    out = _out(out_dir)
    write_json(out / "report.json", json_safe(report.to_dict()))
    atomic_write_text(out / "report.txt", report.to_text())
    if fmt == "csv":
        _write_csv(
            out / "report.csv",
            "check_id,verdict,violation,allowance",
            [(r.check_id, r.verdict, r.violation, r.allowance) for r in report.records],
        )
    click.echo(report.to_text(), nl=False)
    ctx.exit(report.exit_code)


if __name__ == "__main__":
    main()
