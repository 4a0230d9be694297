"""Start-up cost: `import glsreg` loads nothing but its version, and each command imports only what it runs.

Every command probe also checks that jsonschema stays unloaded.  The probe
also reports the child's own peak resident memory, which bounds what a
command holds."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import glsreg

ROOT = Path(__file__).resolve().parents[1]
# the child imports the same glsreg as this process, installed or not
PACKAGE_PARENT = str(Path(glsreg.__file__).parents[1])
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join([PACKAGE_PARENT, os.environ.get("PYTHONPATH", "")])}

PROC_STATUS = Path("/proc/self/status")

# Runs the CLI as `python -m glsreg.cli` would, then writes the names of the
# loaded numpy, scipy and jsonschema modules and the child's own peak RSS
# (VmHWM, in kB; None where the kernel has no such file) to the file named by
# the first argument.  VmHWM counts only this process since its exec, unlike
# the parent's ru_maxrss of a child, which also counts the forked parent image.
_PROBE = """
import json, os, runpy, sys
report, sys.argv = sys.argv[1], ["glsreg", *sys.argv[2:]]
try:
    runpy.run_module("glsreg.cli", run_name="__main__", alter_sys=True)
except SystemExit as done:
    code = done.code
else:
    code = 0
loaded = sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy", "jsonschema"))
peak_kb = None
if os.path.exists("/proc/self/status"):
    with open("/proc/self/status") as status:
        peak_kb = next((int(line.split()[1]) for line in status if line.startswith("VmHWM:")), None)
with open(report, "w") as fh:
    json.dump({"code": code, "loaded": loaded, "peak_kb": peak_kb}, fh)
"""


# Runs CLI commands in this one process, as the benchmark harness does: each
# through main(..., standalone_mode=False) with stdout and stderr captured,
# then prints one JSON line of exit codes and captured sizes as its result.
_IN_PROCESS = """
import contextlib, io, json, sys
import click
from glsreg.cli import main
runs = []
for args in json.loads(sys.argv[1]):
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            code = main(args, standalone_mode=False)
        except click.ClickException as exc:
            code = exc.exit_code
    runs.append({"code": 0 if code is None else code, "captured": len(sink.getvalue())})
print(json.dumps({"runs": runs}))
"""


def _probe(tmp_path, *args) -> dict:
    """Run the CLI with ``args`` in a child; its exit code, loaded modules and peak RSS."""
    report = tmp_path / "probe.json"
    result = subprocess.run(
        [sys.executable, "-c", _PROBE, str(report), *args], cwd=ROOT, env=CHILD_ENV, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    probe = json.loads(report.read_text())
    assert probe["code"] in (0, None), result.stderr
    return probe


def _loaded_after(tmp_path, *args) -> set[str]:
    """Modules the CLI run with ``args`` loaded; fails if any is jsonschema's.

    Configs are checked by the package's own schema checker, so no command
    pays for importing jsonschema.
    """
    probe = _probe(tmp_path, *args)
    assert not [m for m in probe["loaded"] if m.split(".")[0] == "jsonschema"], args
    return set(probe["loaded"])


class TestCommandImports:
    @pytest.mark.parametrize("flag", ["--help", "--version"])
    def test_help_and_version_load_no_numpy_or_scipy(self, tmp_path, flag):
        loaded = _loaded_after(tmp_path, flag)
        assert "numpy" not in loaded and "scipy" not in loaded

    @pytest.mark.parametrize(
        "command, config",
        [
            ("bound", "bound_geometric.json"),
            ("bound", "bound_regulator.json"),
            ("conjugate", "conjugate_power.json"),
        ],
    )
    def test_analytic_commands_load_no_scipy(self, tmp_path, command, config):
        loaded = _loaded_after(tmp_path, command, "--config", f"configs/{config}", "--out", str(tmp_path / "out"))
        assert "numpy" in loaded  # the probe sees the modules the command really loaded
        assert "scipy" not in loaded

    def test_norm_loads_no_jsonschema(self, tmp_path):
        loaded = _loaded_after(tmp_path, "norm", "--config", "configs/norm_natural.json", "--out", str(tmp_path / "out"))
        assert "numpy" in loaded  # the run got past the config check

    def test_simulate_loads_no_quadrature(self, tmp_path):
        # the exponential law's oracles use the package's own ln Gamma and Q(a, x)
        loaded = _loaded_after(
            tmp_path, "simulate", "--config", "configs/simulate_small.json", "--out", str(tmp_path / "out")
        )
        assert "numpy" in loaded
        assert "scipy" not in loaded

    def test_half_normal_simulate_loads_no_scipy(self, tmp_path):
        # the half-normal law's draw and its inverse are the package's own quantile and erf
        config = tmp_path / "half_normal.json"
        config.write_text(
            json.dumps(
                {
                    "schema_version": 1,
                    "command": "simulate",
                    "model": {"kind": "gaussian_power", "alpha": 1.0},
                    "eps": 0.5,
                    "trajectories": 200,
                    "seed": 7,
                }
            )
        )
        loaded = _loaded_after(tmp_path, "simulate", "--config", str(config), "--out", str(tmp_path / "out"))
        assert "numpy" in loaded
        assert not [m for m in loaded if m.split(".")[0] == "scipy"]

    def test_exact_moments_load_no_quadrature(self, tmp_path):
        config = tmp_path / "moments.json"
        config.write_text(
            json.dumps({"schema_version": 1, "command": "verify", "checks": ["moment-blowup-bracket"], "seed": 42})
        )
        loaded = _loaded_after(tmp_path, "verify", "--config", str(config), "--out", str(tmp_path / "out"))
        assert "numpy" in loaded
        assert "scipy" not in loaded

    def test_verify_suite_loads_no_scipy(self):
        probe = (
            "import sys, glsreg.verify; glsreg.verify.run_suite(); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), 'numpy' in sys.modules)"
        )
        result = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, env=CHILD_ENV, capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["[]", "True"]

    def test_no_module_imports_scipy(self):
        for path, names in _imported_names():
            assert not any(name.split(".")[0] == "scipy" for name in names), path.name

    def test_no_module_imports_scipy_integrate(self):
        for path, names in _imported_names():
            assert not any(name.startswith("scipy.integrate") for name in names), path.name

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
    def test_every_import_is_stdlib_or_a_runtime_dependency(self):
        import tomllib

        with open(ROOT / "pyproject.toml", "rb") as fh:
            requirements = tomllib.load(fh)["project"]["dependencies"]
        runtime = {re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_") for req in requirements}
        assert runtime == {"numpy", "click"}
        for path, names in _imported_names():
            outside = {name.split(".")[0] for name in names} - set(sys.stdlib_module_names) - runtime
            assert not outside, (path.name, outside)

    def test_no_module_imports_jsonschema(self):
        for path, names in _imported_names():
            assert not any(name.split(".")[0] == "jsonschema" for name in names), path.name


@pytest.mark.skipif(not PROC_STATUS.exists(), reason="needs /proc/self/status for the child's VmHWM")
class TestCommandMemory:
    def _simulate_peak_mb(self, tmp_path, trajectories: int, kind: str = "exponential_power", n_last: int = 496) -> float:
        name = f"{kind}-{trajectories}-{n_last}"
        config = tmp_path / f"simulate-{name}.json"
        config.write_text(
            json.dumps(
                {
                    "schema_version": 1,
                    "command": "simulate",
                    "model": {"kind": kind, "alpha": 1.0},
                    "eps": 0.5,
                    "trajectories": trajectories,
                    "truncation": {"n_last": n_last},
                    "seed": 301,
                }
            )
        )
        probe = _probe(tmp_path, "simulate", "--config", str(config), "--out", str(tmp_path / f"out-{name}"))
        assert probe["peak_kb"] is not None
        return probe["peak_kb"] / 1024.0

    def test_simulate_peak_barely_grows_with_trajectories(self, tmp_path):
        # 50k rows of 496 cells would fill 198 MB: simulate holds one row chunk, 8 bytes a
        # trajectory and one block of eta.csv text, so 49k more trajectories add a few MB
        small = self._simulate_peak_mb(tmp_path, 1_000)
        large = self._simulate_peak_mb(tmp_path, 50_000)
        assert large - small < 16.0, (small, large)

    def test_half_normal_simulate_peaks_no_higher_than_exponential(self, tmp_path):
        # the half-normal law's quantile and erf fill their output in pieces of _FOLD_CELLS cells:
        # whole-array temporaries over the 100k skip thresholds would add about 5 MB, scipy.special 18 MB
        exponential = self._simulate_peak_mb(tmp_path, 100_000, "exponential_power", 39)
        half_normal = self._simulate_peak_mb(tmp_path, 100_000, "gaussian_power", 39)
        assert half_normal < exponential + 1.0, (exponential, half_normal)


def _imported_names():
    """(module path, dotted names it imports) for every absolute import statement in the package, lazy ones too."""
    for path in Path(glsreg.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                yield path, [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                yield path, [f"{node.module}.{alias.name}" for alias in node.names]


class TestPackageImport:
    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            glsreg.no_such_name  # noqa: B018

    def test_import_loads_no_numpy(self):
        # nor any module of the package: glsreg/__init__.py only defines __version__
        probe = "import sys, glsreg; print('numpy' in sys.modules, glsreg.__version__, *sorted(sys.modules))"
        result = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, env=CHILD_ENV, capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        numpy_loaded, version, *modules = result.stdout.split()
        assert [numpy_loaded, version] == ["False", glsreg.__version__]
        assert [m for m in modules if m.startswith("glsreg.")] == []


def _reject_constant(literal: str):
    raise ValueError(f"{literal} is not strict JSON")


class TestInProcessRuns:
    def test_last_stdout_line_is_the_result(self, tmp_path):
        # nothing the commands print may follow the result line: not at exit, not left in a buffer
        verify_cfg = tmp_path / "verify.json"
        verify_cfg.write_text(
            json.dumps({"schema_version": 1, "command": "verify", "checks": ["conjugate-closed-form"], "seed": 1})
        )
        runs = [
            ["bound", "--config", "configs/bound_regulator.json", "--out", str(tmp_path / "bound")],
            ["verify", "--config", str(verify_cfg), "--out", str(tmp_path / "verify")],
        ]
        result = subprocess.run(
            [sys.executable, "-c", _IN_PROCESS, json.dumps(runs)], cwd=ROOT, env=CHILD_ENV, capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        lines = result.stdout.splitlines()
        payload = json.loads(lines[-1], parse_constant=_reject_constant)
        assert [run["code"] for run in payload["runs"]] == [0, 0]
        assert all(run["captured"] > 0 for run in payload["runs"])  # each summary went to its sink
        assert lines == [lines[-1]]
