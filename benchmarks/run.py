#!/usr/bin/env python3
"""glsreg benchmark: fresh ``python -m glsreg.cli`` processes on generated workloads.

    python3 benchmarks/run.py --workload verify-catalogue --seed 1 --seconds 15 --trace 0

Run from the repository root; the package is imported from ``src/`` (it need
not be installed).  Operations run one at a time with the CLI's default single
thread.  With ``--trace 0`` the run times ``--help`` launches (set-up) and then
repeats passes over the workload's operations until ``--seconds`` of operation
time has been measured, checking every output.  With ``--trace 1`` it runs the
operations in-process, once plain and once with spans around every layer
function, then calls the layers the workload did not reach, and reports the
per-layer metrics (see ``benchmarks/NOTES.md``).

The end-to-end timings are corrected for the speed of the shared CPU while
each child ran: a probe thread times a fixed millisecond of interpreter work,
page faults and file reads every ``PROBE_INTERVAL_S`` on the same CPU, and each child's wall time is
scaled by ``PROBE_CHUNK_S`` over the interquartile mean of the probe times
that fell inside it.  The raw timings go to the human-readable lines and the
result file.

Human-readable lines go first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Configs,
artifacts, per-run result files and trace files go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import mmap
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_LAUNCHES = 9
PROBE_INTERVAL_S = 0.04
PROBE_MAP_BYTES = 512 * 1024
PROBE_FILES = 32
PROBE_CHUNK_S = 0.0008  # about the fastest probe chunk on a 2-core 2.1 GHz Xeon: a nominal scale
IMPORT_LAUNCHES = 5
RUN_DEADLINE_S = 170.0
IMPORT_SNIPPET = "import time; t = time.perf_counter(); import glsreg.cli; print(time.perf_counter() - t)"


class ChildRunner:
    """Runs one child process at a time, killing it at the run's deadline."""

    def __init__(self, deadline: float) -> None:
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))

    def run(self, argv: list[str], log: Path | None = None) -> tuple[float, int, float, str]:
        """(wall seconds, exit code, peak RSS in MB, captured stdout) of one child."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError("benchmark run deadline passed")
        with contextlib.ExitStack() as stack:
            sink = stack.enter_context(open(log, "wb")) if log else subprocess.DEVNULL
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE if log is None else sink, stderr=sink, env=self.env)
            killer = threading.Timer(remaining, proc.kill)
            killer.start()
            status = None
            try:
                captured = proc.stdout.read().decode() if proc.stdout else ""
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
                if status is None:
                    proc.kill()
                    proc.wait()
            wall = time.perf_counter() - start
            if proc.stdout:
                proc.stdout.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if time.monotonic() >= self.deadline:
            raise TimeoutError(f"child {argv[3:5]} ran past the run deadline")
        return wall, proc.returncode, usage.ru_maxrss / 1024.0, captured


class SpeedProbe:
    """Gauges the speed of this run's CPU while the timed children run on it.

    The CPU is shared with other tenants: for stretches of a fraction of a
    second to several seconds it runs up to twice as slow, and the share of
    slow time changes from run to run.  A thread wakes every
    ``PROBE_INTERVAL_S`` and times one fixed chunk of the kinds of work a
    glsreg process does: interpreter work, page faults on fresh memory, and
    opening and reading small files.  The run and its children are kept on
    one CPU, so the chunk pre-empts the child briefly (2 to 3.5% of its time,
    the same on every commit) and sees the speed the child sees.  The chunk
    does not touch glsreg, so no change to the program moves it.
    """

    def __init__(self, scratch: Path) -> None:
        self.files = []
        for i in range(PROBE_FILES):
            path = scratch / f"probe-{i}.bin"
            path.write_bytes(bytes(range(256)) * 64)  # 16 KiB
            self.files.append(path)
        self.samples: list[tuple[float, float]] = []  # (start, seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, name="speed-probe", daemon=True)

    def _chunk(self) -> None:
        acc = 0
        for i in range(4_000):
            acc = (acc + i * i) % 1_000_003
        pages = mmap.mmap(-1, PROBE_MAP_BYTES)
        for offset in range(0, PROBE_MAP_BYTES, mmap.PAGESIZE):
            pages[offset] = 1
        pages.close()
        for path in self.files:
            with open(path, "rb") as f:
                f.read()

    def _sample(self) -> None:
        while not self._stop.wait(PROBE_INTERVAL_S):
            start = time.perf_counter()
            self._chunk()
            self.samples.append((start, time.perf_counter() - start))

    def __enter__(self) -> "SpeedProbe":
        for _ in range(20):  # warm-up
            self._chunk()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def factor(self, start: float, end: float) -> float:
        """Multiplier from raw seconds in [start, end] to seconds at the nominal probe speed."""
        inside = sorted(d for t, d in self.samples if start <= t and t + d <= end)
        if len(inside) < 4:  # too short to gauge: use every sample so far
            inside = sorted(d for _, d in self.samples)
        quarter = len(inside) // 4
        middle = inside[quarter : len(inside) - quarter]
        return PROBE_CHUNK_S / statistics.fmean(middle)


def pin_to_one_cpu() -> int | None:
    """Keep this process and its children on one CPU, the highest-numbered one it may use."""
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def provenance(seed: int) -> dict:
    from importlib import metadata

    import glsreg

    prov = {"seed": seed, "nproc": os.cpu_count(), "python": platform.python_version()}
    prov.update({pkg: metadata.version(pkg) for pkg in ("numpy", "scipy", "click", "jsonschema")})
    # glsreg.__version__, not `glsreg --version`: the latter raises when the package is not installed
    prov["glsreg"] = glsreg.__version__
    prov["git_commit"] = git_commit()
    return prov


class OpLog:
    """Outcome of every operation run: timings, problems and output digests."""

    def __init__(self) -> None:
        self.records: list[dict] = []
        self.digests: dict[str, str] = {}

    def add(self, op, label: str, wall: float, code: int, rss_mb: float | None, corrected: float | None = None) -> None:
        problems = []
        if code != op.expect_exit:
            problems.append(f"exit code {code}, expected {op.expect_exit}")
        else:
            try:
                problems.extend(op.check(op.out_dir))
            except Exception as exc:  # a malformed artifact is a failed operation, not a crash
                problems.append(f"output check raised {exc!r}")
        artifact = op.out_dir / op.artifact
        digest = hashlib.sha256(artifact.read_bytes()).hexdigest() if artifact.is_file() else None
        previous = self.digests.setdefault(op.name, digest)
        if digest != previous:
            problems.append(f"{op.artifact} bytes differ between runs of the same seed")
        rec = {"op": op.name, "pass": label, "wall_s": wall, "corrected_s": corrected, "exit": code, "rss_mb": rss_mb,
               "sha256": digest, "problems": problems}
        self.records.append(rec)
        detail = "" if corrected is None else f" corrected {corrected:9.4f} s"
        detail += "" if rss_mb is None else f" rss {rss_mb:8.1f} MB"
        status = "ok" if not problems else "FAILED: " + "; ".join(problems)
        print(f"  {label:<9} {op.name:<20} {wall:9.4f} s{detail}  {status}", flush=True)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if r["problems"])


def _fresh(op) -> None:
    shutil.rmtree(op.out_dir, ignore_errors=True)


def measure_end_to_end(ops, seconds: float, runner: ChildRunner, log: OpLog, work: Path) -> dict:
    launch = [sys.executable, "-m", "glsreg.cli", "--help"]
    runner.run(launch)  # warm-up: fills the bytecode cache, which users do not pay for on every call
    with SpeedProbe(work) as probe:

        def timed(argv: list[str], log_path: Path | None = None) -> tuple[float, float, int, float]:
            """(corrected seconds, raw seconds, exit code, peak RSS in MB) of one child."""
            start = time.perf_counter()
            wall, code, rss, _ = runner.run(argv, log_path)
            return wall * probe.factor(start, start + wall), wall, code, rss

        setup = [timed(launch)[:2] for _ in range(SETUP_LAUNCHES)]
        pass_walls, op_walls, measured, n = [], {op.name: [] for op in ops}, 0.0, 0
        while not pass_walls or measured < seconds:
            n += 1
            pass_wall = [0.0, 0.0]
            for op in ops:
                _fresh(op)
                corrected, wall, code, rss = timed([sys.executable, "-m", "glsreg.cli", *op.args], work / f"{op.name}.log")
                log.add(op, f"pass{n}", wall, code, rss, corrected)
                op_walls[op.name].append((corrected, wall))
                pass_wall = [pass_wall[0] + corrected, pass_wall[1] + wall]
            pass_walls.append(tuple(pass_wall))
            measured += pass_wall[1]
        samples = probe.samples

    def medians(pairs) -> tuple[float, float]:
        return statistics.median(c for c, _ in pairs), statistics.median(w for _, w in pairs)

    per_op = [medians(pairs) for pairs in op_walls.values()]
    both = {
        "wall_s": medians(pass_walls),
        # each operation's median over the passes, then the median over the operations
        "op_p50_s": medians(per_op),
        "setup_s": medians(setup),
    }
    print(f"  probe     {len(samples)} samples, median {statistics.median(d for _, d in samples) * 1e3:.3f} ms"
          f" ({PROBE_CHUNK_S * 1e3:.3f} ms nominal)", flush=True)
    cells = sum(op.cells for op in ops)
    return {
        "metrics": {
            **{name: {"value": corrected, "unit": "s"} for name, (corrected, _) in both.items()},
            "peak_rss_mb": {"value": max(r["rss_mb"] for r in log.records), "unit": "MB"},
        },
        "raw_s": {name: raw for name, (_, raw) in both.items()},
        "samples": {"passes": len(pass_walls), "ops": len(log.records), "setup_launches": len(setup),
                    "probe": len(samples)},
        "pass_walls_s": pass_walls,
        "setup_s": setup,
        "probe_s": [d for _, d in samples],
        "cells_per_pass": cells,
        "cells_per_s": cells / both["wall_s"][0] if cells else None,
    }


def _run_in_process(op) -> tuple[float, int]:
    import click

    from glsreg.cli import main

    _fresh(op)
    sink = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            code = main(list(op.args), standalone_mode=False)
        except click.ClickException as exc:
            code = exc.exit_code
        except Exception:  # the CLI process would print the traceback and exit 1
            traceback.print_exc()
            code = 1
    return time.perf_counter() - start, 0 if code is None else code


def measure_layers(ops, seed: int, runner: ChildRunner, log: OpLog, work: Path) -> dict:
    from tracing import Tracer, instrument, layer_metrics, run_layer_probes

    launch = [sys.executable, "-c", IMPORT_SNIPPET]
    runner.run(launch)  # warm-up, as for set-up
    imports = []
    for _ in range(IMPORT_LAUNCHES):
        _, code, _, out = runner.run(launch)
        if code != 0:
            raise RuntimeError("importing glsreg.cli failed")
        imports.append(float(out.strip()))

    def run_pass(label: str, tracer=None) -> float:
        total = 0.0
        for op in ops:
            with tracer.span(f"op.{op.name}") if tracer else contextlib.nullcontext():
                wall, code = _run_in_process(op)
            log.add(op, label, wall, code, None)
            total += wall
        return total

    run_pass("warm-up")  # first in-process calls pay one-off costs (schema load, lazy imports)
    plain = run_pass("plain")
    tracer = Tracer()
    with instrument(tracer):
        traced = run_pass("traced", tracer)
        run_layer_probes(tracer, seed, work)

    metrics, missing = layer_metrics(tracer)
    metrics["cli.import_s"] = {"value": statistics.median(imports), "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced - plain, "unit": "s"}
    metrics["trace.span_count"] = {"value": len(tracer.spans), "unit": "count"}
    for name in missing:
        print(f"warning: expected span missing, metric {name} not measured", file=sys.stderr)
    origin = tracer.spans[0]["start"] if tracer.spans else 0.0
    trace = {
        "spans": [
            {**s, "start": s["start"] - origin, "end": s["end"] - origin} for s in tracer.spans
        ],
        "missing": missing,
        "plain_ops_s": plain,
        "traced_ops_s": traced,
    }
    return {"metrics": metrics, "missing_spans": missing, "trace": trace, "import_s": imports}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "glsreg" / "__init__.py").is_file():
        print(f"error: no glsreg sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} (known: {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2

    cpu = pin_to_one_cpu()  # before any child starts, so the probe and the children share the CPU
    runner = ChildRunner(time.monotonic() + RUN_DEADLINE_S)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ops = WORKLOADS[args.workload](args.seed, work)
    prov = provenance(args.seed)
    prov["pinned_cpu"] = cpu
    print(f"glsreg benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("provenance: " + json.dumps(prov, sort_keys=True), flush=True)

    log = OpLog()
    if args.trace:
        result = measure_layers(ops, args.seed, runner, log, work)
        trace_path = OUT / f"{tag}.trace.json"
        trace_path.write_text(json.dumps({"provenance": prov, **result.pop("trace")}) + "\n")
        print(f"trace: {trace_path.relative_to(ROOT)}")
    else:
        result = measure_end_to_end(ops, args.seconds, runner, log, work)

    attempted, failed = len(log.records), log.failed
    metrics = result["metrics"]
    for name, m in sorted(metrics.items()):
        raw = result.get("raw_s", {}).get(name)
        print(f"  {name:<48} {m['value']:>16.6g} {m['unit']}" + ("" if raw is None else f"  (raw {raw:.6g} s)"))
    print(f"  {'fail_ratio':<48} {failed / attempted:>16.6g} ({failed} of {attempted} operations)")
    if result.get("cells_per_s"):
        print(f"  {'cells_per_s':<48} {result['cells_per_s']:>16.6g} 1/s ({result['cells_per_pass']} cells per pass)")
    for op_name, digest in sorted(log.digests.items()):
        print(f"  sha256 {op_name:<20} {digest}")
    (OUT / f"{tag}.result.json").write_text(
        json.dumps({"provenance": prov, "digests": log.digests, "operations": log.records, **result}, indent=1) + "\n"
    )
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
