#!/usr/bin/env python3
"""Benchmark of the birthdeath CLI.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload evolve-dense --seed 0 --seconds 20 --trace 0

With `--trace 0` every CLI run is a fresh process (`python3 -m
birthdeath.cli --config <generated config> ...`, the code behind the
`birthdeath` entry point) and the benchmark reports the end-to-end
metrics: the median over runs of a run's wall time relative to a run of
the frozen reference implementation in `frozen/` on the same input, made
right before or after it (`wall_rel`); the median set-up time of a fresh
process that only loads the configuration and builds space and model
(plus the kernel tables on the hierarchy workloads), likewise relative
to a set-up of the frozen reference right next to it and expressed in
seconds through that reference's set-up time `Workload.reference_setup_s`
(`setup_s`); and the median peak resident memory of a run.  The speed of
a shared host drifts by tens of per cent within seconds to minutes; both
halves of a pair see the same drift, so their ratio does not.  Absolute
wall and set-up times and work per second (hierarchy RK4 steps or
thinning proposals) are reported alongside, without a bound.
With `--trace 1` it runs the CLI inside this process, once plain and once
with the layer tracer of `tracing.py`, alternately, and reports the
per-layer metrics.

OpenBLAS runs one thread, in this process and in every child: on a
machine with few cores a second BLAS thread measured no shorter runs,
only more CPU time and more scatter.

Runs repeat until `--seconds` have passed (at least `MIN_RUNS`).  Every
run's outputs are checked (see `workloads.py`); a run fails on a nonzero
exit code or a failed check.  Metric names and units come from
`BENCHMARK.json`.  A human-readable summary with sample counts
goes to standard output, the full result with provenance to
`.perfbench/results/`, and the last line of standard output is the JSON
object {"correct", "attempted", "failed", "metrics"}.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
FROZEN = HERE / "frozen"   # the birthdeath package as of the benchmark's first commit

os.environ["OPENBLAS_NUM_THREADS"] = "1"   # before numpy is imported, here and in children

import tracing  # noqa: E402  (sibling module; HERE is sys.path[0])
from workloads import (WORKLOADS, CheckFailed, check_outputs, check_pooled,  # noqa: E402
                       cli_seeds, make_config, output_digest)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
MIN_RUNS = 3          # CLI runs per benchmark run, even past --seconds
RUN_TIMEOUT_S = 150   # a CLI run taking longer is killed and counts as failed
# Self times add up to the traced wall by construction, so the trace is
# checked instead on the time it leaves unattributed: cli.main's own time
# outside every wrapped call may be at most this share of the traced wall.
UNATTRIBUTED_MAX = 0.25

SETUP_CODE = """
import sys
from birthdeath import cli
cfg = cli.load_config(sys.argv[1])
torus, grid = cli.build_space(cfg)
model = cli.build_model(cfg, torus, grid)
if sys.argv[2] == "1":
    model.hierarchy_tables(grid)
"""


def child_env(src: Path = SRC) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


def spawn(argv, log_path: Path, src: Path = SRC):
    """Run argv with `src` first on the module path to completion; returns
    (wall seconds, exit code, rusage)."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=log,
                                stderr=subprocess.STDOUT, env=child_env(src), cwd=ROOT)
        watchdog = threading.Timer(RUN_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3 if values else [0.0] * 3
    q = statistics.quantiles(values, n=4)
    return [q[0], statistics.median(values), q[2]]


def units(kind: str) -> dict:
    """name -> unit of the `end_to_end` or `per_layer` metrics of BENCHMARK.json."""
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def summarize(samples: dict, units: dict) -> dict:
    """name -> {"value": median, "unit", "samples", "quartiles"}."""
    out = {}
    for name, values in samples.items():
        q = quartiles(values)
        out[name] = {"value": q[1], "unit": units[name], "samples": len(values),
                     "quartiles": [q[0], q[2]]}
    return out


class Window:
    """The measuring window of one benchmark run.  Another cycle (runs plus
    their set-ups) starts only while the window is expected to hold at
    least half of it, so a benchmark run overruns `seconds` by at most
    about half a cycle."""

    def __init__(self, seconds: float):
        self.deadline = time.perf_counter() + seconds
        self.last = self.cycle = None

    def another(self) -> bool:
        now = time.perf_counter()
        if self.last is not None:
            self.cycle = now - self.last
        self.last = now
        return now + 0.5 * (self.cycle or 0.0) < self.deadline


class Bench:
    """One benchmark run of one workload: generated inputs, runs, checks."""

    def __init__(self, workload, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.cfg = make_config(workload, seed)
        self.cfg_path = workdir / "config.json"
        self.cfg_path.write_text(json.dumps(self.cfg, indent=1))
        self.seeds = cli_seeds(seed)
        self.verified = {}     # output digest -> check result
        self.failures = []
        self.attempted = 0
        self.runs = 0

    def cli_argv(self, out_dir: Path, cli_seed: int):
        argv = ["--config", str(self.cfg_path), "--out", str(out_dir), "--threads", "1"]
        if self.workload.argv == ("simulate",):
            argv += ["--seed", str(cli_seed)]
        return argv + list(self.workload.argv)

    def new_out_dir(self) -> Path:
        self.runs += 1
        return self.workdir / f"out{self.runs}"

    def check(self, out_dir: Path, rc: int, log_path: Path = None, problem: str = None):
        """Count one run and check its outputs; returns the counted work, or
        None when the run failed (nonzero exit, failed check or `problem`)."""
        self.attempted += 1
        try:
            if problem:
                raise CheckFailed(problem)
            if rc != 0:
                log = log_path.read_text(errors="replace")[-2000:] if log_path else ""
                raise CheckFailed(f"exit code {rc}: {log}")
            digest = output_digest(out_dir)
            if digest not in self.verified:
                self.verified[digest] = check_outputs(self.workload, out_dir, self.cfg, self.seed)
            return self.verified[digest]
        except CheckFailed as exc:
            self.failures.append(str(exc))
            return None
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)

    def check_pooled_runs(self, works: list) -> None:
        """Pooled checks over the counted work of every passing run; a
        violation counts as one more failure."""
        try:
            check_pooled(self.workload, self.cfg, works)
        except CheckFailed as exc:
            self.failures.append(f"pooled over {len(works)} runs: {exc}")

    def setup_time(self, src: Path = SRC) -> float:
        log = self.workdir / "setup.log"
        wall, rc, _ = spawn([sys.executable, "-c", SETUP_CODE, str(self.cfg_path),
                             "1" if self.workload.hierarchy else "0"], log, src=src)
        if rc != 0:
            raise RuntimeError(f"set-up process failed: {log.read_text(errors='replace')}")
        return wall

    def setup_pair(self, reference_first: bool) -> tuple:
        """(set-up wall, set-up wall of the frozen reference), back to back."""
        if reference_first:
            reference = self.setup_time(FROZEN)
            return self.setup_time(), reference
        own = self.setup_time()
        return own, self.setup_time(FROZEN)

    def fresh_process_run(self, cli_seed: int) -> dict:
        out_dir = self.new_out_dir()
        log = out_dir.with_suffix(".log")
        argv = [sys.executable, "-m", "birthdeath.cli"] + self.cli_argv(out_dir, cli_seed)
        wall, rc, usage = spawn(argv, log)
        work = self.check(out_dir, rc, log)
        log.unlink(missing_ok=True)
        if work is None:
            return None
        return {"wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024.0,
                "work_per_s": work[self.workload.work_unit] / wall,
                "cpu_s": usage.ru_utime + usage.ru_stime, "sys_s": usage.ru_stime,
                "work": work}

    def reference_run(self, cli_seed: int) -> float:
        """Wall time of the frozen reference implementation on the same input.
        Its outputs are not checked: it is the yardstick, not the subject."""
        out_dir = self.new_out_dir()
        log = out_dir.with_suffix(".log")
        argv = [sys.executable, "-m", "birthdeath.cli"] + self.cli_argv(out_dir, cli_seed)
        wall, rc, _ = spawn(argv, log, src=FROZEN)
        shutil.rmtree(out_dir, ignore_errors=True)
        if rc != 0:
            raise RuntimeError(f"reference run failed: {log.read_text(errors='replace')[-2000:]}")
        log.unlink()
        return wall

    def measure(self, seconds: float) -> dict:
        """Fresh-process runs for `seconds`, each paired with a reference run
        on the same input (which one goes first alternates); returns the
        end-to-end result."""
        window = Window(seconds)
        self.setup_pair(False)   # untimed: compiles bytecode, fills the file cache
        self.reference_run(next(self.seeds))
        setups, runs = [], []
        cycle = 0
        while window.another() or len(runs) + len(self.failures) < MIN_RUNS:
            setups.append(self.setup_pair(reference_first=cycle % 2 == 1))
            cli_seed = next(self.seeds)
            if cycle % 2:
                reference = self.reference_run(cli_seed)
                sample = self.fresh_process_run(cli_seed)
            else:
                sample = self.fresh_process_run(cli_seed)
                reference = self.reference_run(cli_seed)
            cycle += 1
            if sample is not None:
                runs.append({**sample, "reference_wall_s": reference,
                             "wall_rel": sample["wall_s"] / reference})
        self.check_pooled_runs([r["work"] for r in runs])
        samples = {name: [r[name] for r in runs] for name in ("wall_rel", "peak_rss_mb")}
        samples["setup_s"] = [own / ref * self.workload.reference_setup_s for own, ref in setups]
        metrics = summarize(samples, units("end_to_end"))
        extra = {name: [r[name] for r in runs]
                 for name in ("wall_s", "reference_wall_s", "work_per_s", "cpu_s", "sys_s")}
        extra["setup_wall_s"], extra["reference_setup_wall_s"] = map(list, zip(*setups))
        extra = summarize(extra, {"wall_s": "s", "reference_wall_s": "s", "cpu_s": "s",
                                  "sys_s": "s", "work_per_s": "1/s", "setup_wall_s": "s",
                                  "reference_setup_wall_s": "s"})
        return {"metrics": metrics, "extra": extra, "runs": runs, "setups": setups}

    def trace(self, seconds: float) -> dict:
        """In-process runs, plain and traced alternately; returns per-layer metrics."""
        from birthdeath import cli

        plain, traced, per_layer, works = [], [], [], []
        last_tracer = None
        window = Window(seconds)
        out_dir = self.new_out_dir()   # untimed: the first run in a process is slower
        self.check(out_dir, cli.main(self.cli_argv(out_dir, next(self.seeds))))
        pair = 0
        while window.another() or pair < 1:
            cli_seed = next(self.seeds)   # both runs of a pair do the same work
            for kind in (("plain", "traced") if pair % 2 == 0 else ("traced", "plain")):
                out_dir = self.new_out_dir()
                argv = self.cli_argv(out_dir, cli_seed)
                if kind == "plain":
                    before = resource.getrusage(resource.RUSAGE_SELF)
                    start = time.perf_counter()
                    rc = cli.main(argv)
                    wall = time.perf_counter() - start
                    after = resource.getrusage(resource.RUSAGE_SELF)
                    work = self.check(out_dir, rc)
                    if work is not None:
                        works.append(work)
                        sys_s = after.ru_stime - before.ru_stime
                        plain.append((wall, after.ru_utime - before.ru_utime + sys_s, sys_s))
                    continue
                tracer = tracing.Tracer()
                with tracing.instrument(tracer):
                    main = tracer.wrap("cli.main", cli.main)
                    start = time.perf_counter()
                    rc = main(argv)
                    wall = time.perf_counter() - start
                layers = tracing.layer_metrics(tracer)
                problem = None
                if layers["cli.self_s"] > UNATTRIBUTED_MAX * wall:
                    problem = (f"{layers['cli.self_s']:.3f} s of the traced {wall:.3f} s fall "
                               f"outside every traced layer (limit {UNATTRIBUTED_MAX:.0%})")
                if self.check(out_dir, rc, problem=problem) is not None:
                    traced.append(wall)
                    per_layer.append(layers)
                    last_tracer = tracer
            pair += 1
        self.check_pooled_runs(works)   # the plain runs: a traced run repeats its pair's

        layer_units = units("per_layer")
        values = dict.fromkeys(layer_units, 0.0)   # stays 0 only when no pair passed
        if per_layer and plain:
            values = {name: statistics.median(m[name] for m in per_layer) for name in per_layer[0]}
            walls, cpus, syss = zip(*plain)
            values["proc.cpu_s"] = statistics.median(cpus)
            values["proc.sys_s"] = statistics.median(syss)
            values["trace.wall_s"] = statistics.median(traced)
            values["trace.overhead_frac"] = statistics.median(traced) / statistics.median(walls) - 1.0
            if set(values) != set(layer_units):
                raise RuntimeError(f"traced metrics {sorted(set(values) ^ set(layer_units))} "
                                   "do not match the per_layer list of BENCHMARK.json")
        metrics = {name: {"value": values[name], "unit": unit, "samples": len(traced)}
                   for name, unit in layer_units.items()}
        return {"metrics": metrics, "pairs": pair, "plain_walls": [p[0] for p in plain],
                "traced_walls": traced, "tracer": last_tracer}


def blas_threads():
    """OpenBLAS thread count of the loaded numpy, or None if not found."""
    import numpy as np
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_commit():
    """HEAD of the checkout, or None outside a git work tree."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(seed: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "git_commit": git_commit(),
        "seed": seed,
    }


def print_summary(workload: str, trace: int, result: dict) -> None:
    print(f"# {workload} (trace {trace}): failed_frac {result['failed']}/{result['attempted']}")
    for name, m in {**result["metrics"], **result.get("extra", {})}.items():
        print(f"  {name:36s} {m['value']:>16.6g} {m['unit']:6s} (median of {m['samples']})")
    for failure in result["failures"][:5]:
        print(f"  FAILED: {failure[:300]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind: kill and reap the running child, remove the work directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "birthdeath" / "cli.py").is_file():
        print(f"perfbench: no birthdeath sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import birthdeath
    if Path(birthdeath.__file__).resolve().parent != SRC / "birthdeath":
        print(f"perfbench: imported birthdeath from {birthdeath.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    results_dir = WORK / "results"
    results_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    try:
        bench = Bench(workload, args.seed, workdir)
        if args.trace:
            outcome = bench.trace(args.seconds)
        else:
            outcome = bench.measure(args.seconds)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    stem = results_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    tracer = outcome.pop("tracer", None)
    if tracer is not None:
        tracer.write_spans(stem.with_suffix(".spans.csv"))
    why = next((w["why"] for w in SPEC["workloads"] if w["name"] == workload.name), None)
    result = {"workload": workload.name, "why": why, "trace": args.trace,
              "seconds": args.seconds, "provenance": provenance(args.seed),
              "attempted": bench.attempted, "failed": len(bench.failures),
              "failures": bench.failures, **outcome}
    stem.with_suffix(".json").write_text(json.dumps(result, indent=1) + "\n")
    print_summary(workload.name, args.trace, result)
    print(json.dumps({
        "correct": not bench.failures and bench.attempted > 0,
        "attempted": max(bench.attempted, 1),
        "failed": len(bench.failures),
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
