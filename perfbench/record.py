#!/usr/bin/env python3
"""Run every workload on several seeds and record the results.

    python3 perfbench/record.py --label baseline --seeds 0-9

For each workload in BENCHMARK.json (or each named with `--workloads`)
this runs `run.py` once per seed with tracing off and
once (first seed) with tracing on, each in a fresh process, exactly as a
single benchmark invocation.  It prints every end-to-end metric by name
with its unit, the median over seeds, the spread (interquartile range
over median, as the regression bounds in BENCHMARK.json are judged) and
the sample counts, plus the failed fraction and the traced layer split.
With `--probes` it also runs `probes.py`.  Everything is written to
`perfbench/results/BENCH_<label>.json`.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

from run import SPEC as BENCHMARK, WORK, provenance  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

LAYER_SHARES = ("hierarchy.evolve_s", "cli.write_csv_s", "cli.self_s", "models.death_rates_s",
                "simulate.run_ensemble_self_s", "models.propose_birth_s",
                "space.circular_convolve_s", "models.mean_field_rhs_s")


def parse_seeds(text: str):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def bench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    saved = WORK / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(saved.read_text())


def spread(values) -> float:
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 1,5,7")
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in BENCHMARK["workloads"]),
                        help="comma-separated; sim-sparse is not in BENCHMARK.json")
    parser.add_argument("--probes", action="store_true")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)

    record = {"label": args.label, "seeds": seeds, "seconds": args.seconds,
              "provenance": provenance(seeds[0]), "workloads": {}}
    for name in args.workloads.split(","):
        runs = [bench(name, seed, args.seconds, 0) for seed in seeds]
        traced = bench(name, seeds[0], args.seconds, 1)
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        summary = {}
        print(f"# {name}: {len(seeds)} seeds x {args.seconds:g} s, "
              f"failed_frac = {failed}/{attempted} = {failed / attempted:g}")
        for metric in list(runs[0]["metrics"]) + list(runs[0]["extra"]):
            per_seed = [{**r["metrics"], **r["extra"]}[metric] for r in runs]
            values = [m["value"] for m in per_seed]
            summary[metric] = {"unit": per_seed[0]["unit"], "median": statistics.median(values),
                               "spread": spread(values) if len(values) > 1 else 0.0,
                               "per_seed": values,
                               "samples": sum(m["samples"] for m in per_seed)}
            s = summary[metric]
            print(f"  {metric:14s} {s['median']:>12.6g} {s['unit']:4s} spread {s['spread']:.3f}"
                  f"  ({s['samples']} samples over {len(values)} seeds)")
        wall = traced["metrics"]["trace.wall_s"]["value"]
        shares = {k: traced["metrics"][k]["value"] / wall for k in LAYER_SHARES if wall > 0}
        print("  traced self-time shares: " + ", ".join(
            f"{k} {v:.0%}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1]) if v >= 0.01))
        record["workloads"][name] = {
            "why": runs[0]["why"], "work_unit": WORKLOADS[name].work_unit,
            "attempted": attempted, "failed": failed, "failed_frac": failed / attempted,
            "end_to_end": summary,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "layer_shares_of_traced_wall": shares}
    if args.probes:
        subprocess.run([sys.executable, str(HERE / "probes.py")], cwd=ROOT, check=True)
        record["probes"] = json.loads((WORK / "results" / "probes.json").read_text())["probes"]
    out = HERE / "results" / f"BENCH_{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
