"""Benchmark entry point: one workload, one seed, one JSON result line.

Run from the root of a checkout:

    python3 bench/run.py --workload lsmc_solve --seed 1 --seconds 20 --trace 0

It writes the workload's scenario files (bench/workloads.py) under
.perfbench/, then runs them through `abdsde.cli.run` in a fresh worker
process with PYTHONPATH=src, one client in a closed loop, BLAS at its
default thread count.  `--trace 0` reports the end-to-end metrics and
`--trace 1` the per-layer metrics of BENCHMARK.json.  Set-up is also timed
in further fresh processes and reported as the median.  The last line of
stdout is {"correct", "attempted", "failed", "metrics"}; the lines before
it name each metric with its unit, fail_fraction and the host.  Results,
and the spans of a traced run, are kept in .perfbench/results/.
`--quick` shrinks every workload for the benchmark's own test.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_SAMPLES = 7       # fresh processes timing set-up; the median is reported
QUICK_SETUP_SAMPLES = 2
TIME_LIMIT_S = 170.0    # the whole run, worker and set-up probes included

UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
# Per-layer metrics are seconds (named *_s) or counts, except these.
LAYER_UNITS = {"paths.bytes_drawn": "bytes", "condexp.gram_flops": "flop",
               "condexp.shortcut_share": "ratio", "condexp.design_reuse": "ratio"}


def layer_unit(name: str) -> str:
    if name in LAYER_UNITS:
        return LAYER_UNITS[name]
    return "s" if name.endswith("_s") else "count"


def worker(args: list, env: dict, deadline: float) -> dict:
    """Run worker.py to completion and return its JSON result."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py")] + args, env=env,
        stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()))
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with status {done.returncode}")
    return json.loads(lines[-1])


def end_to_end(main: dict, setup_samples: list) -> dict:
    return {
        "wall_s": statistics.median(main["wall"]),
        "cpu_s": statistics.median(main["cpu"]),
        "peak_rss_mb": main["peak_rss_mb"],
        "setup_s": statistics.median(setup_samples),
    }


def per_layer(main: dict) -> dict:
    """Per-iteration means over the traced iterations, plus tracing overhead."""
    layers = main["layers"]
    metrics = {name: statistics.fmean(it[name] for it in layers) for name in layers[0]}
    metrics["trace.overhead_s"] = (statistics.median(main["traced_wall"])
                                   - statistics.median(main["wall"]))
    return metrics


def trace_consistent(main: dict) -> bool:
    """Layer self times sum to the traced wall time in every iteration."""
    for it in main["layers"]:
        self_sum = sum(value for name, value in it.items()
                       if name.endswith(".self_s"))
        if abs(self_sum - it["trace.wall_s"]) > 1e-9 * max(1.0, it["trace.wall_s"]):
            return False
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="abdsde end-to-end benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="small inputs, for the benchmark's own test")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "abdsde", "__init__.py")):
        print(f"error: no abdsde package under {src}; run from a checkout's root",
              file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")

    results = os.path.join(root, ".perfbench", "results")
    work = os.path.join(root, ".perfbench", f"run-{args.workload}-{os.getpid()}")
    os.makedirs(results, exist_ok=True)
    os.makedirs(work, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        calls = workloads.generate(args.workload, work, args.seed, args.quick)
        calls_file = os.path.join(work, "calls.json")
        reference = os.path.join(HERE, "reference")
        with open(calls_file, "w") as handle:
            json.dump({"calls": calls,
                       "reference": {"scenario": os.path.join(reference, "solve.yaml"),
                                     "csv": os.path.join(reference, "solve.csv")}},
                      handle)
        worker_args = ["--calls", calls_file, "--seconds", str(args.seconds),
                       "--trace", str(args.trace), "--out-dir", work]
        if args.trace:
            worker_args += ["--spans", os.path.join(results, tag + ".spans.jsonl")]
        main_run = worker(worker_args, env, deadline)
        setup_samples = [main_run["setup_s"]]
        if not args.trace:
            n_probes = (QUICK_SETUP_SAMPLES if args.quick else SETUP_SAMPLES) - 1
            for _ in range(n_probes):
                probe = worker(["--calls", calls_file, "--setup-only"], env, deadline)
                setup_samples.append(probe["setup_s"])
    except (OSError, RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = main_run["failed"] == 0
    if args.trace:
        metrics = per_layer(main_run)
        correct = correct and trace_consistent(main_run)
        units = {name: layer_unit(name) for name in metrics}
        samples = len(main_run["traced_wall"])
    else:
        metrics = end_to_end(main_run, setup_samples)
        units = UNITS
        samples = len(main_run["wall"])
    fail_fraction = main_run["failed"] / main_run["attempted"]

    with open(os.path.join(results, tag + ".json"), "w") as handle:
        json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "quick": args.quick, "seconds": args.seconds, "host": main_run["host"],
                   "metrics": metrics, "fail_fraction": fail_fraction,
                   "reasons": main_run["reasons"], "setup_samples": setup_samples,
                   "wall": main_run["wall"], "cpu": main_run["cpu"],
                   "traced_wall": main_run["traced_wall"]}, handle, indent=1)

    print(f"# host {json.dumps(main_run['host'], sort_keys=True)}")
    if args.trace:
        print(f"# {tag}: means per iteration over {samples} traced iterations; "
              "bytes and flops are computed from array shapes")
    else:
        print(f"# {tag}: medians over {samples} timed iterations "
              f"({len(setup_samples)} set-up samples)")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"fail_fraction = {fail_fraction:.6g} ratio "
          f"({main_run['failed']} of {main_run['attempted']} runs)")
    for reason in main_run["reasons"]:
        print(f"# failed: {reason}")
    print(json.dumps({"correct": correct, "attempted": main_run["attempted"],
                      "failed": main_run["failed"],
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
