"""One workload in one fresh process: set-up, the timed loop, output checks.

Started by run.py with PYTHONPATH naming the checkout's src/ tree:

    python3 bench/worker.py --calls CALLS.json --setup-only
    python3 bench/worker.py --calls CALLS.json --seconds 20 --trace 0 --out-dir DIR

CALLS.json holds {"calls": [[command, scenario], ...], "reference":
{"scenario": ..., "csv": ...}}.  Set-up is `import abdsde` plus the first
`cli.load_scenario` of each scenario file.  The loop repeats the workload's
`cli.run` calls until `--seconds` have passed; with `--trace 1` every other
pair of iterations runs with the tracer installed (untraced, traced, traced,
untraced, ...).  Every call's output is checked; the run ends with one
untraced solve of the reference scenario, compared with the kept CSV.
Prints one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib
import json
import math
import os
import platform
import resource
import sys
import time
import traceback
import warnings

import tracer as tracing

REFERENCE_TOLERANCE = 1e-12  # ROADMAP "same behaviour": byte-identical or <= 1e-12


def check_csv(text: str) -> str | None:
    """None when the CSV has data rows and every number in them is finite."""
    rows = [line for line in text.splitlines() if not line.startswith("#")]
    if len(rows) < 2:
        return "no data rows"
    for row in rows[1:]:
        for cell in row.split(","):
            try:
                value = float(cell)
            except ValueError:
                continue  # a row label such as 'summary'
            if not math.isfinite(value):
                return f"non-finite value {cell!r}"
    return None


def compare_csv(text: str, reference: str,
                tolerance: float = REFERENCE_TOLERANCE) -> str | None:
    """None when the CSVs are equal line by line, numbers to within `tolerance`."""
    lines, ref_lines = text.splitlines(), reference.splitlines()
    if len(lines) != len(ref_lines):
        return f"{len(lines)} lines against {len(ref_lines)} in the reference"
    for line, ref in zip(lines, ref_lines):
        if line == ref:
            continue
        cells, ref_cells = line.split(","), ref.split(",")
        if line.startswith("#") or len(cells) != len(ref_cells):
            return f"line {line!r} differs from reference {ref!r}"
        for cell, ref_cell in zip(cells, ref_cells):
            try:
                gap = abs(float(cell) - float(ref_cell))
            except ValueError:
                gap = 0.0 if cell == ref_cell else math.inf
            if not gap <= tolerance:
                return f"{cell} against reference {ref_cell}"
    return None


def _read(path: str) -> str:
    with open(path) as handle:
        return handle.read()


def setup(calls: list):
    """Import abdsde and load each scenario once; returns (cli, seconds)."""
    start = time.perf_counter()
    importlib.import_module("abdsde")
    cli = importlib.import_module("abdsde.cli")
    for _, scenario in calls:
        cli.load_scenario(scenario)
    return cli, time.perf_counter() - start


class Checker:
    """Counts attempted and failed calls; keeps the first failures' reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self.first_output: dict = {}

    def record(self, label: str, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(f"{label}: {problem}")

    def check_call(self, index: int, status, out_path: str) -> None:
        if status != 0:
            self.record(f"call {index}", f"exit status {status}")
            return
        text = _read(out_path)
        problem = check_csv(text)
        # Same scenario file, same output, byte for byte (ROADMAP, aim 4).
        first = self.first_output.setdefault(index, text)
        if problem is None and text != first:
            problem = "output differs from the first iteration's"
        self.record(f"call {index}", problem)


def call_run(cli, command: str, scenario: str, out_path: str):
    """One cli.run call; an escaping exception is reported as status None."""
    try:
        return cli.run(command, scenario, out_path)
    except Exception:  # a crash is a failed run, not the end of the benchmark
        traceback.print_exc()
        return None


def timed_loop(cli, calls: list, seconds: float, out_dir: str, checker: Checker,
               tracer: tracing.Tracer | None) -> dict:
    walls, cpus, traced_walls, per_iteration = [], [], [], []
    min_iterations = 1 if tracer is None else 2
    start = time.perf_counter()
    i = 0
    while i < min_iterations or time.perf_counter() - start < seconds:
        traced = tracer is not None and i % 4 in (1, 2)
        if traced:
            first_span = len(tracer.spans)
            tracer.install()
        outputs = [os.path.join(out_dir, f"out_{j}.csv") for j in range(len(calls))]
        wall0, cpu0 = time.perf_counter(), time.process_time()
        statuses = [call_run(cli, command, scenario, out)
                    for (command, scenario), out in zip(calls, outputs)]
        cpu, wall = time.process_time() - cpu0, time.perf_counter() - wall0
        if traced:
            tracer.uninstall()
            traced_walls.append(wall)
            per_iteration.append(tracing.layer_metrics(tracer.spans[first_span:]))
        else:
            walls.append(wall)
            cpus.append(cpu)
        for j, (status, out) in enumerate(zip(statuses, outputs)):
            checker.check_call(j, status, out)
        i += 1
    return {"wall": walls, "cpu": cpus, "traced_wall": traced_walls,
            "layers": per_iteration}


def check_reference(cli, reference: dict, out_dir: str, checker: Checker) -> None:
    out = os.path.join(out_dir, "reference.csv")
    status = call_run(cli, "solve", reference["scenario"], out)
    if status != 0:
        checker.record("reference solve", f"exit status {status}")
        return
    checker.record("reference solve", compare_csv(_read(out), _read(reference["csv"])))


def _blas_threads() -> int | None:
    """OpenBLAS thread count, read from the library numpy has loaded."""
    try:
        with open("/proc/self/maps") as handle:
            libs = sorted({line.split()[-1] for line in handle
                           if "openblas" in line.split()[-1].lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_caches() -> dict:
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        try:
            level = _read(os.path.join(base, entry, "level")).strip()
            kind = _read(os.path.join(base, entry, "type")).strip()
            size = _read(os.path.join(base, entry, "size")).strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            caches[f"L{level}"] = size
    return caches


def host_info() -> dict:
    import numpy as np
    info = {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "cpu_model": None,
            "caches": _cpu_caches(), "blas_threads": _blas_threads()}
    try:
        for line in _read("/proc/cpuinfo").splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
        for line in _read("/proc/meminfo").splitlines():
            if line.startswith("MemTotal:"):
                info["ram_mb"] = round(int(line.split()[1]) / 1024)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        info["blas"] = None
    return info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--calls", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir")
    parser.add_argument("--spans", help="write the traced spans here as JSON lines")
    args = parser.parse_args(argv)
    with open(args.calls) as handle:
        spec = json.load(handle)
    calls = [tuple(call) for call in spec["calls"]]
    # Affine delays are snapped to the grid on purpose; keep stderr readable.
    warnings.filterwarnings("ignore", message="anticipation times are off-grid")

    cli, setup_s = setup(calls)
    result = {"setup_s": setup_s}
    if not args.setup_only:
        checker = Checker()
        tracer = tracing.Tracer() if args.trace else None
        result.update(timed_loop(cli, calls, args.seconds, args.out_dir, checker, tracer))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        check_reference(cli, spec["reference"], args.out_dir, checker)
        result.update(attempted=checker.attempted, failed=checker.failed,
                      reasons=checker.reasons, host=host_info())
        if tracer is not None and args.spans:
            with open(args.spans, "w") as handle:
                for record in tracing.span_records(tracer.spans):
                    handle.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
