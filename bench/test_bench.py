"""The benchmark's own test, on quick-mode inputs.

    python3 -m pytest -q bench/test_bench.py

Checks that every metric BENCHMARK.json names is printed with its unit, that
a changed reference makes fail_fraction non-zero, and that the benchmark
refuses to run without the program.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads
from worker import check_csv, compare_csv

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, workload: str, trace: int, seed: int = 5):
    done = subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace), "--quick"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = done.stdout.strip().splitlines()
    return done.returncode, lines


def copy_checkout(dest: Path, with_src: bool = True) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, dest / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    if with_src:
        shutil.copytree(ROOT / "src", dest / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
    return dest


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_its_unit(workload, trace):
    status, lines = run_bench(ROOT, workload, trace)
    assert status == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
        assert any(line.startswith(f"{metric['name']} = ")
                   and line.endswith(f" {metric['unit']}") for line in lines)
    assert any(line.startswith("fail_fraction = 0 ratio ") for line in lines)


def test_changed_reference_makes_fail_fraction_nonzero(tmp_path):
    checkout = copy_checkout(tmp_path)
    reference = checkout / "bench" / "reference" / "solve.csv"
    lines = reference.read_text().splitlines()
    row = next(i for i, line in enumerate(lines) if line.startswith("0,"))
    cells = lines[row].split(",")
    cells[1] = repr(float(cells[1]) + 1e-9)
    lines[row] = ",".join(cells)
    reference.write_text("\n".join(lines) + "\n")

    status, out = run_bench(checkout, "lsmc_solve", trace=0)
    assert status == 0
    result = json.loads(out[-1])
    assert result["correct"] is False
    assert result["failed"] == 1
    fail_line = next(line for line in out if line.startswith("fail_fraction = "))
    assert float(fail_line.split()[2]) > 0.0


def test_refuses_to_run_without_the_program(tmp_path):
    checkout = copy_checkout(tmp_path, with_src=False)
    status, out = run_bench(checkout, "lsmc_solve", trace=0)
    assert status != 0
    assert not any(line.startswith("{") for line in out)


def test_output_checks():
    csv = "# hash\nt,y\n0,1.5\n1,2.0\n"
    assert check_csv(csv) is None
    assert check_csv("# hash\nt,y\n0,nan\n") is not None
    assert check_csv("outer_path,residual\n0,0.1\nsummary,0.1\n") is None
    assert compare_csv(csv, csv) is None
    assert compare_csv(csv.replace("1.5", "1.5000000000000004"), csv) is None
    assert compare_csv(csv.replace("1.5", "1.50000000001"), csv) is not None
    assert compare_csv(csv.replace("# hash", "# other"), csv) is not None


def test_same_seed_same_inputs(tmp_path):
    for name in workloads.WORKLOADS:
        a, b, c = (tmp_path / name / tag for tag in "abc")
        for directory, seed in ((a, 1), (b, 1), (c, 2)):
            directory.mkdir(parents=True)
            workloads.generate(name, str(directory), seed)
        files = sorted(p.name for p in a.iterdir())
        assert files == sorted(p.name for p in b.iterdir())
        assert all((a / f).read_bytes() == (b / f).read_bytes() for f in files)
        assert any((a / f).read_bytes() != (c / f).read_bytes() for f in files)
