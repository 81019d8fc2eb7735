"""Quick-mode runs of every workload, untraced and traced.

Each run checks every op's output against the benchmark's references;
this test checks the result line against BENCHMARK.json, that the
harness counts ops that raise or give wrong output, and that it refuses
to run without romstab's sources.
"""

import importlib.util
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def run_bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.3", "--trace", str(trace), "--quick"],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_quick_run_reports_every_metric(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        if not trace:
            assert metric["value"] > 0, name


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = run_bench(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


class Faulty:
    """A stand-in workload with one fault: ``FAULT`` names the step that
    raises, or ``"wrong"`` for an op whose output fails its check."""

    FAULT = None

    def __init__(self, rs, tracer, workdir, seed, quick):
        pass

    def step(self, name, value):
        if self.FAULT == name:
            raise RuntimeError(f"fault injected in {name}")
        return value

    def setup(self):
        return self.step("setup", {})

    def op(self, inputs):
        return self.step("op", "wrong" if self.FAULT == "wrong" else "right")

    def reference(self, inputs):
        return self.step("reference", "right")

    def check(self, inputs, reference, out):
        if out != reference:
            raise self.check_failed(f"output {out!r} is not {reference!r}")


@pytest.mark.parametrize("fault, correct", [
    ("op", True), ("wrong", False), ("reference", False), ("setup", False),
])
def test_failed_ops_are_counted(fault, correct, monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(HERE)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):  # run.py sets these
        monkeypatch.setenv(name, "1")
    spec = importlib.util.spec_from_file_location("bench_run", os.path.join(HERE, "run.py"))
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    import workloads

    faulty = type("Faulty", (Faulty,), {"FAULT": fault, "check_failed": workloads.CheckFailed})
    monkeypatch.setitem(workloads.WORKLOADS, "faulty", faulty)
    args = run.parse_args(["--workload", "faulty", "--seed", "0", "--seconds", "0.1",
                           "--trace", "0"])
    code, (result, _, _, _) = run.run(args, str(tmp_path))
    assert code == 0
    assert result["correct"] is correct
    assert result["failed"] == result["attempted"]
    if fault == "setup":
        assert result == {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    else:
        assert result["attempted"] >= 1
        assert result["metrics"]["ops_per_s"]["value"] == 0
        assert "op_p50_s" not in result["metrics"]
        assert result["metrics"]["setup_s"]["value"] > 0
