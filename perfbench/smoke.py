"""Smoke test of the benchmark itself, on tiny dumps.

Usage (from the repository root, about a minute):

    python3 perfbench/smoke.py

Drives every workload's code path once untraced and once traced, and checks
that every metric BENCHMARK.json names is emitted with its unit, on every
workload of workloads.py, and that every run passes its correctness checks.
It also checks that the tracer nests spans and puts back what it wraps, and
that the benchmark exits non-zero without printing a result where the
program's sources are absent.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from workloads import WORKLOADS  # noqa: E402


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True,
                          text=True, timeout=600)


def check_metrics(spec: dict) -> None:
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS), spec["workloads"]
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        done = run_bench(ROOT, "--workload", "all", "--seed", "3", "--seconds", "1", "--trace", str(trace),
                         "--smoke")
        assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2, result
        expected = {f"{name}/{m['name']}": m["unit"] for name in WORKLOADS for m in spec[kind]}
        assert set(result["metrics"]) == set(expected), set(result["metrics"]) ^ set(expected)
        for name, unit in expected.items():
            metric = result["metrics"][name]
            assert metric["unit"] == unit, (name, metric)
            assert isinstance(metric["value"], (int, float)), (name, metric)
        print(f"ok: --trace {trace} emits all {len(spec[kind])} {kind} metrics on every workload")


def check_tracer() -> None:
    from layers import accounting, targets
    from tracer import Target, Tracer

    listed = targets()
    originals = [vars(t.owner)[t.attr] for t in listed]
    with Tracer(listed) as tracer:
        assert all(vars(t.owner)[t.attr] is not o for t, o in zip(listed, originals))
    assert tracer.restored()
    assert all(vars(t.owner)[t.attr] is o for t, o in zip(listed, originals))

    toy = SimpleNamespace()
    toy.inner = lambda: sum(range(20000))
    toy.outer = lambda: toy.inner() + toy.inner()
    toy.fail = lambda: 1 / 0
    tracer = Tracer([Target(toy, "outer", "experiment.run"), Target(toy, "inner", "lstm.forward"),
                     Target(toy, "fail", "lstm.backward")])
    try:
        with tracer:
            toy.outer()
            toy.fail()
    except ZeroDivisionError:
        pass
    assert tracer.restored()
    spans = tracer.summary()["spans"]
    assert spans["lstm.forward"]["calls"] == 2 and spans["lstm.backward"]["calls"] == 1
    outer = spans["experiment.run"]
    assert abs(outer["total_s"] - outer["self_s"] - spans["lstm.forward"]["total_s"]) < 1e-9
    del spans["lstm.backward"]   # called outside the root span
    assert accounting(spans)["ok"]
    print("ok: tracer nests spans, survives exceptions and restores every wrapped attribute")


def check_refuses_bare_directory() -> None:
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        done = run_bench(bare, "--workload", "mort24-bilstm", "--seed", "1", "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0 and "{" not in done.stdout, (done.returncode, done.stdout)
    print("ok: refuses to run without the program's sources")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_tracer()
    check_refuses_bare_directory()
    check_metrics(spec)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
