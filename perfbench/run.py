"""icubench benchmark: synthetic dump -> `icubench run` -> report.json, timed.

Usage (from the repository root):

    python3 perfbench/run.py --workload mort24-bilstm --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 1

One run of a workload generates its dump from ``--seed`` (set-up, timed
five times), then launches fresh `icubench run` processes one at a time
for ``--seconds`` seconds, at least two.  Every process is checked: exit
code 0, a parseable report.json whose per-fold sizes match the fingerprint
that perfbench/oracle.py derives from the CSV files, a report byte-identical
to the first one of the run, and on mort24-bilstm the criterion-7 AUROC
floor.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced processes and reports the per-layer
metrics.  The last line of standard output is one JSON object; everything
else (environment record, metric table, accounting) comes before it, and
the full record is kept under .perfbench/results/.

The benchmark reads the BLAS thread variables and never sets them.
"""

from __future__ import annotations

import argparse
import compileall
import importlib.metadata
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import layers
import oracle
from workloads import COMMON_RUN, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

SETUP_REPEATS = 5
WARMUP_S = 2.0
MIN_RUNS = 2
MAX_RUNS = 20
RUN_DEADLINE_S = 165.0        # one workload, set-up included
SMOKE_PATIENTS = 150
SMOKE_EPOCHS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def environment() -> dict:
    """What the numbers depend on besides the code: read, never set."""
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = "unknown"
    if shutil.which("git") and (ROOT / ".git").exists():
        done = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        if done.returncode == 0:
            commit = done.stdout.strip()
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "machine": platform.machine(),
    }


def run_child(cmd: list[str], cwd: Path, limit_s: float) -> dict:
    """One child process to completion: exit code, wall, CPU and peak RSS from its rusage."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    with open(cwd / "child.err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(max(limit_s, 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"exit": proc.returncode, "wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0}


def check_run(run: dict, work: Path, expected: dict, reference: bytes | None, min_auroc: float | None):
    """Correctness of one child: returns (report bytes or None, list of problems)."""
    if run["exit"] != 0:
        tail = (work / "child.err").read_text(encoding="utf-8", errors="replace")[-400:]
        return None, [f"exit code {run['exit']}: {tail.strip()}"]
    try:
        raw = (work / "out" / "report.json").read_bytes()
        report = json.loads(raw)
        cohort_text = (work / "out" / "cohort_report.txt").read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:
        return None, [f"run outputs unreadable: {exc}"]
    problems = []
    folds = [[f.get("n_train"), f.get("n_test")] for f in report.get("folds", [])]
    if folds != expected["folds"]:
        problems.append(f"fold sizes {folds} != fingerprint {expected['folds']}")
    included = re.search(r"^included\s+(\d+)", cohort_text, re.M)
    if not included or int(included.group(1)) != expected["base_stays"]:
        problems.append(f"base cohort {included and included.group(1)} != fingerprint {expected['base_stays']}")
    if reference is not None and raw != reference:
        problems.append("report.json differs from the first same-seed run")
    auroc = auroc_of(report)
    if auroc is None or not math.isfinite(auroc):
        problems.append("aggregate AUROC missing")
    elif min_auroc is not None and auroc < min_auroc:
        problems.append(f"AUROC {auroc:.4f} below the {min_auroc} floor")
    return raw, problems


def auroc_of(report: dict) -> float | None:
    return (report.get("aggregate", {}).get("auroc") or {}).get("mean")


def check_trace(spans_path: Path) -> tuple[dict | None, list[str]]:
    try:
        traced = json.loads(spans_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return None, [f"trace output unreadable: {exc}"]
    traced["accounting"] = layers.accounting(traced["spans"])
    problems = []
    if not traced["restored"]:
        problems.append("tracer left wrapped attributes behind")
    if not traced["accounting"]["ok"]:
        problems.append(f"layer self times miss {traced['accounting']['residual_s']:.4f} s of the run_experiment span")
    return traced, problems


def warm_up_cpus() -> None:
    """Keep every CPU busy for WARMUP_S before timing.

    On the 2-vCPU machine the benchmark was built on, the first BLAS-threaded
    process after an idle or single-threaded stretch ran about 10% slower
    than the ones after it.
    """
    spin = f"import time\nend = time.perf_counter() + {WARMUP_S}\nwhile time.perf_counter() < end: pass"
    spinners = [subprocess.Popen([sys.executable, "-c", spin]) for _ in range(len(os.sched_getaffinity(0)))]
    for proc in spinners:
        proc.wait()


def make_dump(name: str, seed: int, n_patients: int, repeats: int, work: Path) -> list[float]:
    """Set-up, in its own process: the dump, and the seconds each generation took."""
    done = subprocess.run([sys.executable, str(HERE / "dump.py"), str(SRC), name, str(seed), str(n_patients),
                           str(repeats), str(work / "dump")], capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise RuntimeError(f"dump generation failed: {done.stderr.strip()[-400:]}")
    return json.loads(done.stdout)


def run_workload(name: str, seed: int, seconds: int, trace: bool, smoke: bool) -> dict:
    started = time.perf_counter()
    workload = WORKLOADS[name]
    n_patients = SMOKE_PATIENTS if smoke else workload.n_patients
    min_auroc = None if smoke else workload.min_auroc
    work = STATE / "work" / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup_times = make_dump(name, seed, n_patients, 1 if trace else SETUP_REPEATS, work)
        expected = oracle.fingerprint(work / "dump", workload.run["task"], COMMON_RUN["folds"], COMMON_RUN["seed"])
        (work / "run.cfg").write_text(
            workload.config_text("dump", "out", SMOKE_EPOCHS if smoke else None), encoding="utf-8")
        warm_up_cpus()

        untraced_cmd = [sys.executable, "-m", "icubench.cli", "run", "--config", "run.cfg"]
        traced_cmd = [sys.executable, str(HERE / "traced_child.py"), str(SRC), "run.cfg", "spans.json"]
        runs: list[dict] = []
        reference = None
        loop_start = time.perf_counter()
        while len(runs) < MAX_RUNS:
            traced = trace and len(runs) % 2 == 1
            (work / "out" / "report.json").unlink(missing_ok=True)
            (work / "spans.json").unlink(missing_ok=True)
            run = run_child(traced_cmd if traced else untraced_cmd, work,
                            RUN_DEADLINE_S - (time.perf_counter() - started))
            run["traced"] = traced
            raw, problems = check_run(run, work, expected, reference, min_auroc)
            if raw is not None and reference is None and not problems:
                reference = raw
            if traced and run["exit"] == 0:
                run["trace"], trace_problems = check_trace(work / "spans.json")
                problems += trace_problems
            run["problems"] = problems
            runs.append(run)
            elapsed = time.perf_counter() - loop_start
            typical = statistics.median(r["wall_s"] for r in runs)
            # Stop where the measured time lands nearest to --seconds: one more
            # process only if it is expected to end less than half of it past.
            if len(runs) >= MIN_RUNS and (elapsed + typical / 2 > seconds or
                                          time.perf_counter() - started + typical > RUN_DEADLINE_S):
                break
        report = json.loads(reference) if reference is not None else None
        return {"workload": name, "seed": seed, "trace": trace, "smoke": smoke, "n_patients": n_patients,
                "measured_s": time.perf_counter() - loop_start, "setup_s": setup_times,
                "fingerprint": expected, "runs": runs, "report": report}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def end_to_end_metrics(result: dict) -> dict:
    """The end-to-end metrics of one run, as {name: (value, unit)}."""
    good = [r for r in result["runs"] if not r["problems"] and not r["traced"]]
    run_s = statistics.median(r["wall_s"] for r in good)
    return {
        "setup_s": (statistics.median(result["setup_s"]), "s"),
        "run_s": (run_s, "s"),
        "cpu_s": (statistics.median(r["cpu_s"] for r in good), "s"),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in good), "MB"),
        "stays_per_s": (result["fingerprint"]["base_stays"] / run_s, "1/s"),
        "auroc_mean": (auroc_of(result["report"]), "1"),
    }


def per_layer_metrics(result: dict) -> tuple[dict, dict]:
    """Per-layer medians over the traced runs, plus the tracing-overhead figures."""
    good = [r for r in result["runs"] if not r["problems"]]
    traced = [r for r in good if r["traced"]]
    untraced_s = statistics.median(r["wall_s"] for r in good if not r["traced"])
    folds = result["report"]["folds"]
    oversample_ratio = statistics.mean(f["n_train"] / f.get("n_train_before_oversample", f["n_train"])
                                       for f in folds)
    samples = [layers.layer_metrics(r["trace"]["spans"], r["trace"]["counts"], oversample_ratio) for r in traced]
    metrics = {name: (statistics.median(s[name][0] for s in samples), unit)
               for name, (_, unit) in samples[0].items()}
    span_s = statistics.median(r["trace"]["accounting"]["root_s"] for r in traced)
    traced_s = statistics.median(r["wall_s"] for r in traced)
    metrics["trace.run_experiment_s"] = (span_s, "s")
    metrics["trace.wall_ratio"] = (traced_s / untraced_s, "ratio")
    overhead = {"untraced_run_s_median": untraced_s, "traced_run_s_median": traced_s,
                "run_experiment_span_s": span_s, "span_share_of_untraced_run_s": span_s / untraced_s}
    return metrics, overhead


def print_accounting(name: str, result: dict) -> None:
    for run in result["runs"]:
        if not run.get("trace"):
            continue
        acc = run["trace"]["accounting"]
        root = acc["root_s"]
        print(f"# {name} accounting: run_experiment span {root:.3f} s, residual {acc['residual_s']:+.6f} s")
        for layer, self_s in sorted(acc["layers_self_s"].items(), key=lambda kv: -kv[1]):
            print(f"#   {layer:<16} self {self_s:9.3f} s  {100.0 * self_s / root:5.1f}%")


def summarize(result: dict) -> dict:
    """The result object for one workload, and its human-readable lines."""
    runs = result["runs"]
    failed = sum(1 for r in runs if r["problems"])
    name = result["workload"]
    for run in runs:
        for problem in run["problems"]:
            print(f"# {name} FAILED run: {problem}")
    passed_kinds = {r["traced"] for r in runs if not r["problems"]}
    metrics = {}
    if passed_kinds >= ({False, True} if result["trace"] else {False}):
        if result["trace"]:
            values, result["overhead"] = per_layer_metrics(result)
            print_accounting(name, result)
            print(f"# {name} tracing overhead: {json.dumps(result['overhead'])}")
        else:
            values = end_to_end_metrics(result)
        metrics = {key: {"value": value, "unit": unit} for key, (value, unit) in values.items()}
    for key, metric in metrics.items():
        print(f"# {name:<17} {key:<32} {metric['value']:>16.6f} {metric['unit']}")
    print(f"# {name:<17} {'fail_rate':<32} {failed / len(runs):>16.6f} ratio ({failed} of {len(runs)} runs)")
    return {"correct": failed == 0 and bool(metrics), "attempted": len(runs), "failed": failed, "metrics": metrics}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help=f"{SMOKE_PATIENTS} patients, {SMOKE_EPOCHS} epoch, no AUROC floor: checks the "
                             "benchmark's own code paths, not performance")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "icubench" / "__init__.py").is_file():
        print(f"error: no icubench sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    compileall.compile_dir(SRC / "icubench", quiet=1)

    env = environment()
    print(f"# env {json.dumps(env)}")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    summaries = {}
    results_dir = STATE / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), args.smoke)
        summaries[name] = summarize(result)
        result.update(env=env, summary=summaries[name], claim=None)
        (results_dir / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(result, indent=1, default=str), encoding="utf-8")

    if len(names) == 1:
        final = summaries[names[0]]
    else:
        final = {
            "correct": all(s["correct"] for s in summaries.values()),
            "attempted": sum(s["attempted"] for s in summaries.values()),
            "failed": sum(s["failed"] for s in summaries.values()),
            "metrics": {f"{name}/{key}": m for name, s in summaries.items() for key, m in s["metrics"].items()},
        }
    if not all(s["metrics"] for s in summaries.values()):
        print("error: no run passed its checks, so there is nothing to report", file=sys.stderr)
        return 1
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
