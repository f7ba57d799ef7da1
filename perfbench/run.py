"""innervar benchmark: run one workload at one seed and print its metrics.

    python3 perfbench/run.py --workload sphere_tube --seed 1234 --seconds 30 --trace 0

Each pass is a fresh process (``worker.py``) that imports innervar from this
checkout's ``src/``, sets up the workload's configs and calls
``innervar.cli.main(["run", ...])`` on them, as a user's ``innervar run`` does.
Passes repeat until ``--seconds`` is used up (at least ``MIN_PASSES``), and the
end-to-end metrics are medians over passes.  ``--trace 1`` alternates untraced
and traced passes and reports per-layer metrics from the traced ones plus the
tracing overhead.  Every pass must produce a verdict and a CSV for every
experiment, and the same verdicts and CSV bytes as every other pass.  An
operation is one experiment of the workload: ``attempted`` counts them once,
however many passes re-ran them, and ``failed`` counts those whose verdict is
not pass.  The last line of stdout is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
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
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402

MIN_PASSES = 3  # untraced passes per run with --trace 0
RUN_LIMIT_S = 170.0  # a run never takes longer than this, whatever --seconds says
DIGEST_SEED = 1234

# metric name -> unit, from the benchmark's own declaration
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
E2E_UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}


class BenchError(Exception):
    """A pass could not be run or gave no result; the run prints no metrics."""


def worker_env(jobs: int) -> dict:
    """Environment of a pass: BLAS threads x CLI threads stays within the usable CPUs."""
    env = dict(os.environ)
    threads = str(max(1, len(os.sched_getaffinity(0)) // jobs))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def run_pass(workload: str, seed: int, traced: bool, out: Path, timeout: float) -> dict:
    """One fresh worker process; returns the result it wrote."""
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(out), "--trace", str(int(traced))]
    start = time.monotonic_ns()
    try:
        proc = subprocess.run(cmd + ["--spawn-ns", str(start)], cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout, env=worker_env(WORKLOADS[workload]["jobs"]))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass of {workload} did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0 or not (out / "result.json").exists():
        tail = "\n".join(proc.stderr.splitlines()[-20:])
        raise BenchError(f"pass of {workload} exited with {proc.returncode}:\n{tail}")
    res = json.loads((out / "result.json").read_text(encoding="utf-8"))
    shutil.rmtree(out / "results")
    return res


def check_pass(res: dict) -> list[str]:
    """Problems that make a pass's output incorrect (failed verdicts are not among them)."""
    problems = []
    for rc in res["rcs"]:
        if rc not in (0, 1):
            problems.append(f"innervar run exited with {rc}")
    by_config = {}
    for exp in res["experiments"]:
        if exp["pass"] is None:
            problems.append(f"{exp['name']}: no verdict in summary.json")
        if not exp["csv"]:
            problems.append(f"{exp['name']}: no CSV written")
        by_config.setdefault(exp["config"], []).append(exp)
    for exps in by_config.values():
        rc = exps[0]["rc"]
        if rc in (0, 1) and (rc == 1) != any(e["pass"] is False for e in exps):
            problems.append(f"{exps[0]['config']}: exit code {rc} disagrees with the verdicts")
    return problems


def passes_for(workload: str, seed: int, seconds: float, trace: bool,
               run_dir: Path) -> list[dict]:
    """Run passes while another cycle still fits in ``seconds``.

    A cycle is one untraced pass, or with ``trace`` one untraced and one traced
    pass.  The mean cycle so far predicts the next one.
    """
    start = time.monotonic()
    results, cycles = [], []
    pattern = (False, True) if trace else (False,)
    min_passes = len(pattern) if trace else MIN_PASSES
    while True:
        cycle_start = time.monotonic()
        for traced in pattern:
            elapsed = time.monotonic() - start
            results.append(run_pass(workload, seed, traced, run_dir / f"pass{len(results)}",
                                    RUN_LIMIT_S - elapsed))
        cycles.append(time.monotonic() - cycle_start)
        finish = time.monotonic() - start + statistics.fmean(cycles)
        if len(results) >= min_passes and finish > seconds or finish > RUN_LIMIT_S - 5.0:
            return results


def load_digests() -> dict:
    path = HERE / "digests.json"
    return json.loads(path.read_text(encoding="utf-8"))["workloads"]


def summarize(workload: str, seed: int, trace: bool, results: list[dict]) -> dict:
    untraced = [r for r in results if not r["traced"]]
    traced = [r for r in results if r["traced"]]
    problems = [p for r in results for p in check_pass(r)]
    digests = sorted({r["csv_sha256"] for r in results})
    if len(digests) != 1:
        problems.append(f"CSV bytes differ between passes: {digests}")
    verdicts = [{e["name"]: e["pass"] for e in r["experiments"]} for r in results]
    if any(v != verdicts[0] for v in verdicts):
        problems.append("verdicts differ between passes")
    # an operation is one experiment of the workload, however many passes re-ran it
    attempted = len(verdicts[0])
    failed_names = sorted(name for name, ok in verdicts[0].items() if ok is not True)
    failed = len(failed_names)
    median = statistics.median
    if trace:
        keys = traced[0]["layers"].keys()
        missing = set(LAYER_UNITS) - set(keys) - {"trace.overhead"}
        if missing:
            raise BenchError(f"the tracer gives no {sorted(missing)} (see BENCHMARK.json)")
        metrics = {k: median(r["layers"][k] for r in traced) for k in keys}
        metrics["trace.overhead"] = (median(r["wall_s"] for r in traced)
                                     / median(r["wall_s"] for r in untraced))
        units = LAYER_UNITS
    else:
        metrics = {k: median(r[k] for r in untraced) for k in E2E_UNITS}
        units = E2E_UNITS
    recorded = load_digests().get(workload)
    return {
        "workload": workload,
        "seed": seed,
        "jobs": results[0]["jobs"],
        "passes": len(untraced),
        "traced_passes": len(traced),
        "correct": not problems,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "failed_experiments": failed_names,
        "csv_sha256": digests[0],
        "digest_match": (digests[0] == recorded) if seed == DIGEST_SEED and recorded else None,
        "machine": results[0]["machine"],
        "samples": {k: [r[k] for r in untraced] for k in E2E_UNITS},
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


def print_report(rep: dict) -> None:
    m = rep["machine"]
    print(f"perfbench {rep['workload']} seed={rep['seed']} jobs={rep['jobs']} "
          f"passes={rep['passes']} traced_passes={rep['traced_passes']}")
    for name, met in rep["metrics"].items():
        print(f"  {name:26s} {met['value']:.6g} {met['unit']}")
    for name, vals in rep["samples"].items():
        print(f"  samples {name}: " + ", ".join(f"{v:.4g}" for v in vals))
    print(f"  experiments {rep['attempted']}, experiments_failed {rep['failed']}"
          + (f" ({', '.join(rep['failed_experiments'])})" if rep["failed_experiments"] else ""))
    match = {True: "matches", False: "DIFFERS from", None: "not compared with"}[rep["digest_match"]]
    print(f"  csv_sha256 {rep['csv_sha256']} ({match} the seed-{DIGEST_SEED} digest "
          f"in digests.json)")
    print(f"  machine: nproc={m['nproc']} usable={m['cpus_usable']} cpu={m['cpu_model']!r} "
          f"python={m['python']} numpy={m['numpy']} scipy={m['scipy']} "
          f"blas={(m['blas'] or {}).get('name')} {(m['blas'] or {}).get('version')} "
          f"blas_threads={m['blas_threads']}")
    for p in rep["problems"]:
        print(f"  INCORRECT: {p}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="innervar benchmark (see perfbench/README.md)")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DIGEST_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "innervar" / "__init__.py").is_file():
        print(f"no innervar sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    try:
        results = passes_for(args.workload, args.seed, args.seconds, bool(args.trace), run_dir)
        rep = summarize(args.workload, args.seed, bool(args.trace), results)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    (run_dir / "report.json").write_text(json.dumps(rep, indent=1) + "\n", encoding="utf-8")
    print_report(rep)
    print(json.dumps({"correct": rep["correct"], "attempted": rep["attempted"],
                      "failed": rep["failed"], "metrics": rep["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
