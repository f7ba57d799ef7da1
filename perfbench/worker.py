"""One pass over one workload in a fresh process, as a user's ``innervar run`` sees it.

Run by ``run.py``; not meant to be started by hand.  The process imports
innervar from the checkout's ``src/``, writes and validates the workload's
configs (that is the set-up), then calls ``innervar.cli.main(["run", ...])``
once per config.  With ``--trace 1`` the layer entry points are wrapped
before the set-up, so the traced pass records spans and the untraced pass
runs the package untouched.  The result is written as JSON to
``<out>/result.json``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def csv_digest(results: Path) -> tuple[str, int]:
    """sha256 over every CSV under ``results``, in path order, with its relative path."""
    h = hashlib.sha256()
    files = sorted(results.rglob("*.csv"))
    for p in files:
        h.update(p.relative_to(results).as_posix().encode() + b"\0")
        h.update(p.read_bytes())
    return h.hexdigest(), len(files)


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None where it cannot be asked."""
    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_record() -> dict:
    import numpy as np
    import scipy

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (AttributeError, KeyError, TypeError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--spawn-ns", type=int, required=True,
                    help="time.monotonic_ns() of the parent just before it started this process")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import innervar
    from innervar import cli

    if Path(innervar.__file__).resolve().parent != ROOT / "src" / "innervar":
        print(f"innervar imported from {innervar.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 3
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    from workloads import WORKLOADS, write_configs

    jobs = WORKLOADS[args.workload]["jobs"]
    catalog = dict(cli.builtin_configs())
    paths = write_configs(args.workload, args.seed, catalog, args.out / "configs")
    configs = [cli.load_config(p) for p in paths]
    setup_s = (time.monotonic_ns() - args.spawn_ns) * 1e-9

    results = args.out / "results"
    rcs = []
    t0 = time.perf_counter()
    for p in paths:
        rcs.append(cli.main(["run", str(p), "--out", str(results / p.stem),
                             "--seed", str(args.seed), "--jobs", str(jobs)]))
    wall_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    experiments = []
    for p, cfg, rc in zip(paths, configs, rcs):
        summary_path = results / p.stem / "summary.json"
        verdicts = {}
        if summary_path.exists():
            summary = json.loads(summary_path.read_text(encoding="utf-8"))
            verdicts = {e["name"]: e["pass"] for e in summary["experiments"]}
        for exp in cfg["experiments"]:
            experiments.append({"config": p.stem, "name": exp["name"], "rc": rc,
                                "pass": verdicts.get(exp["name"]),
                                "csv": (results / p.stem / f"{exp['name']}.csv").exists()})
    digest, n_csv = csv_digest(results)
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "jobs": jobs,
        "traced": bool(args.trace),
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "rcs": rcs,
        "experiments": experiments,
        "csv_sha256": digest,
        "csv_files": n_csv,
        "machine": machine_record(),
    }
    if tracer is not None:
        out["layers"] = tracer.metrics(wall_s, jobs)
        out["spans"] = tracer.dump(args.out / "spans.jsonl.gz")
    (args.out / "result.json").write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
