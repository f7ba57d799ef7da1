"""Self-tests of the benchmark's own code.

    python3 -m pytest perfbench -q

The last one runs whole flat_p_sweep passes in fresh worker processes, exactly
as ``run.py`` does (about half a minute), and all write under
``.perfbench_out/selftest``.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from innervar import cli, limits  # noqa: E402

SCRATCH = run.OUT / "selftest"


@pytest.fixture(scope="module")
def scratch():
    if SCRATCH.exists():
        shutil.rmtree(SCRATCH)
    SCRATCH.mkdir(parents=True)
    yield SCRATCH
    shutil.rmtree(SCRATCH)


def test_same_seed_gives_identical_config_bytes(scratch):
    catalog = dict(cli.builtin_configs())
    for name in workloads.WORKLOADS:
        first = workloads.write_configs(name, 7, catalog, scratch / "a" / name)
        again = workloads.write_configs(name, 7, catalog, scratch / "b" / name)
        assert [p.read_bytes() for p in first] == [p.read_bytes() for p in again]
    other = workloads.write_configs("flat_p_sweep", 8, catalog, scratch / "c")
    assert other[-1].read_bytes() != (scratch / "a" / "flat_p_sweep" / other[-1].name).read_bytes()


def test_flat_p_values_cover_the_range_one_per_slice():
    lo, hi = workloads.FLAT_P_RANGE
    width = (hi - lo) / workloads.FLAT_P_COUNT
    for seed in (0, 2, 1234):
        ps = workloads.flat_p_values(seed)
        assert len(ps) == workloads.FLAT_P_COUNT
        for i, p in enumerate(ps):
            assert lo + i * width <= p < lo + (i + 1) * width


def test_forms_reduction_keeps_the_fitted_widths_bit_for_bit():
    catalog = dict(cli.builtin_configs())
    (stem, cfg), = [c for c in workloads.workload_configs("sphere_tube", 1234, catalog)
                    if c[0] == "forms_sphere"]
    shipped = catalog["forms_sphere"]["experiments"][0]["schedule"]
    full = limits.EpsilonSchedule.geometric(shipped["eps0"], shipped["count"]).epsilons
    for exp in cfg["experiments"]:
        assert exp["schedule"]["epsilons"] == full[-4:]


def _fake_pass(verdicts: dict) -> dict:
    exps = [{"config": "c", "name": n, "rc": 0 if all(verdicts.values()) else 1, "pass": ok,
             "csv": True} for n, ok in verdicts.items()]
    return {"traced": False, "rcs": [exps[0]["rc"]], "experiments": exps, "csv_sha256": "x",
            "jobs": 1, "machine": {}, **{k: 1.0 for k in run.E2E_UNITS}}


@pytest.mark.parametrize("passes", [3, 4])
def test_operations_are_counted_once_per_experiment_whatever_the_pass_count(passes):
    results = [_fake_pass({"a": True, "b": False, "c": True}) for _ in range(passes)]
    rep = run.summarize("flat_p_sweep", 1, False, results)
    assert (rep["correct"], rep["attempted"], rep["failed"]) == (True, 3, 1)
    assert rep["failed_experiments"] == ["b"]


def test_verdicts_that_differ_between_passes_are_incorrect():
    results = [_fake_pass({"a": True, "b": True}), _fake_pass({"a": True, "b": False})]
    assert not run.summarize("flat_p_sweep", 1, False, results)["correct"]


def test_traced_passes_repeat_counts_and_write_the_untraced_csv_bytes(scratch):
    untraced = run.run_pass("flat_p_sweep", 5, False, scratch / "u", 120.0)
    first = run.run_pass("flat_p_sweep", 5, True, scratch / "t1", 120.0)
    second = run.run_pass("flat_p_sweep", 5, True, scratch / "t2", 120.0)
    assert not run.check_pass(untraced)
    assert set(run.LAYER_UNITS) - {"trace.overhead"} <= set(first["layers"])
    assert first["csv_sha256"] == untraced["csv_sha256"] == second["csv_sha256"]
    # cli.bytes_written varies by a few bytes: summary.json carries runtimes
    counts = [k for k, unit in run.LAYER_UNITS.items()
              if unit in ("count", "bytes") and k != "cli.bytes_written"]
    assert {k: first["layers"][k] for k in counts} == {k: second["layers"][k] for k in counts}
    for k in ("jets.ops", "fields.evals", "profiles.lookup_calls", "profiles.solves",
              "variation.kernel_calls", "sums.calls", "limits.widths", "cli.files_written"):
        assert first["layers"][k] > 0, k
    assert first["spans"] > 0
