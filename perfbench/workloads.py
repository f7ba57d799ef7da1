"""Workload definitions: which configs each workload runs, derived from the catalog.

Every workload starts from innervar's shipped configs (``cli.builtin_configs``).
The three heaviest shipped configs are reduced so that one pass over a
workload takes a few seconds and a benchmark run can repeat it; each
reduction keeps the experiment kinds, field builders and code paths of its
config.  ``flat_p_sweep`` adds configs generated from the seed.  The
package receives only the resulting JSON configs; the seed reaches it
through ``innervar run --seed``.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

import numpy as np

# number of random p values in flat_p_sweep; each instantiates FLAT_TEMPLATES
FLAT_P_COUNT = 8
FLAT_P_RANGE = (1.25, 3.0)  # the range the shipped flat configs span

WORKLOADS = {
    "sphere_tube": {
        "configs": ("forms_sphere", "equipartition_sphere", "tensors_sphere", "poincare_sphere"),
        "jobs": 1,
    },
    "vortex_filament": {"configs": ("gl_straight",), "jobs": 2},
    "flat_p_sweep": {
        "configs": ("ac_flat_p2", "ac_flat_sweep", "ac_flat_tangential", "equipartition_flat",
                    "tensors_flat", "profile_tables"),
        "jobs": 1,
    },
    "polynomial_fields": {
        "configs": ("identities_plane", "identities_space", "volume_ball"),
        "jobs": 1,
    },
}

# (shipped config, experiment) used as templates for the generated flat sweep
FLAT_TEMPLATES = (
    ("ac_flat_p2", "ac_flat_p2"),
    ("tensors_flat", "tensors_flat_normal"),
    ("tensors_flat", "tensors_flat_offnormal"),
    ("equipartition_flat", "equipartition_flat"),
    ("profile_tables", "profile_p2"),
)


def _halve_sphere_grid(exp: dict) -> None:
    geo = exp.get("geometry")
    if isinstance(geo, dict) and geo.get("type") == "sphere":
        geo["n_polar"] //= 2
        geo["n_azimuth"] //= 2


def _keep_fitted_widths(exp: dict) -> None:
    """Keep only the widths the extrapolation fits, computed as the sweep computes them."""
    sched = exp["schedule"]
    eps0, count = float(sched["eps0"]), int(sched["count"])
    ratio, fit = float(sched.get("ratio", 0.5)), int(sched.get("fit_points", 4))
    exp["schedule"] = {key: val for key, val in sched.items()
                       if key not in ("eps0", "count", "ratio")}
    exp["schedule"]["epsilons"] = [eps0 * ratio**k for k in range(count - fit, count)]


def _reduce(workload: str, config_name: str, cfg: dict) -> dict:
    """The documented reduction of one shipped config (see README.md)."""
    cfg = copy.deepcopy(cfg)
    for exp in cfg["experiments"]:
        if workload in ("sphere_tube", "polynomial_fields"):
            _halve_sphere_grid(exp)
        if config_name == "forms_sphere":
            _keep_fitted_widths(exp)
        if config_name == "gl_straight":
            exp["n_theta"] //= 2
    return cfg


def flat_p_values(seed: int) -> list[float]:
    """One p drawn uniformly from each of FLAT_P_COUNT equal slices of FLAT_P_RANGE.

    Each p is uniform on its slice, so the sweep always spans the whole range
    and the pass's cost varies little from seed to seed.
    """
    lo, hi = FLAT_P_RANGE
    u = np.random.default_rng(seed).uniform(0.0, 1.0, FLAT_P_COUNT)
    return [float(lo + (hi - lo) * (i + u[i]) / FLAT_P_COUNT) for i in range(FLAT_P_COUNT)]


def _flat_sweep_config(catalog: dict, seed: int) -> dict:
    templates = []
    for cfg_name, exp_name in FLAT_TEMPLATES:
        exp = next(e for e in catalog[cfg_name]["experiments"] if e["name"] == exp_name)
        templates.append(exp)
    experiments = []
    for i, p in enumerate(flat_p_values(seed)):
        for tmpl in templates:
            exp = copy.deepcopy(tmpl)
            exp["p"] = p
            exp["name"] = f"{tmpl['name']}_gen{i:02d}"
            experiments.append(exp)
    return {"schema_version": 1, "name": "flat_p_sweep_generated",
            "description": f"shipped flat templates at {FLAT_P_COUNT} p values from seed {seed}",
            "experiments": experiments}


def workload_configs(workload: str, seed: int, catalog: dict) -> list[tuple[str, dict]]:
    """(file stem, config) pairs for one pass of ``workload`` at ``seed``."""
    spec = WORKLOADS[workload]
    out = [(name, _reduce(workload, name, catalog[name])) for name in spec["configs"]]
    if workload == "flat_p_sweep":
        out.append(("flat_p_sweep_generated", _flat_sweep_config(catalog, seed)))
    return out


def write_configs(workload: str, seed: int, catalog: dict, directory: Path) -> list[Path]:
    """Write the workload's configs as JSON files; the bytes depend only on the inputs."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for stem, cfg in workload_configs(workload, seed, catalog):
        path = directory / f"{stem}.json"
        path.write_text(json.dumps(cfg, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        paths.append(path)
    return paths
