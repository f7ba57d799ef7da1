"""Command-line front end: run experiment configs, emit CSV/JSON tables.

Consumers are tests and scripts.  ``innervar run config.json`` executes every
experiment in the config (possibly concurrently), writes one CSV and one JSON
summary per experiment plus an aggregate ``summary.json``, and exits 0 iff
every experiment passed its criterion (2 on malformed configs, 1 on numeric
failure).  CSV output is byte-stable across runs for a fixed seed: quadrature
reductions are pairwise-deterministic and random fields derive from the
per-experiment seed sequence, not from scheduling order.  Each experiment
kind is declared once: the ``_kind`` decorator on its runner registers the
kind's name with its required config keys, its optional keys and the type
each must convert to (or that ``_build`` builds them), the codimension of
the geometry it runs on, its default extrapolation model, and any check
that needs the built objects.  ``_build`` is the only code that turns an
experiment's config into geometry, fields and a schedule: validation calls
it, and each run calls it once more and hands the result to the runner.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.linalg import expm

from . import fields, geometry, limits, profiles, variation
from .errors import ConfigError, EpsilonTooLarge, InnervarError

SCHEMA_VERSION = 1
CSV_COLUMNS = ("epsilon", "value", "target", "gap", "residual_1", "residual_2")
_NAME = re.compile(r"[A-Za-z0-9_.-]+")


@dataclass
class ExperimentResult:
    name: str
    kind: str
    passed: bool
    gap: float
    rate: float | None
    runtime: float
    rows: list[dict]
    summary: dict
    error: str | None = None


@dataclass(frozen=True)
class _Kind:
    required: frozenset
    optional: dict  # key -> the conversion its value must pass
    builds: frozenset  # optional keys that _build turns into objects
    codim: int | None  # codimension of the geometry, for kinds that take one
    model: str  # extrapolation model of a schedule that names none
    check: Callable | None  # (built) -> None; raises on a bad combination
    run: Callable  # (exp, built, rng, outdir) -> (passed, gap, rate, rows, summary)


_KINDS: dict[str, _Kind] = {}


def _kind(name: str, required=(), optional=None, builds=(), codim=None, model="linear_eps",
          check=None):
    """Register an experiment runner under ``name`` with the config it reads."""

    def register(run):
        _KINDS[name] = _Kind(frozenset(required), dict(optional or {}), frozenset(builds), codim,
                             model, check, run)
        return run

    return register


def _one_of(*choices):
    def convert(value):
        if value not in choices:
            raise ValueError(f"{value!r} is not one of {list(choices)}")
        return value

    return convert


def _boolean(value):
    if not isinstance(value, bool):
        raise ValueError(f"{value!r} is not true or false")
    return value


# ---------------------------------------------------------------------------
# config loading / validation
# ---------------------------------------------------------------------------


def _check_keys(obj: dict, required: set, optional: set, ctx: str) -> None:
    extra = set(obj) - required - optional
    if extra:
        raise ConfigError(f"{ctx}: unknown keys {sorted(extra)}")
    missing = required - set(obj)
    if missing:
        raise ConfigError(f"{ctx}: missing keys {sorted(missing)}")


def load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return validate_config(raw)


def validate_config(raw: dict) -> dict:
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    _check_keys(raw, set(), {"schema_version", "name", "description", "seed", "experiments"},
                "config")
    if int(raw.get("schema_version", SCHEMA_VERSION)) != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {raw.get('schema_version')}")
    exps = raw.get("experiments")
    if not isinstance(exps, list) or not exps:
        raise ConfigError("config needs a non-empty 'experiments' list")
    names = set()
    for exp in exps:
        if not isinstance(exp, dict):
            raise ConfigError("each experiment must be a JSON object")
        kind = exp.get("kind")
        if not isinstance(kind, str) or kind not in _KINDS:
            raise ConfigError(f"unknown experiment kind {kind!r}; known: {sorted(_KINDS)}")
        name = exp.get("name")
        if not isinstance(name, str) or not _NAME.fullmatch(name):
            raise ConfigError(f"experiment name {name!r} must match {_NAME.pattern}")
        if name in names:
            raise ConfigError(f"duplicate experiment name {name!r}")
        names.add(name)
        ctx = f"experiment {name!r}"
        spec = _KINDS[kind]
        _check_keys(exp, {"name", "kind"} | spec.required, set(spec.optional) | spec.builds, ctx)
        try:
            _build(exp, spec)
        except (TypeError, ValueError, InnervarError) as exc:
            raise ConfigError(f"{ctx}: {exc}") from exc
    return raw


def _build(exp: dict, spec: _Kind) -> dict:
    """Turn an experiment's config into the objects its runner uses.

    The one place that parses an experiment: validation calls it so that a
    bad config fails before anything runs, and each run calls it once more.
    """
    for key, convert in spec.optional.items():
        if key in exp:
            try:
                convert(exp[key])
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{key}: {exc}") from exc
    built = {}
    dim = None
    if "geometry" in exp:
        g = built["geometry"] = geometry.shape_from_config(exp["geometry"])
        if spec.codim is not None and g.codim != spec.codim:
            raise ConfigError(f"{exp['kind']} needs a geometry of codimension {spec.codim}, "
                              f"{g.config['type']} has codimension {g.codim}")
        dim = g.dim
    if "p" in exp and not float(exp["p"]) > 1.0:
        raise ConfigError(f"p must be > 1, got {exp['p']}")
    if "schedule" in exp:
        built["schedule"] = _schedule(exp["schedule"], spec.model)
    if "eta" in exp:
        built["eta"] = fields.vector_field_from_config(exp["eta"])
    if "zeta" in spec.builds:
        built["zeta"] = _zeta_from(exp.get("zeta", "zero"), built["eta"], dim)
    for key in ("phi", "xi"):
        if key in exp:
            built[key] = fields.scalar_field_from_config(exp[key])
    for key in ("eta", "zeta", "phi", "xi"):
        if key in built and dim is not None and built[key].dim != dim:
            raise ConfigError(f"{key} has dimension {built[key].dim} but the geometry has {dim}")
    if "indices" in exp:
        idx = [int(i) for i in exp["indices"]]
        if len(idx) not in (2, 4) or not all(0 <= i < dim for i in idx):
            raise ConfigError(f"indices must be 2 or 4 axes below {dim}, got {idx}")
    if "profile" in spec.builds:
        built["profile"] = _equipartition_profile(exp.get("profile", "optimal"))
    if "fields" in spec.builds:
        built["fields"] = _volume_fields(exp.get("fields", {"random": 10}), built["geometry"])
    if spec.check is not None:
        spec.check(built)
    return built


def _schedule(spec: dict, default_model: str) -> limits.EpsilonSchedule:
    if not isinstance(spec, dict):
        raise ConfigError("schedule must be an object")
    _check_keys(spec, set() if "epsilons" in spec else {"eps0", "count"},
                {"eps0", "count", "ratio", "epsilons", "model", "fit_points"}, "schedule")
    model = spec.get("model", default_model)
    try:
        fit_points = int(spec["fit_points"]) if "fit_points" in spec else None
        if "epsilons" in spec:
            return limits.EpsilonSchedule(list(spec["epsilons"]), model, fit_points)
        return limits.EpsilonSchedule.geometric(
            float(spec["eps0"]), int(spec["count"]), float(spec.get("ratio", 0.5)),
            model, fit_points,
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"schedule: {exc}") from exc


def _zeta_from(spec, eta: fields.VectorField, dim: int) -> fields.VectorField:
    if spec == "zero":
        return fields.constant_field(np.zeros(dim))
    if spec == "zeta_eta":
        return fields.zeta_eta(eta)
    return fields.vector_field_from_config(spec)


def _equipartition_profile(spec) -> Callable | None:
    """None for the optimal profile, else a (surface, eps) -> field builder for a tanh control."""
    if spec == "optimal":
        return None
    if not isinstance(spec, dict):
        raise ConfigError(f"profile must be 'optimal' or {{'tanh_slope': s}}, got {spec!r}")
    _check_keys(spec, {"tanh_slope"}, set(), "equipartition profile")
    slope = float(spec["tanh_slope"])
    return lambda g, eps: profiles.tanh_profile_field(g, eps, slope)


def _volume_fields(spec, g) -> Callable:
    """``draw(rng) -> list of VectorField``; random fields are drawn when the experiment runs."""
    if isinstance(spec, dict):
        _check_keys(spec, {"random"}, {"degree", "radius"}, "volume fields")
        count, degree = int(spec["random"]), int(spec.get("degree", 2))
        if count < 1:
            raise ConfigError(f"fields: 'random' must be at least 1, got {count}")
        radius = float(spec.get("radius", 1.4 * g.config.get("radius", 1.0)))
        return lambda rng: [fields.random_compact_vector_field(rng, g.dim, degree=degree,
                                                                radius=radius)
                            for _ in range(count)]
    if not isinstance(spec, list) or not spec:
        raise ConfigError(f"fields must be {{'random': count}} or a non-empty list of field "
                          f"descriptors, got {spec!r}")
    etas = [fields.vector_field_from_config(s) for s in spec]
    for eta in etas:
        if eta.dim != g.dim:
            raise ConfigError(f"fields has dimension {eta.dim} but the geometry has {g.dim}")
    return lambda _rng: etas


# ---------------------------------------------------------------------------
# experiment runners: each returns (passed, gap, rate, rows, summary)
# ---------------------------------------------------------------------------


def _from_record(rec: limits.ConvergenceRecord, passed: bool, **extra_summary):
    return passed, rec.gap, rec.rate, rec.rows(), {**rec.summary(), **extra_summary}


def _from_checks(checks: list[tuple[str, float, float]]):
    """Pass flag, CSV rows and summary checks for a list of (label, residual, tolerance)."""
    rows = [{"epsilon": float(i), "value": res, "target": 0.0, "gap": res,
             "residual_1": tol, "residual_2": 0.0}
            for i, (_label, res, tol) in enumerate(checks)]
    summary = [{"label": label, "residual": res, "tolerance": tol, "pass": res <= tol}
               for label, res, tol in checks]
    return all(res <= tol for _label, res, tol in checks), rows, summary


@_kind("identities", optional={"dim": int, "samples": int, "cases": int, "tolerance": float,
                                "fd_tolerance": float})
def _run_identities(exp: dict, _built, rng: np.random.Generator, _outdir):
    dim = int(exp.get("dim", 2))
    samples = int(exp.get("samples", 300))
    cases = int(exp.get("cases", 4))
    tol = float(exp.get("tolerance", 1e-9))
    tol_fd = float(exp.get("fd_tolerance", 1e-7))
    checks: list[tuple[str, float, float]] = []
    pts = rng.uniform(-1.0, 1.0, size=(samples, dim))

    for k in range(cases):
        eta = fields.random_polynomial_vector_field(rng, dim, degree=3)
        res = float(np.max(np.abs(fields.good_identity_residual(eta, pts))))
        checks.append((f"divergence_identity_poly_{k}", res, tol))

    freqs = rng.uniform(0.5, 1.5, size=(dim, dim))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=dim)

    def trig_fn(xb):
        return np.stack(
            [np.sin(xb @ freqs[i] + phases[i]) for i in range(dim)], axis=1
        )

    eta_trig = fields.VectorField(dim, trig_fn)  # FD derivative fallback on purpose
    res = float(np.max(np.abs(fields.good_identity_residual(eta_trig, pts[:50]))))
    checks.append(("divergence_identity_trig_fd", res, tol_fd))

    eta_r = fields.random_polynomial_vector_field(rng, dim, degree=3)
    zeta_r = fields.random_polynomial_vector_field(rng, dim, degree=2)
    x0 = rng.uniform(-0.5, 0.5, size=dim)
    h = 1e-3
    dets = [fields.DeformationMap(eta_r, zeta_r, t).det(x0) for t in (-2 * h, -h, 0.0, h, 2 * h)]
    c1_fd = (dets[0] - 8 * dets[1] + 8 * dets[3] - dets[4]) / (12 * h)
    c2_fd = (-dets[0] + 16 * dets[1] - 30 * dets[2] + 16 * dets[3] - dets[4]) / (12 * h * h)
    _, c1, c2 = fields.det_expansion(eta_r, zeta_r, x0)
    checks.append(("determinant_expansion_fd", max(abs(c1 - c1_fd), abs(c2 - c2_fd)), 1e-6))

    if dim == 3:
        omega = rng.uniform(-1.0, 1.0, size=3)
        rot = fields.rotation_field(omega)
        mat = rot.jacobian(np.zeros(3))
        zr = fields.zeta_eta(rot)
        worst = 0.0
        for t in (0.05, 0.025):
            dm = fields.DeformationMap(rot, zr, t)
            exact = pts[:20] @ expm(t * mat).T
            err = float(np.max(np.linalg.norm(dm.apply(pts[:20]) - exact, axis=1)))
            worst = max(worst, err / t**3)
        checks.append(("rotation_group_third_order", worst * 0.05**3, 1e-4))

        fil = geometry.straight_filament(1.0, 16)
        eta_f = fields.random_polynomial_vector_field(rng, 3, degree=3)
        dr, db = geometry.gl_discrepancy_densities(fil, eta_f)
        checks.append(("transverse_dbar_identity", float(np.max(np.abs(dr - db))), 1e-10))

    dmap = fields.DeformationMap(eta_r, zeta_r, 0.01)
    y = rng.uniform(-0.4, 0.4, size=(20, dim))
    xinv = dmap.invert(y)
    checks.append(
        ("newton_inversion_roundtrip",
         float(np.max(np.linalg.norm(dmap.apply(xinv) - y, axis=1))), 1e-12)
    )

    quad = variation.tensor_grid([[-1.0, 1.0]] * dim, 40 if dim == 2 else 24)
    for k, f in enumerate((variation.integrand_dirichlet(),
                           variation.integrand_p_allen_cahn(0.7, 2.0))):
        u = fields.random_polynomial_scalar_field(rng, dim, degree=3)
        eta_c = fields.random_compact_vector_field(rng, dim, degree=2, radius=0.85)
        zeta_c = fields.random_compact_vector_field(rng, dim, degree=2, radius=0.85)
        rep = variation.variation_report(f, u, eta_c, zeta_c, quad)
        checks.append((f"first_variation_bridge_{k}", abs(rep.fv_bridge_residual), 1e-8))
        checks.append(
            (f"variation_bridge_{k}", abs(rep.sv_relation_residual),
             1e-6 * (1.0 + abs(rep.delta2_a)))
        )
        checks.append(
            (f"oracle_agreement_{k}",
             abs(rep.delta2_a - rep.oracle_delta2),
             max(1e-6, 1e-4 * abs(rep.delta2_a)))
        )

    passed, rows, summary = _from_checks(checks)
    worst = max(res / tol_i for _label, res, tol_i in checks)
    return passed, worst, None, rows, {"checks": summary}


@_kind("ac-converge", required={"geometry", "p", "eta", "schedule"}, codim=1, builds={"zeta"},
       optional={"half_width": float, "tolerance_gap": float, "min_rate": float})
def _run_ac(exp: dict, built: dict, _rng, _outdir):
    rec = limits.ac_limit_experiment(
        built["geometry"], built["eta"], built["zeta"], float(exp["p"]), built["schedule"],
        half_width=exp.get("half_width"), name=exp["name"],
    )
    tol = float(exp.get("tolerance_gap", 0.01))
    min_rate = float(exp.get("min_rate", 0.9))
    return _from_record(rec, rec.gap <= tol and rec.rate_at_least(min_rate))


@_kind("gl-converge", required={"geometry", "eta", "schedule"}, codim=2, builds={"zeta"},
       model="log_inverse",
       optional={"rho_max": float, "n_theta": int, "profile_mode": _one_of("ode", "surrogate"),
                 "tolerance_gap": float, "energy_tolerance": float})
def _run_gl(exp: dict, built: dict, _rng, _outdir):
    sched = built["schedule"]
    rec = limits.gl_limit_experiment(
        built["geometry"], built["eta"], built["zeta"], sched,
        rho_max=float(exp.get("rho_max", 0.5)), n_theta=int(exp.get("n_theta", 48)),
        profile_mode=exp.get("profile_mode", "ode"), name=exp["name"],
    )
    e_extr, _ = limits.extrapolate(sched.epsilons, rec.extras["energy"],
                                   sched.model, sched.fit_points)
    e_target = rec.meta["energy_target"]
    e_gap = abs(e_extr - e_target) / (1.0 + abs(e_target))
    passed = (rec.gap <= float(exp.get("tolerance_gap", 0.1))
              and e_gap <= float(exp.get("energy_tolerance", 0.05)))
    return _from_record(rec, passed, energy_extrapolated=e_extr, energy_gap=e_gap)


@_kind("tensors", required={"geometry", "p", "indices", "phi", "schedule"}, codim=1,
       optional={"half_width": float, "tolerance_gap": float, "zero_tolerance": float})
def _run_tensors(exp: dict, built: dict, _rng, _outdir):
    rec = limits.tensor_pairing_experiment(
        built["geometry"], float(exp["p"]), built["phi"], exp["indices"], built["schedule"],
        half_width=exp.get("half_width"), name=exp["name"],
    )
    if abs(rec.target) < 1e-12:
        zero_tol = float(exp.get("zero_tolerance", 1e-6))
        passed = max(abs(v) for v in rec.values) <= zero_tol
    else:
        passed = rec.gap <= float(exp.get("tolerance_gap", 0.02))
    return _from_record(rec, passed)


@_kind("equipartition", required={"geometry", "p", "schedule"}, codim=1, builds={"profile"},
       optional={"half_width": float, "floor": float, "min_rate": float, "lower_bound": float})
def _run_equipartition(exp: dict, built: dict, _rng, _outdir):
    rec = limits.equipartition_residuals(
        built["geometry"], float(exp["p"]), built["schedule"], profile=built["profile"],
        half_width=exp.get("half_width"), name=exp["name"],
    )
    floor = float(exp.get("floor", 1e-7))
    min_rate = float(exp.get("min_rate", 0.9))
    if "lower_bound" in exp:  # negative control: defect must persist
        passed = min(rec.values) >= float(exp["lower_bound"])
    else:
        both = rec.values + rec.extras["residual_phi"]
        small = max(both) <= floor
        passed = small or (rec.rate is not None and rec.rate >= min_rate)
        e_rate = limits.fitted_rate(rec.epsilons, rec.extras["energy_gap"])
        e_small = max(rec.extras["energy_gap"]) <= floor
        passed = passed and (e_small or (e_rate is not None and e_rate >= min_rate))
    return _from_record(rec, passed)


@_kind("volume", required={"geometry"}, codim=1, builds={"fields"},
       optional={"tolerance_c2": float, "tolerance_flux": float},
       check=lambda built: geometry.require_enclosed_region(built["geometry"]))
def _run_volume(exp: dict, built: dict, rng: np.random.Generator, _outdir):
    g = built["geometry"]
    tol_c2 = float(exp.get("tolerance_c2", 1e-10))
    tol_flux = float(exp.get("tolerance_flux", 1e-8))
    rows, details = [], []
    for i, eta in enumerate(built["fields"](rng)):
        c1, c2 = limits.volume_admissibility(g, eta)
        flux = limits.boundary_flux(g, eta)
        rows.append({"epsilon": float(i), "value": c2, "target": 0.0,
                     "gap": abs(c2), "residual_1": abs(c1 - flux),
                     "residual_2": c1})
        details.append({"field": i, "c1": c1, "c2": c2, "flux": flux})
    passed = all(abs(d["c2"]) <= tol_c2 and abs(d["c1"] - d["flux"]) <= tol_flux
                 for d in details)
    worst = max(abs(d["c2"]) for d in details)  # the config has at least one field
    return passed, worst, None, rows, {"fields": details}


@_kind("poincare", required={"geometry", "xi"}, codim=1,
       optional={"cutoff_width": float, "tolerance": float},
       check=lambda built: limits.require_zero_mean(built["geometry"], built["xi"]))
def _run_poincare(exp: dict, built: dict, _rng, _outdir):
    lhs, rhs = limits.constrained_poincare_check(built["geometry"], built["xi"],
                                                 exp.get("cutoff_width"))
    tol = float(exp.get("tolerance", 1e-6))
    gap = abs(lhs - rhs) / (1.0 + abs(rhs))
    rows = [{"epsilon": 0.0, "value": lhs, "target": rhs, "gap": gap,
             "residual_1": tol, "residual_2": 0.0}]
    return gap <= tol, gap, None, rows, {"lhs": lhs, "rhs": rhs, "gap": gap}


@_kind("forms", required={"geometry", "xi", "schedule"}, codim=1,
       optional={"cutoff_width": float, "half_width": float, "tolerance_gap": float})
def _run_forms(exp: dict, built: dict, _rng, _outdir):
    rec = limits.quadratic_forms(
        built["geometry"], built["xi"], built["schedule"], cutoff_width=exp.get("cutoff_width"),
        half_width=exp.get("half_width"), name=exp["name"],
    )
    return _from_record(rec, rec.gap <= float(exp.get("tolerance_gap", 0.02)))


@_kind("profile", required={"p"},
       optional={"tolerance_constant": float, "tolerance_equipartition": float,
                 "tolerance_tanh": float, "export_table": _boolean})
def _run_profile(exp: dict, _built, _rng, outdir: Path | None):
    p = float(exp["p"])
    prof = profiles.optimal_profile(p)
    checks = []
    cp_gap = abs(profiles.c_p(p) - profiles.c_p_beta_oracle(p))
    checks.append(("constant_vs_gamma_oracle", cp_gap,
                   float(exp.get("tolerance_constant", 1e-12))))
    ss = np.linspace(0.0, min(prof.s_max * 0.98, 40.0), 400)
    h = 1e-6
    dq_fd = (prof.q(ss + h) - prof.q(ss - h)) / (2 * h)
    equi = float(np.max(np.abs(np.abs(dq_fd) ** p - (1 - prof.q(ss) ** 2) ** 2)))
    checks.append(("pointwise_equipartition_fd", equi,
                   float(exp.get("tolerance_equipartition", 1e-8))))
    checks.append(("origin_values", abs(prof.q(0.0)) + abs(prof.dq(0.0) - 1.0), 1e-12))
    if p == 2.0:
        sg = np.linspace(-8.0, 8.0, 801)
        dev = float(np.max(np.abs(prof.q(sg) - np.tanh(sg))))
        checks.append(("closed_form_deviation", dev,
                       float(exp.get("tolerance_tanh", 1e-9))))
    if outdir is not None and exp.get("export_table", True):
        prof.to_csv(outdir / f"{exp['name']}_table.csv")
    passed, rows, summary = _from_checks(checks)
    return (passed, max(res for _label, res, _tol in checks), None, rows,
            {"s_max": prof.s_max, "s_core": prof.s_core, "checks": summary})


def run_experiment(exp: dict, seed: int, index: int, outdir: Path | None = None) -> ExperimentResult:
    rng = np.random.default_rng([seed, index])
    kind = _KINDS[exp["kind"]]
    start = time.perf_counter()
    try:
        passed, gap, rate, rows, summary = kind.run(exp, _build(exp, kind), rng, outdir)
    except ConfigError:
        raise
    except EpsilonTooLarge as exc:
        # schedule/geometry mismatch is a configuration problem, not a numeric one
        raise ConfigError(f"experiment {exp['name']!r}: {exc}") from exc
    except InnervarError as exc:
        return ExperimentResult(
            name=exp["name"], kind=exp["kind"], passed=False, gap=float("nan"), rate=None,
            runtime=time.perf_counter() - start, rows=[],
            summary={"pass": False, "error": str(exc)}, error=str(exc),
        )
    return ExperimentResult(
        name=exp["name"], kind=exp["kind"], passed=passed, gap=gap, rate=rate,
        runtime=time.perf_counter() - start, rows=rows, summary={**summary, "pass": passed},
    )


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _write_csv(path: Path, rows: list[dict]) -> None:
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow([_fmt(row[c]) for c in CSV_COLUMNS])
    os.replace(tmp, path)


def _jsonify(obj):
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    return obj


def _write_json(path: Path, obj) -> None:
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(_jsonify(obj), fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def builtin_configs() -> list[tuple[str, dict]]:
    """Shipped experiment configs, sorted by name."""
    out = []
    root = resources.files("innervar").joinpath("configs")
    for entry in sorted(root.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".json"):
            out.append((entry.name[:-5], json.loads(entry.read_text(encoding="utf-8"))))
    return out


def _resolve_config(arg: str) -> dict:
    path = Path(arg)
    if path.exists():
        return load_config(path)
    for name, cfg in builtin_configs():
        if name == arg:
            return validate_config(cfg)
    raise ConfigError(f"no such config file or built-in name: {arg!r}")


def cmd_run(args) -> int:
    try:
        config = _resolve_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    seed = args.seed if args.seed is not None else int(config.get("seed", 0))
    jobs = args.jobs
    if jobs is None:
        jobs = int(os.environ.get("INNERVAR_JOBS", "1"))
    jobs = max(1, jobs)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    experiments = config["experiments"]

    results: list[ExperimentResult]
    try:
        if jobs == 1:
            results = [run_experiment(exp, seed, i, outdir) for i, exp in enumerate(experiments)]
        else:
            with ThreadPoolExecutor(max_workers=jobs) as pool:
                futures = [pool.submit(run_experiment, exp, seed, i, outdir)
                           for i, exp in enumerate(experiments)]
                results = [f.result() for f in futures]  # assembled in config order
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    all_pass = True
    summary = {
        "schema_version": SCHEMA_VERSION,
        "name": config.get("name", args.config),
        "seed": seed,
        "experiments": [],
    }
    for res in results:
        _write_csv(outdir / f"{res.name}.csv", res.rows)
        _write_json(outdir / f"{res.name}.json", res.summary)
        status = "PASS" if res.passed else "FAIL"
        rate_txt = "-" if res.rate is None else f"{res.rate:.2f}"
        print(f"{res.name}: {status} (gap={res.gap:.3g}, rate={rate_txt}, {res.runtime:.1f}s)")
        if res.error:
            print(f"  error: {res.error}")
        all_pass &= res.passed
        summary["experiments"].append({
            "name": res.name,
            "kind": res.kind,
            "pass": res.passed,
            "gap": res.gap,
            "rate": res.rate,
            "runtime_s": round(res.runtime, 3),
            "error": res.error,
        })
    summary["all_pass"] = all_pass
    _write_json(outdir / "summary.json", summary)
    if not all_pass:
        failing = ", ".join(r.name for r in results if not r.passed)
        print(f"numerical failure in: {failing}", file=sys.stderr)
        return 1
    return 0


def cmd_list(_args) -> int:
    for name, cfg in builtin_configs():
        desc = cfg.get("description", "")
        print(f"{name}: {desc}")
        for exp in cfg.get("experiments", []):
            print(f"    - {exp['name']} [{exp['kind']}]")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="innervar",
        description="Run phase-field variation experiments from JSON configs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run a config (path or built-in name)")
    run_p.add_argument("config")
    run_p.add_argument("--out", default="innervar-out", help="output directory")
    run_p.add_argument("--jobs", type=int, default=None,
                       help="concurrent experiments (default: INNERVAR_JOBS or 1)")
    run_p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
    run_p.set_defaults(func=cmd_run)
    list_p = sub.add_parser("list-experiments", help="catalog of built-in configs")
    list_p.set_defaults(func=cmd_list)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
