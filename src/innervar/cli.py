"""Command-line front end: run experiment configs, emit CSV/JSON tables.

Consumers are tests and scripts.  ``innervar run config.json`` executes every
experiment in the config (possibly concurrently), writes one CSV and one JSON
summary per experiment plus an aggregate ``summary.json``, and exits 0 iff
every experiment passed (2 on malformed configs, 1 on numeric failure).
Every runner states its verdict as a list of :class:`Check` items, each a
value and its bound; :func:`run_experiment` alone decides pass (every check
holds), computes each margin and writes the list into ``<name>.json``, and
``summary.json`` names each experiment's worst check.  The JSON is strict:
non-finite floats are written as null.  CSV output is byte-stable across
runs for a fixed seed: quadrature reductions are pairwise-deterministic and
random fields derive from the per-experiment seed sequence, not from
scheduling order.  Each experiment kind is declared once: the ``_kind``
decorator on its runner registers the kind's name with its config keys (each
with its converter and default, see :mod:`innervar.config`), the codimension
of the geometry it runs on, and any check that needs the built objects.
``_build`` is the only code that reads an experiment's config: validation
calls it, and each run calls it once more and hands the converted options,
geometry, fields and schedule included, to the runner.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
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
from numpy.random import default_rng  # numpy loads numpy.random lazily; load it at import

from . import fields, geometry, limits, profiles, variation
from .config import (REQUIRED, as_is, boolean, bump_radius, checked, count, finite, integer,
                     natural, one_of, parse, positive)
from .errors import ConfigError, EpsilonTooLarge, InnervarError

SCHEMA_VERSION = 1
CSV_COLUMNS = ("epsilon", "value", "target", "gap", "residual_1", "residual_2")
_NAME = re.compile(r"[A-Za-z0-9_.-]+")  # so that no experiment writes outside --out
_NAME_KEY = (checked(as_is, lambda n: isinstance(n, str) and _NAME.fullmatch(n),
                     f"a name matching {_NAME.pattern}"), REQUIRED)


@dataclass(frozen=True)
class Check:
    """One item of a verdict: ``value <= bound``, or ``value >= bound`` when ``at_least``."""

    label: str
    value: float
    bound: float
    at_least: bool = False

    @property
    def passed(self) -> bool:
        return bool(self.value >= self.bound if self.at_least else self.value <= self.bound)

    @property
    def margin(self) -> float:
        """value/bound, or bound/value when at_least: at most 1 on a pass (0 or inf if no ratio)."""
        num, den = (self.bound, self.value) if self.at_least else (self.value, self.bound)
        if num >= 0 and den > 0:
            return num / den
        return 0.0 if self.passed else math.inf


@dataclass
class ExperimentResult:
    name: str
    kind: str
    passed: bool
    runtime: float
    rows: list[dict]
    summary: dict  # written as <name>.json, with the verdict's "checks"
    error: str | None = None


@dataclass(frozen=True)
class _Kind:
    keys: dict  # key -> (convert, default), see innervar.config
    codim: int | None  # codimension of the geometry, for kinds that take one
    check: Callable | None  # (opts) -> None; raises on a bad combination
    run: Callable  # (opts, rng, outdir) -> (checks, rows, summary)


_KINDS: dict[str, _Kind] = {}


def _kind(name: str, keys: dict, codim=None, check=None):
    """Register an experiment runner under ``name`` with the config keys it reads."""

    def register(run):
        _KINDS[name] = _Kind({"name": _NAME_KEY, "kind": (str, REQUIRED), **keys}, codim, check,
                             run)
        return run

    return register


# ---------------------------------------------------------------------------
# config loading / validation
# ---------------------------------------------------------------------------

_SEED = (natural, 0)
_JOBS = (count, 1)
_ENVIRONMENT_KEYS = {"INNERVAR_JOBS": _JOBS}  # the fallback for --jobs
_CONFIG_KEYS = {"schema_version": (one_of(SCHEMA_VERSION), SCHEMA_VERSION),
                "name": (as_is, None), "description": (as_is, None), "seed": _SEED,
                "experiments": (checked(as_is, lambda e: isinstance(e, list) and len(e) > 0,
                                        "a non-empty list"), REQUIRED)}


def _finite_float(text: str) -> float:
    """A JSON number as a float, refusing what is not finite: ``NaN``, ``Infinity``, ``1e999``."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} is not a finite number")
    return value


def load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh, parse_float=_finite_float, parse_constant=_finite_float)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # not JSON, not UTF-8, NaN or inf, too deep
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return validate_config(raw)


def validate_config(raw: dict) -> dict:
    """The config with its top-level keys converted; each experiment is built once to check it.

    No two outputs of one run may share a file name, or one would overwrite the other.
    """
    config = parse(raw, _CONFIG_KEYS, "config")
    written = {"summary.json"}
    for exp in config["experiments"]:
        if not isinstance(exp, dict):
            raise ConfigError("each experiment must be a JSON object")
        kind = exp.get("kind")
        if not isinstance(kind, str) or kind not in _KINDS:
            raise ConfigError(f"unknown experiment kind {kind!r}; known: {sorted(_KINDS)}")
        opts = _build(exp, _KINDS[kind])
        name = opts["name"]
        files = {f"{name}.csv", f"{name}.json"}
        if opts.get("export_table"):  # a profile's exported table
            files.add(f"{name}_table.csv")
        if written & files:
            raise ConfigError(f"experiment {name!r} would overwrite the run's "
                              f"{min(written & files)}")
        written |= files
    return config


def _build(exp: dict, kind: _Kind) -> dict:
    """The experiment's options: every key of its kind, converted, with objects built.

    The one place that reads an experiment's config: validation calls it so
    that a bad config fails before anything runs, and each run calls it once
    more and hands the options to the runner.
    """
    what = f"experiment {exp.get('name')!r}"
    opts = parse(exp, kind.keys, what)
    try:
        g = opts.get("geometry")
        if kind.codim is not None and g.codim != kind.codim:
            raise ConfigError(f"{opts['kind']} needs a geometry of codimension {kind.codim}, "
                              f"{g.type_name} has codimension {g.codim}")
        if opts.get("zeta") == "zero":
            opts["zeta"] = fields.constant_field(np.zeros(g.dim))
        elif opts.get("zeta") == "zeta_eta":
            opts["zeta"] = fields.zeta_eta(opts["eta"])
        built = [(key, opts[key]) for key in ("eta", "zeta", "phi", "xi") if key in opts]
        if isinstance(opts.get("fields"), list):  # listed volume fields; random ones come later
            built += [("fields", eta) for eta in opts["fields"]]
        for key, field in built:
            if field.dim != g.dim:
                raise ConfigError(f"{key} has dimension {field.dim} but the geometry has {g.dim}")
        if kind.check is not None:
            kind.check(opts)
    except (TypeError, ValueError, InnervarError) as exc:
        raise ConfigError(f"{what}: {exc}") from exc
    return opts


_SCHEDULE_KEYS = {"eps0": (positive, None), "count": (count, None), "ratio": (positive, 0.5),
                  "epsilons": (lambda eps: [positive(e) for e in eps], None),
                  "model": (str, None), "fit_points": (integer, None)}


def _schedule(spec: dict, default_model: str = "linear_eps") -> limits.EpsilonSchedule:
    """The widths ``epsilons``, or ``count`` widths ``eps0 * ratio**k``."""
    opts = parse(spec, _SCHEDULE_KEYS, "schedule")
    model = opts["model"] or default_model
    if opts["epsilons"] is not None:
        return limits.EpsilonSchedule(opts["epsilons"], model, opts["fit_points"])
    if opts["eps0"] is None or opts["count"] is None:
        raise ConfigError("schedule needs 'epsilons', or 'eps0' and 'count'")
    return limits.EpsilonSchedule.geometric(opts["eps0"], opts["count"], opts["ratio"], model,
                                            opts["fit_points"])


def _equipartition_profile(spec) -> Callable | None:
    """None for the optimal profile, else a (surface, eps) -> field builder for a tanh control."""
    if spec == "optimal":
        return None
    slope = parse(spec, {"tanh_slope": (float, REQUIRED)}, "profile")["tanh_slope"]
    return lambda g, eps: profiles.tanh_profile_field(g, eps, slope)


_RANDOM_FIELDS = {"random": (count, REQUIRED), "degree": (natural, 2),
                  "radius": (bump_radius, None)}


def _volume_fields(spec) -> list | dict:
    """The listed fields, or the options of the random fields drawn when the experiment runs."""
    if isinstance(spec, dict):
        return parse(spec, _RANDOM_FIELDS, "volume fields")
    if not isinstance(spec, list) or not spec:
        raise ConfigError(f"fields must be {{'random': count}} or a non-empty list of field "
                          f"descriptors, got {spec!r}")
    return [fields.vector_field_from_config(s) for s in spec]


def _check_indices(opts: dict) -> None:
    idx, dim = opts["indices"], opts["geometry"].dim
    if len(idx) not in (2, 4) or not all(0 <= i < dim for i in idx):
        raise ConfigError(f"indices must be 2 or 4 axes below {dim}, got {idx}")


# Keys several kinds share.  Descriptors are parsed through the module attribute
# looked up at each call, so a wrapped parser sees every call.
_GEOMETRY = (lambda spec: geometry.shape_from_config(spec), REQUIRED)
_ETA = (lambda spec: fields.vector_field_from_config(spec), REQUIRED)
_ZETA = (lambda spec: spec if spec in ("zero", "zeta_eta") else
         fields.vector_field_from_config(spec), "zero")
_SCALAR = (lambda spec: fields.scalar_field_from_config(spec), REQUIRED)
_P = (checked(float, lambda p: profiles.P_MIN <= p < math.inf,
              f"a finite p of at least {profiles.P_MIN:g}, the least p whose profile table "
              "builds"), REQUIRED)
_SCHEDULE = (lambda spec: _schedule(spec), REQUIRED)
_WIDTH = (positive, None)  # None: the experiment's automatic width


# ---------------------------------------------------------------------------
# experiment runners: each returns (checks, rows, summary)
# ---------------------------------------------------------------------------


def _check_rows(checks: list[Check]) -> list[dict]:
    """One CSV row per check: its value as value and gap, its bound as residual_1."""
    return [{"epsilon": float(i), "value": c.value, "target": 0.0, "gap": c.value,
             "residual_1": c.bound, "residual_2": 0.0} for i, c in enumerate(checks)]


@_kind("identities", {"dim": (count, 2), "samples": (count, 300), "cases": (count, 4),
                      "tolerance": (positive, 1e-9), "fd_tolerance": (positive, 1e-7)})
def _run_identities(opts: dict, rng: np.random.Generator, _outdir):
    dim, tol, tol_fd = opts["dim"], opts["tolerance"], opts["fd_tolerance"]
    checks: list[Check] = []
    pts = rng.uniform(-1.0, 1.0, size=(opts["samples"], dim))

    for k in range(opts["cases"]):
        eta = fields.random_polynomial_vector_field(rng, dim, degree=3)
        res = float(np.max(np.abs(fields.good_identity_residual(eta, pts))))
        checks.append(Check(f"divergence_identity_poly_{k}", res, tol))

    freqs = rng.uniform(0.5, 1.5, size=(dim, dim))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=dim)

    def trig_fn(xb):
        return np.stack([np.sin(xb @ freqs[i] + phases[i]) for i in range(dim)], axis=1)

    eta_trig = fields.VectorField(dim, trig_fn)  # FD derivative fallback on purpose
    res = float(np.max(np.abs(fields.good_identity_residual(eta_trig, pts[:50]))))
    checks.append(Check("divergence_identity_trig_fd", res, tol_fd))

    eta_r = fields.random_polynomial_vector_field(rng, dim, degree=3)
    zeta_r = fields.random_polynomial_vector_field(rng, dim, degree=2)
    x0 = rng.uniform(-0.5, 0.5, size=dim)
    h = 1e-3
    dets = [fields.DeformationMap(eta_r, zeta_r, t).det(x0) for t in (-2 * h, -h, 0.0, h, 2 * h)]
    c1_fd = (dets[0] - 8 * dets[1] + 8 * dets[3] - dets[4]) / (12 * h)
    c2_fd = (-dets[0] + 16 * dets[1] - 30 * dets[2] + 16 * dets[3] - dets[4]) / (12 * h * h)
    _, c1, c2 = fields.det_expansion(eta_r, zeta_r, x0)
    checks.append(Check("determinant_expansion_fd", max(abs(c1 - c1_fd), abs(c2 - c2_fd)), 1e-6))

    if dim == 3:
        omega = rng.uniform(-1.0, 1.0, size=3)
        rot = fields.rotation_field(omega)
        mat = rot.jacobian(np.zeros(3))
        zr = fields.zeta_eta(rot)
        worst = 0.0
        for t in (0.05, 0.025):
            dm = fields.DeformationMap(rot, zr, t)
            exact = pts[:20] @ fields.rotation_exp(t * mat).T
            err = float(np.max(np.linalg.norm(dm.apply(pts[:20]) - exact, axis=1)))
            worst = max(worst, err / t**3)
        checks.append(Check("rotation_group_third_order", worst * 0.05**3, 1e-4))

        fil = geometry.straight_filament(1.0, 16)
        eta_f = fields.random_polynomial_vector_field(rng, 3, degree=3)
        dr, db = geometry.gl_discrepancy_densities(fil, eta_f)
        checks.append(Check("transverse_dbar_identity", float(np.max(np.abs(dr - db))), 1e-10))

    dmap = fields.DeformationMap(eta_r, zeta_r, 0.01)
    y = rng.uniform(-0.4, 0.4, size=(20, dim))
    xinv = dmap.invert(y)
    checks.append(Check("newton_inversion_roundtrip",
                        float(np.max(np.linalg.norm(dmap.apply(xinv) - y, axis=1))), 1e-12))

    quad = variation.tensor_grid([[-1.0, 1.0]] * dim, 40 if dim == 2 else 24)
    for k, f in enumerate((variation.integrand_dirichlet(),
                           variation.integrand_p_allen_cahn(0.7, 2.0))):
        u = fields.random_polynomial_scalar_field(rng, dim, degree=3)
        eta_c = fields.random_compact_vector_field(rng, dim, degree=2, radius=0.85)
        zeta_c = fields.random_compact_vector_field(rng, dim, degree=2, radius=0.85)
        rep = variation.variation_report(f, u, eta_c, zeta_c, quad)
        checks.append(Check(f"first_variation_bridge_{k}", abs(rep.fv_bridge_residual), 1e-8))
        checks.append(Check(f"variation_bridge_{k}", abs(rep.sv_relation_residual),
                            1e-6 * (1.0 + abs(rep.delta2_a))))
        checks.append(Check(f"oracle_agreement_{k}", abs(rep.delta2_a - rep.oracle_delta2),
                            max(1e-6, 1e-4 * abs(rep.delta2_a))))

    return checks, _check_rows(checks), {}


@_kind("ac-converge", {"geometry": _GEOMETRY, "p": _P, "eta": _ETA, "zeta": _ZETA,
                       "schedule": _SCHEDULE, "half_width": _WIDTH,
                       "tolerance_gap": (positive, 0.01), "min_rate": (finite, 0.9)}, codim=1)
def _run_ac(opts: dict, _rng, _outdir):
    rec = limits.ac_limit_experiment(
        opts["geometry"], opts["eta"], opts["zeta"], opts["p"], opts["schedule"],
        half_width=opts["half_width"], name=opts["name"],
    )
    checks = [Check("gap", rec.gap, opts["tolerance_gap"])]
    if rec.rate_binds():
        checks.append(Check("rate", rec.rate, opts["min_rate"], at_least=True))
    return checks, rec.rows(), rec.summary()


@_kind("gl-converge", {"geometry": _GEOMETRY, "eta": _ETA, "zeta": _ZETA,
                       "schedule": (lambda spec: _schedule(spec, "log_inverse"), REQUIRED),
                       "rho_max": (positive, 0.5), "n_theta": (count, 48),
                       "tolerance_gap": (positive, 0.1), "energy_tolerance": (positive, 0.05)},
       codim=2)
def _run_gl(opts: dict, _rng, _outdir):
    rec = limits.gl_limit_experiment(
        opts["geometry"], opts["eta"], opts["zeta"], opts["schedule"], rho_max=opts["rho_max"],
        n_theta=opts["n_theta"], name=opts["name"],
    )
    e_extr, _ = rec.extrapolate(rec.extras["energy"])
    e_target = rec.meta["energy_target"]
    e_gap = abs(e_extr - e_target) / (1.0 + abs(e_target))
    checks = [Check("gap", rec.gap, opts["tolerance_gap"]),
              Check("energy_gap", e_gap, opts["energy_tolerance"])]
    return checks, rec.rows(), {**rec.summary(), "energy_extrapolated": e_extr,
                                "energy_gap": e_gap}


@_kind("tensors", {"geometry": _GEOMETRY, "p": _P,
                   "indices": (lambda idx: [integer(i) for i in idx], REQUIRED), "phi": _SCALAR,
                   "schedule": _SCHEDULE, "half_width": _WIDTH,
                   "tolerance_gap": (positive, 0.02), "zero_tolerance": (positive, 1e-6)},
       codim=1, check=_check_indices)
def _run_tensors(opts: dict, _rng, _outdir):
    rec = limits.tensor_pairing_experiment(
        opts["geometry"], opts["p"], opts["phi"], opts["indices"], opts["schedule"],
        half_width=opts["half_width"], name=opts["name"],
    )
    if abs(rec.target) < 1e-12:
        check = Check("max_abs_value", float(np.max(np.abs(rec.values))), opts["zero_tolerance"])
    else:
        check = Check("gap", rec.gap, opts["tolerance_gap"])
    return [check], rec.rows(), rec.summary()


@_kind("equipartition", {"geometry": _GEOMETRY, "p": _P, "schedule": _SCHEDULE,
                         "profile": (_equipartition_profile, "optimal"), "half_width": _WIDTH,
                         "floor": (positive, 1e-7), "lower_bound": (finite, None)}, codim=1)
def _run_equipartition(opts: dict, _rng, _outdir):
    rec = limits.equipartition_residuals(
        opts["geometry"], opts["p"], opts["schedule"], profile=opts["profile"],
        half_width=opts["half_width"], name=opts["name"],
    )
    if opts["lower_bound"] is not None:  # negative control: the defect must persist
        checks = [Check("min_residual", float(np.min(rec.values)), opts["lower_bound"], True)]
    else:  # both residuals vanish, and the energy gap is the one predicted in closed form
        extras = rec.extras
        misses = np.abs(np.subtract(extras["energy_gap"], np.abs(extras["predicted_gap"])))
        checks = [Check("max_residual", float(np.max(rec.values + extras["residual_phi"])),
                        opts["floor"]),
                  Check("max_energy_miss", float(np.max(misses)), opts["floor"])]
    return checks, rec.rows(), rec.summary()


@_kind("volume", {"geometry": _GEOMETRY, "fields": (_volume_fields, {"random": 10}),
                  "tolerance_c2": (positive, 1e-10), "tolerance_flux": (positive, 1e-8)},
       codim=1, check=lambda opts: geometry.require_enclosed_region(opts["geometry"]))
def _run_volume(opts: dict, rng: np.random.Generator, _outdir):
    g, etas = opts["geometry"], opts["fields"]
    if isinstance(etas, dict):  # drawn here, from the experiment's own seed
        radius = 1.4 * g.radius if etas["radius"] is None else etas["radius"]
        etas = [fields.random_compact_vector_field(rng, g.dim, degree=etas["degree"],
                                                   radius=radius)
                for _ in range(etas["random"])]
    rows, details = [], []
    for i, eta in enumerate(etas):
        c1, c2 = limits.volume_admissibility(g, eta)
        flux = limits.boundary_flux(g, eta)
        rows.append({"epsilon": float(i), "value": c2, "target": 0.0,
                     "gap": abs(c2), "residual_1": abs(c1 - flux),
                     "residual_2": c1})
        details.append({"field": i, "c1": c1, "c2": c2, "flux": flux})
    checks = [Check("max_abs_c2", float(np.max([r["gap"] for r in rows])), opts["tolerance_c2"]),
              Check("max_flux_mismatch", float(np.max([r["residual_1"] for r in rows])),
                    opts["tolerance_flux"])]
    return checks, rows, {"fields": details}


@_kind("poincare", {"geometry": _GEOMETRY, "xi": _SCALAR, "cutoff_width": _WIDTH,
                    "tolerance": (positive, 1e-6)},
       codim=1, check=lambda opts: limits.require_zero_mean(opts["geometry"], opts["xi"]))
def _run_poincare(opts: dict, _rng, _outdir):
    lhs, rhs = limits.constrained_poincare_check(opts["geometry"], opts["xi"],
                                                 opts["cutoff_width"])
    tol = opts["tolerance"]
    gap = abs(lhs - rhs) / (1.0 + abs(rhs))
    rows = [{"epsilon": 0.0, "value": lhs, "target": rhs, "gap": gap,
             "residual_1": tol, "residual_2": 0.0}]
    return [Check("gap", gap, tol)], rows, {"lhs": lhs, "rhs": rhs, "gap": gap}


@_kind("forms", {"geometry": _GEOMETRY, "xi": _SCALAR, "schedule": _SCHEDULE,
                 "cutoff_width": _WIDTH, "half_width": _WIDTH, "tolerance_gap": (positive, 0.02)},
       codim=1)
def _run_forms(opts: dict, _rng, _outdir):
    rec = limits.quadratic_forms(
        opts["geometry"], opts["xi"], opts["schedule"], cutoff_width=opts["cutoff_width"],
        half_width=opts["half_width"], name=opts["name"],
    )
    return [Check("gap", rec.gap, opts["tolerance_gap"])], rec.rows(), rec.summary()


@_kind("profile", {"p": _P, "tolerance_constant": (positive, 1e-12),
                   "tolerance_equipartition": (positive, 1e-8), "tolerance_tanh": (positive, 1e-9),
                   "export_table": (boolean, True)})
def _run_profile(opts: dict, _rng, outdir: Path | None):
    p = opts["p"]
    prof = limits._profile(p)
    cp_gap = abs(profiles.c_p(p) - profiles.c_p_beta_oracle(p))
    checks = [Check("constant_vs_gamma_oracle", cp_gap, opts["tolerance_constant"])]
    ss = np.linspace(0.0, min(prof.s_max * 0.98, 40.0), 400)
    h = 1e-6
    dq_fd = (prof.q(ss + h) - prof.q(ss - h)) / (2 * h)
    equi = float(np.max(np.abs(np.abs(dq_fd) ** p - (1 - prof.q(ss) ** 2) ** 2)))
    checks.append(Check("pointwise_equipartition_fd", equi, opts["tolerance_equipartition"]))
    checks.append(Check("origin_values", abs(prof.q(0.0)) + abs(prof.dq(0.0) - 1.0), 1e-12))
    if p == 2.0:
        sg = np.linspace(-8.0, 8.0, 801)
        dev = float(np.max(np.abs(prof.q(sg) - np.tanh(sg))))
        checks.append(Check("closed_form_deviation", dev, opts["tolerance_tanh"]))
    if outdir is not None and opts["export_table"]:
        prof.to_csv(outdir / f"{opts['name']}_table.csv")
    return checks, _check_rows(checks), {"s_max": prof.s_max, "s_core": prof.s_core}


def run_experiment(exp: dict, seed: int, index: int, outdir: Path | None = None) -> ExperimentResult:
    rng = default_rng([seed, index])
    kind = _KINDS[exp["kind"]]
    start = time.perf_counter()
    error = None
    try:
        checks, rows, summary = kind.run(_build(exp, kind), rng, outdir)
    except ConfigError:
        raise
    except EpsilonTooLarge as exc:
        # schedule/geometry mismatch is a configuration problem, not a numeric one
        raise ConfigError(f"experiment {exp['name']!r}: {exc}") from exc
    except InnervarError as exc:
        error = str(exc)
        checks, rows, summary = [], [], {"error": error}
    entries = [{"label": c.label, "value": c.value, "bound": c.bound, "at_least": c.at_least,
                "margin": c.margin, "pass": c.passed} for c in checks]
    passed = bool(checks) and all(c.passed for c in checks)  # the one verdict rule
    return ExperimentResult(exp["name"], exp["kind"], passed, time.perf_counter() - start, rows,
                            {**summary, "checks": entries, "pass": passed}, error)


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
    if isinstance(obj, (float, np.floating)):  # strict JSON: a non-finite float is null
        return float(obj) if math.isfinite(obj) else None
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    return obj


def _write_json(path: Path, obj) -> None:
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(_jsonify(obj), fh, indent=2, sort_keys=True, allow_nan=False)
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
        seed = config["seed"] if args.seed is None else parse(
            {"seed": args.seed}, {"seed": _SEED}, "--seed")["seed"]
        if args.jobs is None:
            env = {key: os.environ[key] for key in _ENVIRONMENT_KEYS if key in os.environ}
            jobs = parse(env, _ENVIRONMENT_KEYS, "environment")["INNERVAR_JOBS"]
        else:
            jobs = parse({"jobs": args.jobs}, {"jobs": _JOBS}, "--jobs")["jobs"]
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    outdir = Path(args.out)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # an existing file on the path, or no permission
        print(f"config error: --out: {exc}", file=sys.stderr)
        return 2
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
        "name": args.config if config["name"] is None else config["name"],
        "seed": seed,
        "experiments": [],
    }
    for res in results:
        _write_csv(outdir / f"{res.name}.csv", res.rows)
        _write_json(outdir / f"{res.name}.json", res.summary)
        worst = max(res.summary["checks"], key=lambda c: c["margin"], default=None)
        verdict = "no checks" if worst is None else f"{worst['label']} margin {worst['margin']:.3g}"
        print(f"{res.name}: {'PASS' if res.passed else 'FAIL'} ({verdict}, {res.runtime:.1f}s)")
        if res.error:
            print(f"  error: {res.error}")
        all_pass &= res.passed
        summary["experiments"].append({"name": res.name, "kind": res.kind, "pass": res.passed,
                                       "worst_check": worst, "runtime_s": round(res.runtime, 3),
                                       "error": res.error})
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
