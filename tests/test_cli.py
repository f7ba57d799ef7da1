"""CLI surface: configs, exit codes, catalog, determinism, file formats."""

import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from innervar import cli, config, fields, geometry, limits, profiles
from innervar.cli import CSV_COLUMNS, Check, builtin_configs, main, validate_config
from innervar.errors import ConfigError, DegenerateReference, StiffTail


def _write(tmp_path, obj, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def test_list_experiments_catalog(capsys):
    assert main(["list-experiments"]) == 0
    out = capsys.readouterr().out
    configs = builtin_configs()
    assert len(configs) >= 9
    # catalog matches shipped config files one-to-one, stable order
    names = [name for name, _ in configs]
    assert names == sorted(names)
    for name, cfg in configs:
        assert f"{name}: " in out
        for exp in cfg["experiments"]:
            assert exp["name"] in out
    assert main(["list-experiments"]) == 0
    assert capsys.readouterr().out == out


def test_builtin_configs_validate():
    for _name, cfg in builtin_configs():
        validate_config(cfg)


def test_run_profile_config(tmp_path, capsys):
    rc = main(["run", "profile_tables", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "profile_p2: PASS" in out
    csv_path = tmp_path / "profile_p2.csv"
    header = csv_path.read_text().splitlines()[0]
    assert header == ",".join(CSV_COLUMNS)
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["all_pass"] is True
    assert {e["name"] for e in summary["experiments"]} == {
        "profile_p2", "profile_p125", "profile_p3"
    }
    memory = summary["memory"]  # the run's minor faults, peak RSS and allocator settings
    assert set(memory) == {"minor_faults", "peak_rss_mb", "mallopt"}
    assert type(memory["minor_faults"]) is int and memory["minor_faults"] >= 0
    assert type(memory["peak_rss_mb"]) is float and memory["peak_rss_mb"] > 0.0
    mallopt = memory["mallopt"]
    assert mallopt is None or (set(mallopt) == {"M_MMAP_THRESHOLD", "M_TRIM_THRESHOLD"}
                               and all(type(v) is bool for v in mallopt.values()))
    per_exp = json.loads((tmp_path / "profile_p2.json").read_text())
    assert per_exp["pass"] is True
    # profile tables exported alongside
    assert (tmp_path / "profile_p2_table.csv").read_text().splitlines()[0] == "s,q,dq"


def test_run_missing_config(tmp_path, capsys):
    rc = main(["run", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_run_rejects_unknown_keys(tmp_path, capsys):
    cfg = {
        "schema_version": 1,
        "experiments": [
            {"name": "x", "kind": "profile", "p": 2.0, "bogus": 1}
        ],
    }
    rc = main(["run", _write(tmp_path, cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "unknown keys" in capsys.readouterr().err


def test_run_rejects_unknown_builder(tmp_path, capsys):
    cfg = {
        "schema_version": 1,
        "experiments": [
            {
                "name": "x",
                "kind": "poincare",
                "geometry": {"type": "dodecahedron"},
                "xi": {"type": "polynomial", "dim": 3, "terms": []},
            }
        ],
    }
    rc = main(["run", _write(tmp_path, cfg), "--out", str(tmp_path / "o")])
    assert rc == 2


def test_run_rejects_duplicate_names(tmp_path):
    cfg = {
        "schema_version": 1,
        "experiments": [
            {"name": "x", "kind": "profile", "p": 2.0},
            {"name": "x", "kind": "profile", "p": 3.0},
        ],
    }
    rc = main(["run", _write(tmp_path, cfg), "--out", str(tmp_path / "o")])
    assert rc == 2


def test_run_eps_too_large_is_config_error(tmp_path, capsys):
    cfg = {
        "schema_version": 1,
        "experiments": [
            {
                "name": "too_wide",
                "kind": "equipartition",
                "geometry": {"type": "sphere", "radius": 1.0, "n_polar": 8, "n_azimuth": 16},
                "p": 2.0,
                "schedule": {"eps0": 0.5, "count": 3},
            }
        ],
    }
    rc = main(["run", _write(tmp_path, cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "tube" in err


def test_run_numeric_failure_exit_code(tmp_path, capsys):
    # impossible tolerance forces a numeric failure; exit code 1, named
    cfg = {"schema_version": 1,
           "experiments": [{**_TENSORS, "name": "impossible", "tolerance_gap": 1e-30}]}
    rc = main(["run", _write(tmp_path, cfg), "--out", str(tmp_path / "o")])
    assert rc == 1
    captured = capsys.readouterr()
    assert "impossible" in captured.err
    assert "FAIL" in captured.out


def test_run_deterministic_bytes(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "identities_plane", "--out", str(out1), "--seed", "7"]) == 0
    assert main(["run", "identities_plane", "--out", str(out2), "--seed", "7"]) == 0
    b1 = (out1 / "identities_plane.csv").read_bytes()
    b2 = (out2 / "identities_plane.csv").read_bytes()
    assert b1 == b2


def _catalog_experiment(name):
    return next(exp for _, cfg in builtin_configs() for exp in cfg["experiments"]
                if exp["name"] == name)


def test_run_jobs_parallel_matches_serial(tmp_path):
    sphere = {"type": "sphere", "radius": 1.0, "n_polar": 12, "n_azimuth": 24}
    cfg = {
        "schema_version": 1,
        "seed": 3,
        "experiments": [
            {"name": "p2", "kind": "profile", "p": 2.0},
            {"name": "p3", "kind": "profile", "p": 3.0},
            {"name": "ident", "kind": "identities", "dim": 2, "samples": 100, "cases": 2},
            {**_catalog_experiment("tensors_flat_normal"), "name": "tens"},
            {"name": "vol", "kind": "volume", "geometry": sphere, "fields": {"random": 3}},
        ],
    }
    path = _write(tmp_path, cfg)
    out1, out2 = tmp_path / "serial", tmp_path / "par"
    assert main(["run", path, "--out", str(out1), "--jobs", "1"]) == 0
    assert main(["run", path, "--out", str(out2), "--jobs", "3"]) == 0
    for name in ("p2", "p3", "ident", "tens", "vol"):
        assert (out1 / f"{name}.csv").read_bytes() == (out2 / f"{name}.csv").read_bytes()
    assert len((out1 / "vol.csv").read_text().splitlines()) == 4  # header + 3 drawn fields


def test_each_descriptor_is_parsed_once_per_run(monkeypatch):
    parsed = []

    def counting(fn):
        def count(spec, *args):
            parsed.append(json.dumps(spec, sort_keys=True))
            return fn(spec, *args)

        return count

    monkeypatch.setattr(geometry, "shape_from_config", counting(geometry.shape_from_config))
    for name in ("vector_field_from_config", "scalar_field_from_config"):
        monkeypatch.setattr(fields, name, counting(getattr(fields, name)))
    monkeypatch.setattr(cli, "_schedule", counting(cli._schedule))
    for name in ("ac_flat_p2", "tensors_flat_normal", "volume_ball"):
        exp = _catalog_experiment(name)
        parsed.clear()
        assert cli.run_experiment(exp, 1234, 0).passed
        descriptors = [json.dumps(exp[key], sort_keys=True)
                       for key in ("geometry", "schedule", "eta", "zeta", "phi", "xi")
                       if isinstance(exp.get(key), dict)]
        assert sorted(parsed) == sorted(descriptors), name


def test_seed_recorded_in_summary(tmp_path):
    assert main(["run", "identities_plane", "--out", str(tmp_path), "--seed", "99"]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["seed"] == 99


def test_csv_row_format(tmp_path):
    assert main(["run", "ac_flat_p2", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "ac_flat_p2.csv").read_text().splitlines()
    assert lines[0] == "epsilon,value,target,gap,residual_1,residual_2"
    assert len(lines) == 7  # header + 6 schedule points
    first = lines[1].split(",")
    assert float(first[0]) == 0.1


_SPHERE = {"type": "sphere", "radius": 1.0, "n_polar": 8, "n_azimuth": 16}
_TENSORS = {
    "name": "x", "kind": "tensors", "geometry": _SPHERE, "p": 2.0, "indices": [0, 0],
    "phi": {"type": "radial_bump", "center": [0.0, 0.0, 0.0], "radius": 1.8},
    "schedule": {"eps0": 0.04, "count": 4},
}


_GL = {
    "name": "x", "kind": "gl-converge", "geometry": {"type": "straight_filament", "nodes": 8},
    "eta": {"type": "filament_preset", "preset": "bend"}, "schedule": {"eps0": 0.04, "count": 4},
}
_AC = {
    "name": "x", "kind": "ac-converge", "geometry": {"type": "flat_patch", "dim": 2}, "p": 2.0,
    "eta": {"type": "bump_polynomial", "dim": 2, "components": [[[1.0, [0, 0]]], []],
            "center": [0.0, 0.0], "radius": 0.8},
    "schedule": {"eps0": 0.04, "count": 4},
}
_POINCARE = {
    "name": "x", "kind": "poincare", "geometry": _SPHERE,
    "xi": {"type": "polynomial", "dim": 3, "terms": [[1.0, [0, 0, 1]]]},
}


def _variant(drop=(), **changes):
    exp = {k: v for k, v in _TENSORS.items() if k not in drop}
    exp.update(changes)
    return exp


_MALFORMED = [
    ("missing_p", _variant(drop=["p"])),
    ("schedule_without_eps0", _variant(schedule={"count": 4})),
    ("sphere_without_radius", _variant(geometry={"type": "sphere"})),
    ("flat_patch_without_dim", _variant(geometry={"type": "flat_patch"})),
    ("increasing_epsilons", _variant(schedule={"epsilons": [0.1, 0.2]})),
    ("p_not_above_one", _variant(p=1.0)),
    ("p_below_the_profile_table_floor", {"name": "x", "kind": "profile", "p": 1.01}),
    ("single_width", _variant(schedule={"epsilons": [0.04]})),
    ("name_with_path", _variant(name="../escape")),
    ("eta_of_wrong_dimension", {
        "name": "x", "kind": "ac-converge", "geometry": _SPHERE, "p": 2.0,
        "eta": {"type": "rotation", "rate": 1.0}, "schedule": {"eps0": 0.04, "count": 4},
    }),
    ("three_indices", _variant(indices=[0, 0, 1])),
    ("index_beyond_dimension", _variant(indices=[0, 3])),
    ("xi_with_nonzero_mean", {
        "name": "x", "kind": "poincare", "geometry": _SPHERE,
        "xi": {"type": "polynomial", "dim": 3, "terms": [[1.0, [0, 0, 0]]]},
    }),
    ("filament_kind_on_a_sphere", {
        "name": "x", "kind": "gl-converge", "geometry": _SPHERE,
        "eta": {"type": "filament_preset", "preset": "bend"},
        "schedule": {"eps0": 0.04, "count": 4},
    }),
    ("optional_key_of_wrong_type", {"name": "x", "kind": "identities", "samples": "many"}),
    ("volume_without_enclosed_region", {
        "name": "x", "kind": "volume", "geometry": {"type": "flat_patch", "dim": 2},
    }),
    ("volume_fields_a_number", {"name": "x", "kind": "volume", "geometry": _SPHERE, "fields": 5}),
    ("volume_random_count_not_a_number", {
        "name": "x", "kind": "volume", "geometry": _SPHERE, "fields": {"random": "many"},
    }),
    ("volume_random_count_zero", {
        "name": "x", "kind": "volume", "geometry": _SPHERE, "fields": {"random": 0},
    }),
    ("volume_random_count_negative", {
        "name": "x", "kind": "volume", "geometry": _SPHERE, "fields": {"random": -3},
    }),
    ("volume_fields_empty_list", {"name": "x", "kind": "volume", "geometry": _SPHERE, "fields": []}),
    ("unknown_equipartition_profile", {
        "name": "x", "kind": "equipartition", "geometry": _SPHERE, "p": 2.0,
        "schedule": {"eps0": 0.04, "count": 4}, "profile": "bogus",
    }),
    ("tanh_slope_not_a_number", {
        "name": "x", "kind": "equipartition", "geometry": _SPHERE, "p": 2.0,
        "schedule": {"eps0": 0.04, "count": 4}, "profile": {"tanh_slope": "x"},
    }),
    # range rules: counts are at least 1, radii and eps positive and finite,
    # p finite, and a filament preset one of the known ones
    ("identities_samples_zero", {"name": "x", "kind": "identities", "samples": 0}),
    ("identities_samples_negative", {"name": "x", "kind": "identities", "samples": -1}),
    ("identities_dim_zero", {"name": "x", "kind": "identities", "dim": 0}),
    # the runner's bulk grid has 24^dim nodes: dimension 5 asked for gigabytes and crashed
    ("identities_dim_four", {"name": "x", "kind": "identities", "dim": 4}),
    ("gl_n_theta_zero", {**_GL, "n_theta": 0}),
    ("filament_preset_unknown", {**_GL, "eta": {"type": "filament_preset", "preset": "bogus"}}),
    # the GL energy divides by |log eps|, which is 0 at eps = 1
    ("gl_log_inverse_width_one", {**_GL, "schedule": {"epsilons": [1.0, 0.5, 0.25]}}),
    ("epsilons_with_nan", _variant(schedule={"epsilons": [0.04, float("nan")]})),
    ("p_infinite", _variant(p=float("inf"))),
    ("radial_bump_order_not_a_number", _variant(phi={**_TENSORS["phi"], "order": "eight"})),
    ("flat_patch_axis_beyond_dimension",
     {**_AC, "geometry": {"type": "flat_patch", "dim": 2, "axis": 2}}),
    ("volume_sphere_negative_radius", {
        "name": "x", "kind": "volume", "geometry": {**_SPHERE, "radius": -1.0},
        "fields": {"random": 2},
    }),
    # the equipartition criterion has no rate escape, so it takes no rate bound; a lower
    # bound of -inf would pass every run
    ("equipartition_min_rate", {
        "name": "x", "kind": "equipartition", "geometry": _SPHERE, "p": 2.0,
        "schedule": {"eps0": 0.04, "count": 4}, "min_rate": 0.9,
    }),
    ("equipartition_lower_bound_infinite", {
        "name": "x", "kind": "equipartition", "geometry": _SPHERE, "p": 2.0,
        "schedule": {"eps0": 0.04, "count": 4}, "lower_bound": float("-inf"),
    }),
    # integer keys take whole numbers: a fraction, a boolean or a string is not converted
    ("schedule_count_fraction", _variant(schedule={"eps0": 0.04, "count": 3.7})),
    ("identities_samples_boolean", {"name": "x", "kind": "identities", "samples": True}),
    ("identities_samples_string", {"name": "x", "kind": "identities", "samples": "30"}),
    ("identities_cases_string", {"name": "x", "kind": "identities", "cases": "1"}),
    ("indices_fraction", _variant(indices=[0, 0.5])),
    ("filament_frequency_fraction", {**_GL, "eta": {"type": "filament_preset", "preset": "bend",
                                                    "frequency": 1.5}}),
    ("flat_patch_n_per_axis_fraction",
     {**_AC, "geometry": {"type": "flat_patch", "dim": 2, "n_per_axis": 16.9}}),
    ("flat_patch_dim_fraction", {**_AC, "geometry": {"type": "flat_patch", "dim": 2.5}}),
    ("flat_patch_axis_boolean", {**_AC, "geometry": {"type": "flat_patch", "dim": 2,
                                                     "axis": True}}),
    ("volume_random_count_fraction", {
        "name": "x", "kind": "volume", "geometry": _SPHERE, "fields": {"random": 2.5},
    }),
    # field descriptors are checked where they are built: each of these used to pass
    # validation and then crash with a traceback, or run another field than the one described
    ("linear_matrix_not_square", {**_AC, "geometry": {"type": "circle", "radius": 1.0},
                                  "eta": {"type": "linear", "matrix": [[1, 0, 0], [0, 1, 0]]}}),
    ("linear_offset_too_short", {**_AC, "eta": {"type": "linear", "matrix": [[1, 0], [0, 1]],
                                                "offset": [1.0]}}),
    ("constant_vector_a_number", {**_AC, "eta": {"type": "constant", "vector": 1.0}}),
    ("rotation_omega_of_two_entries", {**_AC, "geometry": _SPHERE,
                                       "eta": {"type": "rotation", "omega": [1, 2]}}),
    ("radial_bump_center_a_number", _variant(phi={"type": "radial_bump", "center": 0.0,
                                                  "radius": 1.8})),
    ("bump_polynomial_one_table_in_two_dimensions",
     {**_AC, "eta": {**_AC["eta"], "components": [[[1.0, [0, 0]]]]}}),
    ("bump_polynomial_center_too_long", {**_AC, "eta": {**_AC["eta"], "center": [0.0, 0.0, 0.0]}}),
    ("forms_xi_exponents_too_short", {
        "name": "x", "kind": "forms", "geometry": _SPHERE, "schedule": {"eps0": 0.04, "count": 4},
        "xi": {"type": "polynomial", "dim": 3, "terms": [[1.0, [0, 1]]]},
    }),
    ("polynomial_exponent_fraction", _variant(phi={"type": "polynomial", "dim": 3,
                                                   "terms": [[1.0, [0, 1.5, 0]]]})),
    ("polynomial_exponent_negative", _variant(phi={"type": "polynomial", "dim": 3,
                                                   "terms": [[1.0, [0, -1, 0]]]})),
    ("trig_wave_vector_too_short", _variant(phi={"type": "trig", "dim": 3,
                                                 "terms": [[1.0, [1.0, 0.0], 0.0, "sin"]]})),
    ("trig_kind_unknown", _variant(phi={"type": "trig", "dim": 3,
                                        "terms": [[1.0, [1.0, 0.0, 0.0], 0.0, "tan"]]})),
    # json.load reads NaN and Infinity as numbers; a NaN bump centre used to run as the
    # zero field and pass
    ("bump_polynomial_center_nan", {**_AC, "eta": {**_AC["eta"], "center": [math.nan, 0.0]}}),
    # a bump divides by radius**2, which underflowed to 0 and crashed with a ZeroDivisionError
    ("radial_bump_radius_squared_underflows", _variant(phi={**_TENSORS["phi"], "radius": 1e-200})),
    ("filament_radius_squared_underflows",
     {**_GL, "eta": {"type": "filament_preset", "preset": "bend", "radius": 1e-170}}),
    ("bump_polynomial_radius_squared_underflows",
     {**_AC, "eta": {**_AC["eta"], "radius": 1e-160}}),
    ("volume_random_radius_squared_underflows", {  # drawn at run time, refused at load
        "name": "x", "kind": "volume", "geometry": _SPHERE,
        "fields": {"random": 2, "radius": 1e-300},
    }),
    ("flat_patch_extents_reversed",
     {**_AC, "geometry": {"type": "flat_patch", "dim": 2, "extents": [[1, -1]]}}),
    # a random volume field's default radius is 1.4 times the sphere's; on a sphere this small
    # every drawn field was NaN and the run passed, or the bump divided by zero
    ("volume_default_radius_squared_subnormal", {
        "name": "x", "kind": "volume", "geometry": {**_SPHERE, "radius": 1e-160},
        "fields": {"random": 2},
    }),
    ("volume_default_radius_squared_underflows", {
        "name": "x", "kind": "volume", "geometry": {**_SPHERE, "radius": 1e-200},
        "fields": {"random": 2},
    }),
    # a non-finite entry of a structured value, which a Python caller can pass: each built a
    # field of non-finite values
    ("linear_matrix_entry_nan", {**_AC, "eta": {"type": "linear",
                                                "matrix": [[1.0, math.nan], [0.0, 1.0]]}}),
    ("polynomial_coefficient_infinite", _variant(phi={"type": "polynomial", "dim": 3,
                                                      "terms": [[math.inf, [0, 0, 1]]]})),
    ("trig_wave_vector_nan", _variant(phi={"type": "trig", "dim": 3,
                                           "terms": [[1.0, [math.nan, 0.0, 0.0], 0.0, "sin"]]})),
    # numeric descriptor keys: each NaN once ran and failed its checks (exit 1)
    ("flat_patch_offset_nan", {**_AC, "geometry": {"type": "flat_patch", "dim": 2,
                                                   "offset": math.nan}}),
    ("radial_bump_amplitude_nan", _variant(phi={**_TENSORS["phi"], "amplitude": math.nan})),
    ("filament_amplitude_nan", {**_GL, "eta": {"type": "filament_preset", "preset": "bend",
                                               "amplitude": math.nan}}),
    ("tanh_slope_nan", {
        "name": "x", "kind": "equipartition", "geometry": _SPHERE, "p": 2.0,
        "schedule": {"eps0": 0.04, "count": 4}, "profile": {"tanh_slope": math.nan},
    }),
    # keys that are now constants: a config that still sets one exits 2 with unknown keys,
    # whatever the value (these rows once checked each key's range)
    ("unknown_model", _variant(schedule={"eps0": 0.04, "count": 4, "model": "cubic"})),
    ("one_fit_point", _variant(schedule={"eps0": 0.04, "count": 4, "fit_points": 1})),
    ("more_fit_points_than_widths",
     _variant(schedule={"eps0": 0.04, "count": 3, "fit_points": 4})),
    ("export_table_not_a_boolean", {"name": "x", "kind": "profile", "p": 2.0,
                                    "export_table": "no"}),
    ("gl_rho_max_zero", {**_GL, "rho_max": 0.0}),
    ("gl_rho_max_negative", {**_GL, "rho_max": -1.0}),
    ("gl_linear_width_one", {**_GL, "schedule": {"epsilons": [1.0, 0.5, 0.25],
                                                 "model": "linear_eps"}}),
    ("ac_half_width_zero", {**_AC, "half_width": 0.0}),
    ("ac_half_width_negative", {**_AC, "half_width": -0.5}),
    ("poincare_cutoff_width_zero", {**_POINCARE, "cutoff_width": 0.0}),
    ("poincare_cutoff_width_negative", {**_POINCARE, "cutoff_width": -1.0}),
    ("ac_tolerance_gap_infinite", {**_AC, "tolerance_gap": float("inf")}),
    ("ac_min_rate_minus_infinity", {**_AC, "min_rate": float("-inf")}),
    ("identities_tolerance_negative", {"name": "x", "kind": "identities", "tolerance": -1.0}),
    ("identities_fd_tolerance_nan", {"name": "x", "kind": "identities",
                                     "fd_tolerance": float("nan")}),
    ("gl_energy_tolerance_zero", {**_GL, "energy_tolerance": 0.0}),
    ("tensors_zero_tolerance_negative", _variant(zero_tolerance=-1e-6)),
    ("equipartition_floor_nan", {
        "name": "x", "kind": "equipartition", "geometry": _SPHERE, "p": 2.0,
        "schedule": {"eps0": 0.04, "count": 4}, "floor": float("nan"),
    }),
    ("volume_tolerance_c2_infinite", {
        "name": "x", "kind": "volume", "geometry": _SPHERE, "fields": {"random": 2},
        "tolerance_c2": float("inf"),
    }),
    ("poincare_tolerance_negative", {**_POINCARE, "tolerance": -1e-6}),
    ("profile_tolerance_tanh_nan", {"name": "x", "kind": "profile", "p": 2.0,
                                    "tolerance_tanh": float("nan")}),
    ("schedule_fit_points_fraction", _variant(schedule={"eps0": 0.04, "count": 4,
                                                        "fit_points": 2.5})),
]


@pytest.mark.parametrize("exp", [exp for _, exp in _MALFORMED],
                         ids=[case for case, _ in _MALFORMED])
def test_malformed_config_exits_2(tmp_path, capsys, exp):
    cfg = _write(tmp_path, {"schema_version": 1, "experiments": [exp]})
    out = tmp_path / "work" / "out"
    rc = main(["run", cfg, "--out", str(out)])  # an escaping exception would fail here
    err = capsys.readouterr().err
    assert rc == 2
    assert "config error" in err and "Traceback" not in err
    strays = [p for p in tmp_path.rglob("*")
              if p.is_file() and str(p) != cfg and out not in p.parents]
    assert strays == []


@pytest.mark.parametrize("literal", ["NaN", "-Infinity", "1e999"])
def test_non_finite_json_number_exits_2(tmp_path, capsys, literal):
    # the JSON parser's own reading of NaN, Infinity and an overflowing literal is refused
    cfg = _write(tmp_path, {"schema_version": 1, "experiments": [
        {**_AC, "eta": {**_AC["eta"], "center": ["VALUE", 0.0]}}]})
    path = Path(cfg)
    path.write_text(path.read_text().replace('"VALUE"', literal), encoding="utf-8")
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    assert f"{literal} is not a finite number" in capsys.readouterr().err


def _non_finite(obj) -> bool:
    if isinstance(obj, float):
        return not math.isfinite(obj)
    values = obj.values() if isinstance(obj, dict) else obj if isinstance(obj, list) else ()
    return any(_non_finite(v) for v in values)


# The CLI's parser refuses every non-finite number before validation.  A Python caller of
# validate_config still has each key's converter refuse one where it reads a number, and the
# field builders refuse one inside a structured value (a centre, a matrix, a term table).
@pytest.mark.parametrize("case", [case for case, exp in _MALFORMED if _non_finite(exp)])
def test_non_finite_values_are_refused_by_validate_config_too(case):
    with pytest.raises(ConfigError):
        validate_config({"schema_version": 1, "experiments": [dict(_MALFORMED)[case]]})


def test_bump_radius_is_refused_where_its_square_is_not_a_normal_float():
    assert config.bump_radius(2e-154) == 2e-154
    assert config.bump_radius(1e154) == 1e154
    for radius in (0.0, -1.0, 1e-154, 1e-170, 2e154, math.inf, math.nan):
        with pytest.raises(ValueError):
            config.bump_radius(radius)


def test_p_below_the_profile_table_floor_names_the_floor(tmp_path, capsys):
    # the table cannot be built below p of about 1.028; such a p used to load and then
    # exit 1 as a numeric failure of the run
    with pytest.raises(StiffTail):
        profiles.optimal_profile(1.01)
    profiles.optimal_profile(profiles.P_MIN)
    exp = {"name": "x", "kind": "profile", "p": 1.01}
    cfg = _write(tmp_path, {"schema_version": 1, "experiments": [exp]})
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    assert f"at least {profiles.P_MIN:g}" in capsys.readouterr().err


_TOP_LEVEL_MALFORMED = [
    ("seed_not_a_number", {"seed": "abc"}, []),
    ("seed_negative", {"seed": -1}, []),
    ("schema_version_not_a_number", {"schema_version": "one"}, []),
    ("seed_negative_on_the_command_line", {}, ["--seed", "-1"]),
    ("jobs_zero_on_the_command_line", {}, ["--jobs", "0"]),
    ("jobs_negative_on_the_command_line", {}, ["--jobs", "-3"]),
    ("seed_fraction", {"seed": 1.5}, []),
    ("seed_boolean", {"seed": True}, []),
]


@pytest.mark.parametrize("top,argv", [(top, argv) for _, top, argv in _TOP_LEVEL_MALFORMED],
                         ids=[case for case, *_ in _TOP_LEVEL_MALFORMED])
def test_malformed_top_level_exits_2(tmp_path, capsys, top, argv):
    cfg = _write(tmp_path, {"schema_version": 1, **top,
                            "experiments": [{"name": "x", "kind": "profile", "p": 2.0}]})
    rc = main(["run", cfg, "--out", str(tmp_path / "out"), *argv])
    err = capsys.readouterr().err
    assert rc == 2
    assert "config error" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()  # rejected before any experiment or pool starts


# The settings that no shipped or workload config set to anything but its default, each at
# the value it keeps as a constant.
_CONSTANTS = [
    ({"name": "x", "kind": "identities"}, {"tolerance": 1e-9, "fd_tolerance": 1e-7}),
    (_AC, {"half_width": 1.0, "tolerance_gap": 0.01, "min_rate": 0.9}),
    (_GL, {"zeta": "zero", "rho_max": 0.5, "tolerance_gap": 0.1, "energy_tolerance": 0.05}),
    (_TENSORS, {"half_width": 1.0, "zero_tolerance": 1e-6}),
    ({"name": "x", "kind": "equipartition", "geometry": _SPHERE, "p": 2.0,
      "schedule": {"eps0": 0.04, "count": 4}}, {"half_width": 1.0, "floor": 1e-7}),
    ({"name": "x", "kind": "volume", "geometry": _SPHERE, "fields": {"random": 2}},
     {"tolerance_c2": 1e-10, "tolerance_flux": 1e-8}),
    (_POINCARE, {"cutoff_width": 1.0, "tolerance": 1e-6}),
    ({**_POINCARE, "kind": "forms", "schedule": {"eps0": 0.08, "count": 3}},
     {"cutoff_width": 1.0, "half_width": 1.0, "tolerance_gap": 0.02}),
    ({"name": "x", "kind": "profile", "p": 2.0},
     {"tolerance_constant": 1e-12, "tolerance_equipartition": 1e-8, "tolerance_tanh": 1e-9,
      "export_table": True}),
]
_SCHEDULE_CONSTANTS = {"ratio": 0.5, "fit_points": 4, "model": "linear_eps"}
_CONSTANT_CASES = [(f"{exp['kind']}.{key}", {**exp, key: value})
                   for exp, keys in _CONSTANTS for key, value in keys.items()]
_CONSTANT_CASES += [(f"schedule.{key}", _variant(schedule={**_TENSORS["schedule"], key: value}))
                    for key, value in _SCHEDULE_CONSTANTS.items()]
# every bump is (1 - s^2)^8, and random volume fields are of degree 2
_CONSTANT_CASES += [
    ("bump_polynomial.order", {**_AC, "eta": {**_AC["eta"], "order": 8}}),
    ("radial_bump.order", _variant(phi={**_TENSORS["phi"], "order": 8})),
    ("filament_preset.order", {**_GL, "eta": {**_GL["eta"], "order": 8}}),
    ("volume_fields.degree", {"name": "x", "kind": "volume", "geometry": _SPHERE,
                              "fields": {"random": 2, "degree": 2}}),
]


@pytest.mark.parametrize("exp", [exp for _, exp in _CONSTANT_CASES],
                         ids=[case for case, _ in _CONSTANT_CASES])
def test_a_setting_made_a_constant_is_an_unknown_key(tmp_path, capsys, exp):
    cfg = _write(tmp_path, {"schema_version": 1, "experiments": [exp]})
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "unknown keys" in err and "Traceback" not in err


@pytest.mark.parametrize("value", ["abc", "1.5", "", "-3", "2"],
                         ids=["not_a_number", "fraction", "empty", "negative", "two"])
def test_innervar_jobs_is_ignored(tmp_path, monkeypatch, value):
    # --jobs alone sets the pool; the environment variable that once stood in for it is not read
    monkeypatch.setenv("INNERVAR_JOBS", value)
    cfg = _write(tmp_path, {"schema_version": 1,
                            "experiments": [{"name": "x", "kind": "profile", "p": 2.0}]})
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 0


def _workload_experiments(seed: int) -> list[dict]:
    """Every experiment of every benchmark workload config at ``seed``."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads_guard", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    catalog = dict(builtin_configs())
    return [exp for workload in module.WORKLOADS
            for _stem, cfg in module.workload_configs(workload, seed, catalog)
            for exp in cfg["experiments"]]


def test_every_optional_key_is_varied_by_a_shipped_or_workload_config():
    # an optional key that every config leaves at its default is a constant that takes a key
    exps = [exp for _, cfg in builtin_configs() for exp in cfg["experiments"]]
    exps += _workload_experiments(1234)
    tables = [(name, kind.keys, [e for e in exps if e["kind"] == name])
              for name, kind in cli._KINDS.items()]
    tables.append(("schedule", cli._SCHEDULE_KEYS,
                   [e["schedule"] for e in exps if "schedule" in e]))
    tables.append(("volume fields", cli._RANDOM_FIELDS,
                   [e["fields"] for e in exps if isinstance(e.get("fields"), dict)]))
    unvaried = [f"{name}.{key}" for name, keys, specs in tables
                for key, (_convert, default) in keys.items()
                if default is not config.REQUIRED
                and not any(key in spec and spec[key] != default for spec in specs)]
    assert unvaried == []


@pytest.mark.parametrize("below", ["", "sub"], ids=["out_is_a_file", "out_below_a_file"])
def test_unusable_out_exits_2(tmp_path, capsys, below):
    # a file where --out, or a directory above it, should go cannot become a directory
    blocker = tmp_path / "taken"
    blocker.write_text("keep\n")
    rc = main(["run", "profile_tables", "--out", str(blocker / below)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("config error: --out: ") and "Traceback" not in captured.err
    assert captured.out == ""  # rejected before any experiment runs
    assert list(tmp_path.iterdir()) == [blocker] and blocker.read_text() == "keep\n"


@pytest.mark.parametrize("text", [
    b'{"schema_version": 1, "name": "caf\xe9", "experiments": []}',
    b"[" * 100_000 + b"]" * 100_000,
], ids=["not_utf8", "nested_too_deep"])
def test_undecodable_config_exits_2(tmp_path, capsys, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(text)
    rc = main(["run", str(cfg), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error: ") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


_PROFILE_P2 = {"kind": "profile", "p": 2.0}


@pytest.mark.parametrize("names,clash", [
    (["summary"], "summary.json"),
    (["a", "a_table"], "a_table.csv"),
    (["a_table", "a"], "a_table.csv"),
], ids=["summary", "profile_table", "profile_table_listed_second"])
def test_outputs_sharing_a_file_name_exit_2(tmp_path, capsys, names, clash):
    # each would overwrite one output of the run with another and still exit 0
    cfg = _write(tmp_path, {"schema_version": 1,
                            "experiments": [{"name": n, **_PROFILE_P2} for n in names]})
    rc = main(["run", cfg, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error: ") and clash in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


_FLAT32 = {"type": "flat_patch", "dim": 2, "n_per_axis": 32}
_EQUI_FLAT = {"name": "x", "kind": "equipartition", "geometry": _FLAT32,
              "schedule": {"eps0": 0.1, "count": 6}}


def _truncation_misses(result):
    extras = result.summary["extras"]
    return [abs(gap - abs(cut)) for gap, cut in zip(extras["energy_gap"], extras["predicted_gap"])]


def test_flat_equipartition_gap_is_the_tube_truncation():
    # at p = 1.708 the unit cap stops the eps = 0.1 rule at s = 10, where the profile still
    # carries 2.6e-7, above the 1e-7 floor; the later widths sit on a plateau, so no rate
    # fits.  The gap is the profile's energy beyond the rule, to rounding.
    result = cli.run_experiment({**_EQUI_FLAT, "p": 1.708}, 1234, 0)
    assert result.passed
    assert max(result.summary["extras"]["energy_gap"]) > 1e-7
    assert max(_truncation_misses(result)) < 1e-11


def test_mistuned_profiles_fail_the_equipartition_checks():
    # tanh(2 s) at p != 2 on a flat patch misses the optimal profile's truncation by 0.54
    flat = cli.run_experiment({**_EQUI_FLAT, "p": 1.708, "profile": {"tanh_slope": 2.0}},
                              1234, 0)
    assert not flat.passed
    assert min(_truncation_misses(flat)) > 0.5
    # the sphere's lower_bound control still sees its defect: every residual stays above 1
    control = cli.run_experiment(_catalog_experiment("equipartition_sphere_mistuned"), 1234, 0)
    assert control.passed and min(control.summary["values"]) >= 1.0


def test_circle_equipartition_passes_the_optimal_profile(tmp_path):
    # the eps = 0.08 rule stops at s = 11.25, inside the p = 1.708 core, and the later widths
    # sit on a plateau of 1.8e-9 that no rate fits; the closed-form prediction is the gap
    exp = {"name": "circle", "kind": "equipartition", "p": 1.708,
           "geometry": {"type": "circle", "radius": 1.0, "nodes": 256},
           "schedule": {"eps0": 0.08, "count": 6}}
    out = tmp_path / "o"
    assert main(["run", _write(tmp_path, {"experiments": [exp]}), "--out", str(out)]) == 0
    gaps = json.loads((out / "circle.json").read_text())["extras"]["energy_gap"]
    assert gaps[0] > 1e-7  # above the floor, so a small-gap test alone would fail it


def test_mistuned_sphere_profile_fails_without_its_lower_bound(tmp_path):
    # residuals near 8 pi and energy gaps near 4.19 converge at rate 2 to their own limits;
    # with no rate escape both checks fail
    exp = _catalog_experiment("equipartition_sphere_mistuned")
    exp = {key: value for key, value in exp.items() if key != "lower_bound"}
    out = tmp_path / "o"
    assert main(["run", _write(tmp_path, {"experiments": [exp]}), "--out", str(out)]) == 1
    checks = json.loads((out / f"{exp['name']}.json").read_text())["checks"]
    assert [c["label"] for c in checks] == ["max_residual", "max_energy_miss"]
    assert not any(c["pass"] for c in checks)


def test_checks_decide_by_comparison_not_by_margin():
    negative = Check("rate", -0.5, 0.9, at_least=True)  # bound/value would read -1.8
    zero = Check("rate", 0.0, 0.9, at_least=True)  # and here would divide by zero
    nan = Check("gap", float("nan"), 1e-7)
    for check in (negative, zero, nan):
        assert not check.passed and check.margin == math.inf
    assert Check("gap", 2e-8, 1e-7).passed and Check("gap", 2e-8, 1e-7).margin == 0.2
    assert not Check("gap", 3e-7, 1e-7).passed
    control = Check("min_residual", 25.0, 1.0, at_least=True)
    assert control.passed and control.margin == 0.04
    assert Check("min_residual", 0.0, -1.0, at_least=True).margin == 0.0


def _margin(check):
    return math.inf if check["margin"] is None else check["margin"]  # inf is written as null


def test_every_catalog_verdict_is_the_and_of_its_checks(tmp_path, capsys):
    for name, _cfg in builtin_configs():
        out = tmp_path / name
        assert main(["run", name, "--out", str(out), "--seed", "1234", "--jobs", "2"]) == 0
        stdout = capsys.readouterr().out
        for entry in json.loads((out / "summary.json").read_text())["experiments"]:
            assert set(entry) == {"name", "kind", "pass", "worst_check", "runtime_s", "error"}
            checks = json.loads((out / f"{entry['name']}.json").read_text())["checks"]
            assert checks, entry["name"]
            for c in checks:
                held = c["value"] >= c["bound"] if c["at_least"] else c["value"] <= c["bound"]
                assert c["pass"] is held, (entry["name"], c)
            assert entry["pass"] is all(c["pass"] for c in checks)
            worst = entry["worst_check"]
            assert worst in checks and _margin(worst) == max(map(_margin, checks))
            assert f"{entry['name']}: PASS ({worst['label']} margin " in stdout


def test_summaries_are_strict_json(tmp_path, monkeypatch):
    def degenerate(*_args, **_kwargs):
        raise DegenerateReference("reference field has vanishing interface flux")

    def reject(token):
        raise ValueError(f"{token} is not JSON")

    monkeypatch.setattr(limits, "ac_limit_experiment", degenerate)
    monkeypatch.setattr(limits, "constrained_poincare_check", lambda *_args: (float("nan"), 1.0))
    cfg = {"experiments": [_AC, {**_POINCARE, "name": "nan"}]}
    out = tmp_path / "o"
    assert main(["run", _write(tmp_path, cfg), "--out", str(out)]) == 1
    summary = json.loads((out / "summary.json").read_text(), parse_constant=reject)
    errored, nan = summary["experiments"]
    assert errored["error"] and errored["worst_check"] is None and errored["pass"] is False
    assert nan["worst_check"]["value"] is None and nan["worst_check"]["margin"] is None
    assert json.loads((out / "nan.json").read_text(), parse_constant=reject)["lhs"] is None


def test_an_experiment_out_of_memory_fails_alone(tmp_path, capsys, monkeypatch):
    # numpy raises MemoryError where an allocation fails; that ended the whole run with a
    # traceback and no summary.json.  It is the experiment's error, and the run goes on.
    def exhausted(*_args, **_kwargs):
        raise MemoryError("Unable to allocate 14.9 GiB for an array with shape (1000000000, 2)")

    monkeypatch.setattr(limits, "ac_limit_experiment", exhausted)
    cfg = {"experiments": [_AC, {"name": "prof", **_PROFILE_P2}]}
    out = tmp_path / "o"
    assert main(["run", _write(tmp_path, cfg), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err and "numerical failure in: x" in captured.err
    assert "x: FAIL (no checks" in captured.out and "prof: PASS" in captured.out
    errored, passed = json.loads((out / "summary.json").read_text())["experiments"]
    assert errored["error"].startswith("out of memory: Unable to allocate 14.9 GiB")
    assert errored["pass"] is False and errored["worst_check"] is None
    assert json.loads((out / "x.json").read_text())["error"] == errored["error"]
    assert passed["pass"] is True and passed["error"] is None


def test_a_grid_that_does_not_fit_in_memory_is_a_config_error(tmp_path, capsys, monkeypatch):
    # "n_per_axis": 100000 asks leggauss for a 74.5 GiB matrix while the config is validated;
    # that ended the run with a raw traceback and exit 1
    def exhausted(*_args):
        raise MemoryError("Unable to allocate 74.5 GiB for an array with shape (100000, 100000)")

    keys = geometry._SHAPES["flat_patch"][1]
    monkeypatch.setitem(geometry._SHAPES, "flat_patch", (exhausted, keys))
    rc = main(["run", _write(tmp_path, {"experiments": [_AC]}), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2 and "Traceback" not in err
    assert err.startswith("config error: experiment 'x': geometry: shape 'flat_patch': Unable")
    assert not (tmp_path / "out").exists()


class _FakeLibc:
    """Stands in for ``ctypes.CDLL(None)``: records each ``mallopt`` call, returns ``answer``."""

    def __init__(self, answer):
        self.calls = []

        def mallopt(param, value):
            self.calls.append((param, value))
            return answer

        self.mallopt = mallopt


@pytest.mark.parametrize("answer", [1, 0], ids=["accepted", "refused"])
def test_on_glibc_a_run_sets_the_two_malloc_thresholds(monkeypatch, answer):
    libc = _FakeLibc(answer)
    monkeypatch.setattr(cli.os, "confstr", {"CS_GNU_LIBC_VERSION": "glibc 2.36"}.__getitem__)
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: libc if name is None else None)
    # a refusal is recorded, not raised
    assert cli._keep_heap_pages() == {"M_MMAP_THRESHOLD": answer == 1,
                                      "M_TRIM_THRESHOLD": answer == 1}
    assert libc.calls == [(-3, 32 * 2**20), (-1, 256 * 2**20)]
    assert libc.mallopt.argtypes == (cli.ctypes.c_int, cli.ctypes.c_int)


def _no_confstr_name(_name):
    raise ValueError("unrecognized configuration name")


@pytest.mark.parametrize("confstr", [lambda _name: None, lambda _name: "musl 1.2",
                                     _no_confstr_name], ids=["unset", "other_libc", "unknown_name"])
def test_off_glibc_a_run_calls_no_allocator_function(tmp_path, monkeypatch, confstr):
    def no_libc(_name):
        raise AssertionError("a C library was loaded off glibc")

    monkeypatch.setattr(cli.os, "confstr", confstr)
    monkeypatch.setattr(cli.ctypes, "CDLL", no_libc)
    assert cli._keep_heap_pages() is None
    cfg = _write(tmp_path, {"experiments": [{"name": "prof", **_PROFILE_P2}]})
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 0
    assert json.loads((tmp_path / "out" / "summary.json").read_text())["memory"]["mallopt"] is None


def test_flat_patch_normal_extensions_default_to_a_unit_cutoff(tmp_path):
    # with no cutoff_width the cutoff is the patch's default half width 1; an infinite one
    # would extend xi by the zero field, so lhs and every form would read 0
    sine = {"type": "trig", "dim": 2, "terms": [[1.0, [0.0, np.pi], 0.0, "sin"]]}
    cfg = {"schema_version": 1, "experiments": [
        {"name": "poin", "kind": "poincare", "geometry": _FLAT32, "xi": sine},
        {"name": "forms", "kind": "forms", "geometry": _FLAT32, "xi": sine,
         "schedule": {"eps0": 0.04, "count": 3}},
    ]}
    assert main(["run", _write(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 0
    poin = json.loads((tmp_path / "o" / "poin.json").read_text())
    assert poin["lhs"] == pytest.approx(np.pi**2, rel=1e-12)  # J(xi) = int pi^2 cos^2(pi y)
    forms = json.loads((tmp_path / "o" / "forms.json").read_text())
    assert forms["gap"] < 1e-8


def test_a_run_imports_neither_scipy_integrate_nor_optimize(tmp_path):
    # a run needs numpy alone: the profile ODEs run on innervar.ode, c_p, the profile tail
    # and the rotation oracle are closed forms, so neither importing the CLI nor one small
    # experiment of every kind loads any scipy module.  numpy loads some submodules
    # lazily: the CLI imports numpy.random itself, and the rate fit avoids np.median,
    # whose NaN check reads numpy.ma, so that no numpy module is first loaded inside a
    # timed experiment either.
    exps = [
        {"name": "prof", "kind": "profile", "p": 1.5},
        {"name": "ident", "kind": "identities", "dim": 3, "samples": 50, "cases": 1},
        {**_AC, "name": "ac"}, {**_GL, "name": "gl"}, {**_TENSORS, "name": "tens"},
        {"name": "equi", "kind": "equipartition", "geometry": _SPHERE, "p": 2.0,
         "schedule": {"eps0": 0.04, "count": 3}},
        {"name": "vol", "kind": "volume", "geometry": _SPHERE, "fields": {"random": 2}},
        {**_POINCARE, "name": "poin"},
        {"name": "forms", "kind": "forms", "geometry": _SPHERE, "xi": _POINCARE["xi"],
         "schedule": {"eps0": 0.08, "count": 3}},
    ]
    assert {exp["kind"] for exp in exps} == set(cli._KINDS)
    path = _write(tmp_path, {"schema_version": 1, "experiments": exps})
    script = (
        "import json, sys\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "from innervar import cli\n"
        "at_import = scipy_modules()\n"
        f"cli.validate_config(json.load(open({path!r})))\n"
        "validated = set(sys.modules)\n"
        f"rc = cli.main(['run', {path!r}, '--out', {str(tmp_path / 'out')!r}])\n"
        "late = sorted(m for m in set(sys.modules) - validated if m.split('.')[0] == 'numpy')\n"
        "print(json.dumps([rc, at_import, scipy_modules(), late]))\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=300, check=True)
    rc, at_import, after_run, late_numpy = json.loads(done.stdout.splitlines()[-1])
    assert rc == 0
    assert at_import == []
    assert after_run == []
    assert late_numpy == []
