"""Span tracer that wraps innervar's layer entry points from outside the package.

Nothing in ``src/innervar`` knows about tracing.  :meth:`Tracer.install`
replaces each entry point listed in ``_ENTRY_POINTS`` with a wrapper that
records a span (name, start, end, parent, experiment) on a per-thread stack.
Functions are replaced in every ``innervar`` module that holds them, because
``limits``, ``variation`` and ``cli`` import names with ``from ... import``;
methods are replaced on their class.  Spans stay in memory until
:meth:`Tracer.dump`; :meth:`Tracer.metrics` turns them into per-layer figures.
A layer's self time is its span's duration minus the durations of its direct
child spans, so the ``*_s`` metrics of all layers add up without overlap.
"""

from __future__ import annotations

import functools
import gzip
import json
import os
import sys
import threading
import time
import weakref

# bucket -> the metric that reports its self time
_TIME_METRICS = {
    "jets": "jets.s",
    "fields.eval": "fields.eval_s",
    "profiles.lookup": "profiles.lookup_s",
    "profiles.solve": "profiles.solve_s",
    "variation.kernel": "variation.kernel_s",
    "variation.quadrature": "variation.quadrature_s",
    "geometry": "geometry.s",
    "sums": "sums.s",
    "limits": "limits.self_s",
    "cli.validate": "cli.validate_s",
    "cli.io": "cli.io_s",
    "cli": "cli.self_s",
}

_JET_METHODS = ("coordinate", "constant", "variables", "__add__", "__radd__", "__neg__",
                "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__",
                "__rtruediv__", "reciprocal", "__pow__", "lift", "compose")

# (module, attribute or "Class.method", bucket, payload kind)
_ENTRY_POINTS = (
    [("jets", f"Jet.{m}", "jets", None) for m in _JET_METHODS]
    + [("jets", f, "jets", None) for f in ("jet_sqrt", "jet_exp", "jet_sin", "jet_cos",
                                            "jet_norm", "jet_polynomial")]
    + [("fields", f"{cls}.{m}", "fields.eval", "eval")
       for cls, methods in (("ScalarField", ("_values", "_gradients", "_hessians")),
                            ("VectorField", ("_values", "_jacobians", "_seconds")))
       for m in methods]
    + [("profiles", f"ProfileTable.{m}", "profiles.lookup", "points")
       for m in ("q", "dq", "ddq")]
    + [("profiles", f, "profiles.solve", "gl_profile" if f == "gl_radial_profile" else None)
       for f in ("optimal_profile", "gl_radial_profile")]
    + [("variation", f, "variation.kernel", "quad_nodes")
       for f in ("energy", "first_variation", "second_variation", "first_inner_variation",
                 "second_inner_variation", "inner_variation_oracle", "variation_report")]
    + [("variation", f, "variation.quadrature", None)
       for f in ("tube_rule", "filament_tube_rule", "tensor_grid", "vortex_radial_rule")]
    + [("geometry", f, "geometry", "shape")
       for f in ("circle", "sphere", "flat_patch", "straight_filament", "circular_filament",
                 "shape_from_config")]
    + [("geometry", f, "geometry", None)
       for f in ("surface_integral", "area_second_inner_variation", "pushforward_area",
                 "ac_discrepancy", "gl_discrepancy_densities", "gl_discrepancy",
                 "jacobi_form", "quadratic_form_limit", "normal_extension",
                 "enclosed_region_quadrature")]
    + [("sums", f, "sums", "elements") for f in ("pairwise_sum", "pairwise_dot")]
    + [("limits", f, "limits", "widths")
       for f in ("ac_limit_experiment", "equipartition_residuals",
                 "tensor_pairing_experiment", "gl_limit_experiment", "quadratic_forms")]
    + [("limits", f, "limits", None)
       for f in ("volume_admissibility", "boundary_flux", "constrained_poincare_check",
                 "perturbed_field", "extrapolate", "fitted_rate")]
    + [("cli", f, "cli.validate", None) for f in ("load_config", "validate_config")]
    + [("cli", "_write_csv", "cli.io", "file0"), ("cli", "_write_json", "cli.io", "file0"),
       ("profiles", "ProfileTable.to_csv", "cli.io", "file1")]
    + [("cli", "run_experiment", "cli", "experiment"), ("cli", "cmd_run", "cli", None)]
)

# instance attributes that shape builders and gl_radial_profile attach as closures
_SHAPE_CLOSURES = ("distance_jet", "transverse_jets")
_GL_CLOSURES = ("f", "df", "ddf")

# buckets whose calls and sizes are counted only on entry from another bucket,
# so that pairwise_dot -> pairwise_sum or dq -> q count once
_ENTRY_ONLY = {"profiles.lookup", "sums"}


class _Serials:
    """Stable serial numbers for live objects; a recycled id() gets a new serial."""

    def __init__(self):
        self._live = {}
        self._next = 0
        self._lock = threading.Lock()

    def __call__(self, obj) -> int:
        with self._lock:
            ent = self._live.get(id(obj))
            if ent is not None and ent[0]() is obj:
                return ent[1]
            self._next += 1
            self._live[id(obj)] = (weakref.ref(obj), self._next)
            return self._next


class _ThreadState:
    """What one thread recorded: its spans, its open-span stack and its counters."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.group = None
        self.jet_ops = 0
        self.jet_points = 0
        self.jet_bytes = 0
        self.fd_calls = 0


class Tracer:
    """In-memory span recorder for one traced process."""

    def __init__(self):
        self._tls = threading.local()
        self._threads = []  # one _ThreadState per thread that recorded
        self._lock = threading.Lock()
        self._names = []
        self._buckets = []
        self._ids = {}
        self._serials = _Serials()
        self._gl_profile_type = None
        self._quad_type = None
        self._sched_type = None

    # ---- recording -----------------------------------------------------

    def _local(self) -> _ThreadState:
        st = getattr(self._tls, "st", None)
        if st is None:
            st = self._tls.st = _ThreadState()
            with self._lock:
                self._threads.append(st)
        return st

    def _name_id(self, name: str, bucket: str) -> int:
        with self._lock:
            if name not in self._ids:
                self._ids[name] = len(self._names)
                self._names.append(name)
                self._buckets.append(bucket)
            return self._ids[name]

    def wrap(self, fn, name: str, bucket: str, payload=None):
        """Return ``fn`` wrapped so that each call records one span."""
        nid = self._name_id(name, bucket)
        clock = time.perf_counter_ns
        local = self._local
        is_root = payload == "experiment"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = local()
            stack = st.stack
            rec = [nid, 0, 0, stack[-1] if stack else -1, st.group, None]
            if is_root:
                st.group = args[0]["name"]
                rec[4] = st.group
            st.spans.append(rec)
            stack.append(len(st.spans) - 1)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
                if is_root:
                    st.group = None
            if payload is not None:
                rec[5] = self._payload(payload, args, kwargs, out)
            return out

        wrapper._perfbench_wrapped = True
        return wrapper

    def _payload(self, kind, args, kwargs, out):
        if kind == "eval":
            field, xb = args[0], args[1]
            return (self._serials(field), self._serials(xb))
        if kind == "points":
            return _size(args[1])
        if kind == "elements":
            return _size(args[-1])
        if kind == "quad_nodes":
            for a in list(args) + list(kwargs.values()):
                if isinstance(a, self._quad_type):
                    return int(a.nodes.shape[0])
            return 0
        if kind == "widths":
            for a in list(args) + list(kwargs.values()):
                if isinstance(a, self._sched_type):
                    return len(a.epsilons)
            return 0
        if kind in ("file0", "file1"):
            path = args[0] if kind == "file0" else args[1]
            return os.path.getsize(path)
        if kind == "shape":
            for attr in _SHAPE_CLOSURES:
                fn = getattr(out, attr, None)
                if fn is not None and not getattr(fn, "_perfbench_wrapped", False):
                    setattr(out, attr, self.wrap(fn, f"geometry.shape.{attr}", "geometry"))
            return None
        if kind == "gl_profile":
            if isinstance(out, self._gl_profile_type):
                for attr in _GL_CLOSURES:
                    fn = getattr(out, attr)
                    setattr(out, attr, self.wrap(fn, f"profiles.gl.{attr}", "profiles.lookup",
                                                 "gl_points"))
            return None
        if kind == "gl_points":
            return _size(args[0])
        return None

    def _count_init(self, init):
        local = self._local

        @functools.wraps(init)
        def counted(jet, val, grad, hess):
            init(jet, val, grad, hess)
            st = local()
            m = _size(val)
            st.jet_ops += 1
            st.jet_points += m
            st.jet_bytes += 8 * (m + _size(grad) + _size(hess))

        return counted

    def _count_calls(self, fn):
        local = self._local

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            local().fd_calls += 1
            return fn(*args, **kwargs)

        return counted

    # ---- installation --------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point in ``_ENTRY_POINTS`` (innervar must be imported)."""
        pkg = sys.modules["innervar"]
        mods = [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == "innervar" or name.startswith("innervar."))]
        self._gl_profile_type = pkg.profiles.GLRadialProfile
        self._quad_type = pkg.variation.BulkQuadrature
        self._sched_type = pkg.limits.EpsilonSchedule
        for mod_name, attr, bucket, payload in _ENTRY_POINTS:
            mod = getattr(pkg, mod_name)
            span = f"{mod_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, staticmethod):
                    setattr(cls, meth, staticmethod(self.wrap(raw.__func__, span, bucket, payload)))
                else:
                    setattr(cls, meth, self.wrap(raw, span, bucket, payload))
            else:
                _replace_everywhere(mods, getattr(mod, attr),
                                    self.wrap(getattr(mod, attr), span, bucket, payload))
        jet = pkg.jets.Jet
        jet.__init__ = self._count_init(jet.__init__)
        fd = pkg.fields._fd_steps
        _replace_everywhere(mods, fd, self._count_calls(fd))

    # ---- results -------------------------------------------------------

    def _states(self) -> list[_ThreadState]:
        with self._lock:
            return list(self._threads)

    def metrics(self, wall_s: float, jobs: int) -> dict:
        """Per-layer metrics over every span recorded so far.

        Self times are summed over threads, so with ``--jobs 2`` a layer can
        show more seconds than the pass took.  The part of ``cmd_run`` that
        waits on the thread pool while experiments run in other threads is
        reported as ``cli.pool_wait_s``; it is not ``cli`` self time.
        """
        self_ns = dict.fromkeys(_TIME_METRICS, 0)
        counts = {"fields.evals": 0, "profiles.lookup_calls": 0, "profiles.lookup_points": 0,
                  "profiles.solves": 0, "variation.kernel_calls": 0,
                  "variation.kernel_nodes": 0, "sums.calls": 0, "sums.elements": 0,
                  "limits.widths": 0, "cli.files_written": 0, "cli.bytes_written": 0}
        triples, pairs = set(), set()
        experiments = []  # (thread, start, end) of every cli.run_experiment span
        runs = []  # (thread, start, end) of every cli.cmd_run span
        states = self._states()
        for t, st in enumerate(states):
            spans = st.spans
            child_ns = [0] * len(spans)
            for rec in spans:
                if rec[3] >= 0:
                    child_ns[rec[3]] += rec[2] - rec[1]
            for i, (nid, start, end, parent, _group, payload) in enumerate(spans):
                bucket, name = self._buckets[nid], self._names[nid]
                self_ns[bucket] += end - start - child_ns[i]
                if bucket in _ENTRY_ONLY and parent >= 0 and \
                        self._buckets[spans[parent][0]] == bucket:
                    continue
                if bucket == "fields.eval":
                    counts["fields.evals"] += 1
                    triples.add((payload, name))
                    pairs.add(payload)
                elif bucket == "profiles.lookup":
                    counts["profiles.lookup_calls"] += 1
                    counts["profiles.lookup_points"] += payload
                elif bucket == "profiles.solve":
                    counts["profiles.solves"] += 1
                elif bucket == "variation.kernel":
                    counts["variation.kernel_calls"] += 1
                    counts["variation.kernel_nodes"] += payload
                elif bucket == "sums":
                    counts["sums.calls"] += 1
                    counts["sums.elements"] += payload
                elif bucket == "limits" and payload:
                    counts["limits.widths"] += payload
                elif bucket == "cli.io":
                    counts["cli.files_written"] += 1
                    counts["cli.bytes_written"] += payload
                elif name == "cli.run_experiment":
                    experiments.append((t, start, end))
                elif name == "cli.cmd_run":
                    runs.append((t, start, end))
        wait_ns = sum(_covered([(s, e) for t2, s, e in experiments if t2 != t], lo, hi)
                      for t, lo, hi in runs)
        self_ns["cli"] -= wait_ns
        out = {_TIME_METRICS[b]: ns * 1e-9 for b, ns in self_ns.items()}
        out["cli.pool_wait_s"] = wait_ns * 1e-9
        out.update(counts)
        out["jets.ops"] = sum(st.jet_ops for st in states)
        out["jets.points"] = sum(st.jet_points for st in states)
        out["jets.bytes_computed"] = sum(st.jet_bytes for st in states)
        out["fields.distinct_evals"] = len(triples)
        out["fields.useful_ratio"] = len(pairs) / max(1, counts["fields.evals"])
        out["fields.fd_fallback_calls"] = sum(st.fd_calls for st in states)
        out["cli.parallel_efficiency"] = (sum(e - s for _t, s, e in experiments) * 1e-9
                                          / (wall_s * jobs))
        return out

    def dump(self, path) -> int:
        """Write every span as one JSON line (gzip); return the number written."""
        n = 0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for thread_no, st in enumerate(self._states()):
                for i, (nid, start, end, parent, group, _payload) in enumerate(st.spans):
                    fh.write(json.dumps([thread_no, i, self._names[nid], start, end, parent,
                                         group]) + "\n")
                    n += 1
        return n


def _covered(intervals, lo: int, hi: int) -> int:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total, reach = 0, lo
    for s, e in sorted(intervals):
        s, e = max(s, reach), min(e, hi)
        if e > s:
            total += e - s
            reach = e
    return total


def _size(a) -> int:
    shape = getattr(a, "shape", None)
    if shape is None:
        return 1
    n = 1
    for k in shape:
        n *= k
    return n


def _replace_everywhere(mods, orig, new) -> None:
    for mod in mods:
        for key, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, key, new)
