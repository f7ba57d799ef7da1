"""Every name the benchmark's span tracer wraps must exist in the package.

``perfbench/tracer.py`` wraps innervar's entry points by module and name from
outside the package.  A rename that drops one of those names would otherwise
show up only as a failed traced benchmark run; here it fails the test suite.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

import innervar
from innervar import geometry, profiles
from innervar.jets import Jet

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer_contract", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _tracer()


@pytest.mark.parametrize("module,attr", sorted({(m, a) for m, a, _b, _p in TRACER._ENTRY_POINTS}))
def test_traced_entry_point_exists(module, attr):
    mod = importlib.import_module(f"innervar.{module}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert meth in vars(getattr(mod, cls_name)), f"{module}.{attr} is not defined on the class"
    else:
        assert callable(getattr(mod, attr, None)), f"{module}.{attr} is missing"


def test_traced_instance_closures_and_counters_exist():
    shapes = [geometry.circle(1.0, n_nodes=8), geometry.sphere(1.0, n_polar=4, n_azimuth=8),
              geometry.flat_patch(2, n_per_axis=4), geometry.straight_filament(n_nodes=4),
              geometry.circular_filament(1.0, n_nodes=8)]
    for shape in shapes:
        assert any(callable(getattr(shape, a, None)) for a in TRACER._SHAPE_CLOSURES)
    prof = profiles.gl_radial_profile()
    for attr in TRACER._GL_CLOSURES:
        assert callable(getattr(prof, attr))
    assert callable(innervar.fields._fd_steps)
    # the tracer replaces Jet.__init__ with counted(jet, val, grad, hess)
    assert list(inspect.signature(Jet.__init__).parameters) == ["self", "val", "grad", "hess"]
    x = np.zeros((2, 3))
    for order in (1, 2):
        jet = Jet.coordinate(x, 0, order)
        assert (jet.hess is None) == (order == 1)
