"""The in-package DOP853 integrator and Brent root finder against scipy, bit for bit."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.integrate._ivp import dop853_coefficients as scipy_tableau
from scipy.optimize import brentq as scipy_brentq

from innervar import ode

EPS = np.finfo(float).eps
# the two tolerance pairs innervar uses: GL shooting, and event location
TOLERANCES = [(1e-12, 4 * EPS), (4 * EPS, 4 * EPS)]


def test_tableau_is_scipys():
    for name in ("C", "A", "B", "E3", "E5", "D"):
        assert np.array_equal(getattr(ode, name), getattr(scipy_tableau, name)), name
    for name in ("N_STAGES", "N_STAGES_EXTENDED", "INTERPOLATOR_POWER"):
        assert getattr(ode, name) == getattr(scipy_tableau, name)


def _recording(fn):
    """fn, and the list of points it was called at."""
    seen = []

    def f(x):
        seen.append(x)
        return fn(x)

    return f, seen


@settings(max_examples=200, deadline=None)
@given(lo=st.floats(-50.0, 50.0), width=st.floats(1e-6, 100.0), where=st.floats(0.0, 1.0),
       b=st.floats(-3.0, 3.0), c=st.floats(1e-3, 10.0), scale=st.floats(1e-6, 1e6),
       tol=st.sampled_from(TOLERANCES))
def test_brentq_matches_scipy_on_random_brackets(lo, width, where, b, c, scale, tol):
    # a cubic with one real root inside the bracket; b and c shape the steps Brent takes
    hi = lo + width
    root = lo + where * width
    assume(lo < hi)

    def cubic(x):
        return scale * (x - root) * ((x - root - b) ** 2 + c)

    xtol, rtol = tol
    ours, ours_at = _recording(cubic)
    theirs, theirs_at = _recording(cubic)
    got = ode.brentq(ours, lo, hi, xtol=xtol, rtol=rtol)
    assert got == scipy_brentq(theirs, lo, hi, xtol=xtol, rtol=rtol)
    assert ours_at == theirs_at  # the same points, in the same order


@pytest.mark.parametrize("tol", TOLERANCES)
def test_brentq_returns_an_exact_root_at_either_end(tol):
    xtol, rtol = tol
    for a, b in ((1.0, 3.0), (-2.0, 1.0)):
        assert ode.brentq(lambda x: x - 1.0, a, b, xtol=xtol, rtol=rtol) == 1.0
        assert scipy_brentq(lambda x: x - 1.0, a, b, xtol=xtol, rtol=rtol) == 1.0


def test_brentq_rejects_a_bracket_without_a_sign_change():
    for a, b in ((2.0, 3.0), (-3.0, -2.0)):
        with pytest.raises(ValueError):
            scipy_brentq(lambda x: x * x - 1.0, a, b)
        with pytest.raises(ValueError):
            ode.brentq(lambda x: x * x - 1.0, a, b)


@settings(max_examples=30, deadline=None)
@given(entries=st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
       y0=st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2),
       t_end=st.floats(0.5, 20.0), backward=st.booleans(), level=st.floats(-1.0, 1.0),
       direction=st.sampled_from([-1.0, 0.0, 1.0]), dense=st.booleans(),
       rtol=st.sampled_from([1e-6, 1e-11]), max_step=st.sampled_from([np.inf, 0.05, 0.7]))
def test_dop853_matches_solve_ivp_on_random_linear_systems(entries, y0, t_end, backward, level,
                                                           direction, dense, rtol, max_step):
    matrix = np.array(entries).reshape(2, 2)
    t_span = (t_end, 0.0) if backward else (0.0, t_end)

    def fun(_t, y):
        return matrix @ y

    def event(_t, y):
        return y[0] - level

    def events(t, y):
        return event(t, y)

    events.terminal = True
    events.direction = direction
    ref = solve_ivp(fun, t_span, y0, method="DOP853", rtol=rtol, atol=1e-3 * rtol,
                    dense_output=dense, events=events, max_step=max_step)
    ours = ode.dop853(fun, t_span, y0, rtol, 1e-3 * rtol, event=event, direction=direction,
                      dense_output=dense, max_step=max_step)
    steps = np.abs(np.diff(ours.t))
    assert np.max(steps, initial=0.0) <= max_step * (1.0 + 1e-12)  # t + h - t rounds
    assert np.array_equal(ours.t, ref.t) and np.array_equal(ours.y, ref.y)
    assert np.array_equal(ours.t_events, ref.t_events[0])
    assert (ours.status, ours.message, ours.nfev) == (ref.status, ref.message, ref.nfev)
    if dense:
        parts = ref.sol.interpolants
        assert np.array_equal(ours.t_old, [f.t_old for f in parts])
        assert np.array_equal(ours.h, [f.h for f in parts])
        assert np.array_equal(ours.F, np.stack([f.F.T for f in parts], axis=2))
        assert np.array_equal(ours.y_old, np.stack([f.y_old for f in parts], axis=1))


def test_joined_solve_is_one_table():
    def fun(_t, y):
        return -y

    head = ode.dop853(fun, (0.0, 1.0), [1.0], 1e-12, 1e-14, dense_output=True)
    tail = ode.dop853(fun, (1.0, 3.0), head.y[:, -1], 1e-12, 1e-14, dense_output=True)
    both = ode.joined(head, tail)
    assert np.array_equal(both.t, np.concatenate([head.t, tail.t[1:]]))
    assert both.y.shape == (1, both.t.size) and both.h.size == both.F.shape[2] == both.t.size - 1
    t = np.linspace(0.0, 3.0, 61)
    table = ode.DenseOutput(both)
    assert np.array_equal(table(t[t <= 1.0], 0), ode.DenseOutput(head)(t[t <= 1.0], 0))
    assert np.array_equal(table(t[t > 1.0], 0), ode.DenseOutput(tail)(t[t > 1.0], 0))
    assert np.max(np.abs(table(t, 0) - np.exp(-t))) < 1e-12
