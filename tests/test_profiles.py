"""Transition profiles, surface-tension constants, and ansatz fields."""

import functools
import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.optimize import brentq as scipy_brentq
from scipy.special import beta, betainc, betaincinv, gamma, hyp2f1, roots_jacobi

from innervar import cli, ode
from innervar import geometry as G
from innervar import limits as L
from innervar import profiles as P
from innervar import variation as V
from innervar.errors import EpsilonTooLarge, InnervarError, StiffTail


def test_constant_known_values():
    assert P.c_p(2.0) == pytest.approx(4.0 / 3.0, abs=1e-12)
    assert P.c_p(1.0) == pytest.approx(2.0, abs=1e-12)


def test_constant_matches_gamma_oracle():
    a = 2.0 * (3.0 - 1.0) / 3.0  # = 4/3 for p = 3
    oracle = np.sqrt(np.pi) * gamma(a + 1.0) / gamma(a + 1.5)
    assert P.c_p(3.0) == pytest.approx(oracle, abs=1e-10)
    for p in (1.25, 1.5, 2.7, 4.0):
        assert P.c_p(p) == pytest.approx(P.c_p_beta_oracle(p), rel=1e-12)


def _flat_sweep_p_values(seed):
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads_p_values", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.flat_p_values(seed)


# c_p is its Gamma-ratio closed form on math.gamma; both scipy references (the 24-point
# Gauss-Jacobi moment and scipy's own Gamma ratio) agree with it within 1.5e-15 relative
# over 32000 drawn p, so 4e-15 (18 ulp) leaves room without hiding a wrong formula
_C_P_REL = 4e-15


def _assert_c_p_matches_scipy(p):
    a = 2.0 * (p - 1.0) / p
    for ref in (float(np.sum(roots_jacobi(24, a, a)[1])),
                float(np.sqrt(np.pi) * gamma(a + 1.0) / gamma(a + 1.5))):
        assert abs(P.c_p(p) - ref) <= _C_P_REL * ref, (p, ref)


def test_constant_matches_roots_jacobi_and_gamma():
    # the catalog's p values, the equipartition near-miss range and the p values the
    # benchmark's flat sweep draws at its default and held-out seeds
    ps = [1.25, 1.5, 2.0, 3.0, 1.708, 1.731,
          *_flat_sweep_p_values(1234), *_flat_sweep_p_values(4321)]
    for p in ps:
        _assert_c_p_matches_scipy(p)


@settings(max_examples=200, deadline=None)
@given(p=st.floats(1.0, 8.0, exclude_min=True))
def test_constant_matches_roots_jacobi_and_gamma_for_any_p(p):
    _assert_c_p_matches_scipy(p)


@settings(max_examples=60, deadline=None)
@given(p=st.floats(1.0, 8.0, exclude_min=True), where=st.floats(0.0, 1.0))
def test_tail_energy_matches_upper_tail_betainc(p, where):
    # int_z^1 (1-t^2)^a dt = c_p I_{(1-z)/2}(a+1, a+1): the upper tail, which betainc
    # evaluates without cancellation; 2e-15 is the worst gap seen over 9000 draws
    try:
        prof = P.optimal_profile(p)
    except StiffTail:
        assume(False)  # the table stalls below p of about 1.03 (see the stiff-tail test)
    s = where * prof.s_max
    a = 2.0 * (p - 1.0) / p
    y = 1.0 - abs(prof.q(s))
    ref = float(np.sqrt(np.pi) * gamma(a + 1.0) / gamma(a + 1.5)) * betainc(a + 1.0, a + 1.0, y / 2)
    assert abs(prof.tail_energy(s) - ref) <= 1e-14 * ref, (p, s, y)


def test_constant_monotone_toward_p1():
    values = [P.c_p(p) for p in (1.0, 1.05, 1.25, 1.5, 2.0)]
    assert values[0] == 2.0
    assert all(a > b for a, b in zip(values, values[1:]))


def test_profile_p2_is_closed_form():
    prof = P.optimal_profile(2.0)
    s = np.linspace(-8.0, 8.0, 1601)
    assert np.max(np.abs(prof.q(s) - np.tanh(s))) <= 1e-9


def test_profile_origin_and_monotone():
    for p in (1.25, 1.5, 2.0, 3.0):
        prof = P.optimal_profile(p)
        assert prof.q(0.0) == pytest.approx(0.0, abs=1e-14)
        assert prof.dq(0.0) == pytest.approx(1.0, abs=1e-12)
        s = np.linspace(-prof.s_max, prof.s_max, 201)
        q = prof.q(s)
        assert np.all(np.diff(q) >= -1e-14)
        assert np.max(np.abs(q)) <= 1.0
        s_pos = np.linspace(0.1, prof.s_max, 100)
        np.testing.assert_allclose(prof.q(-s_pos), -prof.q(s_pos), atol=1e-12)  # odd
        assert 1.0 - prof.q(prof.s_max * (1 - 1e-12)) <= 1e-8


def test_profile_pointwise_equipartition_independent_route():
    # |q'|^p = W(q) checked with a finite-difference derivative of the table
    for p in (1.5, 2.0, 3.0):
        prof = P.optimal_profile(p)
        s = np.linspace(0.01, min(prof.s_max * 0.95, 30.0), 400)
        h = 1e-6
        dq_fd = (prof.q(s + h) - prof.q(s - h)) / (2 * h)
        res = np.abs(np.abs(dq_fd) ** p - (1 - prof.q(s) ** 2) ** 2)
        assert np.max(res) <= 1e-8


def test_profile_energy_identity():
    # int |q'|^p/p + W(q)/q_conj ds = c_p
    for p in (1.25, 2.0, 3.0):
        prof = P.optimal_profile(p)
        d, w = P.transverse_rule(prof, 1.0, np.inf)
        q, dq, _ = prof.derivatives(d, 1)
        val = float(np.sum(w * (np.abs(dq) ** p / p + (1.0 - q**2) ** 2 / (p / (p - 1.0)))))
        assert val == pytest.approx(P.c_p(p), abs=1e-8)


def test_profile_stiff_tail_reported():
    # p barely above 1: the tail is so slow the integration window cannot
    # reach 1 - 1e-9, which the constructor must report rather than mask
    with pytest.raises(StiffTail):
        P.optimal_profile(1.005)


def test_profile_table_export(tmp_path):
    prof = P.optimal_profile(2.0)
    path = tmp_path / "profile.csv"
    prof.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "s,q,dq"
    assert len(lines) == len(prof.s_grid) + 1
    assert [p.name for p in tmp_path.iterdir()] == ["profile.csv"]


def test_profile_table_export_interrupted_keeps_the_old_file(tmp_path, monkeypatch):
    # the table goes through a .tmp file, as every other output does: a write that stops
    # half way leaves the previous table whole instead of a truncated one
    prof = P.optimal_profile(2.0)
    path = tmp_path / "profile.csv"
    path.write_text("old\n")

    class Interrupted(Exception):
        pass

    class HalfWriter:
        def __init__(self, fh, **_kw):
            self.fh = fh

        def writerow(self, _row):
            self.fh.write("partial\n")
            raise Interrupted

    monkeypatch.setattr(P.csv, "writer", HalfWriter)
    with pytest.raises(Interrupted):
        prof.to_csv(path)
    assert path.read_text() == "old\n"


def test_ansatz_values_on_and_off_interface():
    g = G.flat_patch(2)
    prof = P.optimal_profile(2.0)
    eps = 0.05
    u = P.ansatz_field(g, eps, prof)
    assert u.eval(np.array([0.0, 0.3])) == pytest.approx(0.0, abs=1e-14)
    far = eps * prof.s_max * 1.01
    assert abs(u.eval(np.array([far, 0.0])) - 1.0) <= 1e-8
    assert abs(u.eval(np.array([-far, 0.0])) + 1.0) <= 1e-8


def test_ansatz_energy_flat_interface():
    # E_{eps,2}(u_eps) approaches c_2 * interface length exponentially
    g = G.flat_patch(2, n_per_axis=32)
    prof = P.optimal_profile(2.0)
    eps = 0.05
    u = P.ansatz_field(g, eps, prof)
    d, w = P.transverse_rule(prof, eps, 1.0)
    quad = V.tube_rule(g, d, w)
    e = V.energy(V.integrand_p_allen_cahn(eps, 2.0), u, quad)
    assert abs(e - (4.0 / 3.0) * 2.0) <= 1e-6


def test_ansatz_epsilon_too_large():
    g = G.sphere(1.0, n_polar=8, n_azimuth=16)
    prof = P.optimal_profile(2.0)
    with pytest.raises(EpsilonTooLarge):
        P.ansatz_field(g, 0.5, prof)


def test_gl_profile_ode_properties():
    prof = P.gl_radial_profile()
    assert 0.55 <= prof.slope0 <= 0.61
    r = np.linspace(0.0, 25.0, 400)
    f = prof.f(r)
    assert f[0] == pytest.approx(0.0, abs=1e-7)
    assert np.all(np.diff(f) > -1e-10)
    assert np.all((f >= -1e-12) & (f <= 1.0 + 1e-12))
    assert 1.0 - prof.f(np.array([25.0]))[0] <= 1e-3


_SLOPE, _OTHER_END = P._GL_BRACKET
_BAD_BRACKETS = [
    ("same_sign_ends", (_SLOPE, 2.0 * _SLOPE - _OTHER_END), "bracket no root"),
    ("ends_1e-9_apart", (_SLOPE, _SLOPE - 1e-9), "wider than brentq's stopping width"),
    ("slope_overshoots_into_the_blowup", (0.8, 0.8 - 1e-13), "stops before r = 16"),
]


@pytest.mark.parametrize("bracket,reason", [(b, r) for _, b, r in _BAD_BRACKETS],
                         ids=[case for case, *_ in _BAD_BRACKETS])
def test_gl_slope_certificate_rejects_a_bad_bracket(tmp_path, capsys, monkeypatch,
                                                     bracket, reason):
    monkeypatch.setattr(P, "_GL_BRACKET", bracket)
    with pytest.raises(InnervarError, match=reason):
        P.gl_radial_profile()
    # a gl-converge run solves its own profile, fails its experiments and says why
    monkeypatch.setattr(L, "_PROFILES", {})
    cfg = tmp_path / "gl.json"
    cfg.write_text(json.dumps(dict(cli.builtin_configs())["gl_straight"]))
    rc = cli.main(["run", str(cfg), "--out", str(tmp_path / "out")])
    out, err = capsys.readouterr()
    assert rc == 1
    assert "Traceback" not in out + err and out.count(reason) == 2


def test_gl_profile_derivatives_match_finite_differences():
    prof = P.gl_radial_profile()
    h = 1e-6
    for r in (0.3, 1.7, 9.0, 20.0):  # near the axis, the core, the tail and the far field
        mid = np.array([r])
        assert prof.df(mid)[0] == pytest.approx(
            (prof.f(mid + h)[0] - prof.f(mid - h)[0]) / (2 * h), abs=1e-8)
        assert prof.ddf(mid)[0] == pytest.approx(
            (prof.df(mid + h)[0] - prof.df(mid - h)[0]) / (2 * h), abs=1e-7)


@pytest.mark.filterwarnings("error")
def test_gl_profile_is_its_near_field_on_the_axis():
    # on r <= r0 the profile is f = slope0 r, so f'' = 0 there, with no warning at r = 0
    prof = P.gl_radial_profile()
    r = np.array([0.0, 0.5 * P._GL_R0, P._GL_R0])
    f, df, ddf = prof.derivatives(r)
    assert np.array_equal(f, prof.slope0 * r)
    assert np.array_equal(df, np.full(3, prof.slope0))
    assert np.array_equal(ddf, np.zeros(3)) and np.array_equal(prof.ddf(r), ddf)


def test_vortex_field_values_and_gradient():
    fil = G.straight_filament(1.0, 8)
    prof = P.gl_radial_profile()
    eps = 0.1
    u = P.gl_vortex_field(fil, eps, prof)
    # zero on the filament
    np.testing.assert_allclose(u.eval(fil.nodes), 0.0, atol=1e-12)
    # modulus approaches 1 away from the core
    x = np.array([0.5, 0.3, 0.4])
    val = u.eval(x)
    rho = np.hypot(0.3, 0.4)
    assert np.hypot(*val) == pytest.approx(prof.f(np.array([rho / eps]))[0], rel=1e-12)
    # analytic gradient against finite differences
    gv = u.gradient(x)
    h = 1e-6
    for j in range(3):
        dx = np.zeros(3)
        dx[j] = h
        fd = (u.eval(x + dx) - u.eval(x - dx)) / (2 * h)
        np.testing.assert_allclose(gv[:, j], fd, atol=1e-8)


def test_vortex_field_on_circular_filament():
    fil = G.circular_filament(0.8, 32)
    prof = P.gl_radial_profile()
    u = P.gl_vortex_field(fil, 0.05, prof)
    np.testing.assert_allclose(u.eval(fil.nodes), 0.0, atol=1e-12)
    x = np.array([0.8 + 0.03, 0.0, 0.04])
    val = u.eval(x)
    assert np.hypot(*val) == pytest.approx(prof.f(np.array([0.05 / 0.05]))[0], rel=1e-12)


def test_custom_profile_field():
    g = G.flat_patch(2)
    u = P.tanh_profile_field(g, 0.1, 2.0)
    assert u.eval(np.array([0.05, 0.0])) == pytest.approx(np.tanh(2 * 0.5), rel=1e-12)


# ---------------------------------------------------------------------------
# the in-package DOP853 solves and their table against scipy's solve_ivp
# ---------------------------------------------------------------------------


def _scipy_solve(fun, t_span, y0, rtol, atol, event=None, direction=0.0, dense_output=False,
                 max_step=np.inf):
    """scipy's ``solve_ivp`` on the arguments of an ``ode.dop853`` call."""
    events = None
    if event is not None:
        def events(t, y):
            return event(t, y)

        events.terminal = True
        events.direction = direction
    return solve_ivp(fun, t_span, y0, method="DOP853", rtol=rtol, atol=atol,
                     dense_output=dense_output, events=events, max_step=max_step)


@pytest.fixture(scope="module")
def recorded_solves():
    """(profiles by label, [(label, args, kwargs, our solve, scipy's solve)], searched slope)
    for every ``ode.dop853`` call behind the optimal profiles and the GL profile, and behind
    the full GL shooting search, whose shots are labelled "gl-ode" too."""
    calls = []

    def recording(*args, **kwargs):
        sol = ode.dop853(*args, **kwargs)
        calls.append((args, kwargs, sol))
        return sol

    searched = []

    def gl_profile_and_search():
        # the build shoots twice; the search whose final bracket it ships shoots many times
        prof = P.gl_radial_profile()
        searched.append(ode.brentq(P.gl_shot, 0.4, 0.8, xtol=1e-12))
        return prof

    recipes = {f"p={p:g}": functools.partial(P.optimal_profile, p)
               for p in (1.25, 1.5, 1.708, 2.0, 3.0)}
    recipes["gl-ode"] = gl_profile_and_search
    profiles, solves = {}, []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(P, "dop853", recording)
        for label, build in recipes.items():
            profiles[label] = build()
            solves += [(label, args, kwargs, sol, _scipy_solve(*args, **kwargs))
                       for args, kwargs, sol in calls]
            calls.clear()
    return profiles, solves, searched[0]


@pytest.fixture(scope="module")
def dense_solutions(recorded_solves):
    """(label, profile, our solve, scipy's OdeSolution) for every table ``ode.DenseOutput`` serves."""
    profiles, solves, _slope = recorded_solves
    dense = [(label, profiles[label], ours, ref.sol)
             for label, _args, kwargs, ours, ref in solves if kwargs.get("dense_output")]
    assert [d[0] for d in dense] == list(profiles)  # one table per profile
    return dense


def test_dop853_is_bit_identical_to_solve_ivp(recorded_solves):
    _profiles, solves, _slope = recorded_solves
    for label, _args, kwargs, ours, ref in solves:
        assert np.array_equal(ours.t, ref.t) and np.array_equal(ours.y, ref.y), label
        assert (ours.status, ours.message, ours.nfev) == (ref.status, ref.message, ref.nfev)
        if kwargs.get("event") is not None:
            assert np.array_equal(ours.t_events, ref.t_events[0])
        if kwargs.get("dense_output"):
            parts = ref.sol.interpolants
            assert np.array_equal(ours.t, ref.sol.ts)
            assert np.array_equal(ours.t_old, [f.t_old for f in parts])
            assert np.array_equal(ours.h, [f.h for f in parts])
            assert np.array_equal(ours.F, np.stack([f.F.T for f in parts], axis=2))
            assert np.array_equal(ours.y_old, np.stack([f.y_old for f in parts], axis=1))
    # every profile solve stops at its terminal event; the GL shooting search brackets
    # its slope, so some shots overshoot into the blowup event and some reach r_max
    assert all(ours.status == 1 for label, *_, ours, _ref in solves if label != "gl-ode")
    shots = [ours for label, _args, kwargs, ours, _ref in solves
             if label == "gl-ode" and not kwargs.get("dense_output")]
    assert len(shots) >= 5
    assert {sol.status for sol in shots} == {0, 1}


def test_gl_shooting_lands_on_scipys_slope(recorded_solves):
    # each shot's residual comes from its t_events and y, compared bit for bit above;
    # scipy's brentq over scipy's solves must then pick the slope the profile ships,
    # and so must ode.brentq over the module's shooting function
    profiles, solves, slope = recorded_solves
    _label, (fun, (r0, r_max), _y0), kwargs, _ours, _ref = next(
        s for s in solves if s[0] == "gl-ode" and not s[2].get("dense_output"))

    def shoot(alpha):
        sol = _scipy_solve(fun, (r0, r_max), [alpha * r0, alpha], **kwargs)
        if sol.t_events[0].size:
            return 1.0
        return sol.y[0][-1] - (1.0 - 0.5 / r_max**2)

    assert scipy_brentq(shoot, 0.4, 0.8, xtol=1e-12) == profiles["gl-ode"].slope0
    assert slope == profiles["gl-ode"].slope0 == P._GL_BRACKET[0]


def _assert_table_matches(ours, sol, t):
    table = ode.DenseOutput(ours)
    expected = sol(t)
    for j in range(expected.shape[0]):
        got = table(t, j)
        assert got.shape == expected[j].shape
        assert np.array_equal(got, expected[j])


def test_dense_table_is_bit_identical_to_scipy(dense_solutions):
    rng = np.random.default_rng(7)
    for _label, _prof, ours, sol in dense_solutions:
        knots = sol.ts
        end = knots[-1]
        inside = rng.uniform(knots[0], end, 500)
        for t in (knots, knots[::-1], np.array([0.0]), np.array([end, 1.5 * end, 3.0 * end]),
                  inside, rng.permutation(np.concatenate([inside[:50], inside[:50], knots[:20]])),
                  np.repeat(knots[3:6], 4)):
            _assert_table_matches(ours, sol, t)
        for t in (0.0, knots[7], 0.5 * (knots[7] + knots[8]), 2.0 * end):
            _assert_table_matches(ours, sol, t)  # scalar input takes scipy's single-point path


def test_profile_lookups_read_the_dense_table(dense_solutions):
    for label, prof, _ours, sol in dense_solutions:
        if label == "gl-ode":
            r = np.linspace(0.01, prof.r_max, 301)[:-1]
            assert np.array_equal(prof.f(r), sol(r)[0])
            assert np.array_equal(prof.df(r), sol(r)[1])
        else:
            s = np.linspace(0.0, prof.s_max, 301)[:-1]
            assert np.array_equal(prof.q(s), np.clip(sol(s)[0], -1.0, 1.0))
            assert np.array_equal(prof.q(-s), -np.clip(sol(s)[0], -1.0, 1.0))


@settings(max_examples=60, deadline=None)
@given(case=st.integers(0, 5),
       fractions=st.lists(st.floats(-0.1, 1.2, allow_nan=False), min_size=1, max_size=40))
def test_dense_table_property_random_points(dense_solutions, case, fractions):
    _label, _prof, ours, sol = dense_solutions[case]
    _assert_table_matches(ours, sol, sol.ts[-1] * np.array(fractions))


# ---------------------------------------------------------------------------
# closed forms of the profile at every p
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", [1.25, 1.5, 2.0, 2.5, 3.0])
def test_profile_matches_hypergeometric_and_beta_closed_forms(p):
    # s(q) = int_0^q (1 - t^2)^(-2/p) dt = q 2F1(1/2, 2/p; 3/2; q^2) for every p; for p > 2
    # the integral stays finite at q = 1 and inverts through the regularized incomplete beta
    prof = P.optimal_profile(p)
    s = np.linspace(0.0, prof.s_transition, 2001)
    q = prof.q(s)
    assert np.max(np.abs(q * hyp2f1(0.5, 2.0 / p, 1.5, q * q) - s)) <= 1e-8
    if p > 2.0:
        b = 1.0 - 2.0 / p
        scale = 4.0 ** (b - 1.0) * beta(b, b)
        q_exact = 2.0 * betaincinv(b, b, 0.5 * (s / scale + 1.0)) - 1.0
        assert np.max(np.abs(q - q_exact)) <= 1e-11


def test_second_moment_matches_its_closed_form_at_p2():
    # int t^2 sech^4 t dt over the line is (pi^2 - 6)/9; the core radius cuts a tail of 1e-8
    prof = P.optimal_profile(2.0)
    exact = (np.pi**2 - 6.0) / 9.0
    assert abs(prof.second_moment(prof.s_max) - exact) <= 1e-12
    assert abs(prof.second_moment(prof.s_core) - exact) <= 1e-7


def _s_of_q(q: float, p: float) -> float:
    """s(q) = q 2F1(1/2, 2/p; 3/2; q^2), summed until the terms stop counting."""
    x, b = q * q, 2.0 / p
    term, total, n = 1.0, 1.0, 0
    while abs(term) > 1e-17 * total:
        term *= (0.5 + n) * (b + n) / ((1.5 + n) * (n + 1.0)) * x
        total += term
        n += 1
    return q * total


@settings(max_examples=40, deadline=None)
@given(p=st.floats(1.0, 8.0, exclude_min=True))
def test_profile_inverts_the_hypergeometric_series_for_any_p(p):
    # q' = (1 - q^2)^(2/p) inverts to s(q) = int_0^q (1 - t^2)^(-2/p) dt, a series on math
    try:
        prof = P.optimal_profile(p)
    except StiffTail:  # below p of about 1.028 the table cannot reach 1 - 1e-9 by s = 1e7
        assert p < 1.05
        return
    qs = np.linspace(-0.9, 0.9, 37)
    s = np.array([_s_of_q(float(q), p) for q in qs])
    assert np.max(np.abs(prof.q(s) - qs)) <= 1e-10  # 2.3e-11 at worst over 2000 p in [1.03, 8]
    if p > 2.0:  # the profile reaches 1 at s* = B(1/2, 1 - 2/p)/2, beyond the table's end
        a = 1.0 - 2.0 / p
        s_star = 0.5 * math.exp(math.lgamma(0.5) + math.lgamma(a) - math.lgamma(0.5 + a))
        assert prof.s_max <= s_star


@pytest.mark.parametrize("p", [4.1886887, 4.1953125, 4.2109375])
def test_profile_redoes_the_steps_dop853_misjudges(p, monkeypatch):
    # near p = 4.2 DOP853's error estimate accepts steps that miss q by up to 2.3e-8
    calls = []

    def recording(*args, **kwargs):
        sol = ode.dop853(*args, **kwargs)
        calls.append((args, kwargs, sol))
        return sol

    monkeypatch.setattr(P, "dop853", recording)
    prof = P.optimal_profile(p)
    _args, kwargs, first = calls[0]
    assert kwargs["max_step"] == np.inf
    assert np.max(P._table_misses(ode.DenseOutput(first), 2.0 / p)[1]) > P._TABLE_TOL
    assert any(kwargs["max_step"] < np.inf for _args, kwargs, _sol in calls[1:])
    for args, kwargs, sol in calls:  # the capped solves are scipy's too
        ref = _scipy_solve(*args, **kwargs)
        assert np.array_equal(sol.t, ref.t) and np.array_equal(sol.y, ref.y)
    assert np.max(P._table_misses(prof._table, 2.0 / p)[1]) <= P._TABLE_TOL
    assert prof.q(prof.s_max * (1.0 - 1e-12)) > 1.0 - 1e-8
    qs = np.linspace(-0.9, 0.9, 37)
    s = np.array([_s_of_q(float(q), p) for q in qs])
    assert np.max(np.abs(prof.q(s) - qs)) <= 3e-11


# ---------------------------------------------------------------------------
# table constants are found once per table
# ---------------------------------------------------------------------------


def test_table_constants_are_found_once_per_table():
    g = G.flat_patch(2, n_per_axis=8)
    prof = P.optimal_profile(1.5)
    # both radii are found at build, each where its condition starts to hold
    assert {"s_core", "s_transition"} <= set(vars(prof))
    tol = 1e-10 * P.c_p(1.5)
    core, trans = prof.s_core, prof.s_transition
    assert prof.tail_energy(core) <= tol < prof.tail_energy(core * (1.0 - 1e-6))
    assert 1.0 - prof.q(trans) <= 1e-3 < 1.0 - prof.q(trans * (1.0 - 1e-6))
    calls = []
    lookup = prof.q
    prof.q = lambda s: calls.append(np.size(s)) or lookup(s)
    for eps in (0.05, 0.025):
        P.ansatz_field(g, eps, prof)
        P.transverse_rule(prof, eps, 1.0)
    assert calls == []  # no width looks the profile up to place its rule
