"""One-dimensional transition profiles and interface ansatz fields.

The optimal scalar profile solves q' = W(q)^(1/p) with W(u) = (1-u^2)^2, the
equality case of the Young-inequality split of the phase-field energy, so
|q'|^p = W(q) holds pointwise by construction.  Composed with the analytic
signed distance of a supported shape it yields the recovery-sequence fields
whose energies converge to c_p times the interface measure.

For p < 2 the profile approaches +-1 only algebraically; the tables extend
far enough that 1 - |q(S_max)| <= 1e-9, while quadrature uses the much
smaller energy-resolved core radius (tail energy below 1e-10 c_p).  A table
finds that radius and the transition zone's half-width once, when it is built.

The profile ODE and the Ginzburg-Landau vortex ODE are integrated by
:mod:`innervar.ode`, which repeats scipy's DOP853 ``solve_ivp`` and ``brentq``
bit for bit and evaluates the dense output both profiles look up.  c_p (a
Gamma ratio) and the profile's tail energy (a series without cancellation)
are evaluated on ``math``, so the module needs numpy alone; scipy serves only
the tests.  The vortex profile is the one shooting solution: its slope is
shipped with the final bracket of its brentq search and certified by two
solves on each build (:func:`gl_radial_profile`); the search itself runs only
in the tests.
"""

from __future__ import annotations

import csv
import math
import os

import numpy as np

from .errors import EpsilonTooLarge, InnervarError, StiffTail
from .fields import ScalarField
from .geometry import Filament, Hypersurface, doubling_rule
from .jets import Jet, jet_sqrt
from .ode import DenseOutput, dop853


def c_p(p: float) -> float:
    """Surface tension constant: integral of W(s)^((p-1)/p) over [-1, 1].

    With a = 2(p-1)/p this is int_{-1}^1 (1-s^2)^a ds = B(1/2, a+1) =
    sqrt(pi) Gamma(a+1) / Gamma(a+3/2), here on ``math.gamma``: within a few
    ulp of the exact value for every p >= 1.
    """
    p = float(p)
    if p < 1.0:
        raise ValueError("p must be >= 1")
    a = 2.0 * (p - 1.0) / p
    if a == 0.0:
        return 2.0
    return math.sqrt(math.pi) * math.gamma(a + 1.0) / math.gamma(a + 1.5)


def c_p_beta_oracle(p: float) -> float:
    """The same constant as 2^(2a+1) B(a+1, a+1), on log-Gammas.

    Independent of :func:`c_p`'s Gamma ratio; Legendre's duplication formula
    is what makes the two equal.
    """
    a = 2.0 * (p - 1.0) / p
    log_beta = 2.0 * math.lgamma(a + 1.0) - math.lgamma(2.0 * a + 2.0)
    return 2.0 ** (2.0 * a + 1.0) * math.exp(log_beta)


class ProfileTable:
    """Tabulated optimal profile q(s) with consistent derivatives.

    q comes from the dense output of the profile ODE; q' is evaluated through
    the flow relation W(q)^(1/p) and q'' through its derivative, so the
    pointwise equi-partition |q'|^p = W(q) is exact wherever q is exact, and
    :meth:`derivatives` gets all three from a single lookup of q.

    ``s_core`` is the smallest s whose tail energy is at most 1e-10 c_p and
    ``s_transition`` the smallest s with 1 - q(s) <= 1e-3 (the half-width of
    the transition zone), both to bisection accuracy.
    """

    def __init__(self, p, sol, s_max):
        self.p = float(p)
        self._table = DenseOutput(sol)
        self.s_max = float(s_max)
        self.s_grid = np.asarray(sol.t, dtype=float)
        self.q_grid = np.asarray(sol.y[0], dtype=float)
        self.dq_grid = (1.0 - self.q_grid**2) ** (2.0 / self.p)
        self._alpha = 2.0 * (self.p - 1.0) / self.p
        core_tol = 1e-10 * c_p(self.p)
        self.s_core = self._bisect(lambda s: self.tail_energy(s) > core_tol, self.s_max)
        self.s_transition = self._bisect(lambda s: 1.0 - self.q(s) > 1e-3,
                                         self.s_max * (1.0 - 1e-12))

    # -- evaluation -----------------------------------------------------

    def q(self, s):
        s_arr = np.atleast_1d(np.asarray(s, dtype=float))
        out = np.sign(s_arr)
        inside = np.abs(s_arr) < self.s_max
        if np.any(inside):
            si = np.clip(np.abs(s_arr[inside]), 0.0, self.s_max)
            vals = np.clip(self._table(si, 0), -1.0, 1.0)
            out[inside] = np.sign(s_arr[inside]) * vals
        return out if np.ndim(s) else float(out[0])

    def derivatives(self, s, order=2):
        """(q, q', q'') at s from one lookup of q; q'' is None when ``order`` is 1."""
        qv = np.asarray(self.q(s))
        base = np.clip(1.0 - qv**2, 0.0, None)
        ddq = -(4.0 * qv / self.p) * base ** (4.0 / self.p - 1.0) if order == 2 else None
        return qv, base ** (2.0 / self.p), ddq

    def dq(self, s):
        return self.derivatives(s, 1)[1]

    def ddq(self, s):
        return self.derivatives(s)[2]

    # -- tail bookkeeping -------------------------------------------------

    def rule_end(self, eps: float, half_width: float) -> float:
        """Where the width-eps transverse rule capped at ``half_width`` stops, in s = d/eps."""
        return min(self.s_core, half_width / eps)

    def tail_energy(self, s: float) -> float:
        """Energy of the profile beyond |s|, int_s^inf |q'|^p = int_{|q(s)|}^1 (1-t^2)^a dt.

        With y = 1 - |q(s)| the integral is the series
        2^a y^(a+1) sum_k C(a, k) (-y/2)^k / (a+k+1), whose terms shrink at
        least as fast as 2^-k behind a dominant first term, so nothing
        cancels however small y is (``1 - I_x(a+1, a+1)`` near x = 1 would
        lose about six digits at the core radius).
        """
        y = 1.0 - abs(self.q(float(s)))
        a = self._alpha
        if a == 0.0:
            return y
        total, coef, k = 0.0, 1.0, 0
        while True:
            term = coef / (a + k + 1.0)
            total += term
            if abs(term) <= 1e-17 * total:
                break
            coef *= (a - k) / (k + 1.0) * (-0.5 * y)
            k += 1
        return 2.0 ** a * y ** (a + 1.0) * total

    def second_moment(self, s: float) -> float:
        """m2(s) = int_{-s}^s t^2 W(q(t)) dt, on the panels of the transverse rule ending at s."""
        t, w = doubling_rule(1.0, s, 12)
        return 2.0 * float(np.dot(w, t**2 * (1.0 - self.q(t) ** 2) ** 2))

    def _bisect(self, above, probe: float) -> float:
        """Bisect [0, s_max] for where ``above`` turns false; s_max if it holds at ``probe``."""
        lo, hi = 0.0, self.s_max
        if above(probe):
            return hi
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if above(mid):
                lo = mid
            else:
                hi = mid
            if hi - lo < 1e-9 * max(1.0, hi):
                break
        return hi

    def to_csv(self, path) -> None:
        """Write s, q, dq via a ``.tmp`` file: an interrupted write leaves no partial table."""
        tmp = f"{os.fspath(path)}.tmp"
        with open(tmp, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["s", "q", "dq"])
            for s, qv, dqv in zip(self.s_grid, self.q_grid, self.dq_grid):
                writer.writerow([format(v, ".17g") for v in (s, qv, dqv)])
        os.replace(tmp, path)


# The least p whose table builds: below p of about 1.028 the profile is still
# more than 1e-8 short of 1 at s = 1e7, where optimal_profile stops.
P_MIN = 1.03


def optimal_profile(p: float) -> ProfileTable:
    """Solve q' = (1 - q^2)^(2/p), q(0) = 0, up to |q| = 1 - 1e-9 (for p >= P_MIN)."""
    p = float(p)
    if p <= 1.0:
        raise ValueError("optimal_profile needs p > 1")
    target = 1.0 - 1e-9

    def rhs(_s, y):
        return [(max(1.0 - y[0] ** 2, 0.0)) ** (2.0 / p)]

    def reached(_s, y):
        return y[0] - target

    sol = dop853(rhs, (0.0, 1e7), [0.0], rtol=1e-12, atol=1e-14,
                 event=reached, direction=1.0, dense_output=True)
    if sol.status < 0:
        raise StiffTail(f"profile ODE failed for p={p}: {sol.message}")
    if sol.t_events.size:
        s_max = float(sol.t_events[0])
    else:
        s_max = float(sol.t[-1])
        if 1.0 - sol.y[0][-1] > 1e-8:
            raise StiffTail(
                f"profile for p={p} stalled at q={sol.y[0][-1]:.12f} (s={s_max:g})"
            )
    return ProfileTable(p, sol, s_max)


def transverse_rule(prof: ProfileTable, eps: float, half_width: float):
    """Profile-resolved 1-D rule in the signed-distance variable.

    Panels of 12 nodes double away from the interface in the stretched
    variable s = d/eps until either the profile's energy-resolved core or the
    geometric cap is reached; mirrored to negative offsets.  Returns physical
    nodes/weights.
    """
    s_nodes, s_weights = doubling_rule(1.0, prof.rule_end(eps, half_width), 12)
    d = eps * np.concatenate([-s_nodes[::-1], s_nodes])
    w = eps * np.concatenate([s_weights[::-1], s_weights])
    return d, w


def ansatz_field(g: Hypersurface, eps: float, prof: ProfileTable) -> ScalarField:
    """Interface ansatz u(x) = q(d(x)/eps), clamped to +-1 outside the table.

    The admissibility check keys on the transition zone (where q is farther
    than 1e-3 from its limits) fitting inside the shape's ``tube_limit``,
    where quadrature rules cap themselves too.  A capped rule can cut off
    more of a slowly saturating p < 2 profile than the shipped tolerances (on
    a flat patch at eps = 0.1 the rule stops at s = 10, beyond which p = 1.708
    carries 2.6e-7); the cut is exactly ``tail_energy(rule_end(eps, cap))``.
    """
    eps = float(eps)
    s_trans = prof.s_transition
    if eps * s_trans > g.tube_limit:
        raise EpsilonTooLarge(
            f"eps={eps:g} puts the transition zone (s={s_trans:.3g}) outside the "
            f"tube of width {g.focal_width:g}; need eps <= {g.tube_limit / s_trans:.3g}"
        )
    return profile_field(g, eps, prof.derivatives)


def profile_field(g: Hypersurface, eps: float, derivatives) -> ScalarField:
    """u(x) = q(d(x)/eps) for the 1-D profile whose ``derivatives(s, order)`` gives (q, q', q'')."""
    eps = float(eps)

    def jet_fn(xb, order):
        s = g.distance_jet(xb, order) * (1.0 / eps)
        return s.compose(derivatives)

    return ScalarField.from_jet(g.dim, jet_fn)


def tanh_profile_field(g: Hypersurface, eps: float, slope: float = 2.0) -> ScalarField:
    """Deliberately mistuned profile tanh(slope*s): an equi-partition negative control."""
    a = float(slope)

    def derivatives(s, order):
        t, c2 = np.tanh(a * s), np.cosh(a * s) ** 2
        return t, a / c2, -2.0 * a * a * t / c2 if order == 2 else None

    return profile_field(g, eps, derivatives)


# ---------------------------------------------------------------------------
# Ginzburg-Landau radial vortex profile
# ---------------------------------------------------------------------------


_GL_R0, _GL_R_MAX = 1e-8, 16.0
_GL_XTOL, _GL_RTOL = 1e-12, 4 * np.finfo(float).eps  # brentq's stopping width for the slope
# The bracket brentq(gl_shot, 0.4, 0.8, xtol=_GL_XTOL) ends on, slope first: it
# returns the slope, whose shot misses by +1.35e-5; the other end misses by -2.61e-5.
_GL_BRACKET = (float.fromhex("0x1.2a97d0482c93cp-1"), float.fromhex("0x1.2a97d0482b7a2p-1"))


class GLRadialProfile:
    """Radial modulus profile of a degree-one vortex: f(0) = 0, f -> 1.

    Every lookup is piecewise in r: the near field f = slope0 r on r <= r0,
    the dense output of the shooting solve on r0 < r < r_max, and the far
    field f = 1 - 1/(2 r^2) on r >= r_max.  :meth:`derivatives` looks f and
    f' up once each and takes f'' from the ODE, or from the near or far field.
    """

    r_max = _GL_R_MAX
    r_core = 10.0  # 1 - f <= ~5e-3 beyond this; sets the tube constraint

    def __init__(self, table: DenseOutput, slope0: float):
        self._table = table
        self.slope0 = float(slope0)

    def _lookup(self, r, j, near, far):
        """near(r) on the near field, component j of the table between, far(r) on the far field."""
        r = np.asarray(r, dtype=float)
        out = np.empty_like(r)
        inner, tail = r <= _GL_R0, r >= _GL_R_MAX
        mid = ~(inner | tail)
        out[inner] = near(r[inner])
        if np.any(mid):
            out[mid] = self._table(r[mid], j)
        out[tail] = far(r[tail])
        return out

    def f(self, r):
        return self._lookup(r, 0, lambda x: self.slope0 * x, lambda x: 1.0 - 0.5 / x**2)

    def df(self, r):
        return self._lookup(r, 1, lambda _x: self.slope0, lambda x: 1.0 / x**3)

    def ddf(self, r):
        return self.derivatives(r)[2]

    def derivatives(self, r, order=2):
        """(f, f', f'') at r; f'' is None when ``order`` is 1."""
        fv, dv = self.f(r), self.df(r)
        if order == 1:
            return fv, dv, None
        r = np.asarray(r, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):  # r = 0 lies in the near field
            ddf = -dv / r + fv / r**2 - fv * (1.0 - fv**2)
        ddf[r <= _GL_R0] = 0.0
        tail = r >= _GL_R_MAX
        ddf[tail] = -3.0 / r[tail] ** 4
        return fv, dv, ddf


def _gl_rhs(r, y):
    f, fp = y
    return [fp, -fp / r + f / r**2 - f * (1.0 - f**2)]


def _gl_blowup(_r, y):
    return y[0] - 2.0


def _gl_solve(alpha, dense_output=False):
    """The shot f(r0) = alpha r0, f'(r0) = alpha to r_max, stopped where f reaches 2."""
    return dop853(_gl_rhs, (_GL_R0, _GL_R_MAX), [alpha * _GL_R0, alpha], rtol=1e-11,
                  atol=1e-13, event=_gl_blowup, dense_output=dense_output)


def _gl_miss(sol) -> float:
    """How far a shot lands above the far field 1 - 1/(2 r_max^2); 1 if it blew up."""
    if sol.t_events.size:
        return 1.0  # overshoot diverges upward
    return sol.y[0][-1] - (1.0 - 0.5 / _GL_R_MAX**2)


def gl_shot(alpha: float) -> float:
    """The shooting residual of the slope f'(0) = alpha; its root is the GL slope."""
    return _gl_miss(_gl_solve(alpha))


def gl_radial_profile() -> GLRadialProfile:
    """Degree-one vortex profile from the shipped shooting slope.

    It integrates f'' = -f'/r + f/r^2 - f(1 - f^2) from f'(0) = alpha, the
    slope at which :func:`innervar.ode.brentq` over :func:`gl_shot` on
    [0.4, 0.8] stops; the slope has no input, so it ships with the other end
    of brentq's final bracket.  Each build certifies the pair with two shots:
    the slope's shot (the table's own dense solve) reaches r_max without
    blowing up, the two misses differ in sign, and the ends lie closer than
    brentq's stopping width, so brentq would stop on this bracket again.  A
    failed certificate raises :class:`InnervarError`.
    """
    alpha, other = _GL_BRACKET
    sol = _gl_solve(alpha, dense_output=True)
    if sol.status != 0:
        raise InnervarError(f"the GL shot with slope {alpha!r} stops before r = {_GL_R_MAX:g}: "
                            f"{sol.message}")
    miss, other_miss = _gl_miss(sol), gl_shot(other)
    if (miss < 0) == (other_miss < 0):
        raise InnervarError(f"the GL slopes {alpha!r} and {other!r} miss by {miss:.3g} and "
                            f"{other_miss:.3g}, which bracket no root")
    if not abs(other - alpha) < _GL_XTOL + _GL_RTOL * abs(alpha):
        raise InnervarError(f"the GL bracket [{min(alpha, other)!r}, {max(alpha, other)!r}] "
                            "is wider than brentq's stopping width")
    return GLRadialProfile(DenseOutput(sol), alpha)


def gl_vortex_field(g: Filament, eps: float, prof: GLRadialProfile) -> ScalarField:
    """Degree-one vortex u = f(rho/eps) e^{i theta} in transverse polar coordinates.

    Returned as a two-component real field; gradients are analytic through the
    transverse coordinate jets of the filament.
    """
    eps = float(eps)
    if eps * prof.r_core > g.tube_limit:
        raise EpsilonTooLarge(
            f"eps={eps:g} puts the vortex core outside the tube of width "
            f"{g.focal_width:g}"
        )

    def jet_fn(xb, order):
        ab = g.transverse_jets(xb, order)
        rho2 = sum(ab * ab)  # a^2 + b^2, over the component axis
        off = ~(rho2.val < 1e-24)
        on_axis = not np.all(off)
        rho = jet_sqrt(rho2.masked(off) if on_axis else rho2)
        del rho2
        gfac = (rho * (1.0 / eps)).compose(prof.derivatives) * rho.reciprocal()
        del rho
        if not on_axis:
            return gfac * ab
        # u ~ slope0 (a + ib)/eps near the core; value 0, curvature 0 there
        core = Jet(np.zeros(ab.val.shape), ab.grad * (prof.slope0 / eps),
                   None if ab.hess is None else np.zeros(ab.hess.shape))
        return Jet.where(off, gfac * ab.masked(off), core)

    return ScalarField.from_jet(g.dim, jet_fn, state_dim=2)
