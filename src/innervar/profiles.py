"""One-dimensional transition profiles and interface ansatz fields.

The optimal scalar profile solves q' = W(q)^(1/p) with W(u) = (1-u^2)^2, the
equality case of the Young-inequality split of the phase-field energy, so
|q'|^p = W(q) holds pointwise by construction.  Composed with the analytic
signed distance of a supported shape it yields the recovery-sequence fields
whose energies converge to c_p times the interface measure.

For p < 2 the profile approaches +-1 only algebraically; the tables extend
far enough that 1 - |q(S_max)| <= 1e-9, while quadrature uses the much
smaller energy-resolved core radius (tail energy below 1e-10 c_p).

The profile ODE and the Ginzburg-Landau vortex ODE are integrated by
:mod:`innervar.ode`, which repeats scipy's DOP853 ``solve_ivp`` and ``brentq``
bit for bit.  c_p (a Gamma ratio) and the profile's tail energy (a series
without cancellation) are evaluated on ``math``, so the module needs numpy
alone; scipy serves only the tests.  The GL
shooting slope is shipped with the final bracket of its brentq search and
certified by two solves on each build (:func:`gl_radial_profile`); the search
itself runs only in the tests.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from .errors import EpsilonTooLarge, InnervarError, StiffTail
from .fields import ScalarField
from .geometry import Filament, Hypersurface, doubling_rule
from .jets import jet_sqrt
from .ode import dop853


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


class _DenseTable:
    """The dense output of an ascending :func:`ode.dop853` solve, evaluated as whole arrays.

    scipy's ``OdeSolution.__call__`` argsorts its input, calls one interpolant
    per segment and stacks the pieces.  Here the interpolants come stacked;
    each point picks its segment with the same ``searchsorted`` and clamp, and
    scipy's Horner loop runs on the gathered coefficients with the same
    elementwise operations in the same order, so the values are bit for bit
    those of scipy's ``sol(t)[j]``.  Components never mix, so only component
    ``j`` is computed.
    """

    def __init__(self, sol):
        self.ts = sol.t
        self.t_old = sol.t_old
        self.h = sol.h
        self.F = sol.F  # (n_y, 7, segments)
        self.y_old = sol.y_old  # (n_y, segments)

    def __call__(self, t, j):
        t = np.asarray(t, dtype=float)
        seg = np.clip(np.searchsorted(self.ts, t, side="left") - 1, 0, len(self.h) - 1)
        x = (t - self.t_old[seg]) / self.h[seg]
        y = np.zeros(x.shape)
        for i, f in enumerate(self.F[j][::-1]):
            y += f[seg]
            if i % 2 == 0:
                y *= x
            else:
                y *= 1 - x
        y += self.y_old[j][seg]
        return y


class ProfileTable:
    """Tabulated optimal profile q(s) with consistent derivatives.

    q comes from the dense output of the profile ODE; q' is evaluated through
    the flow relation W(q)^(1/p) and q'' through its derivative, so the
    pointwise equi-partition |q'|^p = W(q) is exact wherever q is exact, and
    :meth:`derivatives` gets all three from a single lookup of q.
    """

    def __init__(self, p, sol, s_max, tail_tol=1e-9):
        self.p = float(p)
        self._table = _DenseTable(sol)
        self.s_max = float(s_max)
        self.tail_tol = float(tail_tol)
        self.s_grid = np.asarray(sol.t, dtype=float)
        self.q_grid = np.asarray(sol.y[0], dtype=float)
        self.dq_grid = (1.0 - self.q_grid**2) ** (2.0 / self.p)
        self._alpha = 2.0 * (self.p - 1.0) / self.p
        self._cp = c_p(self.p)
        self._constants: dict[tuple[str, float], float] = {}
        self.s_core = self._core_radius(1e-10 * self._cp)

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

    def _core_radius(self, tol: float) -> float:
        """Smallest s whose tail energy is at most ``tol``, to bisection accuracy."""
        return self._constant(("core", tol), lambda: self._bisect(
            lambda s: self.tail_energy(s) > tol, self.s_max))

    def s_transition(self, delta: float = 1e-3) -> float:
        """Smallest s with 1 - q(s) <= delta (width of the transition zone)."""
        return self._constant(("transition", delta), lambda: self._bisect(
            lambda s: 1.0 - self.q(s) > delta, self.s_max * (1.0 - 1e-12)))

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

    def _constant(self, key, compute) -> float:
        """A constant of this table, computed on first use: the table never changes.

        Threads that race on a first use at worst compute the same float twice.
        """
        if key not in self._constants:
            self._constants[key] = compute()
        return self._constants[key]

    def to_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["s", "q", "dq"])
            for s, qv, dqv in zip(self.s_grid, self.q_grid, self.dq_grid):
                writer.writerow([format(v, ".17g") for v in (s, qv, dqv)])


def optimal_profile(p: float, tail_tol: float = 1e-9) -> ProfileTable:
    """Solve q' = (1 - q^2)^(2/p), q(0) = 0, up to |q| = 1 - tail_tol."""
    p = float(p)
    if p <= 1.0:
        raise ValueError("optimal_profile needs p > 1")
    target = 1.0 - tail_tol

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
    return ProfileTable(p, sol, s_max, tail_tol)


def transverse_rule(prof: ProfileTable, eps: float, half_width: float,
                    nodes_per_panel: int = 12, tail_tol: float = 1e-10):
    """Profile-resolved 1-D rule in the signed-distance variable.

    Panels double away from the interface in the stretched variable s = d/eps
    until either the profile's energy-resolved core or the geometric cap is
    reached; mirrored to negative offsets.  Returns physical nodes/weights.
    """
    s_end = min(prof._core_radius(tail_tol * prof._cp), half_width / eps)
    s_nodes, s_weights = doubling_rule(1.0, s_end, nodes_per_panel)
    d = eps * np.concatenate([-s_nodes[::-1], s_nodes])
    w = eps * np.concatenate([s_weights[::-1], s_weights])
    return d, w


def ansatz_field(g: Hypersurface, eps: float, prof: ProfileTable) -> ScalarField:
    """Interface ansatz u(x) = q(d(x)/eps), clamped to +-1 outside the table.

    The admissibility check keys on the transition zone (where q is farther
    than 1e-3 from its limits) fitting inside the focal tube; quadrature rules
    cap themselves at the focal width.  For the slowly saturating p < 2
    profiles the energy beyond the tube is not always below the shipped
    tolerances: on a flat patch (tube cap 1) at eps = 0.1 the rule stops at
    s = 10, and for p below about 1.73 the tail beyond it carries more than
    the 1e-7 equipartition floor (2.6e-7 at p = 1.708, see
    ``ProfileTable.tail_energy``).
    """
    eps = float(eps)
    s_trans = prof.s_transition(1e-3)
    if eps * s_trans > 0.9 * g.focal_width:
        raise EpsilonTooLarge(
            f"eps={eps:g} puts the transition zone (s={s_trans:.3g}) outside the "
            f"tube of width {g.focal_width:g}; need eps <= "
            f"{0.9 * g.focal_width / s_trans:.3g}"
        )

    def jet_fn(xb, order):
        s = g.distance_jet(xb, order) * (1.0 / eps)
        return s.compose(prof.derivatives)

    return ScalarField.from_jet(g.dim, jet_fn, label=f"ansatz[p={prof.p:g},eps={eps:g}]")


def profile_field(g: Hypersurface, eps: float, q, dq, ddq, label="profile") -> ScalarField:
    """Compose an arbitrary 1-D profile with the signed distance of the shape."""
    eps = float(eps)

    def derivatives(v, order):
        return q(v), dq(v), ddq(v) if order == 2 else None

    def jet_fn(xb, order):
        s = g.distance_jet(xb, order) * (1.0 / eps)
        return s.compose(derivatives)

    return ScalarField.from_jet(g.dim, jet_fn, label=f"{label}[eps={eps:g}]")


def tanh_profile_field(g: Hypersurface, eps: float, slope: float = 2.0) -> ScalarField:
    """Deliberately mistuned profile tanh(slope*s): an equi-partition negative control."""
    a = float(slope)
    return profile_field(
        g, eps,
        lambda s: np.tanh(a * s),
        lambda s: a / np.cosh(a * s) ** 2,
        lambda s: -2.0 * a * a * np.tanh(a * s) / np.cosh(a * s) ** 2,
        label=f"tanh{a:g}",
    )


# ---------------------------------------------------------------------------
# Ginzburg-Landau radial vortex profile
# ---------------------------------------------------------------------------


class GLRadialProfile:
    """Radial modulus profile of a degree-one vortex: f(0)=0, f -> 1.

    ``ddf_from(r, f(r), f'(r))`` gives f''(r) from values already looked up,
    so :meth:`derivatives` looks f and f' up once each.
    """

    def __init__(self, f, df, ddf_from, r_max, mode, slope0):
        self.f = f
        self.df = df
        self._ddf_from = ddf_from
        self.r_max = float(r_max)
        self.mode = mode
        self.slope0 = float(slope0)
        self.r_core = 10.0  # 1 - f <= ~5e-3 beyond this; sets the tube constraint

    def ddf(self, r):
        return self._ddf_from(r, self.f(r), self.df(r))

    def derivatives(self, r, order=2):
        """(f, f', f'') at r; f'' is None when ``order`` is 1."""
        fv, dv = self.f(r), self.df(r)
        return fv, dv, self._ddf_from(r, fv, dv) if order == 2 else None


_GL_R0, _GL_R_MAX = 1e-8, 16.0
_GL_XTOL, _GL_RTOL = 1e-12, 4 * np.finfo(float).eps  # brentq's stopping width for the slope
# The bracket brentq(gl_shot, 0.4, 0.8, xtol=_GL_XTOL) ends on, slope first: it
# returns the slope, whose shot misses by +1.35e-5; the other end misses by -2.61e-5.
_GL_BRACKET = (float.fromhex("0x1.2a97d0482c93cp-1"), float.fromhex("0x1.2a97d0482b7a2p-1"))


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


def gl_radial_profile(mode: str = "ode") -> GLRadialProfile:
    """Degree-one vortex profile, from the shipped shooting slope or the algebraic surrogate.

    The "ode" profile integrates f'' = -f'/r + f/r^2 - f(1 - f^2) from f'(0) =
    alpha, the slope at which :func:`innervar.ode.brentq` over :func:`gl_shot` on
    [0.4, 0.8] stops; the slope has no input, so it ships with the other end
    of brentq's final bracket.  Each build certifies the pair with two shots:
    the slope's shot (the table's own dense solve) reaches r_max without
    blowing up, the two misses differ in sign, and the ends lie closer than
    brentq's stopping width, so brentq would stop on this bracket again.  A
    failed certificate raises :class:`InnervarError`.

    The surrogate r/sqrt(r^2+2) shares the boundary behavior and the leading
    log-energy; limit experiments only depend on the vortex degree.
    """
    if mode == "surrogate":
        f = lambda r: r / np.sqrt(r**2 + 2.0)
        df = lambda r: 2.0 / (r**2 + 2.0) ** 1.5
        ddf_from = lambda r, _f, _df: -6.0 * r / (r**2 + 2.0) ** 2.5
        return GLRadialProfile(f, df, ddf_from, np.inf, "surrogate", 1.0 / np.sqrt(2.0))

    r0, r_max = _GL_R0, _GL_R_MAX
    alpha, other = _GL_BRACKET
    sol = _gl_solve(alpha, dense_output=True)
    if sol.status != 0:
        raise InnervarError(f"the GL shot with slope {alpha!r} stops before r = {r_max:g}: "
                            f"{sol.message}")
    miss, other_miss = _gl_miss(sol), gl_shot(other)
    if (miss < 0) == (other_miss < 0):
        raise InnervarError(f"the GL slopes {alpha!r} and {other!r} miss by {miss:.3g} and "
                            f"{other_miss:.3g}, which bracket no root")
    if not abs(other - alpha) < _GL_XTOL + _GL_RTOL * abs(alpha):
        raise InnervarError(f"the GL bracket [{min(alpha, other)!r}, {max(alpha, other)!r}] "
                            "is wider than brentq's stopping width")
    table = _DenseTable(sol)

    def f(r):
        r = np.asarray(r, dtype=float)
        out = np.empty_like(r)
        inner = r <= r0
        core = (r > r0) & (r < r_max)
        tail = r >= r_max
        out[inner] = alpha * r[inner]
        if np.any(core):
            out[core] = table(r[core], 0)
        out[tail] = 1.0 - 0.5 / r[tail] ** 2
        return out

    def df(r):
        r = np.asarray(r, dtype=float)
        out = np.empty_like(r)
        inner = r <= r0
        core = (r > r0) & (r < r_max)
        tail = r >= r_max
        out[inner] = alpha
        if np.any(core):
            out[core] = table(r[core], 1)
        out[tail] = 1.0 / r[tail] ** 3
        return out

    def ddf_from(r, fv, dv):
        r = np.asarray(r, dtype=float)
        out = -dv / r + fv / r**2 - fv * (1.0 - fv**2)
        tail = r >= r_max
        out[tail] = -3.0 / r[tail] ** 4
        return out

    return GLRadialProfile(f, df, ddf_from, r_max, "ode", alpha)


def gl_vortex_field(g: Filament, eps: float, prof: GLRadialProfile) -> ScalarField:
    """Degree-one vortex u = f(rho/eps) e^{i theta} in transverse polar coordinates.

    Returned as a two-component real field; gradients are analytic through the
    transverse coordinate jets of the filament.
    """
    eps = float(eps)
    if eps * prof.r_core > 0.9 * g.focal_width:
        raise EpsilonTooLarge(
            f"eps={eps:g} puts the vortex core outside the tube of width "
            f"{g.focal_width:g}"
        )

    def jets_fn(xb, order):
        a, b = g.transverse_jets(xb, order)
        rho2 = a * a + b * b
        on_axis = rho2.val < 1e-24
        if np.any(on_axis):
            # u ~ slope0 (a + ib)/eps near the core; value 0, curvature 0 there
            re = a * (prof.slope0 / eps)
            im = b * (prof.slope0 / eps)
            off = ~on_axis
            rho = jet_sqrt(rho2.masked(off))
            f_at = (rho * (1.0 / eps)).compose(prof.derivatives)
            gfac = f_at * rho.reciprocal()
            re.put(off, gfac * a.masked(off))
            im.put(off, gfac * b.masked(off))
            for part in (re, im):
                part.val[on_axis] = 0.0
                if part.hess is not None:
                    part.hess[:, :, on_axis] = 0.0
            return [re, im]
        rho = jet_sqrt(rho2)
        del rho2
        gfac = (rho * (1.0 / eps)).compose(prof.derivatives) * rho.reciprocal()
        del rho
        return [gfac * a, gfac * b]

    return ScalarField.from_jet(g.dim, jets_fn, state_dim=2,
                                label=f"vortex[eps={eps:g}]")
