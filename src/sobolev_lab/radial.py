"""Ball extremals by shooting on the radial ODE y'' + (n-1)/r y' + y^(p-1) = 0.

The normalized extremal phi on the unit ball satisfies
Delta phi + Lambda phi^(p-1) = 0 with ||phi||_Lp = 1, and Lambda equals the
sharp constant C_p(B) under that normalization.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import (InputError, SolverError, alpha, check_exponents, checked_power,
                   unit_ball_volume)

__all__ = [
    "RawShot",
    "RadialProfile",
    "VolumeProfile",
    "shoot",
    "normalize_to_unit_ball",
    "cp_ball",
    "unit_ball_profile",
    "volume_profile",
]

SERIES_RADIUS = 1e-6   # series start; avoids the (n-1)/r singularity at r = 0
ZERO_TOL = 1e-12       # bisection width for the first zero
R_MAX = 100.0          # end of the shooting interval


# the 8-point Gauss-Legendre rule on [-1, 1]: numpy's leggauss(8), written out
GL_NODES = np.array([
    -0.9602898564975362, -0.7966664774136267, -0.525532409916329, -0.18343464249564978,
    0.18343464249564978, 0.525532409916329, 0.7966664774136267, 0.9602898564975362])
GL_WEIGHTS = np.array([
    0.10122853629037706, 0.22238103445337443, 0.3137066458778869, 0.36268378337836166,
    0.36268378337836166, 0.3137066458778869, 0.22238103445337443, 0.10122853629037706])


def _gauss_legendre(n: int, f: Callable, knots: np.ndarray, power: float) -> float:
    """n * omega_n * int max(f, 0)^power r^(n-1) dr, 8-point Gauss-Legendre per knot piece.

    Past float range the sum reads inf or nan without a warning; the caller judges it.
    """
    half = 0.5 * np.diff(knots)[:, None]
    r = knots[:-1, None] + half * (1.0 + GL_NODES)
    y = np.clip(f(r.ravel()), 0.0, None).reshape(r.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        return n * unit_ball_volume(n) * float(np.sum(half * GL_WEIGHTS * y**power * r ** (n - 1)))


@dataclass(frozen=True, eq=False)
class RawShot:
    """Un-normalized shot: y(0) = 1, y'(0) = 0, first zero at R0.

    y is strictly decreasing on [0, R0]; `dense(r, out=None)` evaluates y
    anywhere on that interval (series below SERIES_RADIUS, the stepper's
    quintic Hermite interpolant above), into out if given.  `nodes` are
    the accepted step ends, the last one the first at or past R0.
    """

    n: int
    p: float
    R0: float
    dense: Callable[[np.ndarray], np.ndarray]
    nodes: np.ndarray


@dataclass(frozen=True, eq=False)
class RadialProfile:
    """Normalized extremal phi(r) on the ball of radius `radius` with ||phi||_Lp = 1."""

    n: int
    p: float
    radius: float
    cp_ball: float  # the multiplier Lambda of the normalized extremal
    phi: Callable[[np.ndarray], np.ndarray]
    knots: np.ndarray  # quadrature pieces: the shot's steps, rescaled to [0, radius]
    _lp_norms: dict = field(default_factory=dict, init=False, repr=False)

    def lp_norm(self, q: float) -> float:
        """||phi||_Lq on the profile's ball, Gauss-Legendre on the knots; memoized per q.

        The rule sums (phi/phi(0))^q, phi(0) being phi's maximum, and phi(0) multiplies
        back after the 1/q root; a q at which even that sum underflows raises InputError.
        """
        if q not in self._lp_norms:
            top = float(self.phi(0.0))
            scaled = _gauss_legendre(self.n, lambda r: self.phi(r) / top, self.knots, q)
            if not scaled > 0.0:
                raise InputError(f"q = {q!r} is too large: the L^q norm of the ball "
                                 f"extremal underflows")
            self._lp_norms[q] = top * scaled ** (1.0 / q)
        return self._lp_norms[q]


@dataclass(frozen=True, eq=False)
class VolumeProfile:
    """Non-increasing step profile over set volume s in [0, total_volume].

    ``s`` holds len(values)+1 cell edges and the profile is constant on
    each cell: the discrete rearrangement u* of a grid, or phi* read at
    u*'s cell midpoints, which shares u*'s edge and width arrays.  Power
    integrals are exact cell sums.
    """

    s: np.ndarray
    values: np.ndarray
    # np.diff(s), or the widths of the profile whose edges s are passed
    _widths: np.ndarray | None = field(default=None, repr=False)
    _integrals: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        s = np.asarray(self.s, dtype=float)
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "values", v)
        if v.size != s.size - 1 or s.size < 2:
            raise ValueError("sample-count mismatch between s and values")
        widths = np.diff(s) if self._widths is None else self._widths
        # negated tests, so that a nan fails them; a finite s[-1] and positive
        # widths make every edge finite
        if s[0] != 0.0 or not math.isfinite(s[-1]) or not np.all(widths > 0):
            raise ValueError("s must increase strictly from 0 to a finite volume")
        object.__setattr__(self, "_widths", widths)
        slack = 1e-10 * max(float(np.max(np.abs(v))), 1.0)
        if not math.isfinite(slack):
            raise ValueError("profile values must be finite")
        if not np.all(np.diff(v) <= slack):
            raise ValueError("profile values must be non-increasing")
        if not np.all(v >= -slack):
            raise ValueError("profile values must be non-negative")

    @property
    def total_volume(self) -> float:
        return float(self.s[-1])

    def _cells(self, power: float) -> np.ndarray:
        """Integral of values**power on each cell, in a fresh array."""
        cells = self.values**power
        cells *= self._widths  # in place in the fresh power array
        return cells

    def power_integral(self, power: float = 1.0) -> float:
        """Integral of values**power over [0, total_volume]; a power that
        `cumulative` took is not taken again."""
        total = self._integrals.get(power)
        return float(np.sum(self._cells(power))) if total is None else total

    def lp_norm(self, q: float) -> float:
        """||values||_Lq over [0, total_volume], as top * (sum of (values/top)^q
        widths)^(1/q) with top = values[0], the largest: no q over- or underflows."""
        top = float(self.values[0])
        cells = (self.values / top) ** q
        cells *= self._widths  # in place in the fresh power array
        return top * float(np.sum(cells)) ** (1.0 / q)

    def cumulative(self, power: float = 1.0) -> np.ndarray:
        """Integral of values**power over [0, s] at each edge s, from 0.

        Its cells' sum is kept as the power's integral; the cells are not."""
        cells = self._cells(power)
        self._integrals[power] = float(np.sum(cells))
        out = np.empty(cells.size + 1)
        out[0] = 0.0
        np.cumsum(cells, out=out[1:])
        return out


# Dormand & Prince (1980) 5(4) pair: stage nodes and rows, the 5th-order
# weights, and the error weights (5th minus embedded 4th order, FSAL stage last)
_DP_C = (1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)
_DP_A = ((1 / 5,),
         (3 / 40, 9 / 40),
         (44 / 45, -56 / 15, 32 / 9),
         (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
         (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656))
_DP_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_DP_E = (-71 / 57600, 0.0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40)


def _dopri5(accel, r, y, v, rtol, atol):
    """Adaptive Dormand-Prince steps of y'' = accel(r, y, y') until y <= 0.

    Works on floats (the state is (y, y')).  Returns the accepted nodes
    r, y, y', y'' as arrays; the last node is the first with y <= 0.
    The error norm and step rule follow scipy's RK45: RMS of
    err / (atol + rtol max(|y|, |y_new|)), step factor 0.9 err^(-1/5)
    clamped to [0.2, 10].
    """
    a = accel(r, y, v)
    nodes = [(r, y, v, a)]
    h = r  # a first step as long as the start radius; the error control grows it
    while r < R_MAX:
        h = min(h, R_MAX - r)
        ky, kv = [v], [a]
        for c, row in zip(_DP_C, _DP_A):
            yi = y + h * sum(w * k for w, k in zip(row, ky))
            vi = v + h * sum(w * k for w, k in zip(row, kv))
            ky.append(vi)
            kv.append(accel(r + c * h, yi, vi))
        y1 = y + h * sum(w * k for w, k in zip(_DP_B, ky))
        v1 = v + h * sum(w * k for w, k in zip(_DP_B, kv))
        a1 = accel(r + h, y1, v1)
        ky.append(v1)
        kv.append(a1)
        ey = h * sum(w * k for w, k in zip(_DP_E, ky)) / (atol + rtol * max(abs(y), abs(y1)))
        ev = h * sum(w * k for w, k in zip(_DP_E, kv)) / (atol + rtol * max(abs(v), abs(v1)))
        err = math.sqrt(0.5 * (ey * ey + ev * ev))
        if err < 1.0:
            r, y, v, a = r + h, y1, v1, a1
            nodes.append((r, y, v, a))
            if y <= 0.0:
                return tuple(np.array(col) for col in zip(*nodes))
        h *= min(10.0, max(0.2, 0.9 * max(err, 1e-10) ** -0.2))  # err may be exactly 0
        if not h > 1e-14 * r:
            raise SolverError(f"step size underflow at r = {r:g}")
    raise SolverError(f"no zero found before r = {R_MAX:g}")


def _quintic_hermite(r, y, dy, d2y):
    """Piecewise quintic through (y, y', y'') at the nodes r, vectorised.

    Queries outside [r[0], r[-1]] extend the end pieces; a query equal to
    a node takes the piece that starts there.  A 1-D non-decreasing query
    array longer than the node list finds its pieces by searching the
    nodes into it and repeats each piece's coefficients over its run of
    queries: linear in the queries, and bit-identical to the per-query
    binary search that every other input takes.
    """
    h = np.diff(r)
    d = np.diff(y)
    hv0, hv1 = h * dy[:-1], h * dy[1:]
    ha0, ha1 = h * h * d2y[:-1], h * h * d2y[1:]
    coef = np.array([y[:-1], hv0, 0.5 * ha0,
                     10.0 * d - 6.0 * hv0 - 4.0 * hv1 - 1.5 * ha0 + 0.5 * ha1,
                     -15.0 * d + 8.0 * hv0 + 7.0 * hv1 + 1.5 * ha0 - ha1,
                     6.0 * d - 3.0 * hv0 - 3.0 * hv1 - 0.5 * ha0 + 0.5 * ha1])

    def evaluate(x, out=None):
        """The interpolant at x, in out (which may be x) if given."""
        if x.ndim == 1 and x.size > h.size and np.all(x[1:] >= x[:-1]):
            # piece k holds the run of queries in [r[k], r[k + 1]), end pieces extended
            runs = np.diff(np.searchsorted(x, r[1:-1]), prepend=0, append=x.size)
            take = functools.partial(np.repeat, repeats=runs)
        else:
            i = np.clip(np.searchsorted(r, x, side="right") - 1, 0, h.size - 1)
            take = functools.partial(np.take, indices=i)
        t = x - take(r[:-1])  # taken before out is written
        t /= take(h)
        out = np.empty(x.shape) if out is None else out
        out[...] = take(coef[5])  # 1-D takes: several times faster than coef[k, i]
        for k in (4, 3, 2, 1, 0):
            out *= t
            out += take(coef[k])
        return out

    return evaluate


def shoot(n: int, p: float, tol: float = 1e-12, allow_supercritical: bool = False) -> RawShot:
    """Integrate the radial ODE from a series start until y first hits zero.

    The zero R0 is bracketed by the last two accepted steps and polished
    by bisection on the dense output to ZERO_TOL.
    """
    check_exponents(n, p, allow_supercritical=allow_supercritical)
    if not (0 < tol <= 1e-6):
        raise InputError(f"tol must lie in (0, 1e-6], got {tol}")
    eps = SERIES_RADIUS
    bend, power = n - 1.0, p - 1.0

    def accel(r, y, v):
        # max(., 0) keeps fractional powers real if a trial step undershoots
        return -bend / r * v - max(y, 0.0) ** power

    try:
        rs, ys, dys, d2ys = _dopri5(accel, eps, 1.0 - eps**2 / (2.0 * n), -eps / n,
                                    tol, tol * 1e-2)
    except SolverError as exc:
        raise SolverError(f"{exc} for (n, p) = ({n}, {p})") from None
    hermite = _quintic_hermite(rs, ys, dys, d2ys)

    def y_of(r, out=None):
        """y at r, in out (which may be r) if given, else in a fresh array."""
        r = np.asarray(r, dtype=float)
        near = r < eps  # the series start, evaluated only where it applies
        series = 1.0 - r[near] ** 2 / (2.0 * n)
        y = hermite(r, out)
        y[near] = series
        return y

    # bisection on the bracketing step
    lo, hi = float(rs[-2]), float(rs[-1])
    while hi - lo > ZERO_TOL:
        mid = 0.5 * (lo + hi)
        if y_of(np.array([mid]))[0] > 0.0:
            lo = mid
        else:
            hi = mid
    return RawShot(n=n, p=p, R0=0.5 * (lo + hi), dense=y_of, nodes=rs)


def normalize_to_unit_ball(shot: RawShot, radius: float = 1.0) -> RadialProfile:
    """Rescale a shot to the ball of the given radius and normalize ||phi||_Lp = 1.

    phi(r) = A y(R0 r / radius) with A = (1/I_radius)^(1/p), where
    I_radius = (radius/R0)^n * n omega_n int_0^R0 y^p t^(n-1) dt, and
    Lambda = (R0/radius)^2 A^(2-p).  The integral takes 8-point
    Gauss-Legendre on each accepted step below R0; the step holding R0 is
    cut there and halved 10 times toward it, since y^p has a (R0 - t)^p
    endpoint at non-integer p.  lp_norm integrates on the same pieces.
    The profile's phi(r, out=None) evaluates into out, which may be r
    itself, or into a fresh array.
    """
    if not (radius > 0):
        raise ValueError(f"radius must be positive, got {radius}")
    n, p, R0 = shot.n, shot.p, shot.R0
    below = shot.nodes[shot.nodes < R0]
    knots = np.concatenate(([0.0], below, R0 - (R0 - below[-1]) * 0.5 ** np.arange(1, 11), [R0]))
    I1 = _gauss_legendre(n, shot.dense, knots, p)
    if not 0.0 < I1 < math.inf:  # r^(n-1) overflows from about n = 250
        raise InputError(f"dimension n = {n} is past float range for the ball extremal: "
                         f"its normalization integral is {I1!r}")
    I_r = (radius / R0) ** n * I1
    A = float(I_r ** (-1.0 / p))
    Lambda = float((R0 / radius) ** 2 * A ** (2.0 - p))

    def phi(r, out=None):
        """phi at r, 0 past the radius (where the dense output extrapolates), in out if given."""
        r = np.asarray(r, dtype=float)
        out = np.empty(r.shape) if out is None else out
        past = r > radius  # before out, which may be r, is written
        y = shot.dense(np.multiply(r, R0 / radius, out=out), out)
        np.clip(y, 0.0, None, out=y)
        y[past] = 0.0
        y *= A
        return y

    return RadialProfile(n=n, p=p, radius=radius, cp_ball=Lambda, phi=phi,
                         knots=knots * (radius / R0))


@functools.lru_cache(maxsize=64)
def _cached_unit_profile(n: int, p: float, tol: float) -> RadialProfile:
    return normalize_to_unit_ball(shoot(n, p, tol=tol, allow_supercritical=True))


def unit_ball_profile(n: int, p: float, tol: float = 1e-12,
                      allow_supercritical: bool = False) -> RadialProfile:
    """Normalized unit-ball extremal; memoized on (n, p, tol)."""
    check_exponents(n, p, allow_supercritical=allow_supercritical)
    return _cached_unit_profile(int(n), float(p), float(tol))


def cp_ball(n: int, p: float, radius: float = 1.0) -> float:
    """C_p of the radius-r ball by the dilation law C_p(rB) = r^alpha C_p(B)."""
    if not (radius > 0):
        raise ValueError(f"radius must be positive, got {radius}")
    unit = unit_ball_profile(n, p)
    return unit.cp_ball * checked_power(radius, alpha(n, p),
                                        f"C_p of the ball of radius {radius!r}")


def volume_profile(profile: RadialProfile, s, radius: float = 1.0) -> VolumeProfile:
    """Rearrangement phi* of the ball extremal as a step profile on the cell edges s.

    s increases from 0, or is a VolumeProfile, whose edge and width arrays
    phi* then shares; each cell holds phi* at its midpoint.  With
    R = profile.radius, the radius-rho extremal
    phi_rho(x) = (rho/R)^(-n/p) phi(x R/rho) keeps ||phi_rho||_Lp = 1; at
    volume m it is read at r = (m/|B_rho|)^(1/n) (in units of rho) and is 0
    from |B_rho| on.  The midpoints are written into the output array, and
    phi is read only on the cells whose midpoint lies below |B_rho|, a
    prefix, since s increases, and evaluated in place there; the rest are
    set to 0.
    """
    if not (radius > 0):
        raise ValueError(f"radius must be positive, got {radius}")
    n, p = profile.n, profile.p
    widths = s._widths if isinstance(s, VolumeProfile) else None
    s = np.asarray(s.s if widths is not None else s, dtype=float)
    bvol = unit_ball_volume(n) * radius**n
    vals = np.add(s[:-1], s[1:])
    vals *= 0.5  # the cell midpoints, in place
    inside = vals[:int(np.searchsorted(vals, bvol))]
    inside /= bvol
    inside **= 1.0 / n  # r in [0, 1]
    inside *= profile.radius
    profile.phi(inside, out=inside)
    inside *= (radius / profile.radius) ** (-n / p)
    vals[inside.size:] = 0.0
    return VolumeProfile(s=s, values=vals, _widths=widths)
