"""Independent oracles for the test suite.

Every expected value used by the tests is computed here without touching
the package under test: closed forms via math/scipy.special, an
independent Bessel-zero root finder, and scipy's DOP853 for the ball
shot.  Run as a script to print the frozen constants; the test modules
hard-code these literals and assert agreement with both this module and
the package.  The one exception is the Galerkin probe, the multigrid's
former build: it runs the package's own prolongation, finest operator
and restriction on whole grids, and the former stencil apply on coarse
levels, and so pins the bits of the row-wise assembly that replaced it,
not the values of P^T A P.
"""

import math

import numpy as np
from scipy.optimize import brentq
from scipy.special import j0 as bessel_j0


def first_bessel_zero() -> float:
    """First positive zero of J_0, by sign-change bracketing + brentq.

    J_0(2) > 0 > J_0(3); the root is simple, so brentq converges to
    machine precision without relying on any zeros table.
    """
    return brentq(bessel_j0, 2.0, 3.0, xtol=1e-15, rtol=8.9e-16)


# frozen literals (printed by __main__, checked by tests)
J0_FIRST_ZERO = 2.404825557695773
DISK_EIGENVALUE = 5.783185962946785          # j0^2
DISK_TORSION_CP = 8.0 / math.pi              # 2.5464790894703255
BALL3_EIGENVALUE = math.pi ** 2              # 9.869604401089358
SQUARE_EIGENVALUE = 2.0 * math.pi ** 2       # 19.739208802178716
K_DISK_1_2 = math.sqrt(3.0 * math.pi) / 2.0  # 1.5349900619197328


def ball_volume(n: int) -> float:
    """omega_n = pi^(n/2) / Gamma(n/2 + 1), by the plain formula."""
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


def torsion_cp(n: int) -> float:
    """C_1 of the unit n-ball from the quadratic torsion profile.

    The minimizer of int|grad f|^2 / (int f)^2 on the unit ball is
    u = 1 - |x|^2 up to scale.  With int_B |x|^2 dm = n omega_n/(n+2):
    int|grad u|^2 = 4 n omega_n/(n+2) and int u = 2 omega_n/(n+2),
    so the quotient is n(n+2)/omega_n.
    """
    return n * (n + 2.0) / ball_volume(n)


def square_discrete_eigenvalue(h: float) -> float:
    """Exact first eigenvalue of the 5-point Laplacian on the unit square.

    Discrete eigenvectors are products of sines; the eigenvalue is
    (4/h^2)(sin^2(pi h/2) + sin^2(pi h/2)).
    """
    return (8.0 / h**2) * math.sin(math.pi * h / 2.0) ** 2


def disk_p1_volume_profile(s):
    """phi*(s) = (2/pi)(1 - s/pi) for the unit-disk p=1 extremal.

    From phi(r) = A(1 - r^2) with A fixed by unit L1 norm:
    int_disk (1 - r^2) = pi/2 so A = 2/pi; then s = pi r^2 gives
    phi*(s) = (2/pi)(1 - s/pi).
    """
    s = np.asarray(s, dtype=float)
    return (2.0 / math.pi) * np.clip(1.0 - s / math.pi, 0.0, None)


def dop853_ball_shot(n: int, p: float):
    """First zero R0 and dense y of y'' + (n-1)/r y' + y^(p-1) = 0, by DOP853.

    scipy's solve_ivp at rtol 1e-12 from the series start
    y = 1 - r^2/(2n) at r = start, stopped by a terminal zero event.
    Returns (R0, y_of, nodes) with y_of taking arrays (the series below
    start) and nodes the accepted step ends, the last one at R0.
    """
    from scipy.integrate import solve_ivp  # the package itself must not need it

    start = 1e-6

    def rhs(r, y):
        return (y[1], -(n - 1.0) / r * y[1] - max(y[0], 0.0) ** (p - 1.0))

    def hit_zero(r, y):
        return y[0]

    hit_zero.terminal = True
    hit_zero.direction = -1
    sol = solve_ivp(rhs, (start, 100.0), (1.0 - start**2 / (2.0 * n), -start / n),
                    method="DOP853", rtol=1e-12, atol=1e-14, dense_output=True,
                    events=[hit_zero])

    def y_of(r):
        r = np.asarray(r, dtype=float)
        return np.where(r < start, 1.0 - r**2 / (2.0 * n), sol.sol(np.maximum(r, start))[0])

    return float(sol.t_events[0][0]), y_of, sol.t


def probe(op, shape: tuple) -> np.ndarray:
    """The 9-point stencil of a linear map on arrays of this shape, as a
    (9, ny * nx) array: row 3 (dy + 1) + dx + 1 holds each node's
    coefficient of its neighbor at (dy, dx).

    Nine probes, each the indicator of the nodes of one colour (i mod 3,
    j mod 3): a node's 3x3 neighborhood holds exactly one node of each
    colour, so each probe's image gives one stencil entry at every node.
    """
    i, j = np.ogrid[:shape[0], :shape[1]]
    S = np.zeros((3, 3) + shape)
    for a in range(3):
        for b in range(3):
            S[(a - i + 1) % 3, (b - j + 1) % 3, i, j] = op(((i % 3 == a) & (j % 3 == b)) * 1.0)
    return S.reshape(9, -1)


def galerkin_probe(fine, coarse: np.ndarray) -> np.ndarray:
    """Stencil of the Galerkin operator P^T A P on the coarse mask, probed
    with the package's _prolong, the fine level's apply and _restrict, in
    the fine level's work arrays."""
    from sobolev_lab.elliptic import _prolong, _restrict

    def op(e):
        e *= coarse
        fine.apply(np.multiply(_prolong(e, fine.x, fine.w), fine.mask, out=fine.x), fine.t)
        return _restrict(fine.t, np.empty(coarse.shape), fine.w) * coarse
    return probe(op, coarse.shape)


class StencilLevel:
    """A coarse level that applies a (5, ny * nx) upper-half stencil by flat
    offsets, centre first, then for each upper offset o the products at +o
    and at -o, as the package did before it kept its levels' rows."""

    def __init__(self, mask: np.ndarray, stencil: np.ndarray):
        self.mask, self.stencil = mask, stencil
        self.size = int(np.count_nonzero(mask))
        self.x, self.t, self.w = (np.zeros(mask.shape) for _ in range(3))

    def apply(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        S, n, nx = self.stencil, self.mask.size, self.mask.shape[1]
        xf, of, wf = x.ravel(), out.ravel(), self.w.ravel()
        np.multiply(S[0], xf, out=of)
        for k, off in enumerate((1, nx - 1, nx, nx + 1), start=1):
            dst, src = slice(0, n - off), slice(off, n)
            np.multiply(S[k][dst], xf[src], out=wf[dst])
            of[dst] += wf[dst]
            np.multiply(S[k][dst], xf[dst], out=wf[dst])
            of[src] += wf[dst]
        return out


def galerkin_levels(mask: np.ndarray) -> list:
    """The (coarse mask, upper-half stencil) pairs of the multigrid levels
    above the finest, each probed on the level below, as the package built
    them before its row-wise assembly: the package's 5-point level, then
    StencilLevel."""
    from sobolev_lab.elliptic import MG_COARSE_SIZE, _Level

    level = _Level(mask)
    levels = []
    while level.size > MG_COARSE_SIZE:
        coarse = level.mask[::2, ::2].copy()
        if not coarse.any():
            break
        stencil = galerkin_probe(level, coarse)[4:].copy()
        levels.append((coarse, stencil))
        level = StencilLevel(coarse, stencil)
    return levels


def k_constant_25(factor: float) -> float:
    """Scaling of K(2,1,2,.) when cp is multiplied by `factor`.

    alpha(2,1) = -4, exponent (n/alpha)(1/p - 1/q) = (2/-4)(1 - 1/2) = -1/4.
    """
    return factor ** -0.25


def hand_hlp_pair():
    """A hand-computed dominance pair on [0, 2], unit cell width.

    Orientation: f is the dominated profile, with cumulative integrals
    of f^q1 below g^q1 at every s.  f = (0.8, 0.7), g = (1.0, 0.6):
      q1 = 1: cum f = (0.8, 1.5) <= cum g = (1.0, 1.6); on the second
        cell 0.8 + 0.7t <= 1.0 + 0.6t for t in [0,1].
      q2 = 2: totals f^2 -> 1.13 <= g^2 -> 1.36, the conclusion.
    """
    f_vals = np.array([0.8, 0.7])
    g_vals = np.array([1.0, 0.6])
    breaks = np.array([0.0, 1.0, 2.0])
    return breaks, f_vals, g_vals


if __name__ == "__main__":
    z = first_bessel_zero()
    print(f"j0 first zero      = {z!r}")
    print(f"j0^2               = {z*z!r}")
    print(f"8/pi               = {8.0/math.pi!r}")
    print(f"pi^2               = {math.pi**2!r}")
    print(f"2 pi^2             = {2*math.pi**2!r}")
    print(f"sqrt(3 pi)/2       = {math.sqrt(3*math.pi)/2!r}")
    for n in range(2, 6):
        print(f"n(n+2)/omega_{n}    = {torsion_cp(n)!r}")
    for h in (1/64, 1/128, 1/256):
        print(f"square lambda_h at h=1/{round(1/h)} = {square_discrete_eigenvalue(h)!r}")
