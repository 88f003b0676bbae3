"""The identities behind the paper's argument, as test helpers on the package.

The verify pipeline checks one chain: rearrangement comparison, a single
crossing, cumulative dominance, the norm inequality.  The identities that
chain rests on are checked here, for the acceptance criteria and the unit
tests: the Talenti comparison of the rearranged extremal, the
integro-differential identity of the ball profile, the Hardy-Littlewood-
Polya dominance lemma, equimeasurability, and the torsional form of the
p = 1 constant.  Beside them sit the readers of the package's profile
files, a plain Poisson solve from the package's own multigrid-
preconditioned CG, and the grid helpers the tests need.  Unlike
oracles.py, this module builds on the package under test.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_trapezoid

from sobolev_lab import elliptic
from sobolev_lab.chiti import constant_K, khat
from sobolev_lab.core import VerificationError, check_exponents, unit_ball_volume
from sobolev_lab.elliptic import GriddedField
from sobolev_lab.radial import VolumeProfile
from sobolev_lab.rearrange import _masked_values, decreasing_rearrangement

HLP_RTOL = 1e-12  # relative rounding slack of the dominance comparisons


# ---------------------------------------------------------------- grids

def node_coordinates(grid: GriddedField):
    """(X, Y): the coordinates of every node of the grid, each of shape (ny, nx)."""
    ny, nx = grid.mask.shape
    x = grid.origin[0] + grid.h * np.arange(nx)
    y = grid.origin[1] + grid.h * np.arange(ny)
    return np.meshgrid(x, y)


def lp_norm(fld: GriddedField, p: float) -> float:
    """||u||_Lp of a field: node sums times h^2 over the mask."""
    return float(np.sum(np.abs(fld.values[fld.mask]) ** p) * fld.h**2) ** (1.0 / p)


def poisson_solve(grid: GriddedField, rhs, x0: np.ndarray | None = None) -> GriddedField:
    """Solve -Delta_h v = rhs with zero Dirichlet data, by the package's
    multigrid-preconditioned cg.

    rhs is a field, an (ny, nx) array or a vector over the mask nodes; x0,
    if given, is a vector over the mask nodes.
    """
    mask = grid.mask

    def full(values):
        out = np.zeros(mask.shape)
        out[mask] = values[mask] if values.shape == mask.shape else values
        return out

    # the package's operator is the lattice one, A_1 = h^2 A_h, so
    # A_h^-1 b = h^2 A_1^-1 b, and an x0 for A_h is x0 / h^2 for A_1
    h2 = grid.h**2
    b = full(np.asarray(rhs.values if isinstance(rhs, GriddedField) else rhs, dtype=float))
    if x0 is not None:
        x0 = full(np.asarray(x0, dtype=float)) / h2
    M = elliptic._VCycle(mask)
    x, _ = elliptic.cg(M.fine.apply, b, x0, M)
    return GriddedField(grid.h, grid.origin, mask, x * h2, grid.spec)


# ------------------------------------------------------------- profiles

def evaluate(vp: VolumeProfile, s_query):
    """Profile value at s_query: the value of the cell that holds it, cells
    closed on the left."""
    idx = np.searchsorted(vp.s, np.asarray(s_query, dtype=float), side="right") - 1
    return vp.values[np.clip(idx, 0, vp.values.size - 1)]


def cumulative_at(vp: VolumeProfile, s_query, power: float = 1.0):
    """Integral of values**power over [0, s_query], piecewise linear in
    s_query and constant past the last node."""
    return np.interp(np.asarray(s_query, dtype=float), vp.s, vp.cumulative(power))


def read_profile(path: str) -> tuple[dict, np.ndarray, np.ndarray]:
    """Read a profile CSV back: (header, first column, second column).

    For volume profiles the first column holds the cells' left edges;
    rebuild the full edge vector by appending total_volume.
    """
    with open(path, encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        label = fh.readline().strip()
        if label not in ("r,phi", "s,value"):
            raise ValueError(f"unrecognized profile column row: {label!r}")
        body = np.loadtxt(fh, delimiter=",", ndmin=2)
    return header, body[:, 0], body[:, 1]


def read_volume_profile(path: str) -> tuple[dict, VolumeProfile]:
    """Reconstruct a VolumeProfile from a profile CSV the package wrote."""
    header, s, v = read_profile(path)
    if header.get("kind") != "volume":
        raise ValueError("not a volume-profile file")
    s = np.append(s, float(header["total_volume"]))  # the closing edge
    return header, VolumeProfile(s=s, values=v)


# ------------------------------------------------------- rearrangements

@dataclass(frozen=True, eq=False)
class DistributionFunction:
    """mu(t) = measure of the superlevel set {u > t}, right continuous.

    thresholds rise from 0 to max(u); measures fall from (almost) the
    domain volume to 0.
    """

    thresholds: np.ndarray
    measures: np.ndarray
    total_volume: float

    def evaluate(self, t):
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.thresholds, t, side="right") - 1
        out = np.where(idx < 0, self.measures[0], self.measures[np.clip(idx, 0, None)])
        return out if out.shape else float(out)


def distribution(fld: GriddedField) -> DistributionFunction:
    """Exact distribution function of a gridded field, h^2 per node."""
    vals = _masked_values(fld)
    h2 = fld.h**2
    uniq, counts = np.unique(vals, return_counts=True)
    # nodes strictly above each threshold; thresholds start at 0
    above = np.concatenate((np.cumsum(counts[::-1])[::-1][1:], [0]))
    thresholds = np.concatenate(([0.0], uniq))
    measures = np.concatenate(([float(np.count_nonzero(vals > 0))], above.astype(float))) * h2
    return DistributionFunction(thresholds=thresholds, measures=measures,
                                total_volume=vals.size * h2)


def symmetrized_sample(fld: GriddedField, x, y) -> np.ndarray:
    """u#(x) = u*(omega_2 |x|^2): the radially decreasing representative."""
    u_star = decreasing_rearrangement(fld)
    r2 = np.asarray(x, dtype=float) ** 2 + np.asarray(y, dtype=float) ** 2
    s = unit_ball_volume(2) * r2
    out = evaluate(u_star, np.clip(s, 0.0, u_star.total_volume))
    return np.where(s > u_star.total_volume, 0.0, out)


def equimeasurability_residual(fld: GriddedField, q: float) -> float:
    """|int_Omega u^q dm - int_0^|Omega| (u*)^q ds|.

    Both sides are sums over the same value multiset, so this vanishes to
    rounding; it is a self-test of the bookkeeping, not of the field.
    """
    vals = _masked_values(fld)
    grid_side = float(np.sum(vals**q)) * fld.h**2
    profile_side = decreasing_rearrangement(fld).power_integral(q)
    return abs(grid_side - profile_side)


# ------------------------------------------------ the paper's identities

def verify_talenti(u_star: VolumeProfile, cp: float, n: int, p: float,
                   s_min: float | None = None) -> float:
    """Worst signed violation of the rearrangement comparison bound.

    The decreasing rearrangement of an extremal with constant cp obeys

        -(u*)'(s) <= cp n^-2 omega_n^(-2/n) s^(-2+2/n) int_0^s (u*)^(p-1) dt.

    A staircase rearrangement cannot support a pointwise slope check:
    level curves sweep whole lattice rows at once, so consecutive cells
    carry value jumps of order h*|grad u| and any difference quotient is
    O(1) noisy no matter the window.  Integrating the inequality from s
    to the domain volume S instead compares plain profile values,

        u*(s) - u*(S) <= int_s^S rhs(t) dt,

    where cell-counting noise enters only through u*(s) itself and stays
    O(h).  Both sides are evaluated at every cell midpoint: the inner
    cumulative integral is the profile's exact step integral and the
    outer one is a trapezoid sum over midpoints.  Returns the largest
    value of LHS - RHS over midpoints >= s_min (default four cells, past
    the singular prefactor region).  A nonpositive return certifies the
    integrated inequality on the grid; small positive values are
    discretization noise.
    """
    cell = float(np.median(np.diff(u_star.s)))
    if s_min is None:
        s_min = 4.0 * cell
    mids = 0.5 * (u_star.s[:-1] + u_star.s[1:])
    vals = np.asarray(u_star.values, dtype=float)
    omega = unit_ball_volume(n)
    cum = cumulative_at(u_star, mids, power=p - 1.0)
    rhs = cp * n**-2.0 * omega ** (-2.0 / n) * mids ** (-2.0 + 2.0 / n) * cum
    rhs_cum = cumulative_trapezoid(rhs, mids, initial=0.0)
    lhs = vals - vals[-1]
    violation = lhs - (rhs_cum[-1] - rhs_cum)
    keep = mids >= s_min
    if not np.any(keep):
        raise ValueError("s_min excludes every midpoint")
    return float(np.max(violation[keep]))


def verify_integro_differential(vp: VolumeProfile, cp: float, n: int, p: float,
                                s_min: float | None = None) -> float:
    """Residual of the profile identity

        (phi*)'(s) = -cp n^-2 omega_n^(-2/n) s^(-2+2/n) int_0^s (phi*)^(p-1) dt,

    max |LHS - RHS| over s >= s_min, for phi* read at the cell midpoints
    (as radial.volume_profile gives it).  LHS is the slope between adjacent
    midpoints; RHS is taken at the later one, its integral the exact step
    integral to that cell's left edge plus half the cell.  The default
    s_min is max(1% of the total volume, two grid cells) for n <= 2 and
    10% for n >= 3: ball profiles behave like max - const*s^(2/n) near
    s = 0, so for n >= 3 the curvature blows up at the origin and
    first-order differences need a wider berth from the singular
    prefactor.  Discrete rearrangements u* have no pointwise slope; they
    are checked by verify_talenti.
    """
    s, v = vp.s, vp.values
    if s_min is None:
        frac = 0.01 if n <= 2 else 0.10
        s_min = max(frac * vp.total_volume, 2.0 * float(np.max(np.diff(s))))
    if np.all(v == 0.0):
        return 0.0
    omega = unit_ball_volume(n)
    mids = 0.5 * (s[:-1] + s[1:])
    lhs = np.diff(v) / np.diff(mids)
    cum = vp.cumulative(p - 1.0)
    later = mids[1:]
    rhs = (-cp * n**-2.0 * omega ** (-2.0 / n) * later ** (-2.0 + 2.0 / n)
           * 0.5 * (cum[1:-1] + cum[2:]))
    keep = later >= s_min
    if not np.any(keep):
        raise ValueError("s_min excludes every sample")
    return float(np.max(np.abs(lhs[keep] - rhs[keep])))


def hlp_dominates(f: VolumeProfile, g: VolumeProfile, q1: float) -> bool:
    """Whether int_0^s f^q1 <= int_0^s g^q1 for every s (within rounding).

    Both cumulative integrals are piecewise linear, so checking the union
    of breakpoints is exact.
    """
    nodes = np.union1d(f.s, g.s)  # both start at 0 and end at their total volume
    F = cumulative_at(f, nodes, q1)
    G = cumulative_at(g, nodes, q1)
    scale = max(float(F[-1]), float(G[-1]), 1e-300)
    return bool(np.all(F <= G + HLP_RTOL * scale))


def hlp_conclusion_check(f: VolumeProfile, g: VolumeProfile, q1: float, q2: float) -> bool:
    """Given cumulative dominance at exponent q1, check the conclusion
    int f^q2 <= int g^q2 for q2 >= q1.

    A violated precondition raises (distinctly from a False conclusion).
    """
    if q2 < q1:
        raise ValueError(f"q2 = {q2} must be >= q1 = {q1}")
    if not hlp_dominates(f, g, q1):
        raise ValueError("dominance precondition fails at exponent q1")
    lhs = f.power_integral(q2)
    rhs = g.power_integral(q2)
    return bool(lhs <= rhs + HLP_RTOL * max(lhs, rhs, 1e-300))


def torsion_form(n: int, q: float, cp1_omega: float) -> float:
    """The p = 1 constant expressed through torsional rigidity P = 4 / C_1.

    K(n, 1, q, cp) = khat_P(n, q) * P^((n/(n+2))(1 - 1/q)) with the factor
    4^(-(n/(n+2))(1-1/q)) absorbed into khat_P; exact consistency with
    constant_K is asserted.  Note alpha(n, 1) = -(n+2), so the P form is
    the dilation law in disguise.
    """
    check_exponents(n, 1.0, [q])
    P = 4.0 / cp1_omega
    expo = (n / (n + 2.0)) * (1.0 - 1.0 / q)
    khat_p_form = khat(n, 1.0, q) * 4.0 ** (-expo)
    value = khat_p_form * P**expo
    ref = constant_K(n, 1.0, q, cp1_omega)
    if not math.isclose(value, ref, rel_tol=1e-10):
        raise VerificationError(
            f"torsion form {value!r} disagrees with the dilation form {ref!r}",
            stage="constant")
    return value
