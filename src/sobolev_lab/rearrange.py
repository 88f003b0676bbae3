"""Distribution functions, decreasing rearrangements, and comparison lemmas."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import cumulative_trapezoid, unit_ball_volume
from .elliptic import GriddedField
from .radial import VolumeProfile

__all__ = [
    "DistributionFunction",
    "distribution",
    "decreasing_rearrangement",
    "symmetrized_sample",
    "equimeasurability_residual",
    "verify_talenti",
    "hlp_dominates",
    "hlp_conclusion_check",
]

HLP_RTOL = 1e-12  # relative rounding slack of the dominance comparisons


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


def _masked_values(fld: GriddedField) -> np.ndarray:
    vals = fld.values[fld.mask]
    if np.any(vals < 0):
        raise ValueError("rearrangement machinery expects non-negative fields")
    return vals


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


def decreasing_rearrangement(fld: GriddedField) -> VolumeProfile:
    """u*(s): sorted-descending node values as a step profile over h^2 cells."""
    vals = _masked_values(fld)
    h2 = fld.h**2
    order = np.sort(vals)[::-1]
    breaks = h2 * np.arange(vals.size + 1, dtype=float)
    return VolumeProfile(s=breaks, values=order, step=True)


def symmetrized_sample(fld: GriddedField, x, y) -> np.ndarray:
    """u#(x) = u*(omega_2 |x|^2): the radially decreasing representative."""
    u_star = decreasing_rearrangement(fld)
    r2 = np.asarray(x, dtype=float) ** 2 + np.asarray(y, dtype=float) ** 2
    s = unit_ball_volume(2) * r2
    out = u_star.evaluate(np.clip(s, 0.0, u_star.total_volume))
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
    cum = u_star.cumulative_at(mids, power=p - 1.0)
    rhs = cp * n**-2.0 * omega ** (-2.0 / n) * mids ** (-2.0 + 2.0 / n) * cum
    rhs_cum = cumulative_trapezoid(rhs, mids)
    lhs = vals - vals[-1]
    violation = lhs - (rhs_cum[-1] - rhs_cum)
    keep = mids >= s_min
    if not np.any(keep):
        raise ValueError("s_min excludes every midpoint")
    return float(np.max(violation[keep]))


def hlp_dominates(f: VolumeProfile, g: VolumeProfile, q1: float) -> bool:
    """Whether int_0^s f^q1 <= int_0^s g^q1 for every s (within rounding).

    Both cumulative integrals are piecewise linear, so checking the union
    of breakpoints is exact.  Raises if either profile increases.
    """
    nodes = np.union1d(f.s, g.s)  # both start at 0 and end at their total volume
    F = f.cumulative_at(nodes, q1)
    G = g.cumulative_at(nodes, q1)
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
