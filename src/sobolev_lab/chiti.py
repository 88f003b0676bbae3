"""Comparison balls, single-crossing analysis, and the sharp reverse Holder constant.

Given an extremal u on a planar domain with constant cp, the comparison
ball B* is the ball sharing that constant.  The rearranged profiles phi*
(ball) and u* (domain) cross exactly once; cumulative dominance of the
p-th powers then yields ||u||_p >= K ||u||_q with the ball-extremal
constant K, sharp because balls achieve equality.  verify_reverse_holder
runs that chain on a solved extremal, one stage function per step:
comparison_ball, dominance_check (which forms the cumulative difference
I once), crossing_analysis on that I, then constant_K and khat for the
norm inequality.  Every gate on I is judged in one grid unit c, the
p-mass h^2 u*(0)^p of u*'s fullest cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (AdmissibilityError, CrossingError, VerificationError, alpha,
                   check_exponents, checked_power, unit_ball_volume)
from .elliptic import SobolevResult
from .radial import RadialProfile, VolumeProfile, unit_ball_profile, volume_profile
from .rearrange import decreasing_rearrangement

__all__ = [
    "ComparisonBall",
    "CrossingAnalysis",
    "ReverseHolderRow",
    "ReverseHolderReport",
    "comparison_ball",
    "crossing_analysis",
    "dominance_check",
    "constant_K",
    "khat",
    "verify_reverse_holder",
]

TWO_PATH_RTOL = 1e-8
MARGIN_TOL = 1e-3      # relative slack on reported margins


@dataclass(frozen=True, eq=False)
class ComparisonBall:
    """Ball B* with the same constant as the domain under comparison."""

    rho: float
    bstar_volume: float
    phi_star: VolumeProfile         # on the given cell edges, read at the midpoints; 0 past |B*|


@dataclass(frozen=True, eq=False)
class CrossingAnalysis:
    """Where I = int_0^s (phi*)^p - int_0^s (u*)^p peaks, in scalars."""

    s1: float
    crossing_count: int     # 0 for identical profiles, else 1
    max_I: float
    wrong_way: float    # I's total fall before its argmax plus its total rise after

    @property
    def identical(self) -> bool:  # phi* = u* within the grid unit: the ball
        return self.crossing_count == 0


def _ball_radius(n: int, p: float, cp_omega: float) -> tuple[RadialProfile, float]:
    """The unit-ball profile and, by the dilation law rho = (cp/cp_B)^(1/alpha),
    the radius of the ball whose constant is cp_omega."""
    if not 0 < cp_omega < math.inf:
        raise ValueError(f"cp_omega must be finite and positive, got {cp_omega!r}")
    prof = unit_ball_profile(n, p)
    return prof, checked_power(cp_omega / prof.cp_ball, 1.0 / alpha(n, p),
                               f"the ball radius of cp_omega = {cp_omega!r}")


def comparison_ball(cp_omega: float, n: int, p: float, s) -> ComparisonBall:
    """Build B* with C_p(B*) = cp_omega.

    phi* is radial.volume_profile of the ball extremal on the increasing
    cell edges s from 0 to |Omega|, one value per cell, read at its
    midpoint; s may be the domain profile u* itself, whose edge and width
    arrays phi* then shares.  A B* larger than |Omega| = s[-1] is cut off
    there, and dominance_check's mass gate bounds the mass cut off.
    """
    volume = float(np.asarray(s.s if isinstance(s, VolumeProfile) else s, dtype=float)[-1])
    if not 0 < volume < math.inf:
        raise ValueError(f"the domain volume s[-1] must be finite and positive, got {volume!r}")
    prof, rho = _ball_radius(n, p, cp_omega)
    bvol = unit_ball_volume(n) * checked_power(
        rho, n, f"the volume of the comparison ball of cp_omega = {cp_omega!r}")
    return ComparisonBall(rho=rho, bstar_volume=bvol,
                          phi_star=volume_profile(prof, s, radius=rho))


def crossing_analysis(s: np.ndarray, I: np.ndarray, c: float) -> CrossingAnalysis:
    """Locate the single downward crossing of phi* and u* from I on u*'s cell edges s.

    I is dominance_check's I(s) = int_0^s (phi*)^p - int_0^s (u*)^p, with
    I(0) = 0.  Its slope on each cell has the sign of D = phi* - u*, so
    one downward crossing of D is where I peaks, and I is linear on each
    cell, so that peak sits at an edge.  c is the run's grid unit.
    max |I| <= c reports identical profiles (the ball equality case).
    Else a wrong-way variation (I's total fall before its argmax plus its
    total rise after) below max I reports one crossing at the argmax
    edge (a second lobe of D that swings back less is not counted), and
    any other I raises a CrossingError naming both numbers.
    """
    k = int(np.argmax(I))
    max_I = float(I[k])
    step = np.diff(I)  # I's change across each cell
    wrong_way = (float(np.sum(step[k:], where=step[k:] > 0.0))
                 - float(np.sum(step[:k], where=step[:k] < 0.0)))
    if max_I <= c and -float(np.min(I)) <= c:
        return CrossingAnalysis(s1=math.nan, crossing_count=0, max_I=max_I,
                                wrong_way=wrong_way)
    if wrong_way >= max_I:
        raise CrossingError(f"I moves the wrong way by {wrong_way:.6g} against its maximum "
                            f"{max_I:.6g}; expected a single downward crossing")
    return CrossingAnalysis(s1=float(s[k]), crossing_count=1, max_I=max_I,
                            wrong_way=wrong_way)


def dominance_check(u_star: VolumeProfile, ball: ComparisonBall, p: float,
                    c: float) -> np.ndarray:
    """I(s) = int_0^s (phi*)^p - int_0^s (u*)^p at u*'s cell edges, formed once.

    phi* must be a step profile on u*'s cells (ValueError otherwise), so
    I is compared edge by edge.  Both profiles must carry the unit L^p
    mass within the grid unit c, read at the ends of the two cumulatives
    before I is formed in place from them.  The single-crossing
    structure forces I >= 0 up to discretization: I(0) = 0, while
    I(|Omega|) is phi*'s quadrature deficit, the midpoint rule's error in
    its unit mass (a B* spilling past |Omega| adds its cut-off mass).
    """
    if not np.array_equal(ball.phi_star.s, u_star.s):
        raise ValueError("phi* is not a step profile on u*'s cells")
    cum_u, I = u_star.cumulative(p), ball.phi_star.cumulative(p)
    for name, mass in (("domain", cum_u[-1]), ("ball", I[-1])):
        if abs(mass - 1.0) > c:
            raise VerificationError(
                f"{name} profile has L^p mass {mass:.8f}, expected 1 within {c:.3g}",
                stage="dominance")
    I -= cum_u
    return I


def constant_K(n: int, p: float, q: float, cp_omega: float) -> float:
    """Sharp constant K(n, p, q, cp) with ||u||_p >= K ||u||_q.

    Computed two ways: directly as ||phi||_p / ||phi||_q on the comparison
    ball of constant cp_omega, and as khat(n, p, q) * cp^((n/alpha)(1/p - 1/q)).
    The two must agree to TWO_PATH_RTOL or the computation aborts.
    """
    check_exponents(n, p, [q])
    prof, rho = _ball_radius(n, p, cp_omega)
    expo = (n / alpha(n, p)) * (1.0 / p - 1.0 / q)
    what = f"cp_omega = {cp_omega!r}"
    # ||phi_rho||_q = rho^(n/q - n/p) ||phi||_q on the unit ball
    direct = (checked_power(rho, n * (1.0 / p - 1.0 / q), f"K of {what}")
              * prof.lp_norm(p) / prof.lp_norm(q))
    via_power = khat(n, p, q) * checked_power(cp_omega, expo, f"K of {what}")
    if abs(direct - via_power) > TWO_PATH_RTOL * abs(direct):
        raise VerificationError(
            f"two-path constant mismatch: {direct!r} vs {via_power!r}", stage="constant")
    return direct


def khat(n: int, p: float, q: float, tol: float = 1e-12) -> float:
    """Domain-independent factor: K = khat(n, p, q) * cp^((n/alpha)(1/p - 1/q))."""
    check_exponents(n, p, [q])
    prof = unit_ball_profile(n, p, tol=tol)
    expo = (n / alpha(n, p)) * (1.0 / p - 1.0 / q)
    return prof.cp_ball ** (-expo) * prof.lp_norm(p) / prof.lp_norm(q)


@dataclass(frozen=True)
class ReverseHolderRow:
    q: float
    khat: float
    K: float
    lhs: float       # ||u||_p
    rhs: float       # K ||u||_q
    margin: float    # lhs - rhs


@dataclass(eq=False)
class ReverseHolderReport:
    """Full record of one reverse Holder verification run."""

    domain: dict | None
    n: int
    p: float
    h: float
    cp: float
    rho: float
    omega_volume: float
    bstar_volume: float
    crossing: CrossingAnalysis
    dominance_min: float
    tau_margin: float
    tau_dominance: float
    rows: list

    def failed_gates(self) -> list:
        """The gates this run fails, by name (a crossing that is not single raises)."""
        gates = {
            "margins": all(row.margin >= -self.tau_margin * max(row.lhs, 1e-300)
                           for row in self.rows),
            "dominance": self.dominance_min >= -self.tau_dominance,
        }
        return [name for name, ok in gates.items() if not ok]

    def passed(self) -> bool:
        return not self.failed_gates()


def verify_reverse_holder(result: SobolevResult, q_list) -> ReverseHolderReport:
    """Run the full comparison pipeline on a solved extremal.

    Stages: rearrange the field, build the comparison ball from the
    computed constant, form the cumulative difference I under the mass
    gate, locate the single crossing on it, read its minimum for the
    dominance gate, then tabulate margins ||u||_p - K ||u||_q for each q.
    Stage failures surface as VerificationError with the stage tag.
    """
    p, qs = result.p, sorted(set(q_list))
    try:
        check_exponents(2, p, qs)  # before float(), which raises past float range
    except AdmissibilityError as exc:
        raise VerificationError(str(exc), stage="preconditions") from exc
    qs = [float(q) for q in qs]
    fld = result.field
    u_star = decreasing_rearrangement(fld)
    ball = comparison_ball(result.cp, 2, p, u_star)
    c = fld.h**2 * float(u_star.values[0]) ** p  # the p-mass of u*'s fullest cell
    I = dominance_check(u_star, ball, p, c)
    crossing = crossing_analysis(u_star.s, I, c)
    dom_min = float(np.min(I))
    del I  # before the norms raise u* to each power

    # u*'s p-th powers sum to its unit mass; other q go through u*/u*(0)
    lhs = u_star.power_integral(p) ** (1.0 / p)
    rows = []
    for q in qs:
        K = constant_K(2, p, q, result.cp)
        rhs = K * (lhs if q == p else u_star.lp_norm(q))
        rows.append(ReverseHolderRow(q=q, khat=khat(2, p, q), K=K, lhs=lhs, rhs=rhs,
                                     margin=lhs - rhs))
    return ReverseHolderReport(
        domain=fld.spec.to_json() if fld.spec is not None else None,
        n=2, p=p, h=fld.h, cp=result.cp, rho=ball.rho,
        omega_volume=u_star.total_volume, bstar_volume=ball.bstar_volume,
        crossing=crossing, dominance_min=dom_min, tau_margin=MARGIN_TOL,
        tau_dominance=c, rows=rows)
