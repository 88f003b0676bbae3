"""Comparison balls, single-crossing analysis, and the sharp reverse Holder constant.

Given an extremal u on a planar domain with constant cp, the comparison
ball B* is the ball sharing that constant.  The rearranged profiles phi*
(ball) and u* (domain) cross exactly once; cumulative dominance of the
p-th powers then yields ||u||_p >= K ||u||_q with the ball-extremal
constant K, sharp because balls achieve equality.  verify_reverse_holder
runs that chain on a solved extremal, one stage function per step:
comparison_ball, crossing_analysis, dominance_check, then constant_K and
khat for the norm inequality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (AdmissibilityError, CrossingError, VerificationError, alpha,
                   check_exponents, checked_power, unit_ball_volume)
from .elliptic import SobolevResult
from .radial import VolumeProfile, unit_ball_profile, volume_profile
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
FK_TOL = 0.05          # slack on |B*| <= |Omega| for rasterization error
MARGIN_TOL = 1e-3      # relative slack on reported margins
DOMINANCE_FACTOR = 5.0 # tau_I = 5 h, calibrated on the disk self-test


@dataclass(frozen=True, eq=False)
class ComparisonBall:
    """Ball B* with the same constant as the domain under comparison."""

    rho: float
    bstar_volume: float
    phi_star: VolumeProfile         # on the given cell edges, read at the midpoints; 0 past |B*|


@dataclass(frozen=True, eq=False)
class CrossingAnalysis:
    """Sign structure of D = phi* - u* after noise-band suppression, in scalars."""

    s1: float
    crossing_count: int
    band: float
    max_abs_difference: float
    identical: bool


def comparison_ball(cp_omega: float, n: int, p: float, s) -> ComparisonBall:
    """Build B* with C_p(B*) = cp_omega via the dilation law rho = (cp/cp_B)^(1/alpha).

    phi* is radial.volume_profile of the ball extremal on the increasing
    cell edges s from 0 to |Omega|, one value per cell, read at its
    midpoint; s may be the domain profile u* itself, whose edge and width
    arrays phi* then shares.
    |B*| may not exceed |Omega| = s[-1] beyond rasterization slack
    (FK_TOL), since a larger comparison ball would contradict the
    isoperimetric ordering of the constants.
    """
    volume = float(np.asarray(s.s if isinstance(s, VolumeProfile) else s, dtype=float)[-1])
    if not (0 < cp_omega < math.inf and 0 < volume < math.inf):
        raise ValueError(f"cp_omega and the domain volume s[-1] must be finite and "
                         f"positive, got {cp_omega!r} and {volume!r}")
    prof = unit_ball_profile(n, p)
    what = f"the comparison ball of cp_omega = {cp_omega!r}"
    rho = checked_power(cp_omega / prof.cp_ball, 1.0 / alpha(n, p), f"the radius of {what}")
    bvol = unit_ball_volume(n) * checked_power(rho, n, f"the volume of {what}")
    if bvol > volume * (1.0 + FK_TOL):
        raise VerificationError(
            f"comparison ball volume {bvol:.6g} exceeds the domain volume "
            f"{volume:.6g}: the constant is below the ball value, which "
            f"violates the isoperimetric ordering", stage="comparison_ball")
    return ComparisonBall(rho=rho, bstar_volume=bvol,
                          phi_star=volume_profile(prof, s, radius=rho))


def _check_cells(u_star: VolumeProfile, ball: ComparisonBall) -> None:
    if not np.array_equal(ball.phi_star.s, u_star.s):
        raise ValueError("phi* is not a step profile on u*'s cells")


def _crossing_error(message: str, s: np.ndarray, D: np.ndarray) -> CrossingError:
    """A CrossingError carrying D at the midpoints of the cells with edges s."""
    return CrossingError(message, s=0.5 * (s[:-1] + s[1:]), difference=D)


def crossing_analysis(u_star: VolumeProfile, ball: ComparisonBall) -> CrossingAnalysis:
    """Locate the single crossing of D = phi* - u* on u*'s cells.

    phi* must be a step profile on those cells (ValueError otherwise);
    D holds one value per cell, placed at the cell's midpoint.  Values of
    |D| below the noise band are treated as zero.  The band is three
    times the largest jump of D between adjacent cells: a genuine
    profile difference varies smoothly in s while the staircase
    rearrangement jumps by O(h) wherever a level set sweeps a whole
    lattice row, so the worst single-cell jump measures the
    discretization noise floor without looking at D's magnitude itself.
    max |D| <= band over the whole interval reports identical profiles
    (the ball equality case) rather than an error; any other sign pattern
    than one downward crossing raises a CrossingError carrying D.  D and
    its temporaries are freed on return; the record keeps scalars.
    """
    _check_cells(u_star, ball)
    s = u_star.s
    D = ball.phi_star.values - u_star.values
    band = 3.0 * float(np.max(np.abs(np.diff(D)), initial=0.0))  # 0 on one cell
    max_abs = max(float(np.max(D)), -float(np.min(D)))  # max |D|, with no copy of D
    if max_abs <= band:
        return CrossingAnalysis(s1=math.nan, crossing_count=0, band=band,
                                max_abs_difference=max_abs, identical=True)

    pos = D > band
    neg = D < -band
    if not neg.any():
        raise _crossing_error(
            "ball profile never falls below the domain profile; no crossing found", s, D)
    if pos.any():
        i_last_pos = int(np.flatnonzero(pos)[-1])
        if neg[:i_last_pos].any():  # not one downward crossing: count the sign changes
            signs = pos.view(np.int8) - neg.view(np.int8)  # +1, -1, or 0 inside the band
            flips = int(np.count_nonzero(np.diff(signs[signs != 0])))
            raise _crossing_error(f"suppressed difference changes sign {flips} times; "
                                  f"expected a single downward crossing", s, D)
    elif float(np.max(D)) <= 0.0:
        raise _crossing_error("domain profile dominates the ball profile everywhere; the "
                              "two cannot share the unit L^p normalization", s, D)
    else:
        # a positive part inside the band: the crossing hides at the top, after
        # the last non-negative sample before the first one below the band
        nonneg_prefix = np.flatnonzero(D[:int(np.argmax(neg))] >= 0.0)
        if nonneg_prefix.size == 0:
            raise _crossing_error("no non-negative prefix before the downward crossing", s, D)
        i_last_pos = int(nonneg_prefix[-1])

    # root of the raw difference at its first sign change after i_last_pos,
    # where D[i_last_pos] >= 0 and a cell below the band follows: D[j - 1] >= 0 > D[j]
    j = i_last_pos + int(np.argmax(D[i_last_pos:] < 0))
    d0, d1 = D[j - 1], D[j]
    m0, m1 = (s[j - 1] + s[j]) * 0.5, (s[j] + s[j + 1]) * 0.5  # the two cells' midpoints
    s1 = float(m0 + (m1 - m0) * (d0 / (d0 - d1)))
    return CrossingAnalysis(s1=s1, crossing_count=1, band=band,
                            max_abs_difference=max_abs, identical=False)


def dominance_check(u_star: VolumeProfile, ball: ComparisonBall, p: float,
                    norm_tol: float = 1e-4) -> float:
    """min over u*'s cell edges s of I(s) = int_0^s (phi*)^p - int_0^s (u*)^p.

    phi* must be a step profile on u*'s cells (ValueError otherwise), so
    I is compared edge by edge.  Both profiles must carry the unit L^p
    normalization (checked to norm_tol at the ends of the cumulative
    integrals); the single-crossing structure forces I >= 0 up to
    discretization.  I(0) = 0, while I(|Omega|) is phi*'s quadrature
    deficit, the midpoint rule's error in its unit mass, not exactly 0.
    """
    _check_cells(u_star, ball)
    cum_u, cum_phi = u_star.cumulative(p), ball.phi_star.cumulative(p)
    for name, mass in (("domain", cum_u[-1]), ("ball", cum_phi[-1])):
        if abs(mass - 1.0) > norm_tol:
            raise VerificationError(
                f"{name} profile has L^p mass {mass:.8f}, expected 1 within {norm_tol:g}",
                stage="dominance")
    cum_phi -= cum_u  # I(s), in place in a fresh array
    return float(np.min(cum_phi))


def constant_K(n: int, p: float, q: float, cp_omega: float) -> float:
    """Sharp constant K(n, p, q, cp) with ||u||_p >= K ||u||_q.

    Computed two ways: directly as ||phi||_p / ||phi||_q on the comparison
    ball of constant cp_omega, and as khat(n, p, q) * cp^((n/alpha)(1/p - 1/q)).
    The two must agree to TWO_PATH_RTOL or the computation aborts.
    """
    check_exponents(n, p, [q])
    if not 0 < cp_omega < math.inf:
        raise ValueError(f"cp_omega must be finite and positive, got {cp_omega!r}")
    prof = unit_ball_profile(n, p)
    a = alpha(n, p)
    expo = (n / a) * (1.0 / p - 1.0 / q)
    what = f"cp_omega = {cp_omega!r}"
    rho = checked_power(cp_omega / prof.cp_ball, 1.0 / a, f"the ball radius of {what}")
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
        """The gates this run fails, by name: margins, crossing, dominance."""
        gates = {
            "margins": all(row.margin >= -self.tau_margin * max(row.lhs, 1e-300)
                           for row in self.rows),
            "crossing": self.crossing.identical or self.crossing.crossing_count == 1,
            "dominance": self.dominance_min >= -self.tau_dominance,
        }
        return [name for name, ok in gates.items() if not ok]

    def passed(self) -> bool:
        return not self.failed_gates()


def verify_reverse_holder(result: SobolevResult, q_list) -> ReverseHolderReport:
    """Run the full comparison pipeline on a solved extremal.

    Stages: rearrange the field, build the comparison ball from the
    computed constant, locate the single crossing, check cumulative
    dominance, then tabulate margins ||u||_p - K ||u||_q for each q.
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
    crossing = crossing_analysis(u_star, ball)
    tau_I = DOMINANCE_FACTOR * fld.h
    # the mass gate tracks the stage budget: a truncated ball profile
    # (B* spilling past |Omega| by rasterization slack) shifts I by at
    # most its mass deficit, which tau_I absorbs
    dom_min = dominance_check(u_star, ball, p, norm_tol=tau_I)

    norm = {q: u_star.power_integral(q) ** (1.0 / q) for q in {p, *qs}}
    rows = []
    for q in qs:
        K = constant_K(2, p, q, result.cp)
        rhs = K * norm[q]
        rows.append(ReverseHolderRow(q=q, khat=khat(2, p, q), K=K, lhs=norm[p], rhs=rhs,
                                     margin=norm[p] - rhs))
    return ReverseHolderReport(
        domain=fld.spec.to_json() if fld.spec is not None else None,
        n=2, p=p, h=fld.h, cp=result.cp, rho=ball.rho,
        omega_volume=u_star.total_volume, bstar_volume=ball.bstar_volume,
        crossing=crossing, dominance_min=dom_min, tau_margin=MARGIN_TOL,
        tau_dominance=tau_I, rows=rows)
