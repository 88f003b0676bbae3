"""Comparison-ball construction, crossing analysis, and the sharp constant."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import oracles
from identities import torsion_form
from sobolev_lab import chiti, elliptic
from sobolev_lab.chiti import (ComparisonBall, comparison_ball, constant_K,
                               crossing_analysis, dominance_check, khat,
                               verify_reverse_holder)
from sobolev_lab.core import (CrossingError, DomainSpec, VerificationError,
                              alpha)
from sobolev_lab.elliptic import build_grid, minimize_quotient
from sobolev_lab.radial import VolumeProfile, unit_ball_profile
from sobolev_lab.rearrange import decreasing_rearrangement


def synthetic_ball(phi: VolumeProfile) -> ComparisonBall:
    """Wrap a hand-built profile so crossing/dominance code can consume it."""
    return ComparisonBall(rho=1.0, bstar_volume=phi.total_volume, phi_star=phi)


def midpoints(s: np.ndarray) -> np.ndarray:
    """The midpoints of the cells with edges s, where hand-built profiles are read."""
    return 0.5 * (s[:-1] + s[1:])


class TestComparisonBall:
    def test_unit_ball_is_its_own_comparison(self):
        cp1 = oracles.torsion_cp(2)
        ball = comparison_ball(cp1, n=2, p=1.0, s=np.linspace(0.0, math.pi, 257))
        assert abs(ball.rho - 1.0) < 1e-10
        assert abs(ball.bstar_volume - math.pi) < 1e-9
        assert ball.phi_star.total_volume == math.pi

    def test_scaling_consistency(self):
        # doubling the radius scales the constant by 2^alpha
        cp1 = oracles.torsion_cp(2)
        a = alpha(2, 1.0)
        s = np.linspace(0.0, 8.0 * math.pi, 257)
        ball = comparison_ball(cp1 * 2.0**a, n=2, p=1.0, s=s)
        rho = ball.rho
        assert abs(rho - 2.0) < 1e-9
        assert abs(ball.bstar_volume - 4.0 * math.pi) < 1e-8
        # phi* is read off the dense output at the given cells' midpoints, 0 past |B*|
        np.testing.assert_array_equal(ball.phi_star.s, s)
        expected = rho**-2 * oracles.disk_p1_volume_profile(midpoints(s) / rho**2)
        assert np.max(np.abs(ball.phi_star.values - expected)) < 1e-12

    def test_oversized_ball_rejected(self):
        # constant below the ball value forces |B*| > |Omega|
        cp1 = oracles.torsion_cp(2)
        with pytest.raises(VerificationError, match="isoperimetric") as exc:
            comparison_ball(cp1, n=2, p=1.0, s=np.linspace(0.0, 1.0, 5))
        assert exc.value.stage == "comparison_ball"

    def test_truncation_within_slack(self):
        # |B*| exceeding |Omega| by less than fk_tol truncates the profile
        cp1 = oracles.torsion_cp(2)
        total = 0.97 * math.pi
        ball = comparison_ball(cp1, n=2, p=1.0, s=np.linspace(0.0, total, 129))
        assert ball.bstar_volume > total
        assert ball.phi_star.s[-1] == total
        assert ball.phi_star.values[-1] >= 0.0
        assert ball.phi_star.total_volume == total

    def test_invalid_arguments(self):
        # a nan or infinite constant is refused by name, not met later as a
        # radius, and so is a subnormal one, whose ball radius is past float range
        for cp, p in ((0.0, 1.0), (math.nan, 1.0), (math.inf, 1.0), (5e-324, 2.0),
                      (np.float64(5e-324), 2.0)):
            with pytest.raises(ValueError, match="cp_omega"):
                comparison_ball(cp, n=2, p=p, s=np.linspace(0.0, 1.0, 5))
        with pytest.raises(ValueError):
            comparison_ball(1.0, n=2, p=1.0, s=np.array([0.0, -1.0]))


class TestStepRule:
    """phi* is a step profile on u*'s cells, read at their midpoints, so the
    crossing compares one value per cell and dominance one per edge."""

    @pytest.mark.parametrize("spec,p,bound", [
        (DomainSpec.ellipse(1.0, 0.5), 1.5, 1e-9),   # p-mass error -4.23e-10 measured
        (DomainSpec.l_shape(1.0, 0.45), 1.7, 1e-8),  # -3.09e-9 measured
    ], ids=["ellipse", "l-shape"])
    def test_phi_star_on_cells(self, spec, p, bound):
        res = minimize_quotient(build_grid(spec, 1.0 / 128), p)
        u_star = decreasing_rearrangement(res.field)
        ball = comparison_ball(res.cp, n=2, p=p, s=u_star.s)
        mid = midpoints(u_star.s)
        r = np.clip((mid / ball.bstar_volume) ** 0.5, 0.0, 1.0)
        phi = ball.rho ** (-2.0 / p) * unit_ball_profile(2, p).phi(r)
        np.testing.assert_array_equal(ball.phi_star.s, u_star.s)
        np.testing.assert_array_equal(ball.phi_star.values,
                                      np.where(mid < ball.bstar_volume, phi, 0.0))
        cross = crossing_analysis(u_star, ball)
        assert cross.crossing_count == 1
        # max |D| of D = phi* - u* on u*'s cells, one value per cell
        assert cross.max_abs_difference == np.max(np.abs(ball.phi_star.values - u_star.values))
        I = ball.phi_star.cumulative(p) - u_star.cumulative(p)
        assert I.shape == u_star.s.shape and I[0] == 0.0
        assert dominance_check(u_star, ball, p) == I.min()
        assert abs(ball.phi_star.power_integral(p) - 1.0) <= bound


class TestCrossingAnalysis:
    def test_square_crosses_once(self, solve):
        res = solve("square", 2.0)
        u_star = decreasing_rearrangement(res.field)
        ball = comparison_ball(res.cp, n=2, p=2.0, s=u_star.s)
        cross = crossing_analysis(u_star, ball)
        D = ball.phi_star.values - u_star.values
        assert cross.max_abs_difference == np.max(np.abs(D))
        assert not cross.identical
        assert cross.crossing_count == 1
        assert 0.0 < cross.s1 < ball.bstar_volume
        # s1 interpolates D between two adjacent cell midpoints where it turns negative
        mid = midpoints(u_star.s)
        k = int(np.searchsorted(mid, cross.s1)) - 1
        assert mid[k] <= cross.s1 < mid[k + 1] and D[k] >= 0.0 > D[k + 1]

    def test_disk_reports_identical(self, solve):
        res = solve("disk", 2.0)
        u_star = decreasing_rearrangement(res.field)
        ball = comparison_ball(res.cp, n=2, p=2.0, s=u_star.s)
        cross = crossing_analysis(u_star, ball)
        assert cross.identical
        assert cross.crossing_count == 0
        assert math.isnan(cross.s1)

    def test_domain_dominating_everywhere_rejected(self):
        s = np.linspace(0.0, 1.0, 101)
        m = midpoints(s)
        phi = VolumeProfile(s=s, values=1.0 - m)
        u = VolumeProfile(s=s, values=1.05 - m)
        with pytest.raises(CrossingError, match="cannot share") as exc:
            crossing_analysis(u, synthetic_ball(phi))
        assert exc.value.difference.shape == exc.value.s.shape

    def test_one_cell_rejected(self):
        # a single cell has no jump to set a band, and no room for a crossing
        u = VolumeProfile(s=np.array([0.0, 1.0]), values=np.array([1.0]))
        with pytest.raises(CrossingError, match="cannot share"):
            crossing_analysis(u, synthetic_ball(VolumeProfile(s=u.s, values=np.array([0.9]))))

    def test_no_crossing_rejected(self):
        s = np.linspace(0.0, 1.0, 101)
        m = midpoints(s)
        phi = VolumeProfile(s=s, values=1.0 - m)
        u = VolumeProfile(s=s, values=0.5 * (1.0 - m))
        with pytest.raises(CrossingError, match="no crossing"):
            crossing_analysis(u, synthetic_ball(phi))

    def test_multiple_crossings_rejected(self):
        s = np.linspace(0.0, 1.0, 401)
        m = midpoints(s)
        phi = VolumeProfile(s=s, values=1.05 - m)
        u = VolumeProfile(s=s, values=1.05 - m + 0.05 * np.cos(3 * np.pi * m))
        with pytest.raises(CrossingError, match="changes sign"):
            crossing_analysis(u, synthetic_ball(phi))

    def test_identical_profiles(self):
        s = np.linspace(0.0, 1.0, 101)
        phi = VolumeProfile(s=s, values=1.0 - midpoints(s))
        cross = crossing_analysis(phi, synthetic_ball(phi))
        assert cross.identical and cross.crossing_count == 0

    def test_ball_on_other_nodes_rejected(self, solve):
        # both stages read phi* and u* on u*'s own cells, with no resampling
        res = solve("square", 2.0)
        u_star = decreasing_rearrangement(res.field)
        ball = comparison_ball(res.cp, n=2, p=2.0,
                               s=np.linspace(0.0, u_star.total_volume, 257))
        with pytest.raises(ValueError, match="u\\*'s cells"):
            crossing_analysis(u_star, ball)
        with pytest.raises(ValueError, match="u\\*'s cells"):
            dominance_check(u_star, ball, p=2.0, norm_tol=1.0)

    def test_no_non_negative_prefix_rejected(self):
        # D = phi* - u* climbs from -1 to +0.005, inside its band of 0.015: no
        # cell lies above the band, and none before the first one below it is >= 0
        n = 200
        i = np.arange(n)
        u = VolumeProfile(s=np.arange(n + 1.0), values=3.0 - 2.0 * i / n)
        phi = VolumeProfile(s=u.s, values=u.values - 1.0 + 1.01 * i / n)
        with pytest.raises(CrossingError, match="no non-negative prefix") as exc:
            crossing_analysis(u, synthetic_ball(phi))
        assert exc.value.difference.shape == exc.value.s.shape == (n,)

    def test_hand_crossing_location(self):
        # phi = 1 - s and u = 0.75 - 0.5 s cross at s = 0.5 exactly
        s = np.linspace(0.0, 1.0, 101)
        m = midpoints(s)
        phi = VolumeProfile(s=s, values=1.0 - m)
        u = VolumeProfile(s=s, values=0.75 - 0.5 * m)
        cross = crossing_analysis(u, synthetic_ball(phi))
        assert cross.crossing_count == 1
        assert abs(cross.s1 - 0.5) < 1e-9


class TestDominance:
    def test_identical_profiles_give_zero(self):
        s = np.linspace(0.0, 1.0, 101)
        phi = VolumeProfile(s=s, values=2.0 * (1.0 - midpoints(s)))  # unit L^1 mass
        assert dominance_check(phi, synthetic_ball(phi), p=1.0) == 0.0

    def test_early_excess_detected(self):
        # u carries more mass than phi near s = 0, so I dips negative; u is
        # 3 on [0, 0.1) and 0.7/0.9 after, on phi's cells
        s = np.linspace(0.0, 1.0, 101)
        phi = VolumeProfile(s=s, values=2.0 * (1.0 - midpoints(s)))
        u = VolumeProfile(s=s, values=np.where(np.arange(100) < 10, 3.0, 0.7 / 0.9))
        assert abs(u.power_integral(1.0) - 1.0) < 1e-12
        assert dominance_check(u, synthetic_ball(phi), p=1.0) < -0.05

    def test_normalization_gate(self):
        s = np.linspace(0.0, 1.0, 101)
        m = midpoints(s)
        phi = VolumeProfile(s=s, values=2.0 * (1.0 - m))
        bad = VolumeProfile(s=s, values=2.4 * (1.0 - m))
        with pytest.raises(VerificationError, match="L\\^p mass") as exc:
            dominance_check(bad, synthetic_ball(phi), p=1.0)
        assert exc.value.stage == "dominance"

    def test_square_extremal_dominated(self, solve):
        res = solve("square", 1.0)
        u_star = decreasing_rearrangement(res.field)
        ball = comparison_ball(res.cp, n=2, p=1.0, s=u_star.s)
        h = res.field.h
        assert dominance_check(u_star, ball, p=1.0, norm_tol=5 * h) >= -5 * h


class TestConstantK:
    def test_q_equals_p_is_one(self):
        for p in (1.0, 1.5, 2.0):
            assert constant_K(2, p, p, 3.7) == 1.0

    def test_khat_22_is_one(self):
        assert khat(2, 2.0, 2.0) == 1.0

    def test_disk_p1_q2_value(self):
        # closed form sqrt(3 pi) / 2 at the unit-disk constant
        K = constant_K(2, 1.0, 2.0, oracles.DISK_TORSION_CP)
        assert abs(K - oracles.K_DISK_1_2) < 1e-6

    def test_doubling_power_law(self):
        # exponent (n/alpha)(1/p - 1/q) = -1/4 for n=2, p=1, q=2
        K1 = constant_K(2, 1.0, 2.0, 1.3)
        K2 = constant_K(2, 1.0, 2.0, 2.6)
        assert abs(K2 / K1 - oracles.k_constant_25(2.0)) < 1e-10

    def test_two_path_lattice(self):
        for p in (1.0, 1.5, 2.0):
            cp_ball = unit_ball_profile(2, p).cp_ball
            for q in (p, 2.0 * p, 4.0):
                for factor in (0.1, 1.0, 10.0):
                    K = constant_K(2, p, q, factor * cp_ball)
                    assert K > 0.0

    def test_invalid_arguments(self):
        with pytest.raises(ValueError, match="must be >="):
            constant_K(2, 2.0, 1.0, 1.0)
        # nan would fail the two-path check silently (nan != nan) and inf give K = 0
        for cp in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="cp_omega must be finite and positive"):
                constant_K(2, 1.0, 2.0, cp)
        # finite and positive, but cp_omega / cp_ball underflows to 0 before
        # a negative power: the ball radius is past float range, for a
        # numpy scalar too, whose power would only warn
        for p, q in ((2.0, 3.0), (1.0, 3.0)):
            with pytest.raises(ValueError, match=r"cp_omega = 5e-324 is out of float range"):
                constant_K(2, p, q, 5e-324)
            with pytest.raises(ValueError, match=r"cp_omega = .*5e-324\)? is out of float range"):
                constant_K(2, p, q, np.float64(5e-324))
        with pytest.raises(ValueError):
            khat(2, 2.0, 1.5)

    def test_monotone_in_q(self):
        # fixed cp: larger q strengthens the inequality through a smaller rhs
        # norm on a unit-mass profile, so K grows
        Ks = [constant_K(2, 1.0, q, oracles.DISK_TORSION_CP)
              for q in (1.0, 1.5, 2.0, 3.0, 4.0)]
        assert all(a < b for a, b in zip(Ks, Ks[1:]))


class TestTorsionForm:
    def test_matches_dilation_form(self):
        for cp1 in (1.0, oracles.DISK_TORSION_CP, 10.0):
            for q in (1.0, 2.0, 4.0):
                v = torsion_form(2, q, cp1)
                ref = constant_K(2, 1.0, q, cp1)
                assert math.isclose(v, ref, rel_tol=1e-10)

    def test_q_one_collapses_to_unity(self):
        # exponent (n/(n+2))(1 - 1/q) vanishes at q = 1 and khat(n,1,1) = 1
        assert torsion_form(2, 1.0, 0.37) == 1.0
        assert torsion_form(3, 1.0, 5.1) == 1.0

    def test_rejects_q_below_one(self):
        with pytest.raises(ValueError):
            torsion_form(2, 0.5, 1.0)

    def test_eigenvalue_exponent_is_exact(self):
        # p = 2 sits at alpha = -2 for every n, the scale-invariance of
        # the Rayleigh quotient numerator and denominator together
        for n in range(2, 6):
            assert alpha(n, 2.0) == -2.0


class TestVerifyReverseHolder:
    def test_square_full_pipeline(self, solve):
        res = solve("square", 1.0)
        report = verify_reverse_holder(res, [1.0, 2.0, 4.0])
        assert report.passed()
        assert not report.crossing.identical
        assert report.crossing.crossing_count == 1
        assert [row.q for row in report.rows] == [1.0, 2.0, 4.0]
        for row in report.rows:
            assert row.margin >= -report.tau_margin * row.lhs
            assert abs(row.lhs - 1.0) < 5 * res.field.h  # unit normalization
        assert report.bstar_volume < report.omega_volume
        spec = DomainSpec.from_json(report.domain)
        assert "rectangle" in spec.describe()

    def test_disk_equality_case(self, solve):
        res = solve("disk", 2.0)
        report = verify_reverse_holder(res, [2.0, 4.0])
        assert report.crossing.identical
        assert report.passed()

    def test_preconditions_stage_tagged(self, solve):
        res = solve("square", 2.0)
        with pytest.raises(VerificationError) as exc:
            verify_reverse_holder(dataclasses.replace(res, p=2.5), [3.0])
        assert exc.value.stage == "preconditions"
        with pytest.raises(VerificationError) as exc:
            verify_reverse_holder(res, [])
        assert exc.value.stage == "preconditions"
        with pytest.raises(VerificationError) as exc:
            verify_reverse_holder(res, [1.5])
        assert exc.value.stage == "preconditions"

    def test_q_list_order_and_duplicates(self, solve):
        res = solve("square", 2.0)
        r1 = verify_reverse_holder(res, [2.0, 3.0, 4.0])
        r2 = verify_reverse_holder(res, [4.0, 2.0, 3.0, 2.0])
        assert [row.q for row in r1.rows] == [row.q for row in r2.rows]
        assert [row.margin for row in r1.rows] == [row.margin for row in r2.rows]

    def test_row_khat_is_khat(self, solve):
        report = verify_reverse_holder(solve("square", 2.0), [2.0, 3.0, 4.0])
        assert [row.khat for row in report.rows] == [khat(2, 2.0, q) for q in (2.0, 3.0, 4.0)]

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0], ids=["p1", "p1.5", "p2"])
    def test_memory_stays_under_the_solve(self, monkeypatch, p):
        # a cold solve at h = 1/128, then verify on its result, counting what
        # the solve left behind (the field and the kept coarse operators).
        # Measured at p = 1, 1.5 and 2, in grid arrays: the disk 8.37, 8.41
        # and 8.39, the ellipse 8.57, 8.58 and 8.58, the l-shape 8.43, 8.44 and
        # 8.44, against the solves' 9.32 to 10.12.  phi* shares u*'s cells and
        # is evaluated in its own midpoint array, a power's integral is kept
        # as a float, and the reports hold no array.
        profiles = []

        def kept(profile):
            profiles.append(profile)
            return profile

        monkeypatch.setattr(chiti, "decreasing_rearrangement",
                            lambda fld: kept(decreasing_rearrangement(fld)))
        monkeypatch.setattr(chiti, "comparison_ball",
                            lambda *args: kept(comparison_ball(*args)))
        for spec in (DomainSpec.disk(1.0), DomainSpec.ellipse(1.0, 0.5),
                     DomainSpec.l_shape(1.0, 0.45)):
            grid = build_grid(spec, 1.0 / 128)
            monkeypatch.setattr(elliptic, "_last_operators", None)
            profiles.clear()
            tracemalloc.start()
            try:
                res = minimize_quotient(grid, p)
                solve_peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.reset_peak()
                report = verify_reverse_holder(res, [p, 3.0, 4.0])
                verify_peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert verify_peak <= 9.0 * grid.values.nbytes, spec
            assert verify_peak < solve_peak, spec
            for record in (report, report.crossing):
                assert not any(isinstance(v, np.ndarray) for v in vars(record).values())
            u_star, ball = profiles
            assert np.shares_memory(ball.phi_star._widths, u_star._widths)
            for profile in (u_star, ball.phi_star):
                arrays = [v for v in vars(profile).values() if isinstance(v, np.ndarray)]
                assert len(arrays) == 3  # s, values and the widths
                assert profile._integrals and all(type(v) is float
                                                  for v in profile._integrals.values())

    def test_each_power_taken_once(self, solve, monkeypatch):
        # u* is raised to p and to every other q once, phi* to p once
        res = solve("square", 2.0)
        plain = verify_reverse_holder(res, [2.0, 3.0, 4.0])
        powers = []

        class Counted(np.ndarray):
            def __array_finalize__(self, obj):
                self.tag = getattr(obj, "tag", None)

            def __pow__(self, power):
                powers.append((self.tag, float(power)))
                return super().__pow__(power)

        def counted(profile, tag):
            values = profile.values.view(Counted)
            values.tag = tag
            object.__setattr__(profile, "values", values)
            return profile

        def counted_ball(*args, **kwargs):
            ball = comparison_ball(*args, **kwargs)
            counted(ball.phi_star, "phi*")
            return ball

        monkeypatch.setattr(chiti, "decreasing_rearrangement",
                            lambda fld: counted(decreasing_rearrangement(fld), "u*"))
        monkeypatch.setattr(chiti, "comparison_ball", counted_ball)
        report = verify_reverse_holder(res, [2.0, 3.0, 4.0])
        assert sorted(powers) == [("phi*", 2.0), ("u*", 2.0), ("u*", 3.0), ("u*", 4.0)]
        assert [row.margin for row in report.rows] == [row.margin for row in plain.rows]
        assert report.dominance_min == plain.dominance_min

    def test_tampered_margin_fails(self, solve):
        res = solve("square", 2.0)
        report = verify_reverse_holder(res, [2.0, 4.0])
        assert report.passed()
        report.rows[0] = dataclasses.replace(report.rows[0], margin=-1.0)
        assert not report.passed()
        assert report.failed_gates() == ["margins"]

    def test_planted_dominance_failure(self, solve, monkeypatch):
        monkeypatch.setattr(chiti, "dominance_check", lambda *args, **kwargs: -1.0)
        report = verify_reverse_holder(solve("square", 2.0), [2.0, 4.0])
        assert report.dominance_min == -1.0 < -report.tau_dominance
        assert not report.passed()
        assert report.failed_gates() == ["dominance"]
