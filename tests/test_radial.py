"""Radial shooting, normalization, volume profiles, and the profile identity."""

import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import oracles
from identities import cumulative_at, evaluate, verify_integro_differential
from sobolev_lab import AdmissibilityError, cp_ball, radial
from sobolev_lab.chiti import khat
from sobolev_lab.core import InputError, SolverError, alpha, unit_ball_volume
from sobolev_lab.formats import DEFAULT_GRID
from sobolev_lab.radial import (SERIES_RADIUS, RawShot, VolumeProfile, normalize_to_unit_ball,
                                shoot, unit_ball_profile, volume_profile)

# (n, p) pairs the stepper is checked on; (3, 4) needs the supercritical flag
SHOOT_CASES = [(2, 1.0), (2, 1.3), (2, 1.5), (2, 1.8), (2, 2.0),
               (3, 1.5), (3, 2.0), (3, 4.0)]


def volume_nodes(n, radius=1.0, num=DEFAULT_GRID):
    """num equispaced cell edges from 0 to the volume of the radius ball in R^n."""
    return np.linspace(0.0, unit_ball_volume(n) * radius**n, num)


def midpoints(s):
    """The midpoints of the cells with edges s, where volume_profile reads phi*."""
    return 0.5 * (s[:-1] + s[1:])


class TestShoot:
    def test_zero_polished_to_tolerance(self):
        shot = shoot(2, 2.0)
        assert abs(shot.dense(shot.R0)) <= 1e-10

    @pytest.mark.parametrize("n,p", [(2, 1.0), (2, 1.3), (2, 1.5), (2, 1.7), (2, 2.0), (2, 2.5),
                                     (3, 1.5)])
    def test_bisection_piece_matches_dense(self, monkeypatch, n, p):
        # the bisection reads the bracketing step's quintic piece on Python
        # floats: at every midpoint it must give the dense output's bits, so
        # R0 is the zero that a bisection on the dense output finds
        hermite, calls = radial._quintic_hermite, []

        def recording(*nodes):
            evaluate, last = hermite(*nodes)

            def traced(x):
                calls.append((x, last(x)))
                return calls[-1][1]
            return evaluate, traced

        monkeypatch.setattr(radial, "_quintic_hermite", recording)
        shot = shoot(n, p, allow_supercritical=True)
        assert len(calls) >= 19  # 19 to 43 halvings in these cases
        for x, y in calls:
            assert type(x) is float and type(y) is float
            assert y.hex() == shot.dense(np.array([x]))[0].hex()
        lo, hi = float(shot.nodes[-2]), float(shot.nodes[-1])
        while hi - lo > radial.ZERO_TOL:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if shot.dense(np.array([mid]))[0] > 0.0 else (lo, mid)
        assert 0.5 * (lo + hi) == shot.R0

    def test_p2_zero_is_bessel_zero(self):
        # at p = 2, n = 2 the radial equation is Bessel's; the first zero
        # of the shot must match the independent root-finder oracle
        shot = shoot(2, 2.0)
        assert shot.R0 == pytest.approx(oracles.J0_FIRST_ZERO, abs=1e-10)
        assert shot.R0 == pytest.approx(oracles.first_bessel_zero(), abs=1e-10)

    def test_supercritical_gate(self):
        with pytest.raises(AdmissibilityError, match="experimental"):
            shoot(2, 3.0)
        shot = shoot(2, 3.0, allow_supercritical=True)
        assert shot.R0 > 0

    def test_inadmissible_rejected(self):
        with pytest.raises(AdmissibilityError):
            shoot(3, 6.0, allow_supercritical=True)

    def test_supercritical_subcritical_window(self):
        # 2 < p < 2n/(n-2) is admissible once the gate is lifted
        shot = shoot(3, 4.0, allow_supercritical=True)
        assert shot.R0 > 0

    @pytest.mark.parametrize("n,p", SHOOT_CASES)
    def test_matches_scipy_dop853(self, n, p):
        shot = shoot(n, p, allow_supercritical=True)
        R0, y_of, nodes = oracles.dop853_ball_shot(n, p)
        assert shot.R0 == pytest.approx(R0, rel=1e-10)
        ref = normalize_to_unit_ball(RawShot(n=n, p=p, R0=R0, dense=y_of, nodes=nodes))
        assert normalize_to_unit_ball(shot).cp_ball == pytest.approx(ref.cp_ball, rel=1e-10)

    def test_dense_interpolates_between_steps(self):
        shot = shoot(3, 1.5)
        R0, y_of, _ = oracles.dop853_ball_shot(3, 1.5)
        r = np.linspace(0.0, min(shot.R0, R0), 10007)
        assert np.max(np.abs(shot.dense(r) - y_of(r))) < 1e-10

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    def test_sorted_lookup_matches_pointwise(self, p):
        # sorted arrays search the knots into the queries; single points
        # search each query into the knots: the values must agree bit for bit.
        # On the ball of radius R0, phi reads the shot at its own radii, so
        # the Hermite pieces start exactly at the queried knots.
        shot = shoot(2, p)
        for prof, knots in ((normalize_to_unit_ball(shot, radius=shot.R0), shot.nodes),
                            (unit_ball_profile(2, p), unit_ball_profile(2, p).knots)):
            past = knots[-1] * np.array([1.0 + 1e-9, 1.01, 1.5])
            r = np.sort(np.concatenate([
                knots, np.nextafter(knots, -np.inf), np.nextafter(knots, np.inf),
                [0.0, 1e-3 * SERIES_RADIUS, 0.5 * SERIES_RADIUS], past]))
            r = r[r >= 0.0]
            assert r.size > knots.size  # more queries than pieces: the sorted lookup
            got = prof.phi(r)
            ref = np.array([prof.phi(x) for x in r])
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()

    def test_in_place_matches_fresh(self):
        # phi(r, out) evaluates into out, which may be r itself, as
        # volume_profile does; it must give phi(r)'s bits on every path:
        # the sorted lookup, the per-query search, the series start and the
        # zeros past the radius
        prof = unit_ball_profile(2, 1.5)
        rng = np.random.default_rng(17)
        sorted_r = np.linspace(0.0, prof.radius, 4097)
        sorted_r[1] = 0.5 * SERIES_RADIUS
        for r in (sorted_r, rng.permutation(sorted_r),
                  np.concatenate([sorted_r, prof.radius * np.array([1.0 + 1e-9, 1.5, 3.0])]),
                  np.array(0.25), np.array(0.0), np.array(2.0)):
            fresh = np.asarray(prof.phi(r))
            out = r.copy()
            got = prof.phi(out, out=out)
            assert got is out
            assert got.shape == fresh.shape and got.tobytes() == fresh.tobytes()
            other = np.full(r.shape, np.nan)
            assert prof.phi(r, out=other).tobytes() == fresh.tobytes()

    def test_no_zero_before_r_max(self, monkeypatch):
        monkeypatch.setattr(radial, "R_MAX", 1.0)
        with pytest.raises(SolverError, match="no zero"):
            shoot(2, 2.0)

    def test_import_leaves_scipy_integrate_out(self):
        code = "import sys, sobolev_lab.cli; print('scipy.integrate' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env=os.environ | {"PYTHONPATH": os.pathsep.join(sys.path)})
        assert out.stdout.strip() == "False"


class TestUnitBallProfile:
    @pytest.mark.parametrize("n,p,expected", [
        (2, 1.0, 2.5464790894703255),     # 8/pi
        (2, 2.0, 5.783185962946785),      # j0^2
        (3, 2.0, 9.869604401089358),      # pi^2
        (3, 1.0, 3.5809862195676456),     # n(n+2)/omega_n
    ])
    def test_cp_oracles(self, n, p, expected):
        rel = 1e-13 if (n, p) == (2, 1.0) else 1e-12
        assert cp_ball(n, p) == pytest.approx(expected, rel=rel)

    @pytest.mark.parametrize("p", [1.3, 1.5, 1.8, 2.0])
    def test_phi_vanishes_past_the_radius(self, p):
        # the dense output extrapolates its last piece past R0 (it read
        # 14818.5 at r = 1.01 for p = 1.5); phi is 0 there, on arrays and
        # points alike, and keeps its clipped value at the radius itself
        shot = shoot(2, p)
        for prof in (unit_ball_profile(2, p), normalize_to_unit_ball(shot, radius=2.0)):
            past = prof.radius * np.array([1.0 + 1e-9, 1.01, 1.5, 10.0])
            assert np.all(prof.phi(past) == 0.0)
            assert all(prof.phi(r) == 0.0 for r in past)
            edge = float(prof.phi(0.0)) * max(float(shot.dense(shot.R0)), 0.0)
            assert prof.phi(prof.radius) == edge

    def test_strictly_decreasing(self):
        prof = unit_ball_profile(2, 1.5)
        assert np.all(np.diff(prof.phi(np.linspace(0.0, 1.0, DEFAULT_GRID))) < 0)

    def test_unit_lp_norm_by_independent_quadrature(self):
        for n, p in [(2, 1.0), (2, 2.0), (3, 1.5)]:
            prof = unit_ball_profile(n, p)
            r = np.linspace(0.0, 1.0, 200001)
            integrand = prof.phi(r) ** p * r ** (n - 1)
            norm_p = n * unit_ball_volume(n) * np.trapezoid(integrand, r)
            assert norm_p == pytest.approx(1.0, rel=1e-8)
            for q in (p, 2.0 * p, 4.0):
                integrand = prof.phi(r) ** q * r ** (n - 1)
                norm_q = (n * unit_ball_volume(n) * np.trapezoid(integrand, r)) ** (1.0 / q)
                assert prof.lp_norm(q) == pytest.approx(norm_q, rel=1e-8)

    def test_rk_tolerance_refinement(self):
        for tol in (1e-8, 1e-10):
            coarse = unit_ball_profile(2, 2.0, tol).cp_ball
            fine = unit_ball_profile(2, 2.0, tol / 2).cp_ball
            assert abs(coarse - fine) < 10 * tol

    def test_memoized(self):
        assert unit_ball_profile(2, 2.0) is unit_ball_profile(2, 2.0)

    def test_lp_norm_computed_once_per_q(self, monkeypatch):
        prof = normalize_to_unit_ball(shoot(2, 1.5))
        calls = []
        quadrature = radial._gauss_legendre
        monkeypatch.setattr(radial, "_gauss_legendre",
                            lambda *args: calls.append(args) or quadrature(*args))
        first = [prof.lp_norm(q) for q in (1.5, 3.0, 4.0)]
        assert [prof.lp_norm(q) for q in (4.0, 3.0, 1.5)] == first[::-1]
        assert len(calls) == 3

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    def test_lp_norm_at_large_q(self, p):
        # ||phi||_q tends to phi(0) = max phi, where phi^q alone underflows
        # (phi(0) < 1) or overflows (phi(0) > 1) long before q = 1e10
        prof = unit_ball_profile(2, p)
        top = float(prof.phi(0.0))
        assert abs(prof.lp_norm(1e10) - top) < 3e-9
        assert prof.lp_norm(2000.0) < top

    def test_lp_norm_past_underflow_is_an_input_error(self):
        with pytest.raises(InputError, match=r"q = 1e\+300 is too large"):
            khat(2, 1.01, 1e300)

    def test_gauss_legendre_rule_is_leggauss(self):
        # written out from one LAPACK build; another may differ in the last bit
        nodes, weights = np.polynomial.legendre.leggauss(8)
        np.testing.assert_array_max_ulp(radial.GL_NODES, nodes, maxulp=2)
        np.testing.assert_array_max_ulp(radial.GL_WEIGHTS, weights, maxulp=2)


class TestScalingLaw:
    @pytest.mark.parametrize("r", [0.5, 2.0, 3.0])
    def test_radial_dilation(self, r):
        for n, p in [(2, 1.0), (2, 2.0), (3, 1.5)]:
            expected = r ** alpha(n, p) * cp_ball(n, p)
            assert cp_ball(n, p, radius=r) == pytest.approx(expected, rel=1e-8)

    @pytest.mark.parametrize("n,p,r", [(2, 1.0, 0.7), (2, 1.5, 0.7), (2, 2.0, 1.9),
                                       (3, 1.5, 2.5)])
    def test_dilation_matches_rescaled_shot(self, n, p, r):
        direct = normalize_to_unit_ball(shoot(n, p), radius=r).cp_ball
        assert cp_ball(n, p, radius=r) == pytest.approx(direct, rel=1e-12)

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            cp_ball(2, 2.0, radius=0.0)
        # positive radii whose power r^alpha is past float range, as Python
        # floats and as numpy scalars
        for radius in (5e-324, 1e308, np.float64(5e-324), np.float64(1e308)):
            message = f"radius {radius!r} is out of float range"
            with pytest.raises(ValueError, match=re.escape(message)):
                cp_ball(2, 2.0, radius=radius)
        prof = unit_ball_profile(2, 2.0)
        for radius in (0.0, -1.0):
            with pytest.raises(ValueError, match="radius must be positive"):
                normalize_to_unit_ball(shoot(2, 2.0), radius=radius)
            with pytest.raises(ValueError, match="radius must be positive"):
                volume_profile(prof, volume_nodes(2), radius=radius)


class TestVolumeProfile:
    def test_endpoints(self):
        # the first and last cells hold phi at their midpoints' radii
        prof = unit_ball_profile(2, 2.0)
        vp = volume_profile(prof, volume_nodes(2))
        r = (midpoints(vp.s)[[0, -1]] / math.pi) ** 0.5
        assert vp.s[0] == 0.0
        assert vp.values.size == vp.s.size - 1
        assert vp.values[0] == pytest.approx(float(prof.phi(r[0])), rel=1e-12)
        assert vp.values[-1] == pytest.approx(float(prof.phi(r[1])), rel=1e-12)
        assert vp.values[-1] > 0.0
        assert vp.total_volume == pytest.approx(math.pi, rel=1e-12)

    def test_disk_p1_closed_form(self):
        vp = volume_profile(unit_ball_profile(2, 1.0), volume_nodes(2))
        expected = oracles.disk_p1_volume_profile(midpoints(vp.s))
        assert np.max(np.abs(vp.values - expected)) < 2e-14

    def test_scaled_ball(self):
        prof = unit_ball_profile(2, 1.0)
        vp = volume_profile(prof, volume_nodes(2, radius=2.0), radius=2.0)
        assert vp.total_volume == pytest.approx(4 * math.pi, rel=1e-12)
        # phi_rho(x) = rho^(-n/p) phi(x / rho), read at the first cell's midpoint
        r0 = (midpoints(vp.s)[0] / (4 * math.pi)) ** 0.5
        assert vp.values[0] == pytest.approx(0.25 * float(prof.phi(r0)), rel=1e-12)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    def test_profile_of_any_radius(self, p):
        # a profile normalized on the radius-2 ball gives the same phi* as the unit one
        two = normalize_to_unit_ball(shoot(2, p), radius=2.0)
        unit = unit_ball_profile(2, p)
        for radius in (0.5, 1.0, 2.0):
            s = volume_nodes(2, radius=radius)
            got, ref = volume_profile(two, s, radius), volume_profile(unit, s, radius)
            assert got.power_integral(p) == pytest.approx(1.0, rel=1e-6)
            assert np.max(np.abs(got.values - ref.values)) <= 1e-12 * ref.values[0]

    def test_validation(self):
        with pytest.raises(ValueError):
            VolumeProfile(s=np.array([0.1, 1.0]), values=np.array([1.0]))
        with pytest.raises(ValueError):  # increasing values
            VolumeProfile(s=np.array([0.0, 1.0, 2.0]),
                          values=np.array([0.5, 1.0]))
        with pytest.raises(ValueError):  # non-increasing breakpoints
            VolumeProfile(s=np.array([0.0, 1.0, 1.0]),
                          values=np.array([1.0, 0.5]))
        with pytest.raises(ValueError, match="sample-count mismatch"):
            VolumeProfile(s=np.array([0.0, 1.0, 2.0]),
                          values=np.array([1.0, 0.5, 0.0]))
        with pytest.raises(ValueError, match="non-negative"):
            VolumeProfile(s=np.array([0.0, 1.0, 2.0]),
                          values=np.array([0.5, -1.0]))

    @pytest.mark.parametrize("s,values", [
        ([0.0, 1.0, 2.0], [np.nan, 1.0]),
        ([0.0, 1.0, 2.0], [1.0, np.nan]),
        ([0.0, 1.0, 2.0], [np.inf, 1.0]),
        ([0.0, 1.0, np.inf], [1.0, 0.5]),
        ([0.0, np.nan, 2.0], [1.0, 0.5]),
    ], ids=["nan-value", "nan-tail", "inf-value", "inf-edge", "nan-edge"])
    def test_rejects_non_finite(self, s, values):
        # a nan fails every comparison, so the checks are negated passes
        with pytest.raises(ValueError):
            VolumeProfile(s=np.array(s), values=np.array(values))

    def test_on_a_profiles_cells(self):
        # phi* on another profile's cells shares its edge and width arrays
        # and has the bits it has on those edges
        prof = unit_ball_profile(2, 1.5)
        s = volume_nodes(2)
        cells = VolumeProfile(s=s, values=np.zeros(s.size - 1))
        vp = volume_profile(prof, cells)
        assert vp.s is cells.s and vp._widths is cells._widths
        assert vp.values.tobytes() == volume_profile(prof, s).values.tobytes()

    def test_step_integrals_exact(self):
        vp = VolumeProfile(s=np.array([0.0, 1.0, 3.0]),
                           values=np.array([2.0, 0.5]))
        assert vp.power_integral(1.0) == pytest.approx(3.0, rel=1e-14)
        assert vp.power_integral(2.0) == pytest.approx(4.5, rel=1e-14)
        assert evaluate(vp, [0.5, 2.0]) == pytest.approx([2.0, 0.5])
        assert cumulative_at(vp, [1.0, 2.0], power=1.0) == pytest.approx([2.0, 2.5])
        assert cumulative_at(vp, [3.0, 5.0], power=2.0) == pytest.approx([4.5, 4.5])


class TestIntegroDifferentialCheck:
    @pytest.mark.parametrize("n,p", [(2, 1.0), (2, 2.0), (3, 2.0)])
    def test_residual_small_at_default_grid(self, n, p):
        prof = unit_ball_profile(n, p)
        vp = volume_profile(prof, volume_nodes(n))
        assert verify_integro_differential(vp, prof.cp_ball, n, p) < 1e-3

    def test_first_order_convergence(self):
        prof = unit_ball_profile(2, 2.0)
        res = {num: verify_integro_differential(
                   volume_profile(prof, volume_nodes(2, num=num)), prof.cp_ball, 2, 2.0)
               for num in (1025, 2049, 4097)}
        assert res[1025] > res[2049] > res[4097]
        assert res[1025] / res[2049] == pytest.approx(2.0, abs=0.4)
        assert res[2049] / res[4097] == pytest.approx(2.0, abs=0.4)

    def test_zero_profile(self):
        vp = VolumeProfile(s=np.linspace(0, 1, 33), values=np.zeros(32))
        assert verify_integro_differential(vp, 1.0, 2, 2.0) == 0.0

    def test_wrong_constant_detected(self):
        prof = unit_ball_profile(2, 2.0)
        vp = volume_profile(prof, volume_nodes(2))
        good = verify_integro_differential(vp, prof.cp_ball, 2, 2.0)
        bad = verify_integro_differential(vp, 1.1 * prof.cp_ball, 2, 2.0)
        assert bad > 10 * good

    def test_s_min_excluding_all_samples_rejected(self):
        prof = unit_ball_profile(2, 2.0)
        vp = volume_profile(prof, volume_nodes(2))
        with pytest.raises(ValueError):
            verify_integro_differential(vp, prof.cp_ball, 2, 2.0, s_min=10.0)
