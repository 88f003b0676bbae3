"""Distribution functions, rearrangements, and the comparison lemmas."""

import dataclasses

import numpy as np
import pytest

import oracles
from identities import (distribution, equimeasurability_residual, hlp_conclusion_check,
                        hlp_dominates, symmetrized_sample, verify_talenti)
from sobolev_lab.core import InputError
from sobolev_lab.elliptic import GriddedField
from sobolev_lab.radial import VolumeProfile
from sobolev_lab.rearrange import decreasing_rearrangement


def tiny_field():
    """3x3 mask with values 3, 1, 2 on a diagonal, h = 0.5."""
    mask = np.zeros((3, 3), dtype=bool)
    vals = np.zeros((3, 3))
    for k, v in enumerate((3.0, 1.0, 2.0)):
        mask[k, k] = True
        vals[k, k] = v
    return GriddedField(h=0.5, origin=(0.0, 0.0), mask=mask, values=vals, spec=None)


class TestDistribution:
    def test_hand_measures(self):
        mu = distribution(tiny_field())
        cell = 0.25
        # mu(t) = measure{u > t}, right continuous
        assert mu.evaluate(0.0) == pytest.approx(3 * cell)
        assert mu.evaluate(1.0) == pytest.approx(2 * cell)
        assert mu.evaluate(2.5) == pytest.approx(1 * cell)
        assert mu.evaluate(3.0) == 0.0

    def test_monotone_thresholds(self):
        mu = distribution(tiny_field())
        assert np.all(np.diff(mu.thresholds) > 0)
        assert np.all(np.diff(mu.measures) <= 0)

    def test_rearrangement_inverts_distribution(self, solve):
        # layer cake: the cell of u* that starts at s holds a value v with
        # mu(v) = |{u > v}| = s wherever v is below the cell before it
        fld = solve("ellipse", 1.5, 1.0 / 32).field
        us = decreasing_rearrangement(fld)
        first = np.concatenate(([True], np.diff(us.values) < 0))
        measures = distribution(fld).evaluate(us.values)
        np.testing.assert_array_equal(measures[first], us.s[:-1][first])
        assert np.all(measures <= us.s[:-1])


class TestDecreasingRearrangement:
    def test_hand_case(self):
        us = decreasing_rearrangement(tiny_field())
        np.testing.assert_allclose(us.values, [3.0, 2.0, 1.0])
        np.testing.assert_allclose(us.s, 0.25 * np.arange(4))
        assert us.total_volume == pytest.approx(0.75)

    def test_negative_node_rejected(self):
        fld = tiny_field()
        fld.values[1, 1] = -1.0
        with pytest.raises(InputError, match="a rearrangement needs u >= 0"):
            decreasing_rearrangement(fld)

    def test_equimeasurable_with_field(self, solve):
        res = solve("disk", 2.0, 1.0 / 32)
        for q in (0.5, 1.0, 2.0, 4.0):
            rel = equimeasurability_residual(res.field, q)
            assert rel <= 1e-12

    def test_permutation_invariance(self, solve):
        res = solve("square", 1.5, 1.0 / 32)
        fld = res.field
        rng = np.random.default_rng(7)
        inside = fld.values[fld.mask]
        shuffled = fld.values.copy()
        shuffled[fld.mask] = rng.permutation(inside)
        twin = dataclasses.replace(fld, values=shuffled)
        a = decreasing_rearrangement(fld)
        b = decreasing_rearrangement(twin)
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(a.s, b.s)

    def test_values_contiguous_and_non_increasing(self, solve):
        fld = solve("lshape", 1.5, 1.0 / 32).field
        values = decreasing_rearrangement(fld).values
        assert values.flags.c_contiguous
        assert np.all(values[1:] <= values[:-1])
        np.testing.assert_array_equal(values, np.sort(fld.values[fld.mask])[::-1])

    def test_symmetrized_sample(self):
        us_center = symmetrized_sample(tiny_field(), 0.0, 0.0)
        assert us_center == pytest.approx(3.0)
        assert symmetrized_sample(tiny_field(), 10.0, 0.0) == 0.0


class TestVerifyTalenti:
    def test_domain_extremals_within_budget(self, solve):
        h = 1.0 / 64
        for shape, p in [("disk", 2.0), ("square", 1.0), ("ellipse", 1.5)]:
            res = solve(shape, p, h)
            us = decreasing_rearrangement(res.field)
            assert verify_talenti(us, res.cp, 2, p) <= 5 * h

    def test_disk_near_equality(self, solve):
        # the ball turns the inequality into an identity, so the check
        # should sit at discretization noise, far below the budget
        h = 1.0 / 64
        res = solve("disk", 2.0, h)
        us = decreasing_rearrangement(res.field)
        assert abs(verify_talenti(us, res.cp, 2, 2.0)) < h

    def test_understated_constant_flagged(self, solve):
        # shrinking cp weakens the right side; the violation must surface it
        res = solve("square", 1.0, 1.0 / 64)
        us = decreasing_rearrangement(res.field)
        assert verify_talenti(us, 0.5 * res.cp, 2, 1.0) > 0.3

    def test_s_min_guard(self, solve):
        res = solve("disk", 2.0, 1.0 / 64)
        us = decreasing_rearrangement(res.field)
        with pytest.raises(ValueError):
            verify_talenti(us, res.cp, 2, 2.0, s_min=10.0)


class TestHLP:
    def test_hand_pair(self):
        breaks, f_vals, g_vals = oracles.hand_hlp_pair()
        f = VolumeProfile(s=breaks, values=f_vals)
        g = VolumeProfile(s=breaks, values=g_vals)
        assert hlp_dominates(f, g, q1=1.0)
        assert not hlp_dominates(g, f, q1=1.0)
        assert hlp_conclusion_check(f, g, q1=1.0, q2=2.0)

    def test_precondition_failure_distinct(self):
        breaks, f_vals, g_vals = oracles.hand_hlp_pair()
        f = VolumeProfile(s=breaks, values=f_vals)
        g = VolumeProfile(s=breaks, values=g_vals)
        with pytest.raises(ValueError, match="dominance precondition"):
            hlp_conclusion_check(g, f, q1=1.0, q2=2.0)

    def test_increasing_profile_unrepresentable(self):
        with pytest.raises(ValueError):
            VolumeProfile(s=np.array([0.0, 1.0, 2.0]),
                          values=np.array([0.5, 1.0]))

    def test_mismatched_grids(self):
        f = VolumeProfile(s=np.array([0.0, 0.7, 1.9]),
                          values=np.array([2.0, 1.0]))
        g = VolumeProfile(s=np.array([0.0, 1.0, 1.5, 2.0]),
                          values=np.array([1.8, 1.2, 0.3]))
        # no assertion on the outcome beyond consistency of the two calls
        if hlp_dominates(f, g, q1=1.0):
            assert hlp_conclusion_check(f, g, q1=1.0, q2=2.0)

    def test_property_sample(self):
        # trimmed version of the acceptance property suite
        rng = np.random.default_rng(20240817)
        checked = 0
        while checked < 100:
            m = int(rng.integers(2, 12))
            breaks = np.concatenate(([0.0], np.sort(rng.uniform(0.1, 4.0, m))))
            f = VolumeProfile(s=breaks, values=np.sort(rng.uniform(0, 2, m))[::-1])
            g = VolumeProfile(s=breaks, values=np.sort(rng.uniform(0, 2, m))[::-1])
            for q1 in (0.5, 1.0, 2.0):
                if hlp_dominates(f, g, q1):
                    checked += 1
                    for q2 in (q1, 2 * q1, 5 * q1):
                        assert hlp_conclusion_check(f, g, q1, q2)
