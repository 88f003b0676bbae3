"""Exponent bookkeeping, ball volumes, and domain specifications."""

import json
import math
import pickle

import numpy as np
import pytest

import oracles
from sobolev_lab import (AdmissibilityError, DomainSpec, SpecError, admissible, alpha,
                         unit_ball_volume)
from sobolev_lab.core import InputError
from sobolev_lab import cli
from sobolev_lab.cli import _spec_slug
from sobolev_lab.elliptic import build_grid


class TestUnitBallVolume:
    def test_closed_forms(self):
        assert unit_ball_volume(1) == pytest.approx(2.0, rel=1e-12)
        assert unit_ball_volume(2) == pytest.approx(math.pi, rel=1e-12)
        assert unit_ball_volume(3) == pytest.approx(4 * math.pi / 3, rel=1e-12)
        assert unit_ball_volume(4) == pytest.approx(math.pi**2 / 2, rel=1e-12)

    def test_matches_oracle(self):
        for n in range(1, 9):
            assert unit_ball_volume(n) == pytest.approx(oracles.ball_volume(n), rel=1e-12)

    def test_gamma_past_float_range(self):
        # the direct formula where it is finite (pi itself at n = 2), an
        # InputError naming n from n = 342, where Gamma(n/2 + 1) overflows
        assert unit_ball_volume(2) == math.pi and 0.0 < unit_ball_volume(341) < 1e-200
        for n in (342, 10**400):
            with pytest.raises(InputError, match="past float range for the unit ball volume"):
                unit_ball_volume(n)

    def test_rejects_bad_dimension(self):
        for bad in (0, -1, 2.5, True):
            with pytest.raises((ValueError, TypeError)):
                unit_ball_volume(bad)


class TestAdmissibility:
    def test_plane_admits_all_p(self):
        for p in (1.0, 2.0, 7.0, 50.0):
            assert admissible(2, p)

    def test_critical_exponent_excluded(self):
        assert admissible(3, 5.999)
        assert not admissible(3, 6.0)
        assert not admissible(3, 100.0)
        assert not admissible(4, 4.0)  # 2n/(n-2) = 4

    def test_p_below_one_rejected(self):
        assert not admissible(2, 0.5)
        assert not admissible(3, 0.999)

    def test_total_past_float_range(self):
        # an int too large for a float is out of range, not an OverflowError
        for p in (10**400, -10**400, math.inf, math.nan):
            assert not admissible(2, p)

    def test_alpha_values(self):
        # alpha = n - 2 - 2n/p
        assert alpha(2, 1.0) == pytest.approx(-4.0, abs=1e-14)
        assert alpha(2, 2.0) == pytest.approx(-2.0, abs=1e-14)
        assert alpha(3, 1.0) == pytest.approx(-5.0, abs=1e-14)
        assert alpha(3, 2.0) == pytest.approx(-2.0, abs=1e-14)

    def test_alpha_negative_on_admissible_range(self):
        for n in (2, 3, 4, 5):
            for p in (1.0, 1.5, 2.0, 2.5):
                if admissible(n, p):
                    assert alpha(n, p) < 0

    def test_alpha_error_names_bound(self):
        with pytest.raises(AdmissibilityError) as err:
            alpha(3, 6.0)
        assert "2n/(n-2)" in str(err.value)
        assert "6" in str(err.value)


class TestDomainSpec:
    def test_areas(self):
        assert DomainSpec.disk(1.0).area() == pytest.approx(math.pi, rel=1e-14)
        assert DomainSpec.rectangle(2.0, 0.5).area() == pytest.approx(1.0, rel=1e-14)
        assert DomainSpec.ellipse(1.0, 0.5).area() == pytest.approx(math.pi / 2, rel=1e-14)
        assert DomainSpec.l_shape(1.0, 0.5).area() == pytest.approx(0.75, rel=1e-14)
        tri = DomainSpec.polygon([(0, 0), (1, 0), (0, 1)])
        assert tri.area() == pytest.approx(0.5, rel=1e-14)

    def test_scale_squares_area(self):
        base = DomainSpec.ellipse(1.0, 0.5)
        scaled = DomainSpec.ellipse(1.0, 0.5, scale=3.0)
        assert scaled.area() == pytest.approx(9.0 * base.area(), rel=1e-14)

    def test_contains_is_strict_interior(self):
        disk = DomainSpec.disk(1.0)
        assert disk.contains(0.0, 0.0)
        assert not disk.contains(1.0, 0.0)       # boundary excluded
        assert not disk.contains(0.8, 0.8)

    def test_lshape_notch_excluded(self):
        sp = DomainSpec.l_shape(1.0, 0.5)
        assert sp.contains(0.25, 0.25)
        assert sp.contains(0.75, 0.25)
        assert sp.contains(0.25, 0.75)
        assert not sp.contains(0.75, 0.75)       # the notch quadrant

    def test_polygon_even_odd(self):
        sq = DomainSpec.polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        assert sq.contains(0.5, 0.5)
        assert not sq.contains(1.5, 0.5)

    def test_contains_vectorized(self):
        disk = DomainSpec.disk(1.0)
        x = np.array([0.0, 0.5, 2.0])
        y = np.zeros(3)
        np.testing.assert_array_equal(disk.contains(x, y), [True, True, False])

    def test_bounding_box_covers_domain(self):
        for spec in (DomainSpec.disk(1.0), DomainSpec.ellipse(2.0, 1.0),
                     DomainSpec.l_shape(1.0, 0.25),
                     DomainSpec.polygon([(0, 0), (2, 0), (1, 1)])):
            (x0, y0), (x1, y1) = spec.bounding_box()
            assert x1 > x0 and y1 > y0

    def test_json_roundtrip(self):
        for spec in (DomainSpec.disk(2.0, scale=0.5),
                     DomainSpec.rectangle(1.0, 3.0),
                     DomainSpec.ellipse(1.0, 0.5, scale=2.0),
                     DomainSpec.l_shape(1.0, 0.25),
                     DomainSpec.polygon([(0, 0), (1, 0), (0.5, 1)])):
            assert DomainSpec.from_json(spec.to_json()) == spec
            assert DomainSpec.from_json(json.dumps(spec.to_json())) == spec

    def test_json_schema_keys_flat(self):
        obj = DomainSpec.ellipse(1.0, 0.5).to_json()
        assert obj == {"shape": "ellipse", "a": 1.0, "b": 0.5, "scale": 1.0}

    def test_validation(self):
        with pytest.raises(ValueError):
            DomainSpec.disk(-1.0)
        with pytest.raises(ValueError):
            DomainSpec.rectangle(0.0, 1.0)
        with pytest.raises(ValueError):
            DomainSpec.ellipse(1.0, -0.5)
        with pytest.raises(ValueError):
            DomainSpec.l_shape(1.0, 1.0)     # notch must be < side
        with pytest.raises(ValueError):
            DomainSpec.polygon([(0, 0), (1, 0)])
        with pytest.raises(ValueError):      # bowtie self-intersects
            DomainSpec.polygon([(0, 0), (1, 1), (1, 0), (0, 1)])
        with pytest.raises(ValueError):
            DomainSpec("hexagon", {}, 1.0)
        # JSON specs the gate must reject: each raises ValueError, never TypeError
        rejected = [
            '{"shape": "disk", "radius": "1"}',                   # string value
            '{"shape": "disk", "radius": true}',                  # bool value
            '{"shape": "disk", "radius": 1, "radus": 2}',         # unknown key
            '{"shape": "rectangle", "width": 1}',                 # missing key
            '{"shape": "disk", "radius": 1, "scale": "2"}',       # string scale
            '{"shape": "disk", "radius": 1, "scale": false}',     # bool scale
            '{"shape": "disk", "radius": NaN}',                   # non-finite
            '{"shape": "disk", "radius": [[0, 0], [1, 0], [0, 1]]}',
            '{"shape": "l-shape", "side": 1, "notch": "0.5"}',
            '{"shape": "polygon", "vertices": 3}',
            '{"shape": "polygon", "vertices": [[0, 0], [1, 0], [0, "1"]]}',
            '{"shape": "polygon", "vertices": [[0, 0], [1, 0], [0, true]]}',
            '{"shape": ["disk"], "radius": 1}',
        ]
        for text in rejected:
            with pytest.raises(ValueError):
                DomainSpec.from_json(text)

    def test_polygon_masks_match_axis_aligned_shapes(self):
        # strict interior: nodes on a polygon edge are Dirichlet nodes
        square = DomainSpec.polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        ell = DomainSpec.polygon([(0, 0), (1, 0), (1, 0.5), (0.5, 0.5), (0.5, 1), (0, 1)])
        for h in (1 / 8, 1 / 16, 1 / 32):
            for poly, ref in ((square, DomainSpec.rectangle(1.0, 1.0)),
                              (ell, DomainSpec.l_shape(1.0, 0.5))):
                np.testing.assert_array_equal(build_grid(poly, h).mask,
                                              build_grid(ref, h).mask)

    def test_pinned_labels(self):
        # describe(), the CLI file slug and to_json() name files and cache keys
        tri = [(0, 0), (1, 0), (0.5, 1)]
        cases = [
            (DomainSpec.disk(0.75), "disk(r=0.75)", "disk_radius0.75",
             '{"shape": "disk", "radius": 0.75, "scale": 1.0}'),
            (DomainSpec.disk(0.75, scale=2.5), "disk(r=0.75)@2.5", "disk_radius0.75_scale2.5",
             '{"shape": "disk", "radius": 0.75, "scale": 2.5}'),
            (DomainSpec.rectangle(1, 0.5), "rectangle(1x0.5)", "rectangle_height0.5_width1",
             '{"shape": "rectangle", "width": 1.0, "height": 0.5, "scale": 1.0}'),
            (DomainSpec.rectangle(1, 0.5, scale=0.25), "rectangle(1x0.5)@0.25",
             "rectangle_height0.5_width1_scale0.25",
             '{"shape": "rectangle", "width": 1.0, "height": 0.5, "scale": 0.25}'),
            (DomainSpec.ellipse(1, 0.5), "ellipse(a=1,b=0.5)", "ellipse_a1_b0.5",
             '{"shape": "ellipse", "a": 1.0, "b": 0.5, "scale": 1.0}'),
            (DomainSpec.ellipse(1, 0.5, scale=3), "ellipse(a=1,b=0.5)@3", "ellipse_a1_b0.5_scale3",
             '{"shape": "ellipse", "a": 1.0, "b": 0.5, "scale": 3.0}'),
            (DomainSpec.l_shape(2, 0.25), "l-shape(side=2,notch=0.25)", "lshape_notch0.25_side2",
             '{"shape": "l-shape", "side": 2.0, "notch": 0.25, "scale": 1.0}'),
            (DomainSpec.l_shape(2, 0.25, scale=1.5), "l-shape(side=2,notch=0.25)@1.5",
             "lshape_notch0.25_side2_scale1.5",
             '{"shape": "l-shape", "side": 2.0, "notch": 0.25, "scale": 1.5}'),
            (DomainSpec.polygon(tri), "polygon(3 vertices)", "polygon_vertices3-4803f091",
             '{"shape": "polygon", "vertices": [[0.0, 0.0], [1.0, 0.0], [0.5, 1.0]], '
             '"scale": 1.0}'),
            (DomainSpec.polygon(tri, scale=0.5), "polygon(3 vertices)@0.5",
             "polygon_vertices3-4803f091_scale0.5",
             '{"shape": "polygon", "vertices": [[0.0, 0.0], [1.0, 0.0], [0.5, 1.0]], '
             '"scale": 0.5}'),
            (DomainSpec.from_json('{"shape": "disk", "radius": 1, "scale": 2}'),
             "disk(r=1)@2", "disk_radius1_scale2",
             '{"shape": "disk", "radius": 1.0, "scale": 2.0}'),
        ]
        for spec, label, slug, text in cases:
            assert spec.describe() == label
            assert _spec_slug(spec) == slug
            assert json.dumps(spec.to_json()) == text

    def test_describe(self):
        assert "disk" in DomainSpec.disk(1.0).describe()
        label = DomainSpec.ellipse(1.0, 0.5).describe()
        assert "ellipse" in label and "0.5" in label

    def test_value_semantics(self):
        # frozen, compared field by field, unhashable (params is a dict)
        spec = DomainSpec("disk", {"radius": 0.5}, 2.0)
        assert spec == DomainSpec(shape="disk", params={"radius": 0.5}, scale=2.0)
        assert spec == DomainSpec.disk(0.5, scale=2.0)
        assert spec != DomainSpec.disk(0.5) and spec != ("disk", {"radius": 0.5}, 2.0)
        assert repr(spec) == "DomainSpec(shape='disk', params={'radius': 0.5}, scale=2.0)"
        assert pickle.loads(pickle.dumps(spec)) == spec
        for name in ("shape", "params", "scale", "other"):
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(spec, name, 1.0)
        with pytest.raises(AttributeError, match="cannot delete field 'scale'"):
            del spec.scale
        assert (spec.shape, spec.params, spec.scale) == ("disk", {"radius": 0.5}, 2.0)
        with pytest.raises(TypeError, match="unhashable"):
            hash(spec)

    def test_spec_error_messages(self):
        poly = "polygon vertices must be at least 3 [x, y] pairs of finite numbers, got "
        shapes = "expected one of ('disk', 'rectangle', 'ellipse', 'l-shape', 'polygon')"
        cases = [
            (("hexagon", {}), f"unknown shape 'hexagon'; {shapes}"),
            ((["disk"], {"radius": 1.0}), f"unknown shape ['disk']; {shapes}"),
            (("disk", {"radius": 1.0}, 0.0), "scale must be a finite positive number, got 0.0"),
            (("disk", {"radius": 1.0}, True), "scale must be a finite positive number, got True"),
            (("disk", {"radius": 1.0, "radus": 2.0}),
             "disk takes exactly the keys ('radius',), got ['radius', 'radus']"),
            (("rectangle", {"width": 1.0}),
             "rectangle takes exactly the keys ('width', 'height'), got ['width']"),
            (("disk",), "disk takes exactly the keys ('radius',), got []"),
            (("disk", {"radius": math.nan}),
             "disk radius must be a finite positive number, got nan"),
            (("disk", {"radius": "1"}), "disk radius must be a finite positive number, got '1'"),
            (("l-shape", {"side": 1.0, "notch": 1.0}),
             "l-shape notch fraction must lie in (0, 1), got 1.0"),
            (("polygon", {"vertices": 3}), poly + "3"),
            (("polygon", {"vertices": [[0, 0], [1, 0]]}), poly + "[[0, 0], [1, 0]]"),
            (("polygon", {"vertices": [[0, 0], [0, 0], [1, 0], [0, 1]]}),
             "polygon has repeated consecutive vertices"),
            (("polygon", {"vertices": [[0, 0], [1, 1], [1, 0], [0, 1]]}),
             "polygon edges intersect; vertices must trace a simple closed curve"),
            (("polygon", {"vertices": [[0, 0], [1, 0], [2, 0]]}), "polygon encloses no area"),
        ]
        for args, message in cases:
            with pytest.raises(SpecError) as err:
                DomainSpec(*args)
            assert str(err.value) == message
        # the constructor hands entries that are not pairs to the same gate
        with pytest.raises(SpecError) as err:
            DomainSpec.polygon([1, 2, 3])
        assert str(err.value) == poly + "[1, 2, 3]"

    def test_equal_specs_share_one_form(self, tmp_path, monkeypatch):
        # one JSON form, so one slug, one cache key and one table task
        monkeypatch.setenv("SOBOLEV_LAB_CACHE", str(tmp_path))
        specs = [DomainSpec.from_json('{"shape":"disk","radius":1}'),
                 DomainSpec.from_json('{"radius":1.0,"shape":"disk","scale":1}'),
                 DomainSpec.disk(1)]
        texts = {json.dumps(spec.to_json()) for spec in specs}
        assert texts == {'{"shape": "disk", "radius": 1.0, "scale": 1.0}'}
        assert {_spec_slug(spec) for spec in specs} == {"disk_radius1"}
        keys = {cli._cache_path({"spec": spec.to_json(), "label": _spec_slug(spec), "p": 1.0,
                                 "qs": [2.0], "h": 0.125, "tol": 1e-8, "max_iter": 300})
                for spec in specs}
        assert len(keys) == 1

    @pytest.mark.parametrize("build", [
        lambda: DomainSpec.disk("2"),
        lambda: DomainSpec.disk(True),
        lambda: DomainSpec.rectangle(1.0, "2"),
        lambda: DomainSpec.ellipse(True, 0.5),
        lambda: DomainSpec.l_shape(1.0, "0.5"),
        lambda: DomainSpec.polygon([(0, 0), (1, 0), (0, "1")]),
        lambda: DomainSpec.polygon([(0, 0), (1, 0), (0, True)]),
    ], ids=["disk-str", "disk-bool", "rectangle-str", "ellipse-bool", "l-shape-str",
            "polygon-str", "polygon-bool"])
    def test_constructors_coerce_nothing(self, build):
        with pytest.raises(SpecError, match="finite"):
            build()

    def test_polygon_from_an_array(self):
        tri = [(0, 0), (1, 0), (0.5, 1)]
        for verts in (np.array(tri), np.array([(0, 0), (2, 0), (1, 2)]) / 2):
            spec = DomainSpec.polygon(verts)
            assert spec == DomainSpec.polygon(tri)
            assert all(type(c) is float for v in spec.params["vertices"] for c in v)

    def test_spec_keeps_its_own_copy(self):
        params = {"radius": 1.0}
        disk = DomainSpec("disk", params)
        params["radius"] = -5.0
        assert disk.params == {"radius": 1.0} and disk.area() == math.pi
        verts = [[0, 0], [1, 0], [0, 1]]
        tris = [DomainSpec("polygon", {"vertices": verts}), DomainSpec.polygon(verts),
                DomainSpec.from_json({"shape": "polygon", "vertices": verts})]
        verts[2][1] = -1
        verts.append([5, 5])
        for tri in tris:
            assert tri.params["vertices"] == [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]

    @pytest.mark.parametrize("text", [
        '{"shape": "disk", "radius": BIG}',
        '{"shape": "disk", "radius": 1.0, "scale": BIG}',
        '{"shape": "disk", "radius": -BIG}',
        '{"shape": "polygon", "vertices": [[0, 0], [BIG, 0], [0, 1]]}',
    ], ids=["radius", "scale", "negative", "vertex"])
    def test_number_past_float_range(self, text):
        # a 401-digit int is no float; the gate rejects it rather than overflow
        with pytest.raises(SpecError, match="finite"):
            DomainSpec.from_json(text.replace("BIG", str(10**400)))

    @pytest.mark.parametrize("text", ['[{"shape": "disk", "radius": 1.0}]',
                                      '{"radius": 1.0}', '"disk"'])
    def test_json_not_a_shaped_object(self, text):
        with pytest.raises(SpecError, match="must be an object with a 'shape' key"):
            DomainSpec.from_json(text)
