"""Property tests over every registered domain shape (needs hypothesis).

For random valid parameters and scales, each shape must round-trip
through JSON, rasterize inside its bounding box, and rasterize to a node
area within the boundary-layer bound of its exact area.  On random
ellipses, l-shapes and convex polygons the whole verify pipeline must
pass, keep its rearrangement equimeasurable, keep |B*| within 5% of
|Omega|, obey the dilation law, and rerun byte-identically.  Grids of a
few nodes fail their q > p margins.
"""

import json
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from identities import equimeasurability_residual, node_coordinates  # noqa: E402
from sobolev_lab import (DomainSpec, alpha, build_grid,  # noqa: E402
                         minimize_quotient, verify_reverse_holder)
from sobolev_lab.core import _SHAPES, GridError  # noqa: E402
from sobolev_lab.formats import report_to_json  # noqa: E402

H = 1 / 16


def _star_polygon(weights, radii):
    """Vertices at increasing angles, every angular gap below pi, so the
    polygon is star-shaped about the origin and hence simple."""
    theta = 2 * math.pi * np.cumsum(weights) / sum(weights)
    verts = [[r * math.cos(t), r * math.sin(t)] for r, t in zip(radii, theta)]
    perimeter = sum(math.dist(verts[i - 1], verts[i]) for i in range(len(verts)))
    return {"vertices": verts}, perimeter


# shape -> strategy of (params, unscaled perimeter or an upper bound on it)
PARAMS = {
    "disk": st.builds(lambda r: ({"radius": r}, 2 * math.pi * r), st.floats(0.25, 1.0)),
    "rectangle": st.builds(lambda w, h: ({"width": w, "height": h}, 2 * (w + h)),
                           st.floats(0.25, 1.5), st.floats(0.25, 1.5)),
    # pi * sqrt(2 (a^2 + b^2)) bounds the ellipse's perimeter from above
    "ellipse": st.builds(lambda a, b: ({"a": a, "b": b}, math.pi * math.sqrt(2 * (a * a + b * b))),
                         st.floats(0.25, 1.0), st.floats(0.25, 1.0)),
    "l-shape": st.builds(lambda s, c: ({"side": s, "notch": c}, 4 * s),
                         st.floats(0.5, 1.5), st.floats(0.1, 0.9)),
    # weights in [0.5, 1] and 4 to 8 vertices keep every angular gap <= 2 pi / 2.5
    "polygon": st.integers(4, 8).flatmap(lambda k: st.builds(
        _star_polygon, st.lists(st.floats(0.5, 1.0), min_size=k, max_size=k),
        st.lists(st.floats(0.3, 1.0), min_size=k, max_size=k))),
}


@pytest.mark.parametrize("shape", sorted(_SHAPES))
@settings(derandomize=True, max_examples=25, deadline=None, database=None)
@given(data=st.data())
def test_shape_invariants(shape, data):
    params, perimeter = data.draw(PARAMS[shape])
    scale = data.draw(st.floats(0.5, 2.0))
    spec = DomainSpec(shape, params, scale)
    assert DomainSpec.from_json(json.dumps(spec.to_json())) == spec

    # The node cells (side H, one per kept node) differ from the domain only
    # within H/sqrt(2) of the boundary, a tube of area <= 2 r L + pi r^2.
    length = perimeter * scale
    bound = math.sqrt(2) * length * H + math.pi * H**2 / 2
    try:
        grid = build_grid(spec, H)
    except GridError:  # no node inside (a thin l-shape): all of it lies in the tube
        assert spec.area() <= bound
        return
    X, Y = node_coordinates(grid)
    (x0, y0), (x1, y1) = spec.bounding_box()
    xs, ys = X[grid.mask], Y[grid.mask]
    assert np.all((x0 < xs) & (xs < x1) & (y0 < ys) & (ys < y1))
    assert abs(grid.volume() - spec.area()) <= bound


# Pipeline properties run at h = 1/32 on grids of at least MIN_NODES nodes.
# There |B*| <= 1.05 |Omega|: the disk, where the grid constant puts
# |B*|/|Omega| nearest 1 + 1.4/sqrt(N), reads 1.051 at 793 nodes and 1.043
# at 969 (p = 2).  Coarser grids are the under-resolved side, pinned below.
PIPELINE_H = 1 / 32
MIN_NODES = 1000


def _convex_polygon(weights, a, b):
    """Vertices on the ellipse (a cos t, b sin t) at increasing angles: convex."""
    theta = 2 * math.pi * np.cumsum(weights) / sum(weights)
    return {"vertices": [[a * math.cos(t), b * math.sin(t)] for t in theta]}


PIPELINE_SHAPES = {
    "ellipse": st.builds(lambda a, b: {"a": a, "b": b},
                         st.floats(0.4, 1.0), st.floats(0.4, 1.0)),
    "l-shape": st.builds(lambda s, c: {"side": s, "notch": c},
                         st.floats(1.0, 1.6), st.floats(0.1, 0.7)),
    "polygon": st.integers(3, 8).flatmap(lambda k: st.builds(
        _convex_polygon, st.lists(st.floats(0.5, 1.0), min_size=k, max_size=k),
        st.floats(0.6, 1.2), st.floats(0.6, 1.2))),
}


def _verify(spec, p):
    res = minimize_quotient(build_grid(spec, PIPELINE_H), p)
    return res, verify_reverse_holder(res, [p, 2.0, 4.0])


@pytest.mark.parametrize("shape", sorted(PIPELINE_SHAPES))
@settings(derandomize=True, max_examples=5, deadline=None, database=None)
@given(data=st.data())
def test_pipeline_invariants(shape, data):
    spec = DomainSpec(shape, data.draw(PIPELINE_SHAPES[shape]),
                      data.draw(st.floats(0.8, 1.25)))
    assume(np.count_nonzero(build_grid(spec, PIPELINE_H).mask) >= MIN_NODES)
    doubled = DomainSpec(shape, spec.params, 2 * spec.scale)
    for p in (1.0, 1.5, 2.0):
        res, report = _verify(spec, p)
        assert report.passed(), report.failed_gates()
        u = res.field.values[res.field.mask]
        for row in report.rows:
            mass = float(np.sum(u**row.q)) * PIPELINE_H**2
            assert equimeasurability_residual(res.field, row.q) <= 1e-12 * mass
        assert report.bstar_volume <= report.omega_volume * 1.05
        # doubling the domain and h together gives the same lattice, scaled
        big = minimize_quotient(build_grid(doubled, 2 * PIPELINE_H), p)
        assert big.cp == pytest.approx(res.cp * 2.0 ** alpha(2, p), rel=1e-12, abs=0)
        assert report_to_json(_verify(spec, p)[1]) == report_to_json(report)


# rectangles of m x k interior nodes (side (m + 1/2) h): convex and
# under-resolved.  No gate bounds |B*| against |Omega| (1.79 and 1.77 at 3
# and 4 nodes, p = 1); the c-gates pass, since c is the p-mass of one of a
# few nodes (all of it at one node), and the q = p row has margin 0 by
# construction, so the q > p rows are what refuse these grids.
@pytest.mark.parametrize("nodes", [(1, 1), (2, 1), (3, 1), (2, 2), (3, 3), (5, 5)])
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
def test_under_resolved_polygon_rejected(nodes, p):
    w, t = ((m + 0.5) * PIPELINE_H for m in nodes)
    spec = DomainSpec.polygon([[0, 0], [w, 0], [w, t], [0, t]])
    assert np.count_nonzero(build_grid(spec, PIPELINE_H).mask) == nodes[0] * nodes[1]
    _, report = _verify(spec, p)
    assert report.failed_gates() == ["margins"]
    assert report.rows[0].margin == 0.0
    assert all(row.margin < -report.tau_margin * row.lhs for row in report.rows[1:])
