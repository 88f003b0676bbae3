"""Property tests over every registered domain shape (needs hypothesis).

For random valid parameters and scales, each shape must round-trip
through JSON, rasterize inside its bounding box, and rasterize to a node
area within the boundary-layer bound of its exact area.
"""

import json
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from sobolev_lab import DomainSpec, build_grid  # noqa: E402
from sobolev_lab.core import _SHAPES  # noqa: E402

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

    grid = build_grid(spec, H)
    X, Y = grid.node_coordinates()
    (x0, y0), (x1, y1) = spec.bounding_box()
    xs, ys = X[grid.mask], Y[grid.mask]
    assert np.all((x0 < xs) & (xs < x1) & (y0 < ys) & (ys < y1))

    # The node cells (side H, one per kept node) differ from the domain only
    # within H/sqrt(2) of the boundary, a tube of area <= 2 r L + pi r^2.
    length = perimeter * scale
    bound = math.sqrt(2) * length * H + math.pi * H**2 / 2
    assert abs(grid.volume() - spec.area()) <= bound
