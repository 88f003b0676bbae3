"""Shared primitives: the exponent gate, the error classes, planar domain specs.

Imports no numpy, and no dataclasses (which loads inspect), so a command
that only parses specs and reads cached results loads neither.  The
shapes' contains tests use arithmetic and comparison operators alone,
which act elementwise on numpy arrays.
"""

from __future__ import annotations

import json
import math
import numbers
import sys

__all__ = [
    "AdmissibilityError",
    "GridError",
    "SpecError",
    "SolverError",
    "VerificationError",
    "CrossingError",
    "DomainSpec",
    "unit_ball_volume",
    "admissible",
    "check_exponents",
    "alpha",
]


class InputError(ValueError):
    """A value the caller supplied is out of range or malformed."""


class AdmissibilityError(InputError):
    """Exponent pair outside the admissible range."""


class GridError(InputError):
    """Domain cannot be resolved on the requested grid."""


class SpecError(InputError):
    """Malformed domain spec: unknown shape, wrong keys or bad values."""


class SolverError(RuntimeError):
    """An iterative solver failed to converge.

    Carries the trajectory of quotient values (or residual norms) seen so
    far so callers can report the tail of the iteration on failure.
    """

    def __init__(self, message: str, trajectory=None):
        super().__init__(message)
        self.trajectory = [] if trajectory is None else list(trajectory)


class VerificationError(RuntimeError):
    """A stage of the verification pipeline failed; carries the stage tag."""

    def __init__(self, message: str, stage: str = ""):
        super().__init__(message)
        self.stage = stage


class CrossingError(VerificationError):
    """Crossing analysis could not certify a single downward crossing."""

    def __init__(self, message: str):
        super().__init__(message, stage="crossing")


def unit_ball_volume(n: int) -> float:
    """Volume of the unit ball in R^n, pi^(n/2) / Gamma(n/2 + 1).

    An InputError names n once Gamma(n/2 + 1) leaves float range (from n = 342).
    """
    if not isinstance(n, numbers.Integral) or isinstance(n, bool) or n < 1:
        raise ValueError(f"dimension must be a positive integer, got {n!r}")
    try:
        return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)
    except OverflowError:  # n / 2.0 raises it too, for an n past float range
        raise InputError(f"dimension n = {_shown(n)} is past float range for the unit "
                         f"ball volume: Gamma(n/2 + 1) overflows") from None


def admissible(n: int, p: float) -> bool:
    """Whether the variational problem for (n, p) has an extremal.

    Requires n >= 2 and p >= 1, and for n >= 3 the subcritical bound p < 2n/(n-2).
    In two dimensions every p >= 1 is admissible.  Total: out-of-range
    inputs, an n or p past float range too, return False rather than raising.
    """
    # math.isfinite raises past float range, and so does 2.0 * n
    if not (1.0 <= p <= sys.float_info.max and n <= sys.float_info.max):
        return False
    if n == 2:
        return True
    return n > 2 and p < 2.0 * n / (n - 2.0)


def _shown(val) -> str:
    """str(val), or for an int too long for str() its length."""
    try:
        return str(val)
    except ValueError:  # past the interpreter's int string limit
        digits = int(math.log10(abs(val))) - 1  # at most the count
        while abs(val) >= 10**digits:
            digits += 1
        return f"an int of {digits} digits"


def check_exponents(n: int, p: float, qs=None, allow_supercritical: bool = False):
    """The one admissibility gate for exponents; raises AdmissibilityError.

    Checks that (n, p) is admissible, that p <= 2 (allow_supercritical
    lifts that only without qs: nothing lifts khat's gate), and, when qs
    is given, that it is non-empty with every q finite and q >= p.
    """
    if not admissible(n, p):
        bound = ("n >= 2" if n < 2 else "n in float range" if n > sys.float_info.max
                 else "p in float range" if p > sys.float_info.max
                 else "any p >= 1" if n == 2
                 else f"1 <= p < 2n/(n-2) = {2.0 * n / (n - 2.0):g}")
        raise AdmissibilityError(
            f"(n, p) = ({_shown(n)}, {_shown(p)}) is not admissible; need {bound}")
    if p > 2.0 and (qs is not None or not allow_supercritical):
        lift = ("no flag lifts khat's gate" if qs is not None else "allow_supercritical=True"
                " lifts it, as --experimental-supercritical does for ball and domain")
        raise AdmissibilityError(
            f"p = {p:g} lies outside 1 <= p <= 2 and is gated as experimental; {lift}")
    if qs is not None:
        if len(qs) == 0:
            raise AdmissibilityError("need at least one exponent q")
        if not all(abs(q) <= sys.float_info.max for q in qs):
            raise AdmissibilityError(
                f"every q must be finite; got [{', '.join(map(_shown, qs))}]")
        if min(qs) < p:
            raise AdmissibilityError(
                f"every q must be >= p = {p:g}; q = {min(qs):g} is below p")


def alpha(n: int, p: float) -> float:
    """Dilation exponent of the constant: C_p(r * Omega) = r^alpha * C_p(Omega).

    alpha = n - 2 - 2n/p, strictly negative on the admissible range.
    """
    check_exponents(n, p, allow_supercritical=True)
    return n - 2.0 - 2.0 * n / p


def checked_power(base: float, exponent: float, what: str) -> float:
    """base ** exponent, or a ValueError naming what unless it is finite and
    positive: out of float range a Python float power raises
    ZeroDivisionError or OverflowError, or underflows to 0, so numpy
    scalars are taken as Python floats, whose power warns of nothing."""
    try:
        value = float(base) ** float(exponent)
    except (ZeroDivisionError, OverflowError):
        value = math.nan
    if not 0.0 < value < math.inf:
        raise ValueError(f"{what} is out of float range")
    return value


def _real(val) -> bool:
    """A real number, not a bool, within float range (so not nan or infinite)."""
    return (isinstance(val, numbers.Real) and not isinstance(val, bool)
            and abs(val) <= sys.float_info.max)


def _positive(what: str, val) -> float:
    if not (_real(val) and val > 0):
        raise SpecError(f"{what} must be a finite positive number, got {val!r}")
    return float(val)


def _vertex_list(what: str, val) -> list[list[float]]:
    if not (isinstance(val, (list, tuple)) and len(val) >= 3 and all(
            isinstance(v, (list, tuple)) and len(v) == 2 and _real(v[0]) and _real(v[1])
            for v in val)):
        raise SpecError(f"{what} must be at least 3 [x, y] pairs of finite numbers, got {val!r}")
    return [[float(x), float(y)] for x, y in val]


def _orient(ax, ay, bx, by, cx, cy):
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def _segments_properly_intersect(p1, p2, p3, p4):
    d1 = _orient(*p3, *p4, *p1)
    d2 = _orient(*p3, *p4, *p2)
    d3 = _orient(*p1, *p2, *p3)
    d4 = _orient(*p1, *p2, *p4)
    return ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)) and d1 != 0 and d2 != 0 and d3 != 0 and d4 != 0


def _polygon_area(p) -> float:
    pts = p["vertices"]
    edges = list(zip(pts, pts[1:] + pts[:1]))
    return 0.5 * abs(sum(x0 * y1 for (x0, _), (_, y1) in edges)
                     - sum(y0 * x1 for (_, y0), (x1, _) in edges))


def _polygon_box(p):
    xs, ys = zip(*p["vertices"])
    return (min(xs), min(ys)), (max(xs), max(ys))


def _polygon_contains(p, x, y):
    """Even-odd crossing test, minus the points that lie exactly on an edge."""
    pts = p["vertices"]
    inside = on_edge = False
    xj, yj = pts[-1]
    for xi, yi in pts:
        if yi != yj:  # a horizontal edge crosses no horizontal ray
            xcross = (xj - xi) * (y - yi) / (yj - yi) + xi
            inside = inside ^ (((yi > y) != (yj > y)) & (x < xcross))
        on_edge = on_edge | (((x - xi) * (yj - yi) == (y - yi) * (xj - xi))
                             & (min(xi, xj) <= x) & (x <= max(xi, xj))
                             & (min(yi, yj) <= y) & (y <= max(yi, yj)))
        xj, yj = xi, yi
    return inside > on_edge  # inside and not on an edge


def _polygon_problem(p) -> str | None:
    pts = p["vertices"]
    k = len(pts)
    for i in range(k):
        if pts[i] == pts[(i + 1) % k]:
            return "polygon has repeated consecutive vertices"
    # simple closed curve: no two non-adjacent edges may cross
    for i in range(k):
        a1, a2 = pts[i], pts[(i + 1) % k]
        for j in range(i + 1, k):
            if (j + 1) % k == i or (i + 1) % k == j:
                continue
            b1, b2 = pts[j], pts[(j + 1) % k]
            if _segments_properly_intersect(a1, a2, b1, b2):
                return "polygon edges intersect; vertices must trace a simple closed curve"
    return "polygon encloses no area" if _polygon_area(p) <= 0 else None


class _Shape:
    """One planar shape: its keys, a check_value that judges each raw value and
    returns its float copy, a check on the copy (what is wrong, or None), and
    area, box, strict-interior contains and label on the copy, unscaled."""

    def __init__(self, keys, area, box, contains, label,
                 check=lambda p: None, check_value=_positive):
        self.keys, self.area, self.box, self.contains, self.label = keys, area, box, contains, label
        self.check, self.check_value = check, check_value


_SHAPES: dict[str, _Shape] = {
    "disk": _Shape(
        keys=("radius",),
        area=lambda p: math.pi * p["radius"] ** 2,
        box=lambda p: ((-p["radius"], -p["radius"]), (p["radius"], p["radius"])),
        contains=lambda p, x, y: x * x + y * y < p["radius"] ** 2,
        label=lambda p: f"disk(r={p['radius']:g})"),
    "rectangle": _Shape(
        keys=("width", "height"),
        area=lambda p: p["width"] * p["height"],
        box=lambda p: ((0.0, 0.0), (p["width"], p["height"])),
        contains=lambda p, x, y: (x > 0) & (x < p["width"]) & (y > 0) & (y < p["height"]),
        label=lambda p: f"rectangle({p['width']:g}x{p['height']:g})"),
    "ellipse": _Shape(
        keys=("a", "b"),
        area=lambda p: math.pi * p["a"] * p["b"],
        box=lambda p: ((-p["a"], -p["b"]), (p["a"], p["b"])),
        contains=lambda p, x, y: (x / p["a"]) ** 2 + (y / p["b"]) ** 2 < 1.0,
        label=lambda p: f"ellipse(a={p['a']:g},b={p['b']:g})"),
    "l-shape": _Shape(
        keys=("side", "notch"),
        area=lambda p: p["side"] ** 2 * (1.0 - p["notch"] ** 2),
        box=lambda p: ((0.0, 0.0), (p["side"], p["side"])),
        contains=lambda p, x, y: ((x > 0) & (x < p["side"]) & (y > 0) & (y < p["side"])
                                  & ((x < p["side"] * (1.0 - p["notch"]))
                                     | (y < p["side"] * (1.0 - p["notch"])))),
        label=lambda p: f"l-shape(side={p['side']:g},notch={p['notch']:g})",
        check=lambda p: (None if p["notch"] < 1 else
                         f"l-shape notch fraction must lie in (0, 1), got {p['notch']!r}")),
    "polygon": _Shape(
        keys=("vertices",),
        area=_polygon_area,
        box=_polygon_box,
        contains=_polygon_contains,
        label=lambda p: f"polygon({len(p['vertices'])} vertices)",
        check=_polygon_problem,
        check_value=_vertex_list),
}


class DomainSpec:
    """Declarative bounded planar domain: a named shape plus a scale factor.

    JSON form uses per-shape keys, e.g.::

        {"shape": "disk", "radius": 1.0, "scale": 1.0}
        {"shape": "rectangle", "width": 1.0, "height": 2.0}
        {"shape": "ellipse", "a": 1.0, "b": 0.5}
        {"shape": "l-shape", "side": 1.0, "notch": 0.5}
        {"shape": "polygon", "vertices": [[0,0],[1,0],[0,1]]}

    The l-shape is the open square (0, side)^2 with the closed square of
    side notch*side removed from the top-right corner.  Lipschitz corners
    are accepted; boundary smoothness is not required.  Specs with missing
    or unknown keys, or with values other than real numbers in float range,
    are rejected; a spec stores its own float copy of what it judged.
    """

    def __init__(self, shape: str, params: dict | None = None, scale: float = 1.0):
        params = {} if params is None else params
        if not isinstance(shape, str) or shape not in _SHAPES:
            raise SpecError(f"unknown shape {shape!r}; expected one of {tuple(_SHAPES)}")
        rec = _SHAPES[shape]
        scale = _positive("scale", scale)
        if set(params) != set(rec.keys):
            raise SpecError(f"{shape} takes exactly the keys {rec.keys}, got {sorted(params)}")
        params = {key: rec.check_value(f"{shape} {key}", params[key]) for key in rec.keys}
        if problem := rec.check(params):
            raise SpecError(problem)
        # frozen: the fields are set once, here, past the __setattr__ below
        self.__dict__.update(shape=shape, params=params, scale=scale)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        # field by field; defining __eq__ alone leaves the class unhashable, as
        # it must be while params is a dict
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.shape, self.params, self.scale) == (other.shape, other.params, other.scale)

    def __repr__(self) -> str:
        return (f"{type(self).__qualname__}(shape={self.shape!r}, params={self.params!r}, "
                f"scale={self.scale!r})")

    # -- constructors ------------------------------------------------------

    @classmethod
    def disk(cls, radius: float = 1.0, scale: float = 1.0) -> "DomainSpec":
        return cls("disk", {"radius": radius}, scale)

    @classmethod
    def rectangle(cls, width: float, height: float, scale: float = 1.0) -> "DomainSpec":
        return cls("rectangle", {"width": width, "height": height}, scale)

    @classmethod
    def ellipse(cls, a: float, b: float, scale: float = 1.0) -> "DomainSpec":
        return cls("ellipse", {"a": a, "b": b}, scale)

    @classmethod
    def l_shape(cls, side: float = 1.0, notch: float = 0.5, scale: float = 1.0) -> "DomainSpec":
        return cls("l-shape", {"side": side, "notch": notch}, scale)

    @classmethod
    def polygon(cls, vertices, scale: float = 1.0) -> "DomainSpec":
        # rows of an array become lists; an entry that is no pair meets the gate as it is
        vertices = [list(v) if hasattr(v, "__iter__") else v for v in vertices]
        return cls("polygon", {"vertices": vertices}, scale)

    @classmethod
    def from_json(cls, obj) -> "DomainSpec":
        """Build from a JSON string or an already-parsed mapping."""
        if isinstance(obj, str):
            obj = json.loads(obj)
        if not isinstance(obj, dict) or "shape" not in obj:
            raise SpecError("domain spec must be an object with a 'shape' key")
        data = dict(obj)
        shape, scale = data.pop("shape"), data.pop("scale", 1.0)
        return cls(shape, data, scale)

    def to_json(self) -> dict:
        return {"shape": self.shape, **self.params, "scale": self.scale}

    # -- geometry ----------------------------------------------------------

    def area(self) -> float:
        """Exact area, scaled."""
        return _SHAPES[self.shape].area(self.params) * self.scale**2

    def bounding_box(self):
        """((x0, y0), (x1, y1)) enclosing the scaled domain."""
        (x0, y0), (x1, y1) = _SHAPES[self.shape].box(self.params)
        s = self.scale
        return (x0 * s, y0 * s), (x1 * s, y1 * s)

    def contains(self, x, y):
        """Strict-interior test on scaled coordinates: floats, or numpy
        arrays elementwise."""
        return _SHAPES[self.shape].contains(self.params, x / self.scale, y / self.scale)

    def describe(self) -> str:
        """Short human-readable label used in tables and reports."""
        body = _SHAPES[self.shape].label(self.params)
        if self.scale != 1.0:
            body += f"@{self.scale:g}"
        return body
