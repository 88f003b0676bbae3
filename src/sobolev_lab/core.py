"""Shared primitives: the exponent gate, planar domain specs, quadrature."""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

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
    """Crossing analysis could not certify a single sign change.

    The offending difference profile is attached for diagnostics.
    """

    def __init__(self, message: str, s=None, difference=None):
        super().__init__(message, stage="crossing")
        self.s = None if s is None else np.asarray(s, dtype=float)
        self.difference = None if difference is None else np.asarray(difference, dtype=float)


def unit_ball_volume(n: int) -> float:
    """Volume of the unit ball in R^n, pi^(n/2) / Gamma(n/2 + 1)."""
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
        raise ValueError(f"dimension must be a positive integer, got {n!r}")
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


def admissible(n: int, p: float) -> bool:
    """Whether the variational problem for (n, p) has an extremal.

    Requires p >= 1, and for n >= 3 the subcritical bound p < 2n/(n-2).
    In two dimensions every p >= 1 is admissible.  Total: out-of-range
    inputs return False rather than raising.
    """
    if not np.isfinite(p) or p < 1.0:
        return False
    if n == 2:
        return True
    return n > 2 and p < 2.0 * n / (n - 2.0)


def check_exponents(n: int, p: float, qs=None, allow_supercritical: bool = False):
    """The one admissibility gate for exponents; raises AdmissibilityError.

    Checks that (n, p) is admissible, that p <= 2 unless
    allow_supercritical lifts the experimental gate, and, when qs is
    given, that it is non-empty with every q finite and q >= p.
    """
    if not admissible(n, p):
        bound = "any p >= 1" if n == 2 else f"1 <= p < 2n/(n-2) = {2.0 * n / (n - 2.0):g}"
        raise AdmissibilityError(f"(n, p) = ({n}, {p}) is not admissible; need {bound}")
    if p > 2.0 and not allow_supercritical:
        raise AdmissibilityError(
            f"p = {p:g} lies outside 1 <= p <= 2 and is gated as experimental; "
            f"pass allow_supercritical=True to lift")
    if qs is not None:
        if len(qs) == 0:
            raise AdmissibilityError("need at least one exponent q")
        if not np.all(np.isfinite(qs)):
            raise AdmissibilityError(f"every q must be finite; got {[float(q) for q in qs]}")
        if min(qs) < p:
            raise AdmissibilityError(
                f"every q must be >= p = {p:g}; q = {min(qs):g} is below p")


def alpha(n: int, p: float) -> float:
    """Dilation exponent of the constant: C_p(r * Omega) = r^alpha * C_p(Omega).

    alpha = n - 2 - 2n/p, strictly negative on the admissible range.
    """
    check_exponents(n, p, allow_supercritical=True)
    return n - 2.0 - 2.0 * n / p


def cumulative_trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Running trapezoid integral of y over x, starting at 0.

    Bit-identical to scipy.integrate.cumulative_trapezoid(y, x, initial=0.0).
    """
    return np.concatenate(([0.0], np.cumsum(np.diff(x) * (y[1:] + y[:-1]) / 2.0)))


def _real(val) -> bool:
    return isinstance(val, numbers.Real) and not isinstance(val, bool) and math.isfinite(val)


def _positive(what: str, val) -> None:
    if not (_real(val) and val > 0):
        raise SpecError(f"{what} must be a finite positive number, got {val!r}")


def _vertex_list(what: str, val) -> None:
    if not (isinstance(val, (list, tuple)) and len(val) >= 3 and all(
            isinstance(v, (list, tuple)) and len(v) == 2 and _real(v[0]) and _real(v[1])
            for v in val)):
        raise SpecError(f"{what} must be at least 3 [x, y] pairs of finite numbers, got {val!r}")


def _orient(ax, ay, bx, by, cx, cy):
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def _segments_properly_intersect(p1, p2, p3, p4):
    d1 = _orient(*p3, *p4, *p1)
    d2 = _orient(*p3, *p4, *p2)
    d3 = _orient(*p1, *p2, *p3)
    d4 = _orient(*p1, *p2, *p4)
    return ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)) and d1 != 0 and d2 != 0 and d3 != 0 and d4 != 0


def _polygon_area(p) -> float:
    x, y = np.array(p["vertices"], dtype=float).T
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


def _polygon_box(p):
    xs, ys = zip(*p["vertices"])
    return (min(xs), min(ys)), (max(xs), max(ys))


def _polygon_contains(p, x, y):
    """Even-odd crossing test, minus the points that lie exactly on an edge."""
    verts = p["vertices"]
    vx, vy = np.array(verts, dtype=float).T
    inside = np.zeros(np.broadcast(x, y).shape, dtype=bool)
    on_edge = np.zeros_like(inside)
    j = len(verts) - 1
    for i in range(len(verts)):
        crosses = (vy[i] > y) != (vy[j] > y)
        with np.errstate(divide="ignore", invalid="ignore"):
            xcross = (vx[j] - vx[i]) * (y - vy[i]) / (vy[j] - vy[i]) + vx[i]
        inside ^= crosses & (x < xcross)
        on_edge |= (((x - vx[i]) * (vy[j] - vy[i]) == (y - vy[i]) * (vx[j] - vx[i]))
                    & (min(vx[i], vx[j]) <= x) & (x <= max(vx[i], vx[j]))
                    & (min(vy[i], vy[j]) <= y) & (y <= max(vy[i], vy[j])))
        j = i
    return inside & ~on_edge


def _polygon_problem(p) -> str | None:
    pts = [(float(x), float(y)) for x, y in p["vertices"]]
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


@dataclass(frozen=True)
class _Shape:
    """One planar shape: its required keys, a check for each of their values,
    and area, box, strict-interior contains and label on the unscaled params.
    check runs after the value checks and returns what is wrong, or None."""

    keys: tuple[str, ...]
    area: Callable[[dict], float]
    box: Callable[[dict], tuple]
    contains: Callable[[dict, np.ndarray, np.ndarray], np.ndarray]
    label: Callable[[dict], str]
    check: Callable[[dict], str | None] = lambda p: None
    check_value: Callable[[str, object], None] = _positive


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
                                  & ~((x >= p["side"] * (1.0 - p["notch"]))
                                      & (y >= p["side"] * (1.0 - p["notch"])))),
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


@dataclass(frozen=True)
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
    or unknown keys, or with non-numeric values, are rejected.
    """

    shape: str
    params: dict = field(default_factory=dict)
    scale: float = 1.0

    def __post_init__(self):
        if not isinstance(self.shape, str) or self.shape not in _SHAPES:
            raise SpecError(f"unknown shape {self.shape!r}; expected one of {tuple(_SHAPES)}")
        rec = _SHAPES[self.shape]
        _positive("scale", self.scale)
        if set(self.params) != set(rec.keys):
            raise SpecError(f"{self.shape} takes exactly the keys {rec.keys}, "
                            f"got {sorted(self.params)}")
        for key in rec.keys:
            rec.check_value(f"{self.shape} {key}", self.params[key])
        if problem := rec.check(self.params):
            raise SpecError(problem)

    # -- constructors ------------------------------------------------------

    @classmethod
    def disk(cls, radius: float = 1.0, scale: float = 1.0) -> "DomainSpec":
        return cls("disk", {"radius": float(radius)}, scale)

    @classmethod
    def rectangle(cls, width: float, height: float, scale: float = 1.0) -> "DomainSpec":
        return cls("rectangle", {"width": float(width), "height": float(height)}, scale)

    @classmethod
    def ellipse(cls, a: float, b: float, scale: float = 1.0) -> "DomainSpec":
        return cls("ellipse", {"a": float(a), "b": float(b)}, scale)

    @classmethod
    def l_shape(cls, side: float = 1.0, notch: float = 0.5, scale: float = 1.0) -> "DomainSpec":
        return cls("l-shape", {"side": float(side), "notch": float(notch)}, scale)

    @classmethod
    def polygon(cls, vertices, scale: float = 1.0) -> "DomainSpec":
        verts = [[float(x), float(y)] for x, y in vertices]
        return cls("polygon", {"vertices": verts}, scale)

    @classmethod
    def from_json(cls, obj) -> "DomainSpec":
        """Build from a JSON string or an already-parsed mapping."""
        if isinstance(obj, str):
            obj = json.loads(obj)
        if not isinstance(obj, dict) or "shape" not in obj:
            raise SpecError("domain spec must be an object with a 'shape' key")
        data = dict(obj)
        shape = data.pop("shape")
        scale = data.pop("scale", 1.0)  # stored as a float; the gate judges the rest
        return cls(shape, data, float(scale) if _real(scale) else scale)

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
        """Vectorized strict-interior test on scaled coordinates."""
        x = np.asarray(x, dtype=float) / self.scale
        y = np.asarray(y, dtype=float) / self.scale
        return _SHAPES[self.shape].contains(self.params, x, y)

    def describe(self) -> str:
        """Short human-readable label used in tables and reports."""
        body = _SHAPES[self.shape].label(self.params)
        if self.scale != 1.0:
            body += f"@{self.scale:g}"
        return body
