"""Shared primitives: the exponent gate, planar domain specs, quadrature."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "AdmissibilityError",
    "GridError",
    "SolverError",
    "VerificationError",
    "CrossingError",
    "DomainSpec",
    "unit_ball_volume",
    "admissible",
    "check_exponents",
    "alpha",
    "profile_integral",
]


class AdmissibilityError(ValueError):
    """Exponent pair outside the admissible range."""


class GridError(ValueError):
    """Domain cannot be resolved on the requested grid."""


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
    given, that it is non-empty with every q >= p.
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
        if min(qs) < p:
            raise AdmissibilityError(
                f"every q must be >= p = {p:g}; q = {min(qs):g} is below p")


def alpha(n: int, p: float) -> float:
    """Dilation exponent of the constant: C_p(r * Omega) = r^alpha * C_p(Omega).

    alpha = n - 2 - 2n/p, strictly negative on the admissible range.
    """
    check_exponents(n, p, allow_supercritical=True)
    return n - 2.0 - 2.0 * n / p


def profile_integral(s, values, power: float = 1.0) -> float:
    """Composite trapezoid of values**power over the sample grid s.

    Negative samples are rejected unless power is an integer, where the
    power is well defined anyway.
    """
    s = np.asarray(s, dtype=float)
    values = np.asarray(values, dtype=float)
    if s.ndim != 1 or s.shape != values.shape:
        raise ValueError("s and values must be 1-D arrays of equal length")
    if s.size < 2 or not (s[-1] > s[0]):
        raise ValueError("need at least two samples spanning a positive interval")
    if not (np.all(np.isfinite(s)) and np.all(np.isfinite(values))):
        raise ValueError("samples must be finite")
    if np.any(np.diff(s) < 0):
        raise ValueError("sample grid must be non-decreasing")
    if not float(power).is_integer() and np.any(values < 0):
        raise ValueError(f"negative samples under non-integer power {power}")
    return float(np.trapezoid(values**power, s))


_SHAPES = ("disk", "rectangle", "ellipse", "l-shape", "polygon")


def _orient(ax, ay, bx, by, cx, cy):
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def _segments_properly_intersect(p1, p2, p3, p4):
    d1 = _orient(*p3, *p4, *p1)
    d2 = _orient(*p3, *p4, *p2)
    d3 = _orient(*p1, *p2, *p3)
    d4 = _orient(*p1, *p2, *p4)
    return ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)) and d1 != 0 and d2 != 0 and d3 != 0 and d4 != 0


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
    are accepted; boundary smoothness is not required.
    """

    shape: str
    params: dict = field(default_factory=dict)
    scale: float = 1.0

    def __post_init__(self):
        if self.shape not in _SHAPES:
            raise ValueError(f"unknown shape {self.shape!r}; expected one of {_SHAPES}")
        if not (np.isfinite(self.scale) and self.scale > 0):
            raise ValueError(f"scale must be positive, got {self.scale}")
        getattr(self, "_validate_" + self.shape.replace("-", "_"))()

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
            raise ValueError("domain spec must be an object with a 'shape' key")
        data = dict(obj)
        shape = data.pop("shape")
        scale = float(data.pop("scale", 1.0))
        return cls(shape, data, scale)

    def to_json(self) -> dict:
        out = {"shape": self.shape}
        out.update(self.params)
        out["scale"] = self.scale
        return out

    # -- validation --------------------------------------------------------

    def _positive(self, *keys):
        for key in keys:
            val = self.params.get(key)
            if val is None or not np.isfinite(val) or val <= 0:
                raise ValueError(f"{self.shape} requires {key} > 0, got {val!r}")

    def _validate_disk(self):
        self._positive("radius")

    def _validate_rectangle(self):
        self._positive("width", "height")

    def _validate_ellipse(self):
        self._positive("a", "b")

    def _validate_l_shape(self):
        self._positive("side")
        notch = self.params.get("notch")
        if notch is None or not 0 < notch < 1:
            raise ValueError(f"l-shape notch fraction must lie in (0, 1), got {notch!r}")

    def _validate_polygon(self):
        verts = self.params.get("vertices")
        if not verts or len(verts) < 3:
            raise ValueError("polygon needs at least 3 vertices")
        pts = [(float(x), float(y)) for x, y in verts]
        k = len(pts)
        for i in range(k):
            if pts[i] == pts[(i + 1) % k]:
                raise ValueError("polygon has repeated consecutive vertices")
        # simple closed curve: no two non-adjacent edges may cross
        for i in range(k):
            a1, a2 = pts[i], pts[(i + 1) % k]
            for j in range(i + 1, k):
                if j == i or (j + 1) % k == i or (i + 1) % k == j:
                    continue
                b1, b2 = pts[j], pts[(j + 1) % k]
                if _segments_properly_intersect(a1, a2, b1, b2):
                    raise ValueError("polygon edges intersect; vertices must trace a simple closed curve")
        if self._polygon_area() <= 0:
            raise ValueError("polygon encloses no area")

    def _polygon_area(self) -> float:
        pts = self.params["vertices"]
        x = np.array([v[0] for v in pts])
        y = np.array([v[1] for v in pts])
        return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))

    # -- geometry ----------------------------------------------------------

    def area(self) -> float:
        """Exact area, scaled."""
        p = self.params
        if self.shape == "disk":
            base = math.pi * p["radius"] ** 2
        elif self.shape == "rectangle":
            base = p["width"] * p["height"]
        elif self.shape == "ellipse":
            base = math.pi * p["a"] * p["b"]
        elif self.shape == "l-shape":
            base = p["side"] ** 2 * (1.0 - p["notch"] ** 2)
        else:
            base = self._polygon_area()
        return base * self.scale**2

    def bounding_box(self):
        """((x0, y0), (x1, y1)) enclosing the scaled domain."""
        p = self.params
        if self.shape == "disk":
            r = p["radius"]
            box = (-r, -r), (r, r)
        elif self.shape == "rectangle":
            box = (0.0, 0.0), (p["width"], p["height"])
        elif self.shape == "ellipse":
            box = (-p["a"], -p["b"]), (p["a"], p["b"])
        elif self.shape == "l-shape":
            box = (0.0, 0.0), (p["side"], p["side"])
        else:
            xs = [v[0] for v in p["vertices"]]
            ys = [v[1] for v in p["vertices"]]
            box = (min(xs), min(ys)), (max(xs), max(ys))
        (x0, y0), (x1, y1) = box
        s = self.scale
        return (x0 * s, y0 * s), (x1 * s, y1 * s)

    def contains(self, x, y):
        """Vectorized strict-interior test on scaled coordinates."""
        x = np.asarray(x, dtype=float) / self.scale
        y = np.asarray(y, dtype=float) / self.scale
        p = self.params
        if self.shape == "disk":
            return x * x + y * y < p["radius"] ** 2
        if self.shape == "rectangle":
            return (x > 0) & (x < p["width"]) & (y > 0) & (y < p["height"])
        if self.shape == "ellipse":
            return (x / p["a"]) ** 2 + (y / p["b"]) ** 2 < 1.0
        if self.shape == "l-shape":
            side, notch = p["side"], p["notch"]
            cut = side * (1.0 - notch)
            outer = (x > 0) & (x < side) & (y > 0) & (y < side)
            return outer & ~((x >= cut) & (y >= cut))
        return self._polygon_contains(x, y)

    def _polygon_contains(self, x, y):
        verts = self.params["vertices"]
        vx = np.array([v[0] for v in verts])
        vy = np.array([v[1] for v in verts])
        inside = np.zeros(np.broadcast(x, y).shape, dtype=bool)
        j = len(verts) - 1
        for i in range(len(verts)):
            crosses = (vy[i] > y) != (vy[j] > y)
            with np.errstate(divide="ignore", invalid="ignore"):
                xcross = (vx[j] - vx[i]) * (y - vy[i]) / (vy[j] - vy[i]) + vx[i]
            inside ^= crosses & (x < xcross)
            j = i
        return inside

    def describe(self) -> str:
        """Short human-readable label used in tables and reports."""
        p = self.params
        if self.shape == "disk":
            body = f"disk(r={p['radius']:g})"
        elif self.shape == "rectangle":
            body = f"rectangle({p['width']:g}x{p['height']:g})"
        elif self.shape == "ellipse":
            body = f"ellipse(a={p['a']:g},b={p['b']:g})"
        elif self.shape == "l-shape":
            body = f"l-shape(side={p['side']:g},notch={p['notch']:g})"
        else:
            body = f"polygon({len(p['vertices'])} vertices)"
        if self.scale != 1.0:
            body += f"@{self.scale:g}"
        return body
