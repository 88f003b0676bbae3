"""Seeded workload definitions for the verify-pipeline benchmark.

A workload is a list of cases generated from the workload seed.  Anchor
cases are fixed; the seed draws only the shape parameters of the other
cases (ellipse aspect, l-shape notch) and their interior exponent p.
Draws are rounded to three decimals so labels and cache keys stay short.

This module imports nothing from the program under test: the driver and
the pass children both read it.
"""

from __future__ import annotations

import math
import random

J0_SQUARED = 5.783185962946785         # first Dirichlet eigenvalue of the unit disk
DISK_TORSION_CP = 8.0 / math.pi        # C_1 of the unit disk

WORKLOADS = ("verify-fine", "constants-many-q", "cli-sweep")
MANY_Q = (2.5, 3.0, 3.5, 4.0, 5.0, 6.0, 8.0)   # with q = p, eight exponents per case

# the smoke check shrinks every grid to this spacing
SMOKE_H = 1.0 / 32


def square_discrete_eigenvalue(h: float) -> float:
    """Exact first eigenvalue of the 5-point Laplacian on the unit square."""
    return (8.0 / h**2) * math.sin(math.pi * h / 2.0) ** 2


def _draw(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 3)


def _ellipse(aspect: float, area: float) -> dict:
    # semi-axes with a/b = aspect and pi*a*b = area
    b = math.sqrt(area / (math.pi * aspect))
    return {"shape": "ellipse", "a": round(aspect * b, 6), "b": round(b, 6)}


def _case(name: str, spec: dict, p: float, qs, h: float, **anchor) -> dict:
    qs = sorted({float(p), *map(float, qs)})
    return {"name": name, "spec": spec, "p": float(p), "qs": qs, "h": h, **anchor}


def make_cases(workload: str, seed: int, h_override: float | None = None) -> list[dict]:
    """Cases of one workload for one seed.

    Each case is a dict with the domain spec (JSON form), p, the q list,
    the grid spacing h and, for anchors, the oracle it is checked against:
    ``continuum`` (closed form of the continuum constant) or ``discrete``
    ("eigenvalue" or "torsion": the exact solution of the discrete
    problem, computed independently at set-up; or a closed-form number).
    """
    rng = random.Random(f"{workload}:{seed}")
    disk = {"shape": "disk", "radius": 1.0}
    if workload == "verify-fine":
        h = h_override or 1.0 / 256
        cases = [
            _case("disk-p2", disk, 2.0, (3.0, 4.0), h,
                  continuum=J0_SQUARED, discrete="eigenvalue"),
            _case("ellipse", _ellipse(_draw(rng, 1.2, 1.5), math.pi / 4),
                  _draw(rng, 1.3, 2.0), (3.0, 4.0), h),
            _case("l-shape", {"shape": "l-shape", "side": 0.8,
                              "notch": _draw(rng, 0.3, 0.6)},
                  _draw(rng, 1.3, 2.0), (3.0, 4.0), h),
        ]
    elif workload == "constants-many-q":
        h = h_override or 1.0 / 64
        p_mid = _draw(rng, 1.2, 1.8)
        shapes = [("square", {"shape": "rectangle", "width": 1.0, "height": 1.0}),
                  ("disk", disk),
                  ("l-shape", {"shape": "l-shape", "side": 1.0,
                               "notch": _draw(rng, 0.3, 0.6)})]
        cases = []
        for label, spec in shapes:
            for p in (1.0, p_mid, 2.0):
                anchor = {}
                if label == "square" and p == 2.0:
                    anchor = {"discrete": square_discrete_eigenvalue(h)}
                elif label == "disk" and p == 1.0:
                    anchor = {"continuum": DISK_TORSION_CP}
                elif label == "disk" and p == 2.0:
                    anchor = {"continuum": J0_SQUARED}
                cases.append(_case(f"{label}-p{p:g}", spec, p, MANY_Q, h, **anchor))
    elif workload == "cli-sweep":
        h = h_override or 1.0 / 256
        cases = [
            _case("disk-p1", disk, 1.0, (2.0, 3.0, 4.0), h,
                  continuum=DISK_TORSION_CP, discrete="torsion"),
            _case("ellipse", _ellipse(_draw(rng, 1.2, 1.5), math.pi / 2),
                  1.0, (2.0, 3.0, 4.0), h),
            _case("l-shape", {"shape": "l-shape", "side": 1.0,
                              "notch": _draw(rng, 0.3, 0.6)},
                  1.0, (2.0, 3.0, 4.0), h),
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    return cases
