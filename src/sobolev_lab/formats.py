"""File formats: JSON-headed CSVs, field files, and report rendering.

Every CSV file is laid out by csv_text alone (see csvtext, which holds
the numpy-free text layer that this module re-exports).
"""

from __future__ import annotations

import json
from typing import Any, Mapping

import numpy as np

from .core import DomainSpec, InputError
from .csvtext import FORMAT_VERSION, canonical_json, csv_text, write_csv
from .elliptic import GriddedField
from .radial import RadialProfile, VolumeProfile

__all__ = [
    "FORMAT_VERSION",
    "canonical_json",
    "csv_text",
    "write_csv",
    "write_radial_profile",
    "write_volume_profile",
    "write_field",
    "read_field",
    "report_to_dict",
    "report_to_json",
    "report_to_table",
]

DEFAULT_GRID = 2049    # rows of a radial profile file


def write_radial_profile(path: str, prof: RadialProfile,
                         config: Mapping[str, Any] | None = None) -> None:
    """Profile CSV: JSON header line, then `r,phi` rows on DEFAULT_GRID
    equispaced radii over [0, radius]."""
    r = np.linspace(0.0, 1.0, DEFAULT_GRID) * prof.radius
    phi = prof.phi(r)
    fields = {
        "kind": "radial",
        "n": prof.n,
        "p": prof.p,
        "Lambda": prof.cp_ball,
        "cp_ball": prof.cp_ball,
        "normalization": float(phi[0]),
        "samples": DEFAULT_GRID,
    }
    write_csv(path, "profile", fields, config, ("r", "phi"), zip(r, phi))


def write_volume_profile(path: str, vp: VolumeProfile,
                         meta: Mapping[str, Any] | None = None,
                         config: Mapping[str, Any] | None = None) -> None:
    """Volume-profile CSV: JSON header line, then `s,value` rows.

    One row per cell (left edge, value); the closing edge is the
    total_volume header field.
    """
    fields: dict[str, Any] = {
        "kind": "volume",
        "total_volume": vp.total_volume,
        "samples": int(vp.values.size),
    }
    if meta:
        fields.update(meta)
    write_csv(path, "profile", fields, config, ("s", "value"), zip(vp.s[:-1], vp.values))


def write_field(path: str, field: GriddedField, p: float | None = None,
                cp: float | None = None,
                config: Mapping[str, Any] | None = None) -> None:
    """Field file: JSON header {nx, ny, h, origin, p, cp, domain} then
    row-major CSV of node values with NaN outside the mask."""
    fields: dict[str, Any] = {
        "nx": field.mask.shape[1],
        "ny": field.mask.shape[0],
        "h": field.h,
        "origin": [field.origin[0], field.origin[1]],
        "p": p,
        "cp": cp,
        "domain": None if field.spec is None else field.spec.to_json(),
    }
    grid = np.where(field.mask, field.values, np.nan)
    write_csv(path, "field", fields, config, None, grid)


def read_field(path: str) -> tuple[dict, GriddedField]:
    """Read a field file back into a GriddedField (mask from NaN).

    A malformed file raises InputError: a missing or non-numeric header
    key, an h that is not finite and positive, a body of the wrong shape,
    an infinite node value or no node inside the mask.
    """
    with open(path, encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        try:
            grid = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise InputError(f"malformed field body: {exc}") from None

    def number(key, convert):
        try:
            return convert(header[key])
        except (KeyError, IndexError, TypeError, ValueError, OverflowError):
            raise InputError(f"field header key {key!r} is missing or not numeric") from None

    ny, nx, h = number("ny", int), number("nx", int), number("h", float)
    x0, y0 = number("origin", lambda xy: (float(xy[0]), float(xy[1])))
    if not 0 < h < np.inf:
        raise InputError(f"field header key 'h' must be finite and positive, got {h!r}")
    if grid.shape != (ny, nx):
        raise InputError(f"field body is {grid.shape}, header says {(ny, nx)}")
    if np.isinf(grid).any():
        raise InputError("field body holds an infinite node value")
    mask = ~np.isnan(grid)
    if not mask.any():
        raise InputError("field body has no node inside the domain (every value is nan)")
    spec = None
    if header.get("domain"):
        spec = DomainSpec.from_json(header["domain"])
    field = GriddedField(h=h, origin=(x0, y0), mask=mask,
                         values=np.where(mask, grid, 0.0), spec=spec)
    return header, field


def report_to_dict(report) -> dict:
    """Flatten a ReverseHolderReport into JSON-ready primitives."""
    cr = report.crossing
    return {
        "format": "sobolev-lab/report",
        "version": FORMAT_VERSION,
        "domain": None if report.domain is None else dict(report.domain),
        "n": report.n,
        "p": report.p,
        "h": report.h,
        "cp": report.cp,
        "rho": report.rho,
        "omega_volume": report.omega_volume,
        "bstar_volume": report.bstar_volume,
        "equality_case": cr.identical,
        "crossing": {
            "identical": cr.identical,
            "count": cr.crossing_count,
            "s1": cr.s1,
            "max_I": cr.max_I,
            "wrong_way": cr.wrong_way,
        },
        "dominance_min": report.dominance_min,
        "tau_margin": report.tau_margin,
        "tau_dominance": report.tau_dominance,
        "rows": [
            {"q": r.q, "khat": r.khat, "K": r.K,
             "lhs": r.lhs, "rhs": r.rhs, "margin": r.margin}
            for r in report.rows
        ],
        "passed": report.passed(),
        "failed_gates": report.failed_gates(),
    }


def report_to_json(report, config: Mapping[str, Any] | None = None) -> str:
    payload = report_to_dict(report)
    if config is not None:
        payload["config"] = dict(config)
    return canonical_json(payload)


def report_to_table(report) -> str:
    """Aligned-column text rendering of a verification report."""
    d = report_to_dict(report)
    cr = d["crossing"]
    if cr["identical"]:
        crossing_line = f"identical: max|I| <= c  (max I = {cr['max_I']:.3e})"
    else:
        crossing_line = (f"count={cr['count']}  s1={cr['s1']:.7g}  "
                         f"max I={cr['max_I']:.3e}  wrong way={cr['wrong_way']:.3e}")
    if d["domain"] is None:
        label = "(unspecified)"
    else:
        label = DomainSpec.from_json(d["domain"]).describe()
    lines = [
        f"domain        {label}",
        f"exponents     n={d['n']}  p={d['p']:g}  h={d['h']:.8g}",
        f"C_p(Omega)    {d['cp']:.9g}",
        f"ball B*       rho={d['rho']:.7g}  |B*|={d['bstar_volume']:.7g}"
        f"  |Omega|={d['omega_volume']:.7g}",
        f"crossing      {crossing_line}",
        f"dominance     min I(s) = {d['dominance_min']:+.3e}"
        f"  (c = {d['tau_dominance']:.3e})",
        f"equality      {'yes (ball)' if d['equality_case'] else 'no'}",
        "",
        f"{'q':>8}  {'khat':>12}  {'K':>12}  {'|u|_p':>12}  "
        f"{'K|u|_q':>12}  {'margin':>12}",
    ]
    for r in d["rows"]:
        lines.append(
            f"{r['q']:>8g}  {r['khat']:>12.8f}  {r['K']:>#12.9g}  "
            f"{r['lhs']:>12.8f}  {r['rhs']:>12.8f}  {r['margin']:>+12.3e}"
        )
    lines.append("")
    lines.append(f"result        {'PASS' if d['passed'] else 'FAIL'}")
    return "\n".join(lines)
