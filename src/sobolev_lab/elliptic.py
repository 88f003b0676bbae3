"""Sobolev quotient minimization on masked finite-difference grids.

Domains are rasterized onto a uniform grid; the Dirichlet Laplacian is the
5-point stencil with zero boundary values, and the quotient
int |grad u|^2 / (int |u|^p)^(2/p) is driven down by the fixed-point
iteration u <- normalize_p(laplace_solve(u^(p-1))), which is inverse power
iteration at p = 2 and a single linear solve at p = 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import cg

from .core import DomainSpec, GridError, SolverError, check_exponents

__all__ = [
    "GriddedField",
    "SobolevResult",
    "build_grid",
    "poisson_solve",
    "quotient",
    "minimize_quotient",
]

NODE_BUDGET = 4_000_000
CG_RTOL = 1e-10
CG_MAXITER = 50_000


@dataclass(eq=False)
class GriddedField:
    """Values on a uniform grid masked to a domain's strict interior.

    values has shape (ny, nx), row-major in y; entries outside the mask
    are identically zero.  origin is the coordinate of node (0, 0).
    """

    nx: int
    ny: int
    h: float
    origin: tuple
    mask: np.ndarray
    values: np.ndarray
    spec: Optional[DomainSpec] = None

    def __post_init__(self):
        if self.mask.shape != (self.ny, self.nx) or self.values.shape != (self.ny, self.nx):
            raise ValueError("mask/values shape must be (ny, nx)")

    def volume(self) -> float:
        """Area estimate: inside-node count times h^2."""
        return float(np.count_nonzero(self.mask)) * self.h**2

    def node_coordinates(self):
        x = self.origin[0] + self.h * np.arange(self.nx)
        y = self.origin[1] + self.h * np.arange(self.ny)
        return np.meshgrid(x, y)

    def lp_norm(self, p: float) -> float:
        return float(np.sum(np.abs(self.values[self.mask]) ** p) * self.h**2) ** (1.0 / p)


@dataclass(eq=False)
class SobolevResult:
    """Converged extremal: field normalized to ||u||_Lp = 1 and its quotient."""

    field: GriddedField
    cp: float
    iterations: int
    residual: float
    p: float
    trajectory: list = field(default_factory=list)


def _axis_count(span: float, h: float) -> int:
    m = span / h
    return max(1, int(np.ceil(m - 1e-9)))


def build_grid(spec: DomainSpec, h: float) -> GriddedField:
    """Rasterize a domain: nodes on a uniform lattice, masked strictly inside."""
    if not (h > 0):
        raise GridError(f"grid spacing must be positive, got {h}")
    (x0, y0), (x1, y1) = spec.bounding_box()
    nx = _axis_count(x1 - x0, h) + 1
    ny = _axis_count(y1 - y0, h) + 1
    if nx * ny > NODE_BUDGET:
        raise GridError(f"grid of {nx}x{ny} nodes exceeds the budget of {NODE_BUDGET}")
    X, Y = np.meshgrid(x0 + h * np.arange(nx), y0 + h * np.arange(ny))
    mask = spec.contains(X, Y)
    if not np.any(mask):
        raise GridError(f"domain {spec.describe()} is unresolved at h = {h:g}")
    return GriddedField(nx=nx, ny=ny, h=h, origin=(x0, y0), mask=mask,
                        values=np.zeros((ny, nx)), spec=spec)


def _laplacian(grid: GriddedField):
    """5-point Dirichlet Laplacian restricted to mask nodes (SPD, CSR)."""
    mask = grid.mask
    n = int(np.count_nonzero(mask))
    index = -np.ones(mask.shape, dtype=np.int64)
    index[mask] = np.arange(n)
    h2 = grid.h**2
    rows = [np.arange(n)]
    cols = [np.arange(n)]
    data = [np.full(n, 4.0 / h2)]
    # edges whose two endpoints are both masked; outside neighbors carry u = 0
    pair_x = mask[:, :-1] & mask[:, 1:]
    pair_y = mask[:-1, :] & mask[1:, :]
    for a, b in ((index[:, :-1][pair_x], index[:, 1:][pair_x]),
                 (index[:-1, :][pair_y], index[1:, :][pair_y])):
        rows.extend((a, b))
        cols.extend((b, a))
        off = np.full(a.size, -1.0 / h2)
        data.extend((off, off))
    A = sp.csr_matrix((np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
                      shape=(n, n))
    return A, index


def _cg(A, b, x0):
    """Conjugate gradients to CG_RTOL; the one linear-solver call."""
    x, info = cg(A, b, x0=x0, rtol=CG_RTOL, atol=0.0, maxiter=CG_MAXITER)
    if info != 0:
        res = float(np.linalg.norm(b - A @ x) / max(np.linalg.norm(b), 1e-300))
        raise SolverError(
            f"conjugate gradients did not reach rtol={CG_RTOL:g} in {CG_MAXITER} "
            f"iterations (relative residual {res:.3e})", trajectory=[res])
    return x


def poisson_solve(grid: GriddedField, rhs, x0: np.ndarray | None = None) -> GriddedField:
    """Solve -Delta_h v = rhs with zero Dirichlet data, by conjugate gradients."""
    if isinstance(rhs, GriddedField):
        b = rhs.values[grid.mask]
    else:
        rhs = np.asarray(rhs, dtype=float)
        b = rhs[grid.mask] if rhs.shape == grid.mask.shape else rhs
    x = _cg(_laplacian(grid)[0], b, x0)
    out = np.zeros_like(grid.values)
    out[grid.mask] = x
    return GriddedField(grid.nx, grid.ny, grid.h, grid.origin, grid.mask, out, grid.spec)


def quotient(fld: GriddedField, p: float) -> float:
    """Discrete Sobolev quotient of a field.

    Dirichlet energy by forward differences over all cell edges (zero
    outside the mask); the L^p norm by node sums times h^2.  In two
    dimensions the h factors in the energy cancel.
    """
    v = fld.values
    energy = float(np.sum(np.diff(v, axis=0) ** 2) + np.sum(np.diff(v, axis=1) ** 2))
    mass = float(np.sum(np.abs(v[fld.mask]) ** p)) * fld.h**2
    if mass == 0.0:
        raise ValueError("quotient of the zero function is undefined")
    return energy / mass ** (2.0 / p)


def minimize_quotient(grid: GriddedField, p: float, tol: float = 1e-8,
                      max_iter: int = 300, allow_supercritical: bool = False) -> SobolevResult:
    """Drive the quotient to its minimum over the masked grid.

    Stops when the relative change of the quotient between sweeps falls
    below tol.  At p = 1 the right-hand side is constant, so the iteration
    lands after a single solve; at p = 2 this is inverse power iteration.
    """
    check_exponents(2, p, allow_supercritical=allow_supercritical)
    A, _ = _laplacian(grid)
    mask = grid.mask
    h2 = grid.h**2

    u = np.ones(int(np.count_nonzero(mask)))
    u /= (np.sum(u**p) * h2) ** (1.0 / p)
    cp_prev = None
    trajectory = []
    x_prev = None
    for it in range(1, max_iter + 1):
        rhs_vec = np.maximum(u, 0.0) ** (p - 1.0)
        try:
            x = _cg(A, rhs_vec, x_prev)
        except SolverError as exc:
            raise SolverError(f"inner CG solve failed to converge at sweep {it}: {exc}",
                              trajectory=trajectory) from exc
        x_prev = x
        u = x / (np.sum(np.maximum(x, 0.0) ** p) * h2) ** (1.0 / p)
        field = np.zeros_like(grid.values)
        field[mask] = u
        out = GriddedField(grid.nx, grid.ny, grid.h, grid.origin, mask, field, grid.spec)
        cp_now = quotient(out, p)
        trajectory.append(cp_now)
        if cp_prev is not None and abs(cp_now - cp_prev) <= tol * abs(cp_prev):
            return SobolevResult(field=out, cp=cp_now, iterations=it,
                                 residual=abs(cp_now - cp_prev) / abs(cp_prev), p=p,
                                 trajectory=trajectory)
        cp_prev = cp_now
    tail = ", ".join(f"{v:.10g}" for v in trajectory[-5:])
    raise SolverError(
        f"quotient iteration did not converge in {max_iter} sweeps (tail: {tail})",
        trajectory=trajectory)
