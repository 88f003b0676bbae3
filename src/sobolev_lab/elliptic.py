"""Sobolev quotient minimization on masked finite-difference grids.

Domains are rasterized onto a uniform grid; the Dirichlet Laplacian is the
5-point stencil with zero boundary values, and the quotient
int |grad u|^2 / (int |u|^p)^(2/p) is driven down by the fixed-point
iteration u <- normalize_p(laplace_solve(u^(p-1))), which is inverse power
iteration at p = 2 and a single linear solve at p = 1.  Each linear solve
is conjugate gradients preconditioned by a geometric multigrid V-cycle,
built once per grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, cg, splu

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
# multigrid preconditioner: levels coarsen until at most this many nodes,
# damped Jacobi weight, and smoothing sweeps on each side of the coarse solve
MG_COARSE_SIZE = 2_000
MG_OMEGA = 0.8
MG_SMOOTH = 2


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
    """5-point Dirichlet Laplacian restricted to mask nodes (SPD, CSR).

    Assembled row by row with int32 indices; each row's columns are in
    stencil order (down, left, self, right, up), which is ascending in the
    row-major node numbering.  Outside neighbors carry u = 0 and drop out.
    """
    mask = grid.mask
    n = int(np.count_nonzero(mask))
    index = np.full(mask.shape, -1, dtype=np.int32)
    index[mask] = np.arange(n, dtype=np.int32)
    pad = np.pad(index, 1, constant_values=-1)
    cols = np.stack([pad[:-2, 1:-1][mask], pad[1:-1, :-2][mask], index[mask],
                     pad[1:-1, 2:][mask], pad[2:, 1:-1][mask]], axis=1)
    present = cols >= 0
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(present.sum(axis=1, dtype=np.int32), out=indptr[1:])
    h2 = grid.h**2
    data = np.full(int(indptr[-1]), -1.0 / h2)
    # the diagonal sits after the row's present down and left neighbors
    data[indptr[:-1] + present[:, :2].sum(axis=1, dtype=np.int32)] = 4.0 / h2
    return sp.csr_matrix((data, cols[present], indptr), shape=(n, n))


def _prolongation(mask: np.ndarray):
    """Bilinear interpolation from the nodes of mask[::2, ::2] to those of mask.

    Coarse node (i, j) is fine node (2i, 2j).  A fine node takes weight 1/2
    per odd coordinate from each of its one, two or four coarse corners;
    corners outside the coarse mask carry zero and drop out.  Assembled
    directly in CSR, like the Laplacian.  Returns (P, coarse mask).
    """
    coarse = mask[::2, ::2]
    nc = int(np.count_nonzero(coarse))
    cindex = np.full((coarse.shape[0] + 1, coarse.shape[1] + 1), -1, dtype=np.int32)
    cindex[:-1, :-1][coarse] = np.arange(nc, dtype=np.int32)
    iy, ix = np.nonzero(mask)
    # corners at offsets (0,0), (0,1), (1,0), (1,1): ascending coarse columns
    cols = np.stack([cindex[(iy + dy) // 2, (ix + dx) // 2]
                     for dy in (0, 1) for dx in (0, 1)], axis=1)
    odd_y, odd_x = iy % 2 == 1, ix % 2 == 1
    # along an even coordinate both offsets name the same corner: keep one
    cols[~odd_y, 2:] = -1
    cols[~odd_x, 1::2] = -1
    present = cols >= 0
    counts = present.sum(axis=1, dtype=np.int32)
    indptr = np.zeros(iy.size + 1, dtype=np.int32)
    np.cumsum(counts, out=indptr[1:])
    weight = np.where(odd_y, 0.5, 1.0) * np.where(odd_x, 0.5, 1.0)
    P = sp.csr_matrix((np.repeat(weight, counts), cols[present], indptr),
                      shape=(iy.size, nc))
    return P, coarse


class _VCycle(LinearOperator):
    """One multigrid V-cycle for the Laplacian A of a masked grid, as a
    preconditioner for cg.

    Levels coarsen by mask[::2, ::2] with bilinear prolongation P and
    Galerkin operators P^T A P while a level has more than MG_COARSE_SIZE
    nodes (or until the coarse mask is empty); the last level is LU-factored.
    Damped Jacobi, MG_SMOOTH sweeps before and as many after the coarse
    correction, keeps the cycle a symmetric positive definite operator, as
    conjugate gradients requires.  The cycle is a plain loop over the levels,
    not a recursive closure, so a hierarchy holds no reference cycle and is
    freed as soon as its solve is done.
    """

    def __init__(self, A, mask: np.ndarray):
        super().__init__(dtype=float, shape=A.shape)
        self.levels = []
        while A.shape[0] > MG_COARSE_SIZE:
            P, mask = _prolongation(mask)
            if P.shape[1] == 0:
                break
            self.levels.append((A, P, MG_OMEGA / A.diagonal()))
            A = (P.T @ (A @ P)).tocsr()
        self.bottom = splu(A.tocsc())

    def _matvec(self, r: np.ndarray) -> np.ndarray:
        stack = []
        for A, P, dinv in self.levels:
            x = dinv * r
            for _ in range(MG_SMOOTH - 1):
                x += dinv * (r - A @ x)
            stack.append((r, x))
            r = P.T @ (r - A @ x)
        x = self.bottom.solve(r)
        for (A, P, dinv), (r, xf) in zip(reversed(self.levels), reversed(stack)):
            x = xf + P @ x
            for _ in range(MG_SMOOTH):
                x += dinv * (r - A @ x)
        return x


def _cg(A, b, x0, M):
    """Preconditioned conjugate gradients to CG_RTOL; the one linear-solver call.

    scipy's cg stops on the unpreconditioned residual ||b - A x|| <=
    CG_RTOL ||b||, so the preconditioner changes the cost, not the accuracy.
    """
    x, info = cg(A, b, x0=x0, rtol=CG_RTOL, atol=0.0, maxiter=CG_MAXITER, M=M)
    if info != 0:
        res = float(np.linalg.norm(b - A @ x) / max(np.linalg.norm(b), 1e-300))
        raise SolverError(
            f"conjugate gradients did not reach rtol={CG_RTOL:g} in {CG_MAXITER} "
            f"iterations (relative residual {res:.3e})", trajectory=[res])
    return x


def poisson_solve(grid: GriddedField, rhs, x0: np.ndarray | None = None) -> GriddedField:
    """Solve -Delta_h v = rhs with zero Dirichlet data, by multigrid-preconditioned CG."""
    if isinstance(rhs, GriddedField):
        b = rhs.values[grid.mask]
    else:
        rhs = np.asarray(rhs, dtype=float)
        b = rhs[grid.mask] if rhs.shape == grid.mask.shape else rhs
    A = _laplacian(grid)
    x = _cg(A, b, x0, _VCycle(A, grid.mask))
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
    A = _laplacian(grid)
    mask = grid.mask
    M = _VCycle(A, mask)
    h2 = grid.h**2

    u = np.ones(int(np.count_nonzero(mask)))
    u /= (np.sum(u**p) * h2) ** (1.0 / p)
    cp_prev = None
    trajectory = []
    x_prev = None
    for it in range(1, max_iter + 1):
        rhs_vec = np.maximum(u, 0.0) ** (p - 1.0)
        try:
            x = _cg(A, rhs_vec, x_prev, M)
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
