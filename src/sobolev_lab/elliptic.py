"""Sobolev quotient minimization on masked finite-difference grids.

Domains are rasterized onto a uniform grid; the Dirichlet Laplacian is the
5-point stencil with zero boundary values, and the quotient
int |grad u|^2 / (int |u|^p)^(2/p) is driven down by the fixed-point
iteration u <- normalize_p(laplace_solve(u^(p-1))), which is inverse power
iteration at p = 2 and a single linear solve at p = 1.  Each linear solve
is conjugate gradients preconditioned by a geometric multigrid V-cycle,
built once per grid, and only as accurate as the outer iteration needs
(see minimize_quotient).  Both work matrix-free on full (ny, nx) arrays
that are zero outside the mask, with numpy alone: every inner product is
a pairwise np.sum, never a BLAS call, so results do not depend on the
BLAS thread count.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .core import DomainSpec, GridError, InputError, SolverError, check_exponents

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
# forcing term of the inexact sweeps: a sweep's solve stops at
# max(CG_RTOL, CG_FORCING * min(1, delta)), delta the quotient's last relative change
CG_FORCING = 1e-4
# multigrid preconditioner: levels coarsen until at most this many nodes (the
# last level is inverted densely), damped Jacobi weight, and smoothing sweeps
# on each side of the coarse solve
MG_COARSE_SIZE = 128
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


class _Level:
    """One grid of the multigrid hierarchy, with its operator and work arrays.

    The finest level applies the 5-point Dirichlet Laplacian (stencil None);
    a coarser level applies its Galerkin operator, a symmetric 9-point
    stencil given by its upper half, a read-only (5, ny * nx) array: flat
    coefficients of the centre and the neighbors at (0, 1), (1, -1),
    (1, 0), (1, 1), that vanish outside the mask.
    Either way A x is zero outside the mask, and neighbors outside it carry
    u = 0.
    Neighbors are flat offsets dy * nx + dx into the row-major arrays; an
    offset that wraps around a row end meets a zero coefficient, or on the
    finest level is undone.
    """

    def __init__(self, mask: np.ndarray, stencil: np.ndarray | None = None,
                 h: float | None = None):
        self.mask = mask
        self.size = int(np.count_nonzero(mask))
        self.stencil = stencil
        ny, nx = mask.shape
        if stencil is None:
            self.scale = mask / h**2
            diag = 4.0 * self.scale
            # damped Jacobi in closed form:
            # x <- (1 - omega) x + dinv b + (omega / 4) * sum of neighbors
            self.weight = mask * (MG_OMEGA / 4.0)
            # a flat +-1 shift wraps around row ends; that reads zeros unless
            # the first or last column holds mask nodes
            self.wraps = bool(mask[:, 0].any() or mask[:, -1].any())
        else:
            diag = stencil[0].reshape(mask.shape)
            n = mask.size
            self.neighbors = [(k, slice(0, n - off), slice(off, n))
                              for k, off in enumerate((1, nx - 1, nx, nx + 1), start=1)]
        self.dinv = np.divide(MG_OMEGA, diag, out=np.zeros(mask.shape), where=mask)
        # work arrays: the iterate, two temporaries, and on the finest level
        # dinv b, on a coarser one its restricted right-hand side b
        self.x, self.t, self.w = (np.zeros(mask.shape) for _ in range(3))
        if stencil is None:
            self.c = np.zeros(mask.shape)
        else:
            self.b = np.zeros(mask.shape)

    def neighbor_sum(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """out = sum of the four 5-point neighbors of x (finest level)."""
        n = x.shape[1]
        xf, of = x.ravel(), out.ravel()
        np.add(xf[:-2 * n], xf[2 * n:], out=of[n:-n])
        of[:n] = xf[n:2 * n]
        of[-n:] = xf[-2 * n:-n]
        of[1:] += xf[:-1]
        of[:-1] += xf[1:]
        if self.wraps:
            out[1:, 0] -= x[:-1, -1]
            out[:-1, -1] -= x[1:, 0]
        return out

    def apply(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """out = A x for an array x that is zero outside the mask."""
        S = self.stencil
        if S is None:
            s = self.neighbor_sum(x, self.w)
            np.multiply(x, 4.0, out=out)
            out -= s
            return np.multiply(out, self.scale, out=out)
        xf, of, wf = x.ravel(), out.ravel(), self.w.ravel()
        np.multiply(S[0], xf, out=of)
        for k, dst, src in self.neighbors:
            np.multiply(S[k][dst], xf[src], out=wf[dst])
            of[dst] += wf[dst]
            np.multiply(S[k][dst], xf[dst], out=wf[dst])
            of[src] += wf[dst]
        return out

    def presmooth(self, b: np.ndarray) -> None:
        """MG_SMOOTH damped Jacobi sweeps on A x = b from x = 0 (the first gives dinv b)."""
        np.multiply(self.dinv, b, out=self.x)
        if self.stencil is None:
            np.copyto(self.c, self.x)
        self.smooth(b, MG_SMOOTH - 1)

    def smooth(self, b: np.ndarray, sweeps: int) -> None:
        """Damped Jacobi sweeps x += dinv (b - A x) on self.x (after presmooth(b))."""
        x, t = self.x, self.t
        for _ in range(sweeps):
            if self.stencil is None:
                t = self.neighbor_sum(x, t)
                t *= self.weight
                t += self.c
                x *= 1.0 - MG_OMEGA
            else:
                t = self.apply(x, t)
                np.subtract(b, t, out=t)
                t *= self.dinv
            x += t


def _restrict(r: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = P^T r onto the nodes (2i, 2j): weights 1, 1/2, 1/4, one axis at a time."""
    t = r[:, ::2].copy()
    half = 0.5 * r[:, 1::2]
    t[:, :half.shape[1]] += half
    t[:, 1:] += half[:, :t.shape[1] - 1]
    out[:] = t[::2]
    half = 0.5 * t[1::2]
    out[:half.shape[0]] += half
    out[1:] += half[:out.shape[0] - 1]
    return out


def _prolong(c: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = P c: bilinear interpolation from the nodes (2i, 2j), one axis at a time.

    A fine node takes weight 1/2 per odd coordinate from each of its one,
    two or four coarse corners; corners outside the array carry zero.
    """
    ny, nx = out.shape
    t = np.empty((c.shape[0], nx))
    t[:, ::2] = c
    half = 0.5 * c
    t[:, 1::2] = half[:, :nx // 2]
    t[:, 1::2][:, :c.shape[1] - 1] += half[:, 1:]
    out[::2] = t
    half = 0.5 * t
    out[1::2] = half[:ny // 2]
    out[1::2][:t.shape[0] - 1] += half[1:]
    return out


def _probe(op, shape: tuple) -> np.ndarray:
    """The 9-point stencil of a linear map on arrays of this shape, as a
    (9, ny * nx) array: row 3 (dy + 1) + dx + 1 holds each node's
    coefficient of its neighbor at (dy, dx).

    Nine probes, each the indicator of the nodes of one colour (i mod 3,
    j mod 3): a node's 3x3 neighborhood holds exactly one node of each
    colour, so each probe's image gives one stencil entry at every node.
    """
    i, j = np.ogrid[:shape[0], :shape[1]]
    S = np.zeros((3, 3) + shape)
    for a in range(3):
        for b in range(3):
            S[(a - i + 1) % 3, (b - j + 1) % 3, i, j] = op(((i % 3 == a) & (j % 3 == b)) * 1.0)
    return S.reshape(9, -1)


def _galerkin(fine: _Level, coarse: np.ndarray) -> np.ndarray:
    """Stencil of the Galerkin operator P^T A P on the coarse mask."""
    def op(e):
        e *= coarse
        fine.apply(np.multiply(_prolong(e, fine.x), fine.mask, out=fine.x), fine.t)
        return _restrict(fine.t, np.empty(coarse.shape)) * coarse
    return _probe(op, coarse.shape)


def _inverse(a: np.ndarray) -> np.ndarray:
    """Inverse of an SPD matrix by Gauss-Jordan sweeps (elementwise numpy, no BLAS)."""
    a = a.copy()
    for k in range(len(a)):
        piv = 1.0 / a[k, k]
        col, row = a[:, k].copy(), a[k] * piv
        a -= np.multiply.outer(col, row)
        a[k] = row
        a[:, k] = col * -piv
        a[k, k] = piv
    return a


# the last grid's coarse operators, (key, operators); see _coarse_operators
_last_operators = None


def _coarse_operators(fine: _Level, h: float) -> tuple:
    """The read-only part of the multigrid hierarchy above the finest level
    fine: its Galerkin levels, each a (coarse mask, upper-half stencil)
    pair, and the bottom level's dense inverse, or None if it is smoothed.

    Levels coarsen by mask[::2, ::2] with bilinear prolongation P and
    Galerkin operators P^T A P while a level has more than MG_COARSE_SIZE
    nodes (or until the coarse mask is empty); the first is probed on fine
    itself, whose work arrays it overwrites.  They depend on the mask and
    h alone, so the last grid's operators are kept, as copies set read-only,
    and a solve on the same mask and h reuses them.  The slot is emptied
    before any other grid's build, so two grids' operators never coexist.
    """
    global _last_operators
    key = (fine.mask.shape, h, fine.mask.tobytes())
    last = _last_operators
    if last is not None and last[0] == key:
        return last[1]
    _last_operators = None
    galerkin = []
    level = fine
    while level.size > MG_COARSE_SIZE:
        coarse = level.mask[::2, ::2].copy()
        if not coarse.any():
            break
        # the operator is symmetric, so its upper half holds it all
        stencil = _galerkin(level, coarse)[4:].copy()
        coarse.flags.writeable = stencil.flags.writeable = False
        galerkin.append((coarse, stencil))
        level = _Level(coarse, stencil)
    inverse = None
    if level.size <= MG_COARSE_SIZE:
        # the bottom operator is symmetric, so its image of unit vector k is row k
        a, e = np.empty((level.size, level.size)), np.zeros(level.mask.shape)
        for i, k in enumerate(np.flatnonzero(level.mask)):
            e.flat[k] = 1.0
            a[i] = level.apply(e, level.t)[level.mask]
            e.flat[k] = 0.0
        inverse = _inverse(a)
        inverse.flags.writeable = False
    operators = (galerkin, inverse)
    _last_operators = (key, operators)
    return operators


class _VCycle:
    """One multigrid V-cycle for the Laplacian of a masked grid, as a
    preconditioner for cg.

    The levels are those of _coarse_operators.  The last level is solved
    exactly by its dense inverse when it has at most MG_COARSE_SIZE nodes,
    so the bottom costs at most MG_COARSE_SIZE^3 whatever the domain's
    shape; a level whose mask stops coarsening above that size (a one-row
    strip) is smoothed instead, 2 * MG_SMOOTH damped Jacobi sweeps.
    Damped Jacobi, MG_SMOOTH sweeps before and as many after the coarse
    correction, keeps the cycle a symmetric positive definite operator, as
    conjugate gradients requires.  Each cycle wraps the shared read-only
    operators in levels of its own, so concurrent solves share nothing
    they write.  The cycle is a plain loop over the levels, not a
    recursive closure, so it holds no reference cycle: its levels are
    freed as soon as its solve is done, while the last grid's read-only
    operators are kept until another grid's build.
    """

    def __init__(self, mask: np.ndarray, h: float):
        fine = _Level(mask, h=h)
        galerkin, self.inverse = _coarse_operators(fine, h)
        levels = [fine] + [_Level(m, stencil) for m, stencil in galerkin]
        self.fine, self.bottom, self.levels = levels[0], levels[-1], levels[:-1]

    def __call__(self, r: np.ndarray) -> np.ndarray:
        """The V-cycle applied to a residual array r; the result is a work
        array of the finest level, valid until the next call."""
        rhs, b = [], r
        for level, coarse in zip(self.levels, self.levels[1:] + [self.bottom]):
            level.presmooth(b)
            t = np.subtract(b, level.apply(level.x, level.t), out=level.t)
            rhs.append(b)
            b = np.multiply(_restrict(t, coarse.b), coarse.mask, out=coarse.b)
        bottom = self.bottom
        if self.inverse is None:
            bottom.presmooth(b)
            bottom.smooth(b, MG_SMOOTH)
        else:  # an einsum product, which does not go through BLAS
            bottom.x[bottom.mask] = np.einsum("ij,j->i", self.inverse, b[bottom.mask])
        x = bottom.x
        for level, b in zip(reversed(self.levels), reversed(rhs)):
            level.x += np.multiply(_prolong(x, level.t), level.mask, out=level.t)
            level.smooth(b, MG_SMOOTH)
            x = level.x
        return x


def cg(A, b: np.ndarray, x0: np.ndarray | None, M, rtol: float = CG_RTOL):
    """Preconditioned conjugate gradients on arrays; the one linear-solver call.

    A(x, out) applies the operator and M(r) the preconditioner.  Stops when
    the unpreconditioned residual ||b - A x|| (updated recursively) falls
    below rtol ||b||, so the preconditioner changes the cost, not the
    accuracy.  Returns the solution and its iteration count.  Inner
    products are np.sum of products, pairwise sums that do not go through
    BLAS, so x has the same bits at any BLAS thread count.
    """
    work = np.empty_like(b)

    def dot(u, v):
        return float(np.sum(np.multiply(u, v, out=work)))

    bnorm = np.sqrt(dot(b, b))
    if bnorm == 0.0:
        return np.zeros_like(b), 0
    x = np.zeros_like(b) if x0 is None else np.array(x0, dtype=float)
    r = b - A(x, work) if x.any() else b.copy()
    q = np.empty_like(b)
    for it in range(CG_MAXITER):
        if np.sqrt(dot(r, r)) < rtol * bnorm:
            return x, it
        z = M(r)
        rho = dot(r, z)
        if it:
            p *= rho / rho_prev
            p += z
        else:
            p = z.copy()
        alpha = rho / dot(p, A(p, q))
        x += np.multiply(p, alpha, out=work)
        r -= np.multiply(q, alpha, out=work)
        rho_prev = rho
    r = b - A(x, q)
    res = np.sqrt(dot(r, r)) / max(bnorm, 1e-300)
    raise SolverError(
        f"conjugate gradients did not reach rtol={rtol:g} in {CG_MAXITER} "
        f"iterations (relative residual {res:.3e})", trajectory=[res])


def poisson_solve(grid: GriddedField, rhs, x0: np.ndarray | None = None) -> GriddedField:
    """Solve -Delta_h v = rhs with zero Dirichlet data, by multigrid-preconditioned CG.

    rhs is a field, an (ny, nx) array or a vector over the mask nodes; x0,
    if given, is a vector over the mask nodes.
    """
    mask = grid.mask

    def full(values):
        out = np.zeros(mask.shape)
        out[mask] = values[mask] if values.shape == mask.shape else values
        return out

    b = full(np.asarray(rhs.values if isinstance(rhs, GriddedField) else rhs, dtype=float))
    if x0 is not None:
        x0 = full(np.asarray(x0, dtype=float))
    M = _VCycle(mask, grid.h)
    x, _ = cg(M.fine.apply, b, x0, M)
    return GriddedField(grid.nx, grid.ny, grid.h, grid.origin, mask, x, grid.spec)


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
    below tol.  At p = 1 the right-hand side is constant, so the first
    solve, run to CG_RTOL, is the answer: one sweep, residual 0.

    For p > 1 each sweep is mixed with the one before (depth-1 Anderson
    acceleration): with g_k the sweep's field and f_k = g_k - u_k, the
    candidate is normalize_p(g_k - gamma (g_k - g_{k-1})), gamma minimizing
    ||f_k - gamma (f_k - f_{k-1})||.  It replaces g_k only if its quotient
    is no larger; otherwise the sweep keeps g_k and the next does not mix.

    Each sweep's solve only feeds the next sweep, so it is inexact: CG
    stops at rtol = max(CG_RTOL, CG_FORCING * min(1, delta)), delta the
    previous sweep's relative change of the quotient (1 until two
    quotients exist).  Near the stop rule delta is small and the solves
    reach CG_RTOL again, so the path is that of exact solves.
    """
    check_exponents(2, p, allow_supercritical=allow_supercritical)
    if not (0 < tol < np.inf and max_iter >= 1):
        raise InputError(f"need a finite tol > 0 and max_iter >= 1, got {tol} and {max_iter}")
    mask = grid.mask
    M = _VCycle(mask, grid.h)
    h2 = grid.h**2

    def lp_scale(v):
        return (np.sum(np.maximum(v, 0.0) ** p) * h2) ** (1.0 / p)

    u = mask / (np.count_nonzero(mask) * h2) ** (1.0 / p)
    cp_prev = x_prev = f_prev = None
    trajectory = []
    delta = 1.0
    for it in range(1, max_iter + 1):
        rhs = np.maximum(u, 0.0) ** (p - 1.0) * mask
        rtol = CG_RTOL if p == 1.0 else max(CG_RTOL, CG_FORCING * min(1.0, delta))
        try:
            x, _ = cg(M.fine.apply, rhs, x_prev, M, rtol)
        except SolverError as exc:
            raise SolverError(f"inner CG solve failed to converge at sweep {it}: {exc}",
                              trajectory=trajectory) from exc
        scale = lp_scale(x)
        out = GriddedField(grid.nx, grid.ny, grid.h, grid.origin, mask, x / scale, grid.spec)
        cp_now = quotient(out, p)
        if p == 1.0:
            return SobolevResult(field=out, cp=cp_now, iterations=1, residual=0.0, p=p,
                                 trajectory=[cp_now])
        # f_k in u's buffer; f_k - f_{k-1}, then the candidate, in f_prev's; rhs as scratch
        g = out.values
        f = np.subtract(g, u, out=u)
        u = g
        if f_prev is not None:
            w = np.subtract(f, f_prev, out=f_prev)
            dd = float(np.sum(np.multiply(w, w, out=rhs)))
            if dd > 0.0:
                gamma = float(np.sum(np.multiply(f, w, out=rhs))) / dd
                np.subtract(g, np.divide(x_prev, s_prev, out=w), out=w)
                np.subtract(g, np.multiply(w, gamma, out=w), out=w)
                np.maximum(w, 0.0, out=w)
                w /= lp_scale(w)
                mixed = replace(out, values=w)
                cp_mixed = quotient(mixed, p)
                if cp_mixed <= cp_now:
                    u, out, cp_now = w, mixed, cp_mixed
                else:
                    f = None
        f_prev, x_prev, s_prev = f, x, scale
        g = w = mixed = None  # only u, f_prev and x_prev live through the next solve
        trajectory.append(cp_now)
        if cp_prev is not None:
            delta = abs(cp_now - cp_prev) / abs(cp_prev)
            if abs(cp_now - cp_prev) <= tol * abs(cp_prev):
                return SobolevResult(field=out, cp=cp_now, iterations=it, residual=delta,
                                     p=p, trajectory=trajectory)
        cp_prev = cp_now
    tail = ", ".join(f"{v:.10g}" for v in trajectory[-5:])
    raise SolverError(
        f"quotient iteration did not converge in {max_iter} sweeps (tail: {tail})",
        trajectory=trajectory)
