"""Sobolev quotient minimization on masked finite-difference grids.

Domains are rasterized onto a uniform grid; the Dirichlet Laplacian A is
the 5-point stencil with zero boundary values, and the quotient
int |grad u|^2 / (int |u|^p)^(2/p) is minimized.  At p = 1 the minimizer
solves one linear system, by conjugate gradients preconditioned with a
geometric multigrid V-cycle built once per grid, and stopped once a
certified lower bound puts the quotient within tol of the discrete
minimum.  For p > 1 each step preconditions the residual A u - Q u^(p-1)
with one V-cycle and takes a safeguarded Rayleigh-Ritz step on three
vectors, LOBPCG at p = 2; conjugate gradients only serve its fallback (see
minimize_quotient).  Both work
matrix-free on full (ny, nx) arrays that are zero outside the mask, with
numpy alone: every inner product is a pairwise np.sum, never a BLAS call,
and the small Ritz pencils are solved in Python floats, so results do not
depend on the BLAS thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import DomainSpec, GridError, InputError, SolverError, check_exponents

__all__ = [
    "GriddedField",
    "SobolevResult",
    "build_grid",
    "quotient",
    "minimize_quotient",
]

NODE_BUDGET = 4_000_000
CG_RTOL = 1e-10
CG_MAXITER = 50_000
# how close to 0 minimize_quotient lets a node come, relative to the field:
# its weight W = diag(u^(p-2)) reads u as at least W_FLOOR * max(u), and a
# Ritz step keeps at least W_FLOOR times the part of u it carries
W_FLOOR = 1e-4
# multigrid preconditioner: levels coarsen until at most this many nodes (the
# last level is inverted densely), damped Jacobi weight, and smoothing sweeps
# on each side of the coarse solve
MG_COARSE_SIZE = 128
MG_OMEGA = 0.8
MG_SMOOTH = 2

@dataclass(eq=False)
class GriddedField:
    """Values on a uniform grid masked to a domain's strict interior.

    values has the mask's shape (ny, nx), row-major in y; entries outside
    the mask are identically zero.  origin is the coordinate of node (0, 0).
    """

    h: float
    origin: tuple
    mask: np.ndarray
    values: np.ndarray
    spec: Optional[DomainSpec] = None

    def __post_init__(self):
        if self.values.shape != self.mask.shape:
            raise ValueError("values must have the mask's shape")

    def volume(self) -> float:
        """Area estimate: inside-node count times h^2."""
        return float(np.count_nonzero(self.mask)) * self.h**2


@dataclass(eq=False)
class SobolevResult:
    """Converged extremal: field normalized to ||u||_Lp = 1 and its quotient.

    iterations counts the steps (1 at p = 1).  residual is, for p > 1, the
    relative change of the quotient in the last step; at p = 1 it is the
    certified gap 1 - cp_lower / cp, so cp (1 - residual) <= cp_h <= cp for
    the discrete minimum cp_h (see minimize_quotient).
    """

    field: GriddedField
    cp: float
    iterations: int
    residual: float
    p: float
    trajectory: list = field(default_factory=list)


def build_grid(spec: DomainSpec, h: float) -> GriddedField:
    """Rasterize a domain: nodes on a uniform lattice, masked strictly inside."""
    if not (h > 0):
        raise GridError(f"grid spacing must be positive, got {h}")
    (x0, y0), (x1, y1) = spec.bounding_box()
    # node counts as floats, judged before any int(): an h that small reads inf
    nx, ny = (max(1.0, float(np.ceil(span / h - 1e-9))) + 1.0 for span in (x1 - x0, y1 - y0))
    if nx * ny > NODE_BUDGET:
        raise GridError(f"grid of {nx:g} by {ny:g} nodes at h = {h:g} exceeds the budget "
                        f"of {NODE_BUDGET}")
    X, Y = np.meshgrid(x0 + h * np.arange(int(nx)), y0 + h * np.arange(int(ny)))
    mask = spec.contains(X, Y)
    # one outside node past each side of the frame where rounding left a node inside
    rows, cols = mask.any(axis=1), mask.any(axis=0)
    pads = ((int(rows[0]), int(rows[-1])), (int(cols[0]), int(cols[-1])))
    if any(pads[0] + pads[1]):
        mask = np.pad(mask, pads)
    if not rows.any():
        raise GridError(f"domain {spec.describe()} is unresolved at h = {h:g}")
    return GriddedField(h=h, origin=(x0 - h * pads[1][0], y0 - h * pads[0][0]), mask=mask,
                        values=np.zeros(mask.shape), spec=spec)


class _Level:
    """One grid of the multigrid hierarchy, with its operator and work arrays.

    The finest level applies the 5-point Dirichlet Laplacian (stencil None)
    and holds no array of constants: A x = (4 x - sum of neighbors) / h^2 on
    the mask, with the scalar 1 / h^2, and 0 off it.  The sum of neighbors
    of an array that is zero off the mask is nonzero only on the mask and
    its halo, the flat indices of the off-mask nodes with a 5-point
    neighbor on it, so the halo alone is multiplied by 0 (which keeps the
    signs of the zeros a mask product leaves).
    A coarser level applies its Galerkin operator, a symmetric 9-point
    stencil given by its upper half, a read-only (5, ny * nx) array: flat
    coefficients of the centre and the neighbors at (0, 1), (1, -1),
    (1, 0), (1, 1), that vanish outside the mask.  Node I's upper row
    reads the level below only within Chebyshev distance 2 of its node
    2I, so where all of that is interior it is one interior row per level,
    to the last bit, and only the rows near the mask's edge are computed
    one by one (see _coarse_operators).
    Either way A x is zero outside the mask, and neighbors outside it carry
    u = 0.  A level's temporaries t and w are dead whenever another level
    works, so a coarse level given the finest level fine works in
    contiguous prefixes of fine's t and w; only its iterate x and
    right-hand side b are its own.
    Neighbors are flat offsets dy * nx + dx into the row-major arrays; an
    offset that wraps around a row end meets a zero coefficient, or on the
    finest level a frame node, outside the mask (see minimize_quotient).
    """

    def __init__(self, mask: np.ndarray, stencil: np.ndarray | None = None,
                 h: float | None = None, fine: _Level | None = None):
        self.mask = mask
        self.size = int(np.count_nonzero(mask))
        self.stencil = stencil
        ny, nx = mask.shape
        if stencil is None:
            self.inv_h2 = 1.0 / h**2
            # damped Jacobi in closed form:
            # x <- (1 - omega) x + dinv b + (omega / 4) * sum of neighbors; the
            # diagonal is constant, so dinv is a scalar (b is zero off the mask)
            self.dinv = MG_OMEGA / (4.0 * self.inv_h2)
            near = self.neighbor_sum(mask, np.empty_like(mask))  # a bool sum is an or
            near[mask] = False
            self.halo = np.flatnonzero(near)
        else:
            n = mask.size
            self.neighbors = [(k, slice(0, n - off), slice(off, n))
                              for k, off in enumerate((1, nx - 1, nx, nx + 1), start=1)]
            self.dinv = np.divide(MG_OMEGA, stencil[0].reshape(mask.shape),
                                  out=np.zeros(mask.shape), where=mask)
            self.b = np.zeros(mask.shape)  # the restricted right-hand side
        # work arrays: the iterate and two temporaries
        self.x = np.zeros(mask.shape)
        if fine is None:
            self.t, self.w = np.zeros(mask.shape), np.zeros(mask.shape)
        else:
            self.t, self.w = (a.reshape(-1)[:mask.size].reshape(mask.shape)
                              for a in (fine.t, fine.w))

    def neighbor_sum(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """out = sum of the four 5-point neighbors of x (finest level)."""
        n = x.shape[1]
        xf, of = x.ravel(), out.ravel()
        np.add(xf[:-2 * n], xf[2 * n:], out=of[n:-n])
        of[:n] = xf[n:2 * n]
        of[-n:] = xf[-2 * n:-n]
        of[1:] += xf[:-1]
        of[:-1] += xf[1:]
        return out

    def apply(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """out = A x for an array x that is zero outside the mask."""
        S = self.stencil
        if S is None:
            s = self.neighbor_sum(x, self.w)
            np.multiply(x, 4.0, out=out)
            out -= s
            out *= self.inv_h2
            out.ravel()[self.halo] *= 0.0
            return out
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
        self.smooth(b, MG_SMOOTH - 1)

    def smooth(self, b: np.ndarray, sweeps: int) -> None:
        """Damped Jacobi sweeps x += dinv (b - A x) on self.x (after presmooth(b)).

        On the finest level dinv b is formed once per call, in w, which no
        sweep there uses otherwise."""
        x, t = self.x, self.t
        if self.stencil is None:
            c = np.multiply(self.dinv, b, out=self.w)
        for _ in range(sweeps):
            if self.stencil is None:
                t = self.neighbor_sum(x, t)
                t *= MG_OMEGA / 4.0
                t.ravel()[self.halo] *= 0.0
                t += c
                x *= 1.0 - MG_OMEGA
            else:
                t = self.apply(x, t)
                np.subtract(b, t, out=t)
                t *= self.dinv
            x += t


def _restrict(r: np.ndarray, out: np.ndarray, work: np.ndarray) -> np.ndarray:
    """out = P^T r onto the nodes (2i, 2j): weights 1, 1/2, 1/4, one axis at a
    time, with the intermediates in work, an array of r's shape."""
    ny, n = r.shape[0], (r.shape[1] + 1) // 2
    flat = work.reshape(-1)  # two contiguous blocks run faster than side-by-side columns
    t, half = flat[:ny * n].reshape(ny, n), flat[ny * n:].reshape(ny, -1)
    np.copyto(t, r[:, ::2])
    np.multiply(r[:, 1::2], 0.5, out=half)
    t[:, :half.shape[1]] += half
    t[:, 1:] += half[:, :n - 1]
    out[:] = t[::2]
    half = t[1::2]
    half *= 0.5
    out[:half.shape[0]] += half
    out[1:] += half[:out.shape[0] - 1]
    return out


def _prolong(c: np.ndarray, out: np.ndarray, work: np.ndarray) -> np.ndarray:
    """out = P c: bilinear interpolation from the nodes (2i, 2j), one axis at a time.

    A fine node takes weight 1/2 per odd coordinate from each of its one,
    two or four coarse corners; corners outside the array carry zero.  The
    intermediate lives in the top rows of work, an array of out's shape.
    """
    ny, nx = out.shape
    t = work[:c.shape[0]]
    half = np.multiply(c, 0.5, out=out[:c.shape[0], :c.shape[1]])  # until out is written
    t[:, ::2] = c
    t[:, 1::2] = half[:, :nx // 2]
    t[:, 1::2][:, :c.shape[1] - 1] += half[:, 1:]
    out[::2] = t
    t *= 0.5
    out[1::2] = t[:ny // 2]
    out[1::2][:t.shape[0] - 1] += t[1:]
    return out


# the offsets (dy, dx) of an upper-half stencil's rows, and for each the
# bilinear hat P e of the unit vector at J = I + o on the 5 x 5 fine window
# around 2I: per axis, its weights at window offsets -2..2 for a centre 2J
# at offset -2, 0 or 2
_UPPER = ((0, 0), (0, 1), (1, -1), (1, 0), (1, 1))
_AXIS = {-1: (1.0, 0.5, 0.0, 0.0, 0.0), 0: (0.0, 0.5, 1.0, 0.5, 0.0), 1: (0.0, 0.0, 0.0, 0.5, 1.0)}
_HATS = [np.multiply.outer(_AXIS[dy], _AXIS[dx])[:, :, None] for dy, dx in _UPPER]


def _everywhere(a: np.ndarray, r: int, shape: tuple) -> np.ndarray:
    """Whether a holds at every node within Chebyshev distance r of the node
    2I, for each node I of an array of this shape; nodes past a's array
    read False."""
    p = np.pad(a, r)
    cols = p[:, :2 * shape[1]:2].copy()
    for d in range(1, 2 * r + 1):
        cols &= p[:, d:d + 2 * shape[1]:2]
    out = cols[:2 * shape[0]:2].copy()
    for d in range(1, 2 * r + 1):
        out &= cols[d:d + 2 * shape[0]:2]
    return out


def _rows(m: np.ndarray, S: np.ndarray | None, inv_h2: float | None) -> np.ndarray:
    """Upper-half rows (5, B) of P^T A P at B coarse nodes I, from the fine
    level's 5 x 5 windows around the nodes 2I: m, (5, 5, B), its mask as 0
    and 1, and S, (5, 5, 5, B), its upper-half stencil, or None on the
    finest level, whose operator is the 5-point one with 1 / h^2 = inv_h2.

    Each entry is (P^T A P e)(I), e the unit vector at I + o, in the
    operations that _prolong, apply and _restrict do at these nodes: the
    hat's values 1, 1/2 and 1/4 and the restriction's halves make every
    product by them exact, and the sums run in those functions' order.
    """
    out = np.empty((5, m.shape[2]))
    for k, (oy, ox) in enumerate(_UPPER):
        x = _HATS[k] * m * m[2 + 2 * oy, 2 + 2 * ox]  # P e on the mask
        if S is None:  # (4 x - (((up + down) + left) + right)) / h^2, exact but the product
            y = x[1:4, 1:4] * 4.0
            y -= ((x[:3, 1:4] + x[2:, 1:4]) + x[1:4, :3]) + x[1:4, 2:]
            y *= inv_h2
            y *= m[1:4, 1:4]  # the halo's product by 0
        else:  # the centre, then +o and -o for each upper offset o, as apply adds them
            y = S[0, 1:4, 1:4] * x[1:4, 1:4]
            for j, (dy, dx) in enumerate(_UPPER[1:], start=1):
                y += S[j, 1:4, 1:4] * x[1 + dy:4 + dy, 1 + dx:4 + dx]
                y += S[j, 1 - dy:4 - dy, 1 - dx:4 - dx] * x[1 - dy:4 - dy, 1 - dx:4 - dx]
        t = (y[:, 1] + y[:, 2] * 0.5) + y[:, 0] * 0.5  # columns, then rows
        out[k] = (t[1] + t[2] * 0.5) + t[0] * 0.5
    return out


def _assemble(fine: _Level, coarse: np.ndarray, regular: np.ndarray | None,
              row: np.ndarray | None) -> tuple:
    """The upper-half stencil of P^T A P on the coarse mask, row by row.

    Above the finest level, regular marks fine's nodes whose upper row is
    its interior row, row; on the finest level both are None.  Returns the
    stencil, the coarse nodes whose upper row is the coarse interior row,
    and that row: the regular nodes get the interior row, the other nodes
    of the mask rows of their own from fine windows, and the nodes off it
    zeros (see _coarse_operators).
    """
    if fine.stencil is None:
        regular, inv_h2 = _everywhere(fine.mask, 2, coarse.shape), fine.inv_h2
    else:  # full rows: the node's upper row and those of its four lower neighbors
        r = np.pad(regular, 1)
        full = r[1:-1, 1:-1] & r[1:-1, :-2] & r[:-2, 2:] & r[:-2, 1:-1] & r[:-2, :-2]
        regular, inv_h2 = _everywhere(full, 1, coarse.shape), None
    # the 5 x 5 fine windows around the nodes 2I, the first one a synthetic
    # interior window (all of it in the mask, every row the interior row),
    # then one per coarse node that is not regular; nodes past the array read 0
    edge = np.flatnonzero(coarse & ~regular)
    ny, nx = fine.mask.shape
    iy = np.concatenate(([2], 2 * (edge // coarse.shape[1]))) + np.arange(-2, 3)[:, None]
    ix = np.concatenate(([2], 2 * (edge % coarse.shape[1]))) + np.arange(-2, 3)[:, None]
    past = ((iy < 0) | (iy >= ny))[:, None] | ((ix < 0) | (ix >= nx))[None]
    flat = np.where(past, 0, iy[:, None] * nx + ix[None])
    m = fine.mask.reshape(-1)[flat] & ~past
    m[..., 0] = True
    S = None
    if fine.stencil is not None:
        S = np.where(past, 0.0, fine.stencil[:, flat])
        S[..., 0] = row[:, None, None]
    rows = _rows(m * 1.0, S, inv_h2)
    row = rows[:, 0].copy()
    stencil = np.where(regular.reshape(-1), row[:, None], 0.0)
    stencil[:, edge] = rows[:, 1:]
    return stencil, regular, row


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
    nodes (or until the coarse mask is empty), each assembled row by row
    (_assemble) from the level below's mask and stencil alone; only the
    bottom's inverse works in fine's arrays.

    The radius rule.  Entry o of coarse node I's upper row is
    (P^T A P e)(I), e the unit vector at J = I + o: P e is J's hat on the
    fine nodes within Chebyshev distance 1 of 2J, on the fine mask (and 0
    if 2J is off it); the restriction reads A P e within distance 1 of 2I,
    and A at a fine node r reads P e and r's full row within distance 1 of
    r.  On the first level A is the masked 5-point operator, so the row
    reads the fine mask within distance 2 of 2I (the centres 2I + 2o
    included).  Above it r's full row is r's upper row and, for its lower
    half, the upper rows of r - o for the four off-centre o; an interior
    upper row couples r to all four upper neighbors, which puts them in
    the mask, since a coefficient to a node off it is 0.  So a coarse node
    is regular when all 25 fine nodes within distance 2 of 2I are in the
    mask (first level), or when the nine full rows around 2I are all made
    of interior rows (above it).  A regular row reads the operands of a
    window deep inside the domain, in the same operations, and IEEE
    arithmetic rounds equal operands equally: it is the interior row, bit
    for bit, computed once per level from a synthetic window.  Only the
    other nodes of the mask (about 2% at h = 1/256) get rows from their
    own windows, which read 0 past the array (mask[::2, ::2] can leave a
    node on its array's last row or column); rows off the mask are zeros.

    The operators depend on the mask and h alone, so the last grid's are
    kept, set read-only, and a solve on the same mask and h reuses them.
    The slot is emptied before any other grid's build, so two grids'
    operators never coexist.
    """
    global _last_operators
    key = (fine.mask.shape, h, fine.mask.tobytes())
    last = _last_operators
    if last is not None and last[0] == key:
        return last[1]
    _last_operators = None
    galerkin = []
    level, regular, row = fine, None, None
    while level.size > MG_COARSE_SIZE:
        coarse = level.mask[::2, ::2].copy()
        if not coarse.any():
            break
        stencil, regular, row = _assemble(level, coarse, regular, row)
        coarse.flags.writeable = stencil.flags.writeable = False
        galerkin.append((coarse, stencil))
        level = _Level(coarse, stencil, fine=fine)
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
    """One multigrid V-cycle for the Laplacian of a masked grid, the
    preconditioner of cg and of minimize_quotient's Rayleigh-Ritz steps.

    The levels are those of _coarse_operators.  The last level is solved
    exactly by its dense inverse when it has at most MG_COARSE_SIZE nodes,
    so the bottom costs at most MG_COARSE_SIZE^3 whatever the domain's
    shape; a level whose mask stops coarsening above that size (a one-row
    strip) is smoothed instead, 2 * MG_SMOOTH damped Jacobi sweeps.
    Damped Jacobi, MG_SMOOTH sweeps before and as many after the coarse
    correction, keeps the cycle a symmetric positive definite operator, as
    conjugate gradients requires.  Each cycle wraps the shared read-only
    operators in levels of its own, so concurrent solves share nothing
    they write; its coarse levels work in its finest level's temporaries.
    The cycle is a plain loop over the levels, not a recursive closure,
    so it holds no reference cycle: its levels are freed as soon as its
    solve is done, while the last grid's read-only operators are kept
    until another grid's build.
    """

    def __init__(self, mask: np.ndarray, h: float):
        fine = _Level(mask, h=h)
        galerkin, self.inverse = _coarse_operators(fine, h)
        levels = [fine] + [_Level(m, stencil, fine=fine) for m, stencil in galerkin]
        self.fine, self.bottom, self.levels = levels[0], levels[-1], levels[:-1]

    def __call__(self, r: np.ndarray) -> np.ndarray:
        """The V-cycle applied to a residual array r that is zero outside
        the mask, as cg's and the Rayleigh-Ritz steps' are; the result is a
        work array of the finest level, valid until the next call."""
        rhs, b = [], r
        for level, coarse in zip(self.levels, self.levels[1:] + [self.bottom]):
            level.presmooth(b)
            t = np.subtract(b, level.apply(level.x, level.t), out=level.t)
            rhs.append(b)
            b = np.multiply(_restrict(t, coarse.b, level.w), coarse.mask, out=coarse.b)
        bottom = self.bottom
        if self.inverse is None:
            bottom.presmooth(b)
            bottom.smooth(b, MG_SMOOTH)
        else:  # an einsum product, which does not go through BLAS
            bottom.x[bottom.mask] = np.einsum("ij,j->i", self.inverse, b[bottom.mask])
        x = bottom.x
        for level, b in zip(reversed(self.levels), reversed(rhs)):
            level.x += np.multiply(_prolong(x, level.t, level.w), level.mask, out=level.t)
            level.smooth(b, MG_SMOOTH)
            x = level.x
        return x


def cg(A, b: np.ndarray, x0: np.ndarray | None, M, work: np.ndarray | None = None,
       stop=None):
    """Preconditioned conjugate gradients on arrays; the one linear-solver call.

    A(x, out) applies the operator and M(r) the preconditioner.  Stops when
    the unpreconditioned residual ||b - A x|| (updated recursively) falls
    below CG_RTOL ||b||, so the preconditioner changes the cost, not the
    accuracy, or, from the first iteration on, when stop(x, r, r . r)
    holds for the iterate x and its recursive residual r.  Returns the
    solution and its iteration count.  It works in the caller's arrays: b
    becomes the residual, x0 (a float array), when given, the iterate, and
    work, when given, the inner products' scratch.  It writes the
    operator's image A p over M's output, which is dead once the search
    direction holds it, so M(r) must return an array other than r; beyond
    those it allocates only the search direction, one grid array.  Inner
    products are np.sum of products, pairwise sums that do not go through
    BLAS, so x has the same bits at any BLAS thread count.
    """
    if work is None:
        work = np.empty_like(b)

    def dot(u, v):
        return float(np.sum(np.multiply(u, v, out=work)))

    bnorm = np.sqrt(dot(b, b))
    if bnorm == 0.0:
        return np.zeros_like(b), 0
    x = np.zeros_like(b) if x0 is None else x0
    r, p = b, np.empty_like(b)
    if x.any():
        r -= A(x, p)
    for it in range(CG_MAXITER):
        rr = dot(r, r)
        if np.sqrt(rr) < CG_RTOL * bnorm or (it and stop is not None and stop(x, r, rr)):
            return x, it
        z = M(r)
        rho = dot(r, z)
        if it:
            p *= rho / rho_prev
            p += z
        else:
            np.copyto(p, z)
        q = A(p, z)  # z is dead once p holds it
        alpha = rho / dot(p, q)
        x += np.multiply(p, alpha, out=work)
        r -= np.multiply(q, alpha, out=work)
        rho_prev = rho
    res = np.sqrt(dot(r, r)) / bnorm
    raise SolverError(
        f"conjugate gradients did not reach rtol={CG_RTOL:g} in {CG_MAXITER} "
        f"iterations (relative residual {res:.3e})", trajectory=[res])


def quotient(fld: GriddedField, p: float, work: np.ndarray | None = None) -> float:
    """Discrete Sobolev quotient of a field.

    Dirichlet energy by forward differences over all cell edges (zero
    outside the mask); the L^p norm by node sums times h^2.  In two
    dimensions the h factors in the energy cancel.  Everything is worked
    out in work, a float array of the field's size (a fresh one if None):
    each difference array, squared in place, and then the mask's values,
    gathered a sixteenth of the rows at a time, in contiguous prefixes of
    it, so the sums are those of np.diff's and v[mask]'s arrays.  Given
    work, it allocates at most a sixteenth of a grid array.
    """
    v, mask = fld.values, fld.mask
    flat = np.empty(v.size) if work is None else work.reshape(-1)
    energy = 0.0
    for hi, lo in ((v[1:], v[:-1]), (v[:, 1:], v[:, :-1])):
        dv = np.subtract(hi, lo, out=flat[:hi.size].reshape(hi.shape))
        energy += float(np.sum(np.square(dv, out=dv)))
    n, rows = 0, -(-v.shape[0] // 16)
    for i in range(0, v.shape[0], rows):
        block = v[i:i + rows][mask[i:i + rows]]
        flat[n:n + block.size] = block
        n += block.size
    m = flat[:n]
    np.abs(m, out=m)
    m **= p
    mass = float(np.sum(m)) * fld.h**2
    if mass == 0.0:
        raise ValueError("quotient of the zero function is undefined")
    return energy / mass ** (2.0 / p)


def _lp_scale(v: np.ndarray, p: float, h2: float, out: np.ndarray) -> float:
    """The L^p norm of max(v, 0) by node sums times h2, worked out in out.  The
    in-place **= keeps the bits of ** (a square at p = 2); np.power may not."""
    np.maximum(v, 0.0, out=out)
    out **= p
    return (np.sum(out) * h2) ** (1.0 / p)


def _eigh(S: list) -> tuple:
    """Eigenvalues and eigenvectors (the columns of V) of a small symmetric
    matrix, a list of lists of floats, by cyclic Jacobi rotations."""
    k = len(S)
    S = [list(row) for row in S]
    V = [[float(i == j) for j in range(k)] for i in range(k)]
    for _ in range(50):
        rotated = False
        for i in range(k):
            for j in range(i + 1, k):
                if abs(S[i][j]) <= 1e-18 * (abs(S[i][i]) + abs(S[j][j])):
                    continue
                rotated = True
                theta = (S[j][j] - S[i][i]) / (2.0 * S[i][j])
                t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                for M in (S, V):  # columns i and j, then for S rows i and j
                    for row in M:
                        row[i], row[j] = c * row[i] - s * row[j], s * row[i] + c * row[j]
                S[i], S[j] = ([c * x - s * y for x, y in zip(S[i], S[j])],
                              [s * x + c * y for x, y in zip(S[i], S[j])])
        if not rotated:
            break
    return [S[i][i] for i in range(k)], V


def _ritz(a: list, b: list) -> list | None:
    """Coefficients c of the smallest eigenpair of the pencil a c = lambda b c,
    a and b symmetric k x k lists of floats, signed so that (b c)[0] > 0;
    None if b is not positive definite.

    With b scaled to unit diagonal, b = V diag(e) V^T gives the b-orthonormal
    basis T = V diag(e)^(-1/2), in which the pencil is the symmetric T^T a T.
    Both are diagonalized by _eigh in Python floats, so no LAPACK call is made
    and the result does not depend on the BLAS thread count.
    """
    k = len(a)
    if not min(b[i][i] for i in range(k)) > 0.0:
        return None
    scale = [1.0 / math.sqrt(b[i][i]) for i in range(k)]
    e, V = _eigh([[b[i][j] * scale[i] * scale[j] for j in range(k)] for i in range(k)])
    if not min(e) > 0.0:
        return None
    T = [[scale[i] * V[i][m] / math.sqrt(e[m]) for m in range(k)] for i in range(k)]
    C = [[sum(T[i][m] * a[i][j] * T[j][n] for i in range(k) for j in range(k))
          for n in range(k)] for m in range(k)]
    lam, Y = _eigh(C)
    n = lam.index(min(lam))
    c = [sum(T[i][m] * Y[m][n] for m in range(k)) for i in range(k)]
    if sum(b[0][i] * c[i] for i in range(k)) < 0.0:
        c = [-x for x in c]
    return c if all(math.isfinite(x) for x in c) else None


def minimize_quotient(grid: GriddedField, p: float, tol: float = 1e-8,
                      max_iter: int = 300, allow_supercritical: bool = False) -> SobolevResult:
    """Drive the quotient to its minimum over the masked grid.

    For p > 1 it stops when the relative change of the quotient between
    steps falls below tol.  At p = 1 the right-hand side does not depend
    on u, so the answer is one solve of A x = b, b = 1 on the mask, stopped
    once a certified bound puts cp within tol of the discrete minimum cp_h.
    For any x with true residual r = b - A x the Dirichlet principle gives
        b . x* = max_y (2 b . y - y . A y) = b . x + r . x + r . A^-1 r
               <= b . x + r . x + |r|^2 / mu,
    mu = (4 sin^2(pi / (2 (nx + 1))) + 4 sin^2(pi / (2 (ny + 1)))) / h^2 being
    at most lambda_1(A) by Cauchy interlacing: A is a principal submatrix of
    the 5-point matrix on the nx x ny bounding box of the mask's nodes (the
    sine form avoids cancellation).  As cp_h = 1 / (h^2 b . x*),
    cp_lower = 1 / (h^2 (b . x + r . x + |r|^2 / mu)) <= cp_h <= cp = Q(x),
    and residual = max(0, 1 - cp_lower / cp).  cg stops when that gap is at
    most tol, first with its recursive r and x . A x = b . x - r . x (one
    sum and one inner product per iteration), then with the true r (one
    operator apply, two inner products); or at CG_RTOL, if that comes
    first.  The bound covers the field: for v = x / (h^2 sum x) the cross
    term vanishes, so h^2 (v - v*) . A (v - v*) = Q(v) - cp_h <= cp residual.

    For p > 1 each step starts from u >= 0 with ||u||_p = 1 and quotient Q.
    It forms the residual r = A u - Q u^(p-1), preconditions it with one
    V-cycle, w = M(r), and takes the Rayleigh-Ritz step for the pencil
    A v = lambda B v on span{u, w, d}, d the previous step (none on the
    first step and after a fallback).  B = (p - 1) W + (2 - p) g g^T / (u . g),
    with W = diag(u^(p-2)) and g = W u, is the second-order model of
    ||v||_p^2 at u, so the pencil's Rayleigh quotient matches the quotient
    to second order there; W reads u as at least W_FLOOR * max(u), which
    keeps it finite (p < 2) and positive (p > 2).  At p = 2, B is the
    identity and the step is LOBPCG's.  The Ritz vector c0 u + c1 w + c2 d
    is clipped from below at W_FLOOR * max(c0, 0) * u, so no node of u
    reaches 0 (there its residual would vanish, and a node with no
    neighbor in the mask could never come back), and normalized.  It is
    kept only if its quotient is no larger than Q.  Else (or when the
    pencil yields no vector with a positive part) one exact sweep
    u <- normalize_p(A^-1 u^(p-1)) is taken (cg to CG_RTOL, warm-started
    at u / Q; it does not raise the quotient) and d is dropped.  A step
    whose sweep is no better either keeps u, and then the stop rule holds.
    So does a step whose candidate reads at most 4 ulps above Q: the
    quotient has converged to roundoff, and no sweep is paid to confirm
    it.  iterations counts the steps.  A mask with a node on its array's
    frame is an InputError (build_grid never makes one): the operator's
    flat offsets wrap around row ends, and quotient counts no edge past it.
    """
    check_exponents(2, p, allow_supercritical=allow_supercritical)
    if not (0 < tol < np.inf and max_iter >= 1):
        raise InputError(f"need a finite tol > 0 and max_iter >= 1, got {tol} and {max_iter}")
    mask = grid.mask
    if mask[[0, -1]].any() or mask[:, [0, -1]].any():
        raise InputError("the mask has a node on its array's frame; pad it by one node")
    M = _VCycle(mask, grid.h)
    A = M.fine.apply
    t = M.fine.t  # scratch of _lp_scale and the inner products, free between V-cycles
    h2 = grid.h**2
    trajectory = []

    def as_field(v):
        return GriddedField(grid.h, grid.origin, mask, v, grid.spec)

    def dot(x, y):
        return float(np.sum(np.multiply(x, y, out=t)))

    def solve(it, b, x0, stop=None):
        """A^-1 b by cg, which consumes b and x0; stop may end it early."""
        try:
            return cg(A, b, x0, M, t, stop)[0]
        except SolverError as exc:
            raise SolverError(f"inner CG solve failed to converge at step {it}: {exc}",
                              trajectory=trajectory) from exc

    def normalized(x):
        """normalize_p(x) and its quotient.  The field is a fresh array, made
        after cg has freed its own: scaled in place, the solve's x left the
        heap so that a later verify at p = 1 peaked 3-4 MB higher in RSS."""
        x = x / _lp_scale(x, p, h2, t)
        return x, quotient(as_field(x), p, t)

    if p == 1.0:  # u^0 is 1 on the mask, whatever u: solve A x = 1 there
        # mu <= lambda_1(A): the least eigenvalue of the 5-point matrix on the
        # bounding box of the mask's nodes, m nodes along each axis
        sides = (int(np.ptp(np.flatnonzero(mask.any(axis)))) + 1 for axis in (0, 1))
        mu = sum(4.0 * math.sin(math.pi / (2.0 * (m + 1))) ** 2 for m in sides) / h2
        certified = []  # cp_lower at the iterate where the certificate stopped cg

        def bound(x, r, rr):
            """cp_lower for the iterate x with residual r (r . r = rr), and
            its gap 1 - cp_lower / cp, cp read off x . A x = b . x - r . x."""
            bx, rx = float(np.sum(x)), dot(r, x)
            cp_lower = 1.0 / (h2 * (bx + rx + rr / mu))
            return cp_lower, 1.0 - cp_lower * h2 * bx * bx / (bx - rx)

        def true_bound(x):
            """bound with the true residual, in the V-cycle's output array,
            which is free between cycles."""
            r = np.subtract(mask, A(x, M.fine.x), out=M.fine.x)
            return bound(x, r, dot(r, r))

        def stop(x, r, rr):
            if bound(x, r, rr)[1] > tol:
                return False
            cp_lower, gap = true_bound(x)
            if gap <= tol:
                certified.append(cp_lower)
            return gap <= tol

        x = solve(1, mask * 1.0, None, stop)
        cp_lower = certified[0] if certified else true_bound(x)[0]
        x, cp = normalized(x)
        return SobolevResult(field=as_field(x), cp=cp, iterations=1,
                             residual=max(0.0, 1.0 - cp_lower / cp), p=p, trajectory=[cp])
    u = mask / (np.count_nonzero(mask) * h2) ** (1.0 / p)
    # u, the previous step d, and s: A u, then r, then W, then the candidate;
    # w = M(r) is the V-cycle's output, and the finest level's own w, free
    # outside A and M, takes Q u^(p-1) and the products W x
    d, s = np.empty_like(u), np.empty_like(u)
    fw = M.fine.w
    have_d = False

    cp = quotient(as_field(u), p, t)
    for it in range(1, max_iter + 1):
        k = 2 + have_d  # the basis u, w and, when there is one, d
        a, b = [[0.0] * k for _ in range(k)], [[0.0] * k for _ in range(k)]
        a[0][0] = dot(u, A(u, s))
        np.subtract(s, np.multiply(np.power(u, p - 1.0, out=fw), cp, out=fw), out=s)
        basis = [u, M(s)] + [d] * have_d
        for j, x in enumerate(basis[1:], start=1):
            y = A(x, s)
            for i in range(j + 1):
                a[i][j] = a[j][i] = dot(basis[i], y)
        np.power(np.maximum(u, W_FLOOR * float(u.max()), out=s), p - 2.0, out=s)
        for j, x in enumerate(basis):
            y = np.multiply(s, x, out=fw)
            for i in range(j + 1):
                b[i][j] = b[j][i] = dot(basis[i], y)
        # B = (p - 1) W + (2 - p) g g^T / (u . g), and u . W x = g . x
        b = [[(p - 1.0) * b[i][j] + (2.0 - p) * b[i][0] * b[0][j] / b[0][0] for j in range(k)]
             for i in range(k)]
        c = _ritz(a, b)
        cp_v = math.inf  # the candidate's quotient; inf if there is none
        if c is not None:
            np.multiply(u, c[0], out=s)
            for ci, x in zip(c[1:], basis[1:]):
                s += np.multiply(x, ci, out=t)
            np.maximum(s, np.multiply(u, W_FLOOR * max(c[0], 0.0), out=t), out=s)
            scale = _lp_scale(s, p, h2, t)
            if scale > 0.0:
                s /= scale
                cp_v = quotient(as_field(s), p, t)
        if cp_v <= cp:
            np.subtract(s, u, out=d)
            have_d = True
        elif cp_v > cp + 4.0 * math.ulp(cp):  # else Q has converged to roundoff
            x = solve(it, np.maximum(u, 0.0) ** (p - 1.0) * mask, np.divide(u, cp, out=s))
            s, cp_v = normalized(np.maximum(x, 0.0, out=x))
            have_d = False
        if cp_v <= cp:  # the candidate becomes u, and u the scratch s
            u, s = s, u
        else:  # nothing lowered Q: u stays, and the stop rule holds
            cp_v = cp
        delta = (cp - cp_v) / cp
        cp = cp_v
        trajectory.append(cp)
        if delta <= tol:
            return SobolevResult(field=as_field(u), cp=cp, iterations=it, residual=delta,
                                 p=p, trajectory=trajectory)
    tail = ", ".join(f"{v:.10g}" for v in trajectory[-5:])
    raise SolverError(
        f"quotient iteration did not converge in {max_iter} steps (tail: {tail})",
        trajectory=trajectory)
