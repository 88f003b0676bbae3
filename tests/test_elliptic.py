"""Masked grids, the 5-point operator, and quotient minimization."""

import gc
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import eigsh, spsolve

import oracles
from identities import lp_norm, node_coordinates, poisson_solve
from sobolev_lab import AdmissibilityError, DomainSpec, build_grid, minimize_quotient
from sobolev_lab import elliptic
from sobolev_lab.core import GridError, InputError, SolverError
from sobolev_lab.cli import main
from sobolev_lab.elliptic import (MG_COARSE_SIZE, MG_OMEGA, MG_SMOOTH, GriddedField, _assemble,
                                  _coarse_operators, _inverse, _Level, _lp_scale, _ritz,
                                  _VCycle, quotient)

SHAPES = {
    "disk": DomainSpec.disk(1.0),
    "ellipse": DomainSpec.ellipse(1.0, 0.5),
    "rectangle": DomainSpec.rectangle(1.0, 0.75),
    "lshape": DomainSpec.l_shape(1.0, 0.5),
    "polygon": DomainSpec.polygon([(0, 0), (1, 0), (0.8, 0.7), (0.2, 0.9)]),
}
# a thin wedge whose mask at h = 1/64 holds three nodes with no neighbor in it
WEDGE = DomainSpec.polygon([(0, 0), (0.5, 0.35), (0.9, 0.6), (0.3, 0.35)])


def kronecker_laplacian(grid):
    """The 5-point Laplacian on the whole bounding lattice, restricted to the mask."""
    def second_difference(m):
        return sp.diags([-np.ones(m - 1), 2 * np.ones(m), -np.ones(m - 1)], [-1, 0, 1])
    ny, nx = grid.mask.shape
    full = (sp.kron(sp.identity(ny), second_difference(nx))
            + sp.kron(second_difference(ny), sp.identity(nx))).tocsr()
    keep = np.flatnonzero(grid.mask.ravel())
    L = (full[keep][:, keep] / grid.h**2).tocsr()
    L.eliminate_zeros()
    L.sort_indices()
    return L


def lattice(grid):
    """The grid's mask at h = 1, where the solver's operators work."""
    return GriddedField(1.0, grid.origin, grid.mask, np.zeros(grid.mask.shape))


def bilinear_prolongation(mask):
    """Bilinear interpolation from the nodes of mask[::2, ::2] to those of mask (CSR).

    A fine node takes weight 1/2 per odd coordinate from each of its one,
    two or four coarse corners; corners outside the coarse mask drop out.
    """
    coarse = mask[::2, ::2]
    cindex = np.full((coarse.shape[0] + 1, coarse.shape[1] + 1), -1)
    cindex[:-1, :-1][coarse] = np.arange(np.count_nonzero(coarse))
    rows, cols, vals = [], [], []
    for k, (iy, ix) in enumerate(zip(*np.nonzero(mask))):
        for cy in {iy // 2, (iy + 1) // 2}:
            for cx in {ix // 2, (ix + 1) // 2}:
                if cindex[cy, cx] >= 0:
                    rows.append(k)
                    cols.append(cindex[cy, cx])
                    vals.append((0.5 if iy % 2 else 1.0) * (0.5 if ix % 2 else 1.0))
    return sp.csr_matrix((vals, (rows, cols)), shape=(np.count_nonzero(mask),
                                                      np.count_nonzero(coarse)))


def stencil_matrix(S, mask):
    """The sparse symmetric matrix of a (5, ny * nx) upper-half stencil on the
    mask's nodes: rows for the offsets (0, 0), (0, 1), (1, -1), (1, 0) and
    (1, 1), each off-centre entry also standing for its mirror."""
    index = np.full(mask.shape, -1)
    index[mask] = np.arange(np.count_nonzero(mask))
    pad = np.pad(index, 1, constant_values=-1)
    S = S.reshape((5,) + mask.shape)
    rows, cols, vals = [], [], []
    for k, (dy, dx) in enumerate(((0, 0), (0, 1), (1, -1), (1, 0), (1, 1))):
        nb = pad[1 + dy:1 + dy + mask.shape[0], 1 + dx:1 + dx + mask.shape[1]]
        keep = mask & (nb >= 0)
        rows.append(index[keep])
        cols.append(nb[keep])
        vals.append(S[k][keep])
        if k:  # the lower half: the same coefficient seen from the neighbor
            rows.append(nb[keep])
            cols.append(index[keep])
            vals.append(S[k][keep])
    n = np.count_nonzero(mask)
    return sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(n, n))


def expand(mask, op):
    """The (5, ny * nx) upper-half stencil of a coarse level kept as
    (row, edge, rows): the interior row on the mask's nodes outside edge,
    rows on edge, zeros off the mask."""
    row, edge, rows = op
    S = np.where(mask.reshape(-1), row[:, None], 0.0)
    S[:, edge] = rows
    return S


def framed_block():
    """A 5 x 7 all-ones mask padded to a 7 x 9 array by an empty frame."""
    mask = np.zeros((7, 9), dtype=bool)
    mask[1:-1, 1:-1] = True
    return mask


def on_grid(grid, values):
    """A full (ny, nx) array with the given values on the mask nodes."""
    out = np.zeros(grid.mask.shape)
    out[grid.mask] = values
    return out


class CountingCG:
    """Stand-in for elliptic.cg that records the CG iterations of each call,
    so len(iterations) counts the calls."""

    def __init__(self, cg):
        self.cg = cg
        self.iterations = []

    def __call__(self, A, b, x0, M, *args):
        x, iterations = self.cg(A, b, x0, M, *args)
        self.iterations.append(iterations)
        return x, iterations


def count_vcycles(monkeypatch):
    """Record every V-cycle from here on; returns the (growing) list of calls."""
    calls = []
    cycle = _VCycle.__call__

    def counted(self, r):
        calls.append(r.shape)
        return cycle(self, r)

    monkeypatch.setattr(_VCycle, "__call__", counted)
    return calls


class LoggingRitz:
    """Stand-in for elliptic._ritz that records each pencil's size; when
    reject(k) holds, the candidate of a k-term pencil reads as worse (its
    quotient as inf), through the quotient stand-in it returns."""

    def __init__(self, monkeypatch, reject=lambda k: False):
        self.sizes = []
        self.reject = reject
        self.pending = False
        monkeypatch.setattr(elliptic, "_ritz", self.ritz)
        monkeypatch.setattr(elliptic, "quotient", self.quotient)

    def ritz(self, a, b):
        self.sizes.append(len(a))
        c = _ritz(a, b)
        self.pending = c is not None and self.reject(len(a))
        return c

    def quotient(self, fld, p, work=None):
        pending, self.pending = self.pending, False
        return math.inf if pending else quotient(fld, p, work)


class TestBuildGrid:
    def test_unit_square_counts(self):
        grid = build_grid(DomainSpec.rectangle(1.0, 1.0), h=0.25)
        # strict interior of [0,1]^2 at h=1/4: nodes at 0.25, 0.5, 0.75
        assert grid.mask.sum() == 9
        assert grid.volume() == pytest.approx(9 * 0.25**2, rel=1e-14)

    def test_disk_volume_near_area(self):
        h = 1.0 / 64
        grid = build_grid(DomainSpec.disk(1.0), h=h)
        assert abs(grid.volume() - math.pi) < 6 * h

    def test_rectangular_anisotropy(self):
        grid = build_grid(DomainSpec.rectangle(2.0, 1.0), h=0.125)
        ny, nx = grid.mask.shape
        assert nx > ny

    def test_unresolved_domain_rejected(self):
        with pytest.raises(GridError, match="unresolved"):
            build_grid(DomainSpec.disk(0.01), h=0.5)

    def test_node_budget(self):
        with pytest.raises(GridError):
            build_grid(DomainSpec.rectangle(1.0, 1.0), h=1e-5)

    @pytest.mark.parametrize("h", [1e-300, 1e-320, 5e-324])
    def test_spacing_past_any_node_count_rejected(self, h):
        # span / h passes float range (or nearly): a GridError with short counts,
        # not an OverflowError from int()
        with pytest.raises(GridError, match="exceeds the budget") as exc:
            build_grid(DomainSpec.disk(1.0), h=h)
        assert len(str(exc.value)) < 100

    @pytest.mark.parametrize("h", [0.0, -0.125])
    def test_nonpositive_spacing_rejected(self, h):
        with pytest.raises(GridError, match="grid spacing must be positive"):
            build_grid(DomainSpec.disk(1.0), h=h)

    def test_values_shaped_as_the_mask(self):
        with pytest.raises(ValueError, match="the mask's shape"):
            GriddedField(h=0.25, origin=(0.0, 0.0), mask=np.ones((3, 4), dtype=bool),
                         values=np.zeros((4, 3)), spec=None)

    def test_lshape_mask_avoids_notch(self):
        grid = build_grid(DomainSpec.l_shape(1.0, 0.5), h=1.0 / 16)
        xs, ys = node_coordinates(grid)
        inside = grid.mask
        assert not np.any(inside & (xs > 0.5) & (ys > 0.5))


class TestLaplacian:
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    @pytest.mark.parametrize("h", [1.0 / 16, 1.0 / 48])
    def test_equals_kronecker_assembly(self, shape, h):
        # the matrix-free operator's matrix, column by column from basis vectors
        grid = build_grid(SHAPES[shape], h)
        level = _Level(grid.mask)
        e, out = np.zeros(grid.mask.shape), np.empty(grid.mask.shape)
        cols = []
        for iy, ix in zip(*np.nonzero(grid.mask)):
            e[iy, ix] = 1.0
            column = level.apply(e, out)
            e[iy, ix] = 0.0
            assert not np.any(column[~grid.mask])
            cols.append(sp.csc_matrix(column[grid.mask][:, None]))
        A = sp.hstack(cols).tocsr()
        A.sort_indices()
        L = kronecker_laplacian(lattice(grid))
        assert np.array_equal(A.indptr, L.indptr)
        assert np.array_equal(A.indices, L.indices)
        assert np.array_equal(A.data, L.data)

    def test_mask_on_the_array_frame(self):
        # a mask that fills its array up to the frame: flat +-1 shifts wrap
        # around row ends only between frame nodes, outside the mask
        mask = framed_block()
        grid = GriddedField(1.0, (0.0, 0.0), mask, np.zeros(mask.shape))
        x = np.random.default_rng(3).standard_normal(mask.shape) * mask
        got = _Level(mask).apply(x, np.empty(mask.shape))
        ref = kronecker_laplacian(grid) @ x[mask]
        assert not np.any(got[~mask])
        assert np.max(np.abs(got[mask] - ref)) <= 1e-13 * np.max(np.abs(ref))


    @pytest.mark.parametrize("spec,h", [(DomainSpec.disk(1.0), 1.0 / 128),
                                        (DomainSpec.ellipse(1.0, 0.1), 0.01)],
                             ids=["disk", "thin-ellipse"])
    def test_halo_operator_is_the_masked_one(self, spec, h):
        # the finest level holds scalars and a halo, not mask-sized
        # constants, and its apply and Jacobi sweep keep every bit, signed
        # zeros too, of the products with the full arrays
        grid = build_grid(spec, h)
        mask = grid.mask
        level = _Level(mask)
        arrays = {k for k, v in vars(level).items() if isinstance(v, np.ndarray)}
        assert arrays == {"mask", "halo", "x", "t", "w"}
        around = np.zeros(mask.shape, bool)
        around[1:] |= mask[:-1]
        around[:-1] |= mask[1:]
        around[:, 1:] |= mask[:, :-1]
        around[:, :-1] |= mask[:, 1:]
        np.testing.assert_array_equal(level.halo, np.flatnonzero(around & ~mask))
        rng = np.random.default_rng(11)
        x, b = (rng.standard_normal(mask.shape) * mask for _ in range(2))
        s = level.neighbor_sum(x, np.empty(mask.shape))
        ref = (4.0 * x - s) * mask
        assert level.apply(x, np.empty(mask.shape)).tobytes() == ref.tobytes()
        ref = (1.0 - MG_OMEGA) * x + (s * (mask * (MG_OMEGA / 4.0)) + level.dinv * b)
        np.copyto(level.x, x)
        level.smooth(b, 1)
        assert level.x.tobytes() == ref.tobytes()


class TestMultigrid:
    @pytest.mark.parametrize("shape,h", [("disk", 1.0 / 64), ("lshape", 1.0 / 128)])
    def test_preconditioner_symmetric_positive_definite(self, shape, h):
        grid = build_grid(SHAPES[shape], h)
        M = _VCycle(grid.mask)
        assert len(M.levels) >= 1
        rng = np.random.default_rng(7)
        for _ in range(3):
            x, y = (on_grid(grid, v) for v in rng.standard_normal((2, grid.mask.sum())))
            xMy, yMx = np.sum(x * M(y)), np.sum(y * M(x))
            assert abs(xMy - yMx) <= 1e-12 * abs(xMy)
            assert np.sum(x * M(x)) > 0

    @pytest.mark.parametrize("shape,h", [("disk", 1.0 / 64), ("lshape", 1.0 / 128)])
    def test_galerkin_stencil_equals_sparse_product(self, shape, h):
        grid = build_grid(SHAPES[shape], h)
        coarse = grid.mask[::2, ::2]
        A, P = kronecker_laplacian(lattice(grid)), bilinear_prolongation(grid.mask)
        ref = (P.T @ A @ P).toarray()
        op = _assemble((grid.mask, None), coarse, grid.mask)[0]
        got = stencil_matrix(expand(coarse, op), coarse).toarray()
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("h", [1.0 / 32, 1.0 / 64, 1.0 / 128])
    def test_iterations_mesh_independent(self, monkeypatch, h):
        counting = CountingCG(elliptic.cg)
        monkeypatch.setattr(elliptic, "cg", counting)
        grid = build_grid(SHAPES["disk"], h)
        # p = 1 is one preconditioned cg solve
        assert minimize_quotient(grid, 1.0).iterations == len(counting.iterations) == 1
        assert counting.iterations[0] <= 20
        # p = 2 takes one V-cycle per step and no cg call; 5 steps at each h
        cycles = count_vcycles(monkeypatch)
        res = minimize_quotient(grid, 2.0)
        assert len(counting.iterations) == 1
        assert len(cycles) == res.iterations <= 6

    @pytest.mark.parametrize("spec,h,levels", [
        (DomainSpec.disk(1.0), 1.0 / 4, 0),               # below the coarse size
        (DomainSpec.rectangle(40.0, 2.0 / 64), 1.0 / 64, 0),  # one row: empty coarse mask
        (DomainSpec.l_shape(1.0, 0.5), 1.0 / 128, 4),
        # a thin slanted sliver: few nodes in a wide bounding box
        (DomainSpec.polygon([(0, 0), (0.01, 0), (1, 0.99), (1, 1), (0.99, 1), (0, 0.01)]),
         1.0 / 256, 2),
    ])
    def test_degenerate_hierarchies_match_direct_solve(self, spec, h, levels):
        grid = build_grid(spec, h)
        A = kronecker_laplacian(grid)
        M = _VCycle(grid.mask)
        assert len(M.levels) == levels
        if A.shape[0] > MG_COARSE_SIZE and levels == 0:
            assert not grid.mask[::2, ::2].any()
            assert M.inverse is None
        else:
            assert M.inverse.shape == (M.bottom.size,) * 2 and M.bottom.size <= MG_COARSE_SIZE
        xs, ys = node_coordinates(grid)
        rhs = 1.0 + xs * ys
        sol = poisson_solve(grid, rhs)
        ref = spsolve(A.tocsc(), rhs[grid.mask])
        err = np.linalg.norm(sol.values[grid.mask] - ref) / np.linalg.norm(ref)
        assert err < 1e-9

    @pytest.mark.parametrize("spec,h", [
        (DomainSpec.disk(1.0), 1.0 / 4),                  # the 5-point finest level
        (None, 0.25),                     # 5-point, a mask that reaches the array's frame
        (DomainSpec.l_shape(1.0, 0.5), 1.0 / 128),
        (DomainSpec.polygon([(0, 0), (0.01, 0), (1, 0.99), (1, 1), (0.99, 1), (0, 0.01)]),
         1.0 / 256),
        # a bottom array two columns wide: the flat offsets 1 and nx - 1 coincide
        (DomainSpec.rectangle(3.0 / 64, 2.0), 1.0 / 64),
    ])
    def test_bottom_inverse_equals_inverse_of_applied_columns(self, spec, h):
        # the bottom matrix is built from this same apply, so this is no independent
        # reader: it pins that A e_j taken as columns gives the rows' bits (the
        # operator is symmetric to the last bit) and that the inverse is byte-equal
        mask = framed_block() if spec is None else build_grid(spec, h).mask
        M = _VCycle(mask)
        bottom, e, cols = M.bottom, np.zeros(M.bottom.mask.shape), []
        for k in np.flatnonzero(bottom.mask):
            e.flat[k] = 1.0
            cols.append(bottom.apply(e, np.empty(e.shape))[bottom.mask])
            e.flat[k] = 0.0
        assert M.inverse.tobytes() == _inverse(np.array(cols)).tobytes()

    def test_hierarchy_freed_without_cycle_collector(self):
        grid = build_grid(SHAPES["disk"], 1.0 / 64)
        minimize_quotient(grid, 1.0)
        gc.collect()
        gc.disable()
        try:
            for p in (1.0, 1.5, 2.0):
                minimize_quotient(grid, p)
            poisson_solve(grid, np.ones(grid.mask.shape))
            assert gc.collect() == 0
        finally:
            gc.enable()


# the shapes whose Galerkin levels are checked against the probe
ASSEMBLY_SHAPES = {
    "disk": DomainSpec.disk(1.0),
    "ellipse": DomainSpec.ellipse(1.0, 0.5),
    "seeded-ellipse": DomainSpec.ellipse(0.604566, 0.41352),  # verify-fine's seed 3
    "lshape": DomainSpec.l_shape(1.0, 0.45),
    "strip": DomainSpec.rectangle(1.0, 0.05),
    # coarsening stops above MG_COARSE_SIZE, at an empty coarse mask, and the
    # bottom is smoothed (at all but h = 0.0123)
    "wide-strip": DomainSpec.rectangle(5.0, 0.05),
    "concave": DomainSpec.polygon([(0, 0), (1, 0), (1, 1), (0.5, 0.3), (0, 1)]),
}


def assembled_levels(monkeypatch, mask):
    """A cold build's Galerkin levels, each (coarse mask, (row, edge, rows),
    regular nodes), and its bottom inverse."""
    levels = []

    def record(fine, coarse, regular):
        out = _assemble(fine, coarse, regular)
        levels.append((coarse, out[0], out[1]))
        return out

    monkeypatch.setattr(elliptic, "_last_operators", None)
    monkeypatch.setattr(elliptic, "_assemble", record)
    inverse = _coarse_operators(_Level(mask))[1]
    return levels, inverse


class TestGalerkinAssembly:
    """The row-wise Galerkin operators are the probe's (oracles.galerkin_levels),
    entry for entry, on every level."""

    def check(self, got, want):
        assert len(got) == len(want)
        for (mask, op, regular), (ref_mask, ref) in zip(got, want):
            assert np.array_equal(mask, ref_mask)
            stencil = expand(mask, op)
            assert np.array_equal(stencil, ref)
            # on the mask, signed zeros too; off it the probe's zeros carry
            # the signs of the products that it multiplied by 0
            on = mask.reshape(-1)
            assert stencil[:, on].tobytes() == ref[:, on].tobytes()
            assert not (regular & ~mask).any()

    @pytest.mark.parametrize("h", [1.0 / 32, 1.0 / 64, 1.0 / 256, 0.0123, 0.017, 0.00731])
    @pytest.mark.parametrize("shape", list(ASSEMBLY_SHAPES))
    def test_every_level_equals_the_probe(self, monkeypatch, shape, h):
        grid = build_grid(ASSEMBLY_SHAPES[shape], h)
        got, inverse = assembled_levels(monkeypatch, grid.mask)
        self.check(got, oracles.galerkin_levels(grid.mask))
        if shape == "wide-strip" and h != 0.0123:
            assert inverse is None

    def test_window_past_the_arrays_last_row(self, monkeypatch):
        # mask[::2, ::2] drops an odd last row, so this level's mask has nodes
        # on its array's last row: their windows reach past the array, where
        # they must read 0 (a window clipped to the array reads its last row
        # twice)
        grid = build_grid(ASSEMBLY_SHAPES["seeded-ellipse"], 1.0 / 256)
        got, _ = assembled_levels(monkeypatch, grid.mask)
        level = [m.shape for m, _, _ in got].index((14, 20))
        assert got[level][0][-1].any()
        self.check(got, oracles.galerkin_levels(grid.mask))

    def test_no_interior_row(self, monkeypatch):
        # three rows in the mask: no coarse node has all 25 fine nodes around
        # it inside, so every row of the mask is computed from its own window
        grid = build_grid(ASSEMBLY_SHAPES["strip"], 1.0 / 64)
        got, _ = assembled_levels(monkeypatch, grid.mask)
        assert got and not any(regular.any() for _, _, regular in got)
        self.check(got, oracles.galerkin_levels(grid.mask))

    def test_interior_rows_are_most_rows(self, monkeypatch):
        grid = build_grid(ASSEMBLY_SHAPES["disk"], 1.0 / 256)
        got, _ = assembled_levels(monkeypatch, grid.mask)
        mask, _, regular = got[0]
        assert mask.sum() == 51_429 and (mask & ~regular).sum() == 1_016

    @pytest.mark.parametrize("shape,counts", [
        ("disk", [(716, 12_849), (412, 3_205), (212, 793), (96, 193), (40, 45)]),
        ("lshape", [(305, 3_185), (149, 765), (71, 176), (31, 40)]),
    ])
    def test_rows_from_windows_on_deeper_levels(self, monkeypatch, shape, counts):
        # one regularity rule on every level (every node within distance 2 of
        # 2I regular below, the mask on the finest level): on each level above
        # the first, the rows computed from their own windows, of those on the mask
        grid = build_grid(ASSEMBLY_SHAPES[shape], 1.0 / 256)
        got, _ = assembled_levels(monkeypatch, grid.mask)
        assert [((mask & ~regular).sum(), mask.sum()) for mask, _, regular in got[1:]] == counts


class TestCompactLevels:
    """Each coarse level is kept as its mask, its interior row and its edge
    rows; its apply is P^T A P's, and no (5, ny * nx) stencil is formed."""

    @pytest.mark.parametrize("h", [1.0 / 64, 0.0123, 1.0 / 256])
    @pytest.mark.parametrize("shape", list(ASSEMBLY_SHAPES))
    def test_apply_equals_sparse_product(self, monkeypatch, shape, h):
        grid = build_grid(ASSEMBLY_SHAPES[shape], h)
        monkeypatch.setattr(elliptic, "_last_operators", None)
        fine = _Level(grid.mask)
        galerkin, inverse = _coarse_operators(fine)
        A, below, rng = kronecker_laplacian(lattice(grid)), grid.mask, np.random.default_rng(3)
        for mask, op in galerkin:
            P = bilinear_prolongation(below)
            A, below = (P.T @ A @ P).tocsr(), mask
            level = _Level(mask, op, fine=fine)
            for _ in range(2):
                x = np.zeros(mask.shape)
                x[mask] = rng.standard_normal(level.size)
                got = level.apply(x, np.full(mask.shape, np.nan))
                ref = A @ x[mask]
                assert not got[~mask].any()
                assert np.max(np.abs(got[mask] - ref)) <= 1e-13 * np.max(np.abs(ref))
        # the cases the fix-up rows must cover
        if (shape, h) == ("strip", 1.0 / 64):  # no regular node on any level
            assert all(op[1].size == np.count_nonzero(mask) for mask, op in galerkin)
        if shape == "wide-strip" and h != 0.0123:  # a smoothed bottom of edge rows
            assert inverse is None and np.count_nonzero(galerkin[-1][0]) > MG_COARSE_SIZE
        if (shape, h) == ("seeded-ellipse", 1.0 / 256):  # a mask on its array's last row
            assert any(mask[-1].any() for mask, _ in galerkin)

    @pytest.mark.parametrize("shape,h", [("disk", 1.0 / 64), ("lshape", 1.0 / 128),
                                         ("strip", 1.0 / 64), ("wide-strip", 1.0 / 64)])
    def test_vcycle_equals_sparse_reference(self, shape, h):
        # the V-cycle on scipy's Galerkin matrices, with damped Jacobi on
        # their diagonals: the edge nodes' own, the interior row's elsewhere
        grid = build_grid(ASSEMBLY_SHAPES[shape], h)
        M = _VCycle(grid.mask)
        masks, As, Ps = [grid.mask], [kronecker_laplacian(lattice(grid))], []
        for level in M.levels[1:] + [M.bottom]:
            Ps.append(bilinear_prolongation(masks[-1]))
            As.append((Ps[-1].T @ As[-1] @ Ps[-1]).tocsr())
            masks.append(level.mask)

        def smooth(A, x, b, sweeps):
            for _ in range(sweeps):
                x = x + MG_OMEGA * (b - A @ x) / A.diagonal()
            return x

        def cycle(k, b):
            A = As[k]
            if k == len(As) - 1:
                if M.inverse is not None:
                    return M.inverse @ b
                return smooth(A, MG_OMEGA * b / A.diagonal(), b, 2 * MG_SMOOTH - 1)
            x = smooth(A, MG_OMEGA * b / A.diagonal(), b, MG_SMOOTH - 1)
            x = x + Ps[k] @ cycle(k + 1, Ps[k].T @ (b - A @ x))
            return smooth(A, x, b, MG_SMOOTH)

        r = np.zeros(grid.mask.shape)
        r[grid.mask] = np.random.default_rng(11).standard_normal(np.count_nonzero(grid.mask))
        got, ref = M(r)[grid.mask], cycle(0, r[grid.mask])
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_kept_form(self, monkeypatch):
        grid = build_grid(ASSEMBLY_SHAPES["disk"], 1.0 / 256)
        monkeypatch.setattr(elliptic, "_last_operators", None)
        galerkin, inverse = _coarse_operators(_Level(grid.mask))
        for mask, (row, edge, rows) in galerkin:
            c, e, d = row[:3]
            assert row.tolist() == [c, e, d, e, d] and c > 0 > e
            assert np.all(np.diff(edge) > 0) and mask.reshape(-1)[edge].all()
            assert rows.shape == (5, edge.size) and edge.size < np.count_nonzero(mask)
        # 1,016 of the first level's 51,429 rows are edge rows; the kept
        # masks, rows and bottom inverse take 8.5% of a first-level
        # (5, ny * nx) stencil
        assert galerkin[0][1][1].size == 1_016
        kept = sum(a.nbytes for mask, op in galerkin for a in (mask, *op)) + inverse.nbytes
        assert kept < 0.1 * 5 * galerkin[0][0].size * 8

    def test_asymmetric_interior_row_refused(self, monkeypatch):
        # apply reads the interior row as (c, e, d, e, d): a row that is not
        # is refused at build time, not applied as a wrong operator
        def skewed(fine, coarse, regular):
            (row, edge, rows), regular = _assemble(fine, coarse, regular)
            return (row * [1.0, 1.0, 1.0, 1.5, 1.0], edge, rows), regular

        monkeypatch.setattr(elliptic, "_last_operators", None)
        monkeypatch.setattr(elliptic, "_assemble", skewed)
        with pytest.raises(SolverError, match="level 1 has an interior row .* not symmetric"):
            _coarse_operators(_Level(build_grid(SHAPES["disk"], 1.0 / 64).mask))

    def test_build_forms_no_full_stencil(self, monkeypatch):
        # the build's traced peak stays under one (5, ny * nx) array of the
        # first coarse level, which the kept stencils used to be (0.50 of it
        # measured on the disk at h = 1/512)
        grid = build_grid(ASSEMBLY_SHAPES["disk"], 1.0 / 512)
        monkeypatch.setattr(elliptic, "_last_operators", None)
        fine = _Level(grid.mask)
        tracemalloc.start()
        try:
            galerkin = _coarse_operators(fine)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.7 * 5 * galerkin[0][0].size * 8


class CountingGalerkin:
    """Stand-in for elliptic._assemble, the Galerkin operators' builder,
    that counts its calls."""

    def __init__(self):
        self.calls = 0

    def __call__(self, fine, coarse, regular):
        self.calls += 1
        return _assemble(fine, coarse, regular)


class TestHierarchyMemo:
    """The last grid's coarse operators are reused by solves on the same mask."""

    @pytest.fixture
    def galerkin(self, monkeypatch):
        monkeypatch.setattr(elliptic, "_last_operators", None)
        counting = CountingGalerkin()
        monkeypatch.setattr(elliptic, "_assemble", counting)
        return counting

    def test_hit_is_bit_identical(self, galerkin):
        spec, h = SHAPES["lshape"], 1.0 / 64
        grid = build_grid(spec, h)
        miss = minimize_quotient(grid, 1.5)
        built = galerkin.calls
        assert built > 0
        hit = minimize_quotient(grid, 1.5)
        again = minimize_quotient(build_grid(spec, h), 1.5)  # a fresh grid of the same spec
        assert galerkin.calls == built
        for res in (hit, again):
            assert np.array_equal(res.field.values, miss.field.values)
            assert res.cp == miss.cp and res.iterations == miss.iterations

    def test_key_is_the_mask(self, galerkin):
        # the operators are in lattice units, so they hold no h: the disk of
        # twice the radius at twice the spacing has the same mask and reuses them
        grid = build_grid(SHAPES["disk"], 1.0 / 32)
        operators = _coarse_operators(_Level(grid.mask))
        built = galerkin.calls
        assert _coarse_operators(_Level(grid.mask.copy())) is operators
        scaled = build_grid(DomainSpec.disk(2.0), 2.0 / 32).mask
        assert np.array_equal(scaled, grid.mask)
        assert _coarse_operators(_Level(scaled)) is operators
        assert galerkin.calls == built
        other = grid.mask.copy()
        other[tuple(np.argwhere(other)[0])] = False  # same shape, one node fewer
        assert _coarse_operators(_Level(other)) is not operators
        assert galerkin.calls == 2 * built

    def test_one_fine_level_per_cold_solve(self, galerkin, monkeypatch):
        finest = []

        def level(mask, op=None, fine=None):
            if op is None:
                finest.append(mask)
            return _Level(mask, op, fine)

        monkeypatch.setattr(elliptic, "_Level", level)
        grid = build_grid(SHAPES["disk"], 1.0 / 64)
        cold = minimize_quotient(grid, 1.5)  # the build reads the solve's own fine level
        assert len(finest) == 1 and galerkin.calls > 0
        built = galerkin.calls
        warm = minimize_quotient(grid, 1.5)  # a memo hit
        assert len(finest) == 2 and galerkin.calls == built
        # the bottom's inverse leaves data in the fine level's work arrays; the
        # V-cycle must write them before it reads them, so a cold solve
        # matches a warm one
        assert np.array_equal(cold.field.values, warm.field.values)

    def test_coarse_levels_borrow_the_finest_temporaries(self, galerkin, monkeypatch):
        # every coarse level, the one the build makes for the bottom's inverse
        # and those of the V-cycle, works in prefixes of the finest level's t
        # and w; its iterate and right-hand side are its own
        levels = []

        def level(mask, op=None, fine=None):
            levels.append(_Level(mask, op, fine))
            return levels[-1]

        monkeypatch.setattr(elliptic, "_Level", level)
        grid = build_grid(SHAPES["lshape"], 1.0 / 64)
        M = _VCycle(grid.mask)
        finest, coarse = levels[0], levels[1:]
        assert finest is M.fine and finest.op is None
        assert len(coarse) == 1 + galerkin.calls > 2  # the build's bottom, then the cycle's
        assert all(level.op is not None for level in coarse)
        for level in coarse:
            for mine, borrowed in ((level.t, finest.t), (level.w, finest.w)):
                assert np.shares_memory(mine, borrowed)
                assert mine.ctypes.data == borrowed.ctypes.data  # a prefix
        own = [level.x for level in levels] + [level.b for level in coarse]
        own += [finest.t, finest.w]
        for i, a in enumerate(own):
            for b in own[i + 1:]:
                assert not np.shares_memory(a, b)

    def test_operators_read_only_and_copied(self, galerkin):
        grid = build_grid(SHAPES["disk"], 1.0 / 64)
        poisson_solve(grid, np.ones(grid.mask.shape))
        levels, inverse = _coarse_operators(_Level(grid.mask))
        assert galerkin.calls == len(levels)
        for array in [a for mask, op in levels for a in (mask, *op)] + [inverse]:
            with pytest.raises(ValueError):
                array.flat[0] = 1
        coarse = levels[0][0]
        kept = coarse.copy()
        assert not np.shares_memory(coarse, grid.mask)
        grid.mask[::2, ::2] = False
        assert np.array_equal(coarse, kept)

    def test_old_grid_freed_by_another_grids_solve(self, galerkin):
        minimize_quotient(build_grid(SHAPES["disk"], 1.0 / 64), 1.0)
        rows = weakref.ref(elliptic._last_operators[1][0][0][1][2])
        assert rows() is not None
        minimize_quotient(build_grid(SHAPES["ellipse"], 1.0 / 64), 1.0)
        assert rows() is None

    def test_concurrent_solves_match_sequential(self, galerkin):
        grid = build_grid(SHAPES["disk"], 1.0 / 64)
        ps = (1.5, 2.0, 1.5, 2.0)  # more threads than cores, two at each p
        sequential = {p: minimize_quotient(grid, p) for p in set(ps)}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for cold in (True, False):  # the threads build at once, then all reuse
                if cold:
                    elliptic._last_operators = None
                start, results = threading.Barrier(len(ps)), {}

                def solve(k, p):
                    start.wait(timeout=60)
                    results[k] = minimize_quotient(grid, p)

                threads = [threading.Thread(target=solve, args=kp, daemon=True)
                           for kp in enumerate(ps)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                    assert not t.is_alive()
                assert len(results) == len(ps)
                for k, p in enumerate(ps):
                    assert np.array_equal(results[k].field.values, sequential[p].field.values)
                    assert results[k].cp == sequential[p].cp
        finally:
            sys.setswitchinterval(interval)


class TestPoissonSolve:
    def test_manufactured_solution(self):
        h = 1.0 / 64
        grid = build_grid(DomainSpec.rectangle(1.0, 1.0), h=h)
        xs, ys = node_coordinates(grid)
        exact = np.sin(np.pi * xs) * np.sin(np.pi * ys)
        rhs = 2 * np.pi**2 * exact
        sol = poisson_solve(grid, rhs)
        err = np.max(np.abs(sol.values[grid.mask] - exact[grid.mask]))
        assert err < 5 * h**2

    def test_warm_start_consistent(self):
        grid = build_grid(DomainSpec.rectangle(1.0, 1.0), h=1.0 / 32)
        rhs = np.ones(int(grid.mask.sum()))
        cold = poisson_solve(grid, rhs)
        warm = poisson_solve(grid, rhs, x0=cold.values[grid.mask])
        diff = np.abs(cold.values - warm.values)
        assert np.max(diff) < 1e-8


class TestQuotient:
    def test_matches_discrete_eigenvalue_at_solution(self, solve):
        res = solve("square", 2.0, 1.0 / 32)
        assert quotient(res.field, 2.0) == pytest.approx(res.cp, rel=1e-12)

    def test_zero_field_rejected(self):
        grid = build_grid(DomainSpec.rectangle(1.0, 1.0), h=0.25)
        with pytest.raises(ValueError):
            quotient(grid, 2.0)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 2.5])
    def test_in_place_forms_keep_the_one_line_bits(self, p):
        # quotient and _lp_scale square and raise to p in place; numpy's
        # scalar fast paths (p = 2 squares) must give the bits of the plain
        # expressions, written out here
        grid = build_grid(SHAPES["ellipse"], 1.0 / 64)
        mask, h2 = grid.mask, grid.h**2
        rng = np.random.default_rng(11)
        for v in (rng.random(mask.shape) * mask, rng.standard_normal(mask.shape) * mask):
            fld = GriddedField(grid.h, grid.origin, mask, v)
            energy = float(np.sum(np.diff(v, axis=0) ** 2) + np.sum(np.diff(v, axis=1) ** 2))
            mass = float(np.sum(np.abs(v[mask]) ** p)) * h2
            assert quotient(fld, p) == energy / mass ** (2.0 / p)
            scale = np.sum(np.maximum(v, 0.0) ** p) ** (1.0 / p)
            assert _lp_scale(v, p, np.empty(mask.shape)) == scale

    @pytest.mark.parametrize("case", ["disk", "thin-ellipse", "block-edge"])
    def test_scratch_array_keeps_the_bits(self, case):
        # quotient works in prefixes of a scratch array, the mask's values
        # gathered a sixteenth of the rows at a time: a fresh scratch, a
        # dirty one and np.diff's and v[mask]'s arrays give the same bits
        rng = np.random.default_rng(13)
        if case == "block-edge":  # 35 rows: blocks of 3, the last one short
            mask = np.zeros((35, 9), bool)
            mask[1:-1, 1:-1] = rng.random((33, 7)) < 0.6
            mask[[2, 3, 32, 33], 4] = True  # both sides of a block edge, and the last block
            h = 1.0 / 8
        else:
            spec, h = {"disk": (SHAPES["disk"], 1.0 / 128),
                       "thin-ellipse": (DomainSpec.ellipse(1.0, 0.1), 0.01)}[case]
            mask = build_grid(spec, h).mask
        fld = GriddedField(h, (0.0, 0.0), mask, (rng.random(mask.shape) + 0.5) * mask)
        v = fld.values
        energy = float(np.sum(np.diff(v, axis=0) ** 2) + np.sum(np.diff(v, axis=1) ** 2))
        for p in (1.0, 1.5, 2.0):
            work = np.full(mask.shape, np.nan)
            got = quotient(fld, p, work)
            assert got == quotient(fld, p)
            assert got == energy / (float(np.sum(np.abs(v[mask]) ** p)) * h**2) ** (2.0 / p)


class TestMinimizeQuotient:
    def test_exact_discrete_eigenvalue_square(self):
        # the discrete operator's first eigenvalue is known in closed form,
        # so the solver must hit it to fixed-point tolerance, not O(h^2)
        h = 1.0 / 32
        res = minimize_quotient(build_grid(DomainSpec.rectangle(1.0, 1.0), h=h), 2.0)
        assert res.cp == pytest.approx(oracles.square_discrete_eigenvalue(h), rel=1e-7)

    def test_p1_single_solve(self):
        res = minimize_quotient(build_grid(DomainSpec.rectangle(1.0, 1.0), h=1.0 / 16), 1.0)
        assert res.iterations <= 2
        assert lp_norm(res.field, 1.0) == pytest.approx(1.0, rel=1e-10)

    def test_positive_interior(self):
        res = minimize_quotient(build_grid(DomainSpec.disk(1.0), h=1.0 / 32), 1.5)
        assert np.all(res.field.values[res.field.mask] > 0)

    def test_unit_lp_normalization(self, solve):
        for p in (1.0, 1.5, 2.0):
            res = solve("square", p, 1.0 / 32)
            assert lp_norm(res.field, p) == pytest.approx(1.0, rel=1e-10)

    def test_deterministic_rerun(self):
        grid1 = build_grid(DomainSpec.ellipse(1.0, 0.5), h=1.0 / 32)
        grid2 = build_grid(DomainSpec.ellipse(1.0, 0.5), h=1.0 / 32)
        r1 = minimize_quotient(grid1, 1.5)
        r2 = minimize_quotient(grid2, 1.5)
        assert r1.cp == r2.cp
        assert np.array_equal(r1.field.values, r2.field.values)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    def test_dilation_law(self, p):
        # the disk of radius 8 * 2^k at h = 2^k has one mask for every k, and
        # the solve runs in lattice units, so each result is the k = 0 one
        # mapped back: the field times f = 2^(-2k/p) and cp times f twice,
        # bit for bit, f taken as the float (2^k)^(-2/p); at p = 1 and 2, f
        # is an exact power of 2, so cp = 2^(-4k/p) cp(k = 0) exactly.  A cp
        # past the normal floats (p = 1 at k = -300 and 300) is refused by name
        base = minimize_quotient(build_grid(DomainSpec.disk(8.0), 1.0), p)
        for k in list(range(-200, 201)) + [-300, 300]:
            h = 2.0**k
            grid = build_grid(DomainSpec.disk(8.0 * h), h)
            f = h ** (-2.0 / p)
            want = base.cp * f * f
            if not sys.float_info.min <= want <= sys.float_info.max:
                with pytest.raises(InputError, match="^cp = "):
                    minimize_quotient(grid, p)
                continue
            if p != 1.5:
                assert want == math.ldexp(base.cp, round(-4 * k / p))
            res = minimize_quotient(grid, p)
            assert res.cp == want and res.iterations == base.iterations, k
            assert res.field.h == h
            assert np.array_equal(res.field.values, base.field.values * f), k

    def test_gates(self):
        grid = build_grid(DomainSpec.rectangle(1.0, 1.0), h=0.25)
        with pytest.raises(AdmissibilityError):
            minimize_quotient(grid, 0.5)
        with pytest.raises(AdmissibilityError, match="experimental"):
            minimize_quotient(grid, 2.5)
        res = minimize_quotient(grid, 2.5, allow_supercritical=True)
        assert res.cp > 0

    @pytest.mark.parametrize("tol,max_iter", [
        (-1.0, 300), (0.0, 300), (math.nan, 300), (math.inf, 300), (1e-8, 0)])
    def test_tol_and_max_iter_checked(self, tol, max_iter):
        grid = build_grid(DomainSpec.rectangle(1.0, 1.0), h=1.0 / 8)
        with pytest.raises(InputError, match="finite tol > 0 and max_iter >= 1"):
            minimize_quotient(grid, 2.0, tol=tol, max_iter=max_iter)

    def test_nonconvergence_carries_trajectory(self):
        grid = build_grid(DomainSpec.rectangle(1.0, 1.0), h=1.0 / 16)
        with pytest.raises(SolverError) as err:
            minimize_quotient(grid, 2.0, tol=1e-15, max_iter=2)
        assert len(err.value.trajectory) >= 1

    def test_inner_cg_failure(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(elliptic, "CG_MAXITER", 1)
        grid = build_grid(DomainSpec.rectangle(1.0, 1.0), h=1.0 / 32)
        # p > 1 calls cg only for the exact sweep of a step with no Ritz candidate
        monkeypatch.setattr(elliptic, "_ritz", lambda a, b: None)
        with pytest.raises(SolverError, match="inner CG solve failed to converge at step 1") as err:
            minimize_quotient(grid, 2.0)
        assert "did not reach rtol=1e-10 in 1 iterations" in str(err.value)
        assert err.value.trajectory == []
        assert main(["domain", "--spec", '{"shape": "disk", "radius": 1.0}', "-p", "1",
                     "--h", str(1.0 / 32), "--out", str(tmp_path)]) == 3
        assert "conjugate gradients did not reach rtol=1e-10" in capsys.readouterr().err

    def test_mask_on_the_array_frame_rejected(self):
        # the 5-point operator's flat offsets wrap around row ends, and a
        # coarse level of one row has no room for the offsets nx +- 1
        block = np.ones((5, 7), dtype=bool)
        row = np.zeros((3, 300), dtype=bool)
        row[0, 1:-1] = True
        for mask in (block, row):
            grid = GriddedField(0.25, (0.0, 0.0), mask, np.zeros(mask.shape))
            with pytest.raises(InputError, match="on its array's frame"):
                minimize_quotient(grid, 2.0)

    def test_rounding_inside_the_box_keeps_the_frame_empty(self):
        # the lattice's last column falls inside the domain by rounding
        # (98 * (1 / 98) < 1): build_grid appends one more, so that the
        # energy counts the edges to the boundary, as the operator does
        grid = build_grid(SHAPES["rectangle"], 1.0 / 98)
        assert grid.mask.shape == (75, 100) and grid.mask[:, -2].any()
        assert not (grid.mask[[0, -1]].any() or grid.mask[:, [0, -1]].any())
        lam = eigsh(kronecker_laplacian(grid), k=1, sigma=0, which="LM")[0][0]
        assert minimize_quotient(grid, 2.0).cp == pytest.approx(lam, rel=1e-8)

    @pytest.mark.parametrize("k", [8, 96])
    def test_rounding_on_the_leading_frame_padded(self, k, tmp_path, capsys):
        # a regular k-gon from cos and sin: its vertex (-1, 1.2e-16) leaves the
        # node (-1, 0) of the lattice's first column inside, so build_grid
        # pads that side too and moves the origin by -h
        turn = 2 * math.pi / k
        vertices = [[math.cos(j * turn), math.sin(j * turn)] for j in range(k)]
        spec = DomainSpec.polygon(vertices)
        grid = build_grid(spec, 1 / 16)
        assert not (grid.mask[[0, -1]].any() or grid.mask[:, [0, -1]].any())
        assert grid.origin == (-1.0 - 1 / 16, -1.0) and grid.mask[16, 1]
        np.testing.assert_array_equal(grid.mask, spec.contains(*node_coordinates(grid)))
        for p in ("1", "2"):
            assert main(["verify", "--spec", json.dumps(spec.to_json()), "-p", p, "-q", "2",
                         "--h", "0.0625", "--out", str(tmp_path)]) == 0
        capsys.readouterr()

    def test_scaling_against_radial_disk(self):
        # staircase disk at h=1/64 should sit within O(h) of the radial value
        res = minimize_quotient(build_grid(DomainSpec.disk(1.0), h=1.0 / 64), 2.0)
        assert res.cp == pytest.approx(oracles.DISK_EIGENVALUE, rel=0.04)


# the shapes of the p = 1 certificate's checks, two thin ones among them
P1_SHAPES = {
    "disk": DomainSpec.disk(1.0),
    "ellipse": DomainSpec.ellipse(1.0, 0.5),
    "lshape": DomainSpec.l_shape(1.0, 0.45),
    "square": DomainSpec.rectangle(1.0, 1.0),
    "strip": DomainSpec.rectangle(1.0, 0.05),
    "thin-ellipse": DomainSpec.ellipse(1.0, 0.1),
}


def direct_torsion(grid):
    """The discrete minimizer at p = 1 by a sparse direct solve of A x = 1,
    normalized to h^2 sum x = 1, over the mask's nodes, and the matrix A."""
    A = kronecker_laplacian(grid)
    x = spsolve(A.tocsc(), np.ones(A.shape[0]))
    return x / (np.sum(x) * grid.h**2), A


class TestInexactSweeps:
    """The p = 1 solve is one cg call, stopped once a certified lower bound
    puts cp within tol of the discrete minimum, and the field is the
    normalized solve of A u = 1 to within that bound's energy.  (The class
    is named for the loose inner solves of p > 1 that the Rayleigh-Ritz
    steps replaced.)"""

    def test_p1_solves_exactly(self, monkeypatch):
        grid = build_grid(SHAPES["disk"], 1.0 / 64)
        counting = CountingCG(elliptic.cg)
        monkeypatch.setattr(elliptic, "cg", counting)
        res = minimize_quotient(grid, 1.0)
        assert len(counting.iterations) == res.iterations == 1
        x, A = direct_torsion(grid)
        direct = GriddedField(grid.h, grid.origin, grid.mask, on_grid(grid, x), grid.spec)
        # 2.0e-13 off measured
        assert res.cp == pytest.approx(quotient(direct, 1.0), rel=1e-12)
        # the certified stop leaves the field off the direct solve by more
        # than roundoff in max norm, but within cp's bound in energy
        e = res.field.values[grid.mask] - x
        assert grid.h**2 * (e @ (A @ e)) <= res.cp * res.residual + 4 * math.ulp(res.cp)

    @pytest.mark.parametrize("h", [1.0 / 32, 1.0 / 64, 1.0 / 128])
    @pytest.mark.parametrize("shape", P1_SHAPES)
    def test_p1_bound_is_sound(self, shape, h):
        # cp (1 - residual) <= cp_h <= cp, with cp_h the quotient of the
        # direct solve; and since the cross term vanishes on h^2 sum v = 1,
        # h^2 (v - v*) . A (v - v*) = Q(v) - cp_h <= cp residual
        grid = build_grid(P1_SHAPES[shape], h)
        res = minimize_quotient(grid, 1.0)
        assert 0.0 <= res.residual <= 1e-8
        x, A = direct_torsion(grid)
        cp_h = quotient(GriddedField(grid.h, grid.origin, grid.mask, on_grid(grid, x)), 1.0)
        ulps = 4 * math.ulp(res.cp)  # the roundoff of two quotients
        assert res.cp * (1.0 - res.residual) <= cp_h + ulps
        assert cp_h <= res.cp + ulps
        e = res.field.values[grid.mask] - x
        assert grid.h**2 * (e @ (A @ e)) <= res.cp * res.residual + ulps

    @pytest.mark.parametrize("h", [1.0 / 64, 1.0 / 128])
    @pytest.mark.parametrize("shape", ["disk", "ellipse", "lshape"])
    def test_p1_stops_on_the_certificate(self, monkeypatch, shape, h):
        # 4 V-cycles measured on each; cg to CG_RTOL alone takes 8
        grid = build_grid(P1_SHAPES[shape], h)
        cycles = count_vcycles(monkeypatch)
        poisson_solve(grid, np.ones(grid.mask.shape))
        rtol_cycles = len(cycles)
        cycles.clear()
        minimize_quotient(grid, 1.0)
        assert len(cycles) <= min(rtol_cycles, 5)


class TestAndersonSweeps:
    """What any p > 1 iteration owes: few steps, a quotient that never rises,
    the exact discrete minimum, a non-negative field; p = 1 is a single solve.
    (The class is named for the Anderson-mixed sweeps it was written for; the
    safeguarded Rayleigh-Ritz steps that replaced them keep its tests.)"""

    @pytest.mark.parametrize("shape,most", [("disk", 5), ("lshape", 9)])
    def test_fewer_sweeps(self, shape, most):
        # 5 and 7 steps measured
        res = minimize_quotient(build_grid(SHAPES[shape], 1.0 / 64), 2.0)
        assert res.iterations <= most

    @pytest.mark.parametrize("spec", [SHAPES["disk"], SHAPES["ellipse"], SHAPES["lshape"],
                                      SHAPES["polygon"], DomainSpec.rectangle(1.0, 1.0)])
    @pytest.mark.parametrize("h", [1.0 / 32, 1.0 / 64])
    @pytest.mark.parametrize("p", [1.2, 1.5, 1.8, 2.0])
    def test_trajectory_non_increasing(self, spec, h, p):
        t = minimize_quotient(build_grid(spec, h), p).trajectory
        assert all(b <= a for a, b in zip(t, t[1:]))

    def test_square_discrete_eigenvalue(self):
        # 1.4e-12 off measured
        h = 1.0 / 32
        res = minimize_quotient(build_grid(DomainSpec.rectangle(1.0, 1.0), h=h), 2.0)
        assert res.cp == pytest.approx(oracles.square_discrete_eigenvalue(h), rel=1e-11)

    def test_rejected_steps_fall_back_to_exact_sweeps(self, monkeypatch):
        grid = build_grid(SHAPES["lshape"], 1.0 / 32)
        res = minimize_quotient(grid, 2.0)
        counting = CountingCG(elliptic.cg)
        monkeypatch.setattr(elliptic, "cg", counting)
        # every Ritz candidate reads as worse, so every step is the exact sweep,
        # no step has a previous one, and each pencil is the two-term one
        ritz = LoggingRitz(monkeypatch, reject=lambda k: True)
        plain = minimize_quotient(grid, 2.0)
        assert len(counting.iterations) == plain.iterations > res.iterations
        assert ritz.sizes == [2] * plain.iterations
        t = plain.trajectory
        assert all(b <= a for a, b in zip(t, t[1:]))
        assert abs(res.cp - plain.cp) <= 1e-8 * plain.cp
        assert np.all(plain.field.values[grid.mask] > 0)

    def test_mixed_field_non_negative_on_supercritical_sliver(self):
        # the extremal is near 0 along the sliver's edges, where an unclipped
        # step leaves roundoff-size negative values
        spec = DomainSpec.polygon([(0, 0), (0.01, 0), (1, 0.99), (1, 1), (0.99, 1), (0, 0.01)])
        res = minimize_quotient(build_grid(spec, 1.0 / 128), 2.5, allow_supercritical=True)
        assert res.field.values.min() >= 0.0

    def test_p1_returns_after_one_solve(self, monkeypatch, tmp_path, capsys):
        counting = CountingCG(elliptic.cg)
        monkeypatch.setattr(elliptic, "cg", counting)
        res = minimize_quotient(build_grid(SHAPES["disk"], 1.0 / 32), 1.0)
        assert (res.iterations, len(counting.iterations)) == (1, 1)
        assert 0.0 <= res.residual <= 1e-8  # the certified gap of cp, within tol
        assert res.trajectory == [res.cp]
        assert main(["domain", "--spec", '{"shape": "disk", "radius": 1.0}', "-p", "1",
                     "--h", str(1.0 / 32), "--out", str(tmp_path)]) == 0
        assert f"iterations = 1   residual = {res.residual:.3e}" in capsys.readouterr().out


class TestRayleighRitzSteps:
    """For p > 1 each step preconditions the residual with one V-cycle and
    takes the Rayleigh-Ritz step on span{u, w, d}, kept only if the quotient
    does not rise; else one exact sweep, which drops d."""

    @pytest.mark.parametrize("shape,p,most", [
        ("disk", 1.5, 6), ("disk", 2.0, 6), ("ellipse", 1.5, 6), ("ellipse", 2.0, 7),
        ("lshape", 1.5, 7), ("lshape", 2.0, 8)])
    def test_one_vcycle_per_step(self, monkeypatch, shape, p, most):
        # measured: 5, 5, 5, 6, 6 and 7 V-cycles at h = 1/64
        counting = CountingCG(elliptic.cg)
        monkeypatch.setattr(elliptic, "cg", counting)
        cycles = count_vcycles(monkeypatch)
        res = minimize_quotient(build_grid(SHAPES[shape], 1.0 / 64), p)
        assert len(cycles) == res.iterations <= most
        assert counting.iterations == []

    def test_no_sweep_to_confirm_a_roundoff_minimum(self, monkeypatch):
        # the last step's candidates read 3510.470529048484, one ulp above
        # Q = 3510.4705290484835: an exact sweep there would only confirm Q
        counting = CountingCG(elliptic.cg)
        monkeypatch.setattr(elliptic, "cg", counting)
        grid = build_grid(DomainSpec.rectangle(1.0, 0.128), 1.0 / 32)
        res = minimize_quotient(grid, 1.01, tol=1e-12)
        assert counting.iterations == []
        assert res.residual == 0.0 and res.trajectory[-1] == res.trajectory[-2]
        assert res.cp == pytest.approx(3510.4705290484835, rel=1e-15)

    def test_pencils_grow_to_three_terms(self, monkeypatch):
        ritz = LoggingRitz(monkeypatch)
        res = minimize_quotient(build_grid(SHAPES["disk"], 1.0 / 64), 2.0)
        assert ritz.sizes == [2] + [3] * (res.iterations - 1)

    def test_rejected_three_term_step_takes_one_exact_sweep(self, monkeypatch):
        grid = build_grid(SHAPES["ellipse"], 1.0 / 64)
        res = minimize_quotient(grid, 1.5)
        counting = CountingCG(elliptic.cg)
        monkeypatch.setattr(elliptic, "cg", counting)
        ritz = LoggingRitz(monkeypatch, reject=lambda k: k == 3)
        swept = minimize_quotient(grid, 1.5)
        # one candidate per step: a rejected three-term one is followed by
        # the sweep, which drops d, so the next pencil has two terms again
        assert ritz.sizes == [(2, 3)[i % 2] for i in range(swept.iterations)]
        assert len(counting.iterations) == ritz.sizes.count(3) > 0
        assert abs(swept.cp - res.cp) <= 1e-8 * res.cp

    def test_isolated_nodes_keep_their_mass(self, monkeypatch):
        # for p < 2 the minimizer is positive on every component of the mask,
        # a lone node too; a Ritz step clipped at 0 can zero such a node for
        # good (its residual is then 0), and leaves cp 1.9e-5 too high here
        grid = build_grid(WEDGE, 1.0 / 64)
        m = grid.mask
        neighbors = np.zeros(m.shape, int)
        neighbors[1:] += m[:-1]
        neighbors[:-1] += m[1:]
        neighbors[:, 1:] += m[:, :-1]
        neighbors[:, :-1] += m[:, 1:]
        assert np.count_nonzero(m & (neighbors == 0)) == 3
        res = minimize_quotient(grid, 1.3)
        assert np.all(res.field.values[m] > 0)
        # exact sweeps alone keep every node positive
        LoggingRitz(monkeypatch, reject=lambda k: True)
        plain = minimize_quotient(grid, 1.3)
        assert abs(res.cp - plain.cp) <= 1e-8 * plain.cp

    def test_ritz_matches_generalized_eigensolver(self):
        rng = np.random.default_rng(3)
        for k in (2, 3) * 50:
            x, y = rng.standard_normal((2, k, k))
            scale = np.diag(10.0 ** rng.uniform(-4, 4, k))  # basis vectors of unlike sizes
            a = scale @ (x @ x.T + 1e-3 * np.eye(k)) @ scale
            b = scale @ (y @ y.T + 0.1 * np.eye(k)) @ scale
            c = _ritz(a.tolist(), b.tolist())
            assert all(type(ci) is float for ci in c)  # Python floats: no LAPACK or BLAS
            lam, vec = scipy.linalg.eigh(a, b)
            assert (b @ c)[0] > 0
            assert c @ a @ c / (c @ b @ c) == pytest.approx(lam[0], rel=1e-9)
            cos = abs(c @ b @ vec[:, 0]) / math.sqrt((c @ b @ c) * (vec[:, 0] @ b @ vec[:, 0]))
            assert cos == pytest.approx(1.0, abs=1e-10)
        assert _ritz([[1.0, 0.0], [0.0, 2.0]], [[1.0, 1.0], [1.0, 1.0]]) is None
        assert _ritz([[1.0, 0.0], [0.0, 2.0]], [[1.0, 0.0], [0.0, 0.0]]) is None

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0], ids=["p1", "p1.5", "p2"])
    def test_memory_peak(self, monkeypatch, p):
        # the memo is cleared, so the peak includes the hierarchy's build.
        # Measured at p = 1, 1.5 and 2, in grid arrays: the disk 7.93-7.94,
        # the ellipse 8.81 and the l-shape 9.15 at each p (9.32, 9.95 and
        # 10.11-10.12 when the coarse levels kept (5, ny * nx) stencils and a
        # dinv array each; the coarse levels borrow the finest level's
        # temporaries, cg writes A p over the V-cycle's output, and quotient
        # and the p > 1 step work in the finest level's free arrays)
        for spec, bound in ((DomainSpec.disk(1.0), 8.2), (DomainSpec.ellipse(1.0, 0.5), 9.1),
                            (DomainSpec.l_shape(1.0, 0.45), 9.4)):
            grid = build_grid(spec, 1.0 / 128)
            monkeypatch.setattr(elliptic, "_last_operators", None)
            tracemalloc.start()
            try:
                minimize_quotient(grid, p)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= bound * grid.values.nbytes, spec

    def test_warm_vcycle_allocates_less_than_one_array(self):
        # its temporaries live in the levels' work arrays; what is left is
        # numpy's fixed-size iteration buffers and the coarse levels' small
        # arrays: 0.38 arrays measured
        grid = build_grid(SHAPES["disk"], 1.0 / 128)
        M = _VCycle(grid.mask)
        r = np.random.default_rng(5).standard_normal(grid.mask.shape) * grid.mask
        M(r)
        tracemalloc.start()
        try:
            M(r)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < grid.values.nbytes


class TestThinDomains:
    """Thin domains, where most nodes sit near the boundary and the weight
    u^(p-2) is far from constant: every step is safeguarded, and the stop
    rule still lands close to the minimum."""

    @pytest.mark.parametrize("spec", [DomainSpec.rectangle(1.0, 0.05), DomainSpec.ellipse(1.0, 0.1)],
                             ids=["rectangle", "ellipse"])
    @pytest.mark.parametrize("h", [1.0 / 32, 1.0 / 64])
    @pytest.mark.parametrize("p", [1.2, 1.5, 1.8])
    def test_monotone_and_near_the_minimum(self, spec, h, p):
        grid = build_grid(spec, h)
        res = minimize_quotient(grid, p)
        t = res.trajectory
        assert all(math.isfinite(q) for q in t)
        assert all(b <= a for a, b in zip(t, t[1:]))
        ref = minimize_quotient(grid, p, tol=1e-13)
        assert abs(res.cp - ref.cp) <= 1e-8 * ref.cp  # at most 6.9e-10 measured


class TestNumpyOnlyRuntime:
    def test_import_leaves_scipy_out(self):
        code = ("import sys, sobolev_lab.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env=os.environ | {"PYTHONPATH": os.pathsep.join(sys.path)})
        assert out.stdout.strip() == "[]"

    def test_bits_independent_of_blas_threads(self):
        # the thin rectangle's Ritz pencils are made singular, so each of its
        # steps takes the exact-sweep fallback, and p = 1 is one cg call with
        # the certified stop; each line leads with the steps, then the cg
        # calls so far
        code = (
            "import hashlib, sobolev_lab as sl\n"
            "from sobolev_lab import elliptic\n"
            "cg, calls = elliptic.cg, []\n"
            "elliptic.cg = lambda *args: calls.append(args) or cg(*args)\n"
            "for spec, p in ((sl.DomainSpec.disk(1.0), 2.0), (sl.DomainSpec.ellipse(1.0, 0.5), 1.5),\n"
            "                (sl.DomainSpec.rectangle(1.0, 0.05), 1.5), (sl.DomainSpec.disk(1.0), 1.0)):\n"
            "    if spec.shape == 'rectangle':\n"
            "        elliptic._ritz = lambda a, b: None\n"
            "    res = sl.minimize_quotient(sl.build_grid(spec, 1 / 64), p)\n"
            "    print(res.iterations, len(calls), repr(res.cp),\n"
            "          hashlib.sha256(res.field.values.tobytes()).hexdigest())\n")
        runs = []
        for threads in ("1", "2"):
            env = os.environ | {"PYTHONPATH": os.pathsep.join(sys.path),
                                "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
                                "MKL_NUM_THREADS": threads}
            runs.append(subprocess.run([sys.executable, "-c", code], capture_output=True,
                                       text=True, check=True, env=env).stdout)
        lines = [line.split() for line in runs[0].splitlines()]
        assert [line[1] for line in lines[:2]] == ["0", "0"]
        assert lines[2][1] == lines[2][0] != "0"
        assert lines[3][:2] == ["1", str(int(lines[2][1]) + 1)]
        assert runs[0] == runs[1]
