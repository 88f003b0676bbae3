"""Masked grids, the 5-point operator, and quotient minimization."""

import gc
import math
import os
import subprocess
import sys
import threading
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

import oracles
from sobolev_lab import (AdmissibilityError, DomainSpec, build_grid, minimize_quotient,
                         verify_reverse_holder)
from sobolev_lab import elliptic
from sobolev_lab.core import GridError, InputError, SolverError
from sobolev_lab.cli import main
from sobolev_lab.elliptic import (MG_COARSE_SIZE, GriddedField, _coarse_operators, _galerkin,
                                  _inverse, _Level, _VCycle, poisson_solve, quotient)

SHAPES = {
    "disk": DomainSpec.disk(1.0),
    "ellipse": DomainSpec.ellipse(1.0, 0.5),
    "rectangle": DomainSpec.rectangle(1.0, 0.75),
    "lshape": DomainSpec.l_shape(1.0, 0.5),
    "polygon": DomainSpec.polygon([(0, 0), (1, 0), (0.8, 0.7), (0.2, 0.9)]),
}


def kronecker_laplacian(grid):
    """The 5-point Laplacian on the whole bounding lattice, restricted to the mask."""
    def second_difference(m):
        return sp.diags([-np.ones(m - 1), 2 * np.ones(m), -np.ones(m - 1)], [-1, 0, 1])
    full = (sp.kron(sp.identity(grid.ny), second_difference(grid.nx))
            + sp.kron(second_difference(grid.ny), sp.identity(grid.nx))).tocsr()
    keep = np.flatnonzero(grid.mask.ravel())
    L = (full[keep][:, keep] / grid.h**2).tocsr()
    L.eliminate_zeros()
    L.sort_indices()
    return L


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
    """The sparse matrix of a (9, ny * nx) stencil on the mask's nodes."""
    index = np.full(mask.shape, -1)
    index[mask] = np.arange(np.count_nonzero(mask))
    pad = np.pad(index, 1, constant_values=-1)
    S = S.reshape((3, 3) + mask.shape)
    rows, cols, vals = [], [], []
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            nb = pad[1 + dy:1 + dy + mask.shape[0], 1 + dx:1 + dx + mask.shape[1]]
            keep = mask & (nb >= 0)
            rows.append(index[keep])
            cols.append(nb[keep])
            vals.append(S[dy + 1, dx + 1][keep])
    n = np.count_nonzero(mask)
    return sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(n, n))


def on_grid(grid, values):
    """A full (ny, nx) array with the given values on the mask nodes."""
    out = np.zeros(grid.mask.shape)
    out[grid.mask] = values
    return out


class CountingCG:
    """Stand-in for elliptic.cg that records each call's rtol and the CG
    iterations it returns."""

    def __init__(self, cg):
        self.cg = cg
        self.iterations = []
        self.rtols = []

    def __call__(self, A, b, x0, M, rtol=elliptic.CG_RTOL):
        x, iterations = self.cg(A, b, x0, M, rtol)
        self.iterations.append(iterations)
        self.rtols.append(rtol)
        return x, iterations


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
        assert grid.nx > grid.ny

    def test_unresolved_domain_rejected(self):
        with pytest.raises(GridError, match="unresolved"):
            build_grid(DomainSpec.disk(0.01), h=0.5)

    def test_node_budget(self):
        with pytest.raises(GridError):
            build_grid(DomainSpec.rectangle(1.0, 1.0), h=1e-5)

    def test_lshape_mask_avoids_notch(self):
        grid = build_grid(DomainSpec.l_shape(1.0, 0.5), h=1.0 / 16)
        xs, ys = grid.node_coordinates()
        inside = grid.mask
        assert not np.any(inside & (xs > 0.5) & (ys > 0.5))


class TestLaplacian:
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    @pytest.mark.parametrize("h", [1.0 / 16, 1.0 / 48])
    def test_equals_kronecker_assembly(self, shape, h):
        # the matrix-free operator's matrix, column by column from basis vectors
        grid = build_grid(SHAPES[shape], h)
        level = _Level(grid.mask, h=grid.h)
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
        L = kronecker_laplacian(grid)
        assert np.array_equal(A.indptr, L.indptr)
        assert np.array_equal(A.indices, L.indices)
        assert np.array_equal(A.data, L.data)

    def test_mask_on_the_array_frame(self):
        # flat +-1 shifts wrap around row ends; with mask nodes in the first
        # and last columns the wrapped terms must be undone
        mask = np.ones((5, 7), dtype=bool)
        grid = GriddedField(7, 5, 0.25, (0.0, 0.0), mask, np.zeros((5, 7)))
        x = np.random.default_rng(3).standard_normal(mask.shape)
        got = _Level(mask, h=grid.h).apply(x, np.empty(mask.shape))
        ref = kronecker_laplacian(grid) @ x.ravel()
        assert np.max(np.abs(got.ravel() - ref)) <= 1e-13 * np.max(np.abs(ref))


class TestMultigrid:
    @pytest.mark.parametrize("shape,h", [("disk", 1.0 / 64), ("lshape", 1.0 / 128)])
    def test_preconditioner_symmetric_positive_definite(self, shape, h):
        grid = build_grid(SHAPES[shape], h)
        M = _VCycle(grid.mask, grid.h)
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
        A, P = kronecker_laplacian(grid), bilinear_prolongation(grid.mask)
        ref = (P.T @ A @ P).toarray()
        got = stencil_matrix(_galerkin(_Level(grid.mask, h=grid.h), coarse), coarse).toarray()
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("h", [1.0 / 32, 1.0 / 64, 1.0 / 128])
    def test_iterations_mesh_independent(self, monkeypatch, h):
        counting = CountingCG(elliptic.cg)
        monkeypatch.setattr(elliptic, "cg", counting)
        res = minimize_quotient(build_grid(SHAPES["disk"], h), 1.0)
        # one cg call per sweep: the benchmark traces that binding as a sweep
        assert len(counting.iterations) == res.iterations
        assert sum(counting.iterations) <= 20

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
        M = _VCycle(grid.mask, grid.h)
        assert len(M.levels) == levels
        if A.shape[0] > MG_COARSE_SIZE and levels == 0:
            assert not grid.mask[::2, ::2].any()
            assert M.inverse is None
        else:
            assert M.inverse.shape == (M.bottom.size,) * 2 and M.bottom.size <= MG_COARSE_SIZE
        xs, ys = grid.node_coordinates()
        rhs = 1.0 + xs * ys
        sol = poisson_solve(grid, rhs)
        ref = spsolve(A.tocsc(), rhs[grid.mask])
        err = np.linalg.norm(sol.values[grid.mask] - ref) / np.linalg.norm(ref)
        assert err < 1e-9

    @pytest.mark.parametrize("spec,h", [
        (DomainSpec.disk(1.0), 1.0 / 4),                  # the 5-point finest level
        (None, 0.25),                     # 5-point, mask nodes on the array frame
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
        mask = np.ones((5, 7), dtype=bool) if spec is None else build_grid(spec, h).mask
        M = _VCycle(mask, h)
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


class CountingGalerkin:
    """Stand-in for elliptic._galerkin that counts its calls."""

    def __init__(self):
        self.calls = 0

    def __call__(self, fine, coarse):
        self.calls += 1
        return _galerkin(fine, coarse)


class TestHierarchyMemo:
    """The last grid's coarse operators are reused by solves on the same mask and h."""

    @pytest.fixture
    def galerkin(self, monkeypatch):
        monkeypatch.setattr(elliptic, "_last_operators", None)
        counting = CountingGalerkin()
        monkeypatch.setattr(elliptic, "_galerkin", counting)
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

    def test_key_is_mask_and_spacing(self, galerkin):
        grid = build_grid(SHAPES["disk"], 1.0 / 32)
        operators = _coarse_operators(_Level(grid.mask, h=grid.h), grid.h)
        built = galerkin.calls
        assert _coarse_operators(_Level(grid.mask.copy(), h=grid.h), grid.h) is operators
        assert galerkin.calls == built
        other = grid.mask.copy()
        other[tuple(np.argwhere(other)[0])] = False  # same shape, one node fewer
        assert _coarse_operators(_Level(other, h=grid.h), grid.h) is not operators
        assert galerkin.calls == 2 * built
        _coarse_operators(_Level(other, h=2 * grid.h), 2 * grid.h)  # same mask, another spacing
        assert galerkin.calls == 3 * built

    def test_one_fine_level_per_cold_solve(self, galerkin, monkeypatch):
        fine = []

        def level(mask, stencil=None, h=None):
            if stencil is None:
                fine.append(mask)
            return _Level(mask, stencil, h)

        monkeypatch.setattr(elliptic, "_Level", level)
        grid = build_grid(SHAPES["disk"], 1.0 / 64)
        cold = minimize_quotient(grid, 1.5)  # the probe runs on the solve's own fine level
        assert len(fine) == 1 and galerkin.calls > 0
        built = galerkin.calls
        warm = minimize_quotient(grid, 1.5)  # a memo hit
        assert len(fine) == 2 and galerkin.calls == built
        # the probe leaves data in the fine level's work arrays; the V-cycle must
        # write them before it reads them, so a cold solve matches a warm one
        assert np.array_equal(cold.field.values, warm.field.values)

    def test_operators_read_only_and_copied(self, galerkin):
        grid = build_grid(SHAPES["disk"], 1.0 / 64)
        poisson_solve(grid, np.ones(grid.mask.shape))
        levels, inverse = _coarse_operators(_Level(grid.mask, h=grid.h), grid.h)
        assert galerkin.calls == len(levels)
        for array in [a for level in levels for a in level] + [inverse]:
            with pytest.raises(ValueError):
                array.flat[0] = 1
        coarse = levels[0][0]
        kept = coarse.copy()
        assert not np.shares_memory(coarse, grid.mask)
        grid.mask[::2, ::2] = False
        assert np.array_equal(coarse, kept)

    def test_old_grid_freed_by_another_grids_solve(self, galerkin):
        minimize_quotient(build_grid(SHAPES["disk"], 1.0 / 64), 1.0)
        stencil = weakref.ref(elliptic._last_operators[1][0][0][1])
        assert stencil() is not None
        minimize_quotient(build_grid(SHAPES["ellipse"], 1.0 / 64), 1.0)
        assert stencil() is None

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
        xs, ys = grid.node_coordinates()
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
        assert res.field.lp_norm(1.0) == pytest.approx(1.0, rel=1e-10)

    def test_positive_interior(self):
        res = minimize_quotient(build_grid(DomainSpec.disk(1.0), h=1.0 / 32), 1.5)
        assert np.all(res.field.values[res.field.mask] > 0)

    def test_unit_lp_normalization(self, solve):
        for p in (1.0, 1.5, 2.0):
            res = solve("square", p, 1.0 / 32)
            assert res.field.lp_norm(p) == pytest.approx(1.0, rel=1e-10)

    def test_deterministic_rerun(self):
        grid1 = build_grid(DomainSpec.ellipse(1.0, 0.5), h=1.0 / 32)
        grid2 = build_grid(DomainSpec.ellipse(1.0, 0.5), h=1.0 / 32)
        r1 = minimize_quotient(grid1, 1.5)
        r2 = minimize_quotient(grid2, 1.5)
        assert r1.cp == r2.cp
        assert np.array_equal(r1.field.values, r2.field.values)

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
        with pytest.raises(SolverError, match="inner CG solve failed to converge at sweep 1") as err:
            minimize_quotient(grid, 2.0)
        # the first sweep's solve is a loose one, and the message says so
        assert "did not reach rtol=0.0001 in 1 iterations" in str(err.value)
        assert main(["domain", "--spec", '{"shape": "disk", "radius": 1.0}', "-p", "1",
                     "--h", str(1.0 / 32), "--out", str(tmp_path)]) == 3
        assert "conjugate gradients did not reach rtol=1e-10" in capsys.readouterr().err

    def test_scaling_against_radial_disk(self):
        # staircase disk at h=1/64 should sit within O(h) of the radial value
        res = minimize_quotient(build_grid(DomainSpec.disk(1.0), h=1.0 / 64), 2.0)
        assert res.cp == pytest.approx(oracles.DISK_EIGENVALUE, rel=0.04)


class TestInexactSweeps:
    """Loose inner solves before convergence keep the outer path of exact ones
    (CG_FORCING = 0 runs every solve to CG_RTOL)."""

    @pytest.mark.parametrize("shape", ["disk", "ellipse", "lshape"])
    @pytest.mark.parametrize("p", [1.5, 2.0])
    def test_same_path_as_exact_solves(self, monkeypatch, shape, p):
        grid = build_grid(SHAPES[shape], 1.0 / 64)
        loose = minimize_quotient(grid, p)
        monkeypatch.setattr(elliptic, "CG_FORCING", 0.0)
        exact = minimize_quotient(grid, p)
        assert loose.iterations == exact.iterations
        assert abs(loose.cp - exact.cp) <= 1e-12 * exact.cp
        u, v = loose.field.values, exact.field.values
        assert np.max(np.abs(u - v)) <= 1e-8 * np.max(np.abs(v))
        for res in (loose, exact):
            assert verify_reverse_holder(res, [p, 3.0, 4.0]).passed()

    def test_fewer_cg_iterations(self, monkeypatch):
        counting = CountingCG(elliptic.cg)
        monkeypatch.setattr(elliptic, "cg", counting)
        res = minimize_quotient(build_grid(SHAPES["disk"], 1.0 / 64), 2.0)
        assert len(counting.iterations) == res.iterations
        # 45 iterations with every solve at CG_RTOL
        assert sum(counting.iterations) <= 35
        assert counting.rtols[0] == elliptic.CG_FORCING
        assert counting.rtols[-1] == elliptic.CG_RTOL

    def test_p1_solves_exactly(self, monkeypatch):
        grid = build_grid(SHAPES["disk"], 1.0 / 64)
        counting = CountingCG(elliptic.cg)
        monkeypatch.setattr(elliptic, "cg", counting)
        res = minimize_quotient(grid, 1.0)
        assert counting.rtols == [elliptic.CG_RTOL] * res.iterations
        monkeypatch.setattr(elliptic, "CG_FORCING", 0.0)
        exact = minimize_quotient(grid, 1.0)
        assert res.cp == exact.cp
        assert np.array_equal(res.field.values, exact.field.values)


class TestAndersonSweeps:
    """Each sweep at p > 1 mixes its field with the previous sweep's and keeps
    the mix only if the quotient does not rise; p = 1 is a single solve."""

    @pytest.mark.parametrize("shape,most", [("disk", 5), ("lshape", 9)])
    def test_fewer_sweeps(self, shape, most):
        # 7 and 13 sweeps without mixing
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
        # 1.5e-10 off without mixing
        h = 1.0 / 32
        res = minimize_quotient(build_grid(DomainSpec.rectangle(1.0, 1.0), h=h), 2.0)
        assert res.cp == pytest.approx(oracles.square_discrete_eigenvalue(h), rel=1e-10)

    def test_rejected_mix_keeps_the_plain_step(self, monkeypatch):
        grid = build_grid(SHAPES["lshape"], 1.0 / 32)
        cg = elliptic.cg
        sweeps = []  # the quotients each sweep evaluates: its plain step, then any mix

        def logging_cg(*args):
            sweeps.append([])
            return cg(*args)

        def logging_quotient(fld, p):
            sweeps[-1].append(quotient(fld, p))
            return sweeps[-1][-1]

        monkeypatch.setattr(elliptic, "cg", logging_cg)
        monkeypatch.setattr(elliptic, "quotient", logging_quotient)
        res = minimize_quotient(grid, 2.0)
        assert len(sweeps) == res.iterations
        rejected = [k for k, q in enumerate(sweeps) if len(q) == 2 and q[1] > q[0]]
        assert rejected and rejected[0] < res.iterations - 1
        for k in rejected:
            assert res.trajectory[k] == sweeps[k][0]
            if k + 1 < res.iterations:
                assert len(sweeps[k + 1]) == 1  # the history is dropped
        assert np.all(res.field.values[grid.mask] > 0)

        def rejecting_quotient(fld, p):
            sweeps[-1].append(math.inf if sweeps[-1] else quotient(fld, p))
            return sweeps[-1][-1]

        # every mix reads as worse, so every sweep keeps its plain step
        monkeypatch.setattr(elliptic, "quotient", rejecting_quotient)
        plain = minimize_quotient(grid, 2.0)
        assert plain.iterations > res.iterations
        assert abs(res.cp - plain.cp) <= 1e-8 * plain.cp

    def test_mixed_field_non_negative_on_supercritical_sliver(self):
        # the extremal is near 0 along the sliver's edges; an unclipped mix
        # left 216 nodes at roundoff-size negative values here
        spec = DomainSpec.polygon([(0, 0), (0.01, 0), (1, 0.99), (1, 1), (0.99, 1), (0, 0.01)])
        res = minimize_quotient(build_grid(spec, 1.0 / 128), 2.5, allow_supercritical=True)
        assert res.field.values.min() >= 0.0

    def test_p1_returns_after_one_solve(self, monkeypatch, tmp_path, capsys):
        counting = CountingCG(elliptic.cg)
        monkeypatch.setattr(elliptic, "cg", counting)
        res = minimize_quotient(build_grid(SHAPES["disk"], 1.0 / 32), 1.0)
        assert (res.iterations, res.residual, len(counting.rtols)) == (1, 0.0, 1)
        assert res.trajectory == [res.cp]
        assert main(["domain", "--spec", '{"shape": "disk", "radius": 1.0}', "-p", "1",
                     "--h", str(1.0 / 32), "--out", str(tmp_path)]) == 0
        assert "iterations = 1   residual = 0.000e+00" in capsys.readouterr().out


class TestNumpyOnlyRuntime:
    def test_import_leaves_scipy_out(self):
        code = ("import sys, sobolev_lab.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env=os.environ | {"PYTHONPATH": os.pathsep.join(sys.path)})
        assert out.stdout.strip() == "[]"

    def test_bits_independent_of_blas_threads(self):
        code = (
            "import hashlib, sobolev_lab as sl\n"
            "for spec, p in ((sl.DomainSpec.disk(1.0), 2.0), (sl.DomainSpec.ellipse(1.0, 0.5), 1.5)):\n"
            "    res = sl.minimize_quotient(sl.build_grid(spec, 1 / 64), p)\n"
            "    print(repr(res.cp), hashlib.sha256(res.field.values.tobytes()).hexdigest())\n")
        runs = []
        for threads in ("1", "2"):
            env = os.environ | {"PYTHONPATH": os.pathsep.join(sys.path),
                                "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
                                "MKL_NUM_THREADS": threads}
            runs.append(subprocess.run([sys.executable, "-c", code], capture_output=True,
                                       text=True, check=True, env=env).stdout)
        assert len(runs[0].splitlines()) == 2
        assert runs[0] == runs[1]
