"""Masked grids, the 5-point operator, and quotient minimization."""

import gc
import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

import oracles
from sobolev_lab import AdmissibilityError, DomainSpec, build_grid, minimize_quotient
from sobolev_lab import elliptic
from sobolev_lab.core import GridError, SolverError
from sobolev_lab.elliptic import MG_COARSE_SIZE, _VCycle, _laplacian, poisson_solve, quotient

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


class CountingCG:
    """Stand-in for elliptic.cg that counts calls and CG iterations per call."""

    def __init__(self, cg):
        self.cg = cg
        self.iterations = []

    def __call__(self, *args, **kwargs):
        self.iterations.append(0)

        def callback(xk):
            self.iterations[-1] += 1

        return self.cg(*args, callback=callback, **kwargs)


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
        grid = build_grid(SHAPES[shape], h)
        A = _laplacian(grid)
        L = kronecker_laplacian(grid)
        assert A.indices.dtype == np.int32 and A.indptr.dtype == np.int32
        assert A.has_sorted_indices
        assert np.array_equal(A.indptr, L.indptr)
        assert np.array_equal(A.indices, L.indices)
        assert np.array_equal(A.data, L.data)


class TestMultigrid:
    @pytest.mark.parametrize("shape,h", [("disk", 1.0 / 64), ("lshape", 1.0 / 128)])
    def test_preconditioner_symmetric_positive_definite(self, shape, h):
        grid = build_grid(SHAPES[shape], h)
        A = _laplacian(grid)
        M = _VCycle(A, grid.mask)
        assert len(M.levels) >= 1
        rng = np.random.default_rng(7)
        for _ in range(3):
            x, y = rng.standard_normal((2, A.shape[0]))
            xMy, yMx = x @ M.matvec(y), y @ M.matvec(x)
            assert abs(xMy - yMx) <= 1e-12 * abs(xMy)
            assert x @ M.matvec(x) > 0

    @pytest.mark.parametrize("h", [1.0 / 32, 1.0 / 64, 1.0 / 128])
    def test_iterations_mesh_independent(self, monkeypatch, h):
        counting = CountingCG(elliptic.cg)
        monkeypatch.setattr(elliptic, "cg", counting)
        res = minimize_quotient(build_grid(SHAPES["disk"], h), 1.0)
        # one cg call per sweep: the benchmark traces that binding as a sweep
        assert len(counting.iterations) == res.iterations
        assert sum(counting.iterations) <= 20

    @pytest.mark.parametrize("spec,h,levels", [
        (DomainSpec.disk(1.0), 1.0 / 16, 0),              # below the coarse size
        (DomainSpec.rectangle(40.0, 2.0 / 64), 1.0 / 64, 0),  # one row: empty coarse mask
        (DomainSpec.l_shape(1.0, 0.5), 1.0 / 128, 2),
    ])
    def test_degenerate_hierarchies_match_direct_solve(self, spec, h, levels):
        grid = build_grid(spec, h)
        A = _laplacian(grid)
        assert len(_VCycle(A, grid.mask).levels) == levels
        if A.shape[0] > MG_COARSE_SIZE and levels == 0:
            assert not grid.mask[::2, ::2].any()
        xs, ys = grid.node_coordinates()
        rhs = 1.0 + xs * ys
        sol = poisson_solve(grid, rhs)
        ref = spsolve(A.tocsc(), rhs[grid.mask])
        err = np.linalg.norm(sol.values[grid.mask] - ref) / np.linalg.norm(ref)
        assert err < 1e-9

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

    def test_nonconvergence_carries_trajectory(self):
        grid = build_grid(DomainSpec.rectangle(1.0, 1.0), h=1.0 / 16)
        with pytest.raises(SolverError) as err:
            minimize_quotient(grid, 2.0, tol=1e-15, max_iter=2)
        assert len(err.value.trajectory) >= 1

    def test_scaling_against_radial_disk(self):
        # staircase disk at h=1/64 should sit within O(h) of the radial value
        res = minimize_quotient(build_grid(DomainSpec.disk(1.0), h=1.0 / 64), 2.0)
        assert res.cp == pytest.approx(oracles.DISK_EIGENVALUE, rel=0.04)
