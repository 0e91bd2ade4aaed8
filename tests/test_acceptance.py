"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred to calibration.
"""

import time

import numpy as np
import pytest
import scipy.linalg

from nlbvp import (
    DirichletProblem,
    NeumannProblem,
    assemble_form,
    bilinear,
    build_stiffness,
    convergence_study,
    discrete_max_principle_check,
    energy_dirichlet,
    energy_neumann,
    friedrichs_constant,
    graph_kernel,
    ibp_residual,
    max_principle_check,
    nullspace,
    poincare_constant,
    quadrature_kernel,
    solve_dirichlet,
    solve_neumann,
    solve_regularized,
    strong_residual,
    symmetry_defect,
    unit_cube_grid,
)
from nlbvp.errors import FriedrichsViolated, IncompatibleData

from conftest import disconnected_setup, interleaved_setup, three_node_setup


def report(number, title):
    print(f"PASS criterion {number}: {title}")


def cube_form(d, h):
    grid = unit_cube_grid(d, h)
    return grid, assemble_form(grid.kernel, grid.measure, grid.domain)


def test_criterion_01_kernel_symmetry():
    started = time.perf_counter()
    for d, h in ((1, 0.25), (2, 0.25)):
        grid = unit_cube_grid(d, h)
        assert symmetry_defect(grid.kernel, grid.measure) <= 1e-14
    graph, degree_measure = graph_kernel(
        [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0), (2, 3, 0.5)]
    )
    assert symmetry_defect(graph, degree_measure) <= 1e-14
    for d, h in ((1, 0.25), (2, 0.25)):
        grid = unit_cube_grid(d, h)
        density = lambda p, q: float(np.exp(-np.sum((p - q) ** 2)))
        kernel = quadrature_kernel(density, 2.5 * h, grid.measure)
        assert symmetry_defect(kernel, grid.measure) <= 1e-14
    elapsed = time.perf_counter() - started
    assert elapsed <= 1.0
    report(1, f"symmetry defect <= 1e-14 for all kernel families ({elapsed:.3f}s)")


def test_criterion_02_integration_by_parts():
    rng = np.random.default_rng(11)
    grid, form = cube_form(2, 0.125)
    worst = 0.0
    for _ in range(100):
        u = rng.standard_normal(grid.domain.n)
        v = rng.standard_normal(grid.domain.n)
        res = ibp_residual(form, grid.kernel, u, v)
        worst = max(worst, res / max(1.0, abs(bilinear(form, u, v))))
    assert worst <= 1e-11
    ones = np.ones(grid.domain.n)
    u = rng.standard_normal(grid.domain.n)
    addendum = ibp_residual(form, grid.kernel, u, ones)
    assert addendum <= 1e-11 * max(1.0, float(np.max(np.abs(u))))
    report(2, f"integration-by-parts residual {worst:.2e} <= 1e-11 over 100 pairs")


def test_criterion_03_stiffness_identity():
    rng = np.random.default_rng(12)
    for d in (1, 2):
        for h in (0.25, 0.125):
            grid, form = cube_form(d, h)
            pair = build_stiffness(grid)
            diff = (form.matrix - pair.a_neumann).tocoo()
            assert diff.nnz == 0 or np.max(np.abs(diff.data)) == 0.0
            for _ in range(5):
                u = rng.standard_normal(grid.domain.n)
                v = rng.standard_normal(grid.domain.n)
                direct = float(v @ (pair.a_neumann @ u))
                assert bilinear(form, u, v) == pytest.approx(direct, rel=1e-12, abs=1e-12)
    report(3, "assembled form equals the Neumann stiffness matrix entry-exactly")


def test_criterion_04_nullspace():
    for d, h in ((1, 0.25), (1, 0.125), (2, 0.25), (2, 0.125)):
        _, form = cube_form(d, h)
        basis = nullspace(form)
        assert basis.dimension == 1
        w = basis.vectors[:, 0]
        assert np.max(np.abs(w - w.mean())) <= 1e-9 * np.abs(w).max()
    _, _, _, interleaved_form = interleaved_setup()
    basis = nullspace(interleaved_form)
    assert basis.dimension == 2
    dense = scipy.linalg.eigh(
        interleaved_form.matrix.toarray(),
        np.diag(interleaved_form.mass_diag),
        eigvals_only=True,
    )
    assert int(np.sum(dense < basis.tolerance)) == 2
    report(4, "nullspace: constants on cube grids, dimension 2 on the half-spaced lattice")


def test_criterion_05_dirichlet_correctness():
    rng = np.random.default_rng(13)
    grid, form = cube_form(1, 0.25)
    problem = DirichletProblem(form, np.ones(3), np.zeros(2))
    sol = solve_dirichlet(problem)
    expected = np.array([3.0 / 32.0, 1.0 / 8.0, 3.0 / 32.0])
    assert np.max(np.abs(sol.u[:3] - expected)) <= 1e-12
    for x0 in (np.ones(3), rng.standard_normal(3), np.array([5.0, -3.0, 2.0])):
        other = solve_dirichlet(problem, x0=x0)
        assert np.max(np.abs(other.u - sol.u)) <= 1e-10
    report(5, "Dirichlet solve reproduces (3/32, 1/8, 3/32); unique under varied starts")


def test_criterion_06_friedrichs():
    _, form = cube_form(1, 0.25)
    expected = 0.25**2 / (2.0 - 2.0 * np.cos(np.pi / 4.0))
    rep = friedrichs_constant(form)
    assert abs(rep.constant - expected) <= 1e-8
    # connected instance: finite constant, invertible block, solvable problem
    assert np.isfinite(rep.constant)
    assert np.linalg.matrix_rank(form.omega_block.toarray()) == form.domain.m
    solve_dirichlet(DirichletProblem(form, np.zeros(3), np.zeros(2)))
    # disconnected instance: all three fail together
    _, _, domain, bad_form = disconnected_setup()
    bad = friedrichs_constant(bad_form)
    assert bad.constant == np.inf
    assert np.linalg.matrix_rank(bad_form.omega_block.toarray()) < domain.m
    with pytest.raises(FriedrichsViolated):
        solve_dirichlet(DirichletProblem(bad_form, np.zeros(domain.m), np.zeros(domain.l)))
    report(6, f"Friedrichs constant {rep.constant:.8f} matches h^2/(2-2cos(pi/4))")


def test_criterion_07_neumann_dichotomy():
    rng = np.random.default_rng(14)
    grid, form = cube_form(1, 0.25)
    basis = nullspace(form)
    f = rng.standard_normal(grid.m)
    f -= f.mean()
    sol = solve_neumann(NeumannProblem(form, f, np.zeros(grid.l)), basis)
    orthogonality = abs(basis.vectors[:, 0] @ (form.mass_diag * sol.u))
    assert orthogonality <= 1e-10
    with pytest.raises(IncompatibleData):
        solve_neumann(NeumannProblem(form, f + 0.1 / grid.m, np.zeros(grid.l)), basis)
    _, _, _, small_form = three_node_setup()
    small_basis = nullspace(small_form)
    sol3 = solve_neumann(
        NeumannProblem(small_form, np.zeros(1), np.array([1.0, -1.0])), small_basis
    )
    assert np.max(np.abs(sol3.u - np.array([0.0, 0.25, -0.25]))) <= 1e-12
    report(7, "Neumann dichotomy: compatible loads solve, sum 0.1 is rejected")


def test_criterion_08_poincare():
    _, _, _, small_form = three_node_setup()
    basis = nullspace(small_form)
    rep = poincare_constant(small_form, basis, variant="full")
    assert abs(rep.constant - 0.25) <= 1e-10
    for d, h in ((1, 0.25), (2, 0.5), (2, 0.25), (2, 0.125)):
        _, form = cube_form(d, h)
        grid_basis = nullspace(form)
        full = poincare_constant(form, grid_basis, variant="full")
        omega = poincare_constant(form, grid_basis, variant="omega")
        assert np.isfinite(full.constant) and np.isfinite(omega.constant)
    report(8, "Poincare constant 1/4 on the 3-node instance; both variants finite")


def test_criterion_09_maximum_principles():
    rng = np.random.default_rng(15)
    grid, form = cube_form(2, 0.125)
    pair = build_stiffness(grid)
    reduced = pair.a_neumann[: grid.m, :]
    for _ in range(200):
        f = -rng.random(grid.m)
        g = rng.standard_normal(grid.l)
        sol = solve_dirichlet(DirichletProblem(form, f, g), tol=1e-13)
        continuous = max_principle_check(sol.u, grid.domain)
        discrete = discrete_max_principle_check(reduced, sol.u, grid.m, grid.domain.n)
        assert continuous is True
        assert discrete == continuous
    for _ in range(20):
        f = -rng.random(grid.m)
        sol = solve_regularized(
            NeumannProblem(form, f, np.zeros(grid.l)), np.ones(grid.m)
        )
        boundary_plus = np.maximum(sol.u[grid.m :], 0.0)
        assert np.max(sol.u[: grid.m]) <= np.max(boundary_plus) + 1e-12
    report(9, "maximum principles hold on 200 sign-constrained solves (+ regularized)")


def test_criterion_10_convergence():
    started = time.perf_counter()
    exact_u = lambda p: np.sin(np.pi * p[0]) * np.sin(np.pi * p[1])
    exact_f = lambda p: 2.0 * np.pi**2 * exact_u(p)
    rows = convergence_study(2, exact_u, exact_f, [0.125, 0.0625, 0.03125])
    orders = [row.order for row in rows[1:]]
    assert all(1.9 <= order <= 2.1 for order in orders)
    quad_rows = convergence_study(
        1, lambda p: 0.5 * p[0] * (1.0 - p[0]), lambda p: 1.0, [0.25, 0.125]
    )
    assert all(row.max_error <= 1e-12 for row in quad_rows)
    elapsed = time.perf_counter() - started
    assert elapsed <= 30.0
    report(
        10,
        f"observed orders {orders[0]:.3f}, {orders[1]:.3f} in [1.9, 2.1]; "
        f"quadratic exact to 1e-12 ({elapsed:.1f}s)",
    )


def test_criterion_11_energy_minimality():
    rng = np.random.default_rng(16)
    grid, form = cube_form(1, 0.25)
    f = rng.standard_normal(grid.m)
    g = rng.standard_normal(grid.l)
    dirichlet = solve_dirichlet(DirichletProblem(form, f, g), tol=1e-14)
    base_d = energy_dirichlet(form, f, dirichlet.u)
    violations = 0
    for _ in range(50):
        w = np.zeros(form.n)
        w[: grid.m] = rng.standard_normal(grid.m)
        for eps in (0.1, -0.1):
            if base_d > energy_dirichlet(form, f, dirichlet.u + eps * w) + 1e-12:
                violations += 1
    basis = nullspace(form)
    f0 = f - f.mean()
    neumann = solve_neumann(NeumannProblem(form, f0, np.zeros(grid.l)), basis, tol=1e-14)
    base_n = energy_neumann(form, f0, np.zeros(grid.l), neumann.u)
    for _ in range(50):
        v = rng.standard_normal(form.n)
        for eps in (0.1, -0.1):
            if base_n > energy_neumann(form, f0, np.zeros(grid.l), neumann.u + eps * v) + 1e-12:
                violations += 1
    assert violations == 0
    report(11, "solutions minimize both energies against 50 perturbations, 0 violations")


def test_criterion_12_strong_recovery():
    worst_interior, worst_boundary = 0.0, 0.0

    # named interval instances, flux data derived from the independent
    # block-rule stiffness matrix
    grid, form = cube_form(1, 0.25)
    pair = build_stiffness(grid)
    for f, g in (
        (np.ones(3), np.zeros(2)),
        (-np.ones(3), np.array([0.0, 1.0])),
    ):
        sol = solve_dirichlet(DirichletProblem(form, f, g), tol=1e-13)
        flux = (pair.a_neumann @ sol.u)[grid.m :]
        r_omega, r_gamma = strong_residual(sol, grid.kernel, grid.domain, f, flux)
        worst_interior = max(worst_interior, r_omega)
        worst_boundary = max(worst_boundary, r_gamma)

    # Neumann instance against its prescribed data
    _, kernel3, domain3, small_form = three_node_setup()
    g3 = np.array([1.0, -1.0])
    sol3 = solve_neumann(
        NeumannProblem(small_form, np.zeros(1), g3), nullspace(small_form), tol=1e-13
    )
    r_omega, r_gamma = strong_residual(sol3, kernel3, domain3, np.zeros(1), g3)
    worst_interior = max(worst_interior, r_omega)
    worst_boundary = max(worst_boundary, r_gamma)

    # square benchmark solve with manufactured load
    grid2, form2 = cube_form(2, 0.125)
    pair2 = build_stiffness(grid2)
    pts = grid2.measure.points[grid2.domain.omega]
    f2 = np.array([2.0 * np.pi**2 * np.sin(np.pi * p[0]) * np.sin(np.pi * p[1]) for p in pts])
    sol2 = solve_dirichlet(DirichletProblem(form2, f2, np.zeros(grid2.l)), tol=1e-14)
    flux2 = (pair2.a_neumann @ sol2.u)[grid2.m :]
    r_omega, r_gamma = strong_residual(sol2, grid2.kernel, grid2.domain, f2, flux2)
    worst_interior = max(worst_interior, r_omega)
    worst_boundary = max(worst_boundary, r_gamma)

    assert worst_interior <= 1e-10
    assert worst_boundary <= 1e-10
    report(
        12,
        f"strong residuals <= 1e-10 on all benchmark solutions "
        f"(interior {worst_interior:.2e}, boundary {worst_boundary:.2e})",
    )
