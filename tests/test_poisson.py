"""Unit-cube benchmark: grid geometry, stiffness identities, convergence,
discrete maximum principle, and the weighted-graph demo."""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from nlbvp import (
    DirichletProblem,
    assemble_form,
    bilinear,
    build_stiffness,
    convergence_study,
    discrete_max_principle_check,
    graph_bvp_demo,
    nonnegative_type_check,
    nullspace,
    poincare_constant,
    solve_dirichlet,
    unit_cube_grid,
    v_norm_sq,
)
from nlbvp.errors import BadStep, HypothesisViolated

from conftest import interval_setup, square_setup


# -- grid geometry ----------------------------------------------------------------


@pytest.mark.parametrize(
    "d,h,m,l",
    [
        (2, 0.5, 1, 4),
        (1, 0.25, 3, 2),
        (2, 0.25, 9, 12),
        (3, 0.5, 1, 6),
    ],
)
def test_grid_counts(d, h, m, l):
    grid = unit_cube_grid(d, h)
    assert (grid.m, grid.l) == (m, l)
    assert grid.m == (round(1 / h) - 1) ** d


def test_grid_rejects_bad_steps():
    with pytest.raises(BadStep):
        unit_cube_grid(2, 0.3)
    with pytest.raises(BadStep):
        unit_cube_grid(2, 1.0)
    with pytest.raises(BadStep):
        unit_cube_grid(4, 0.25)


def test_corners_stay_exterior():
    grid = unit_cube_grid(2, 0.25)
    corner_pts = {(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)}
    gamma_pts = {tuple(grid.measure.points[i]) for i in grid.domain.gamma}
    exterior_pts = {tuple(grid.measure.points[i]) for i in grid.domain.exterior}
    assert corner_pts & gamma_pts == set()
    assert corner_pts <= exterior_pts


def test_cube_edges_stay_exterior_3d():
    grid = unit_cube_grid(3, 0.5)
    for i in grid.domain.gamma:
        on_face = sum(c in (0.0, 1.0) for c in grid.measure.points[i])
        assert on_face == 1


# -- stiffness matrices ---------------------------------------------------------------


def test_stiffness_blocks_interval():
    grid = unit_cube_grid(1, 0.25)
    pair = build_stiffness(grid)
    expected = np.diag([2.0, 2.0, 2.0]) + np.diag([-1.0, -1.0], 1) + np.diag([-1.0, -1.0], -1)
    assert_allclose(pair.block_omega.toarray(), expected, rtol=0, atol=0)
    gamma = np.zeros((3, 2))
    gamma[0, 0] = -1.0
    gamma[2, 1] = -1.0
    assert_allclose(pair.block_gamma.toarray(), gamma, rtol=0, atol=0)


@pytest.mark.parametrize("d,h", [(1, 0.25), (1, 0.125), (2, 0.25), (2, 0.125)])
def test_assembled_form_equals_neumann_stiffness(d, h):
    grid = unit_cube_grid(d, h)
    form = assemble_form(grid.kernel, grid.measure, grid.domain)
    pair = build_stiffness(grid)
    diff = (form.matrix - pair.a_neumann).tocoo()
    assert diff.nnz == 0 or np.max(np.abs(diff.data)) == 0.0


def test_dirichlet_stiffness_inverse_blocks():
    grid = unit_cube_grid(1, 0.25)
    pair = build_stiffness(grid)
    h2 = 0.25**2
    dense = pair.a_dirichlet.toarray()
    inverse = np.linalg.inv(dense)
    assert_allclose(dense @ inverse, np.eye(5), atol=1e-12)
    omega_inv = np.linalg.inv(pair.block_omega.toarray())
    expected = h2 * np.block(
        [
            [omega_inv, -omega_inv @ pair.block_gamma.toarray()],
            [np.zeros((2, 3)), np.eye(2)],
        ]
    )
    assert_allclose(inverse, expected, atol=1e-12)


def test_bilinear_matches_neumann_stiffness(rng):
    for d, h in ((1, 0.25), (2, 0.25)):
        grid = unit_cube_grid(d, h)
        form = assemble_form(grid.kernel, grid.measure, grid.domain)
        pair = build_stiffness(grid)
        for _ in range(10):
            u = rng.standard_normal(grid.domain.n)
            v = rng.standard_normal(grid.domain.n)
            direct = float(v @ (pair.a_neumann @ u))
            assert bilinear(form, u, v) == pytest.approx(direct, rel=1e-12, abs=1e-12)


def test_bilinear_on_interior_functions_reduces_to_omega_block(rng):
    grid = unit_cube_grid(1, 0.25)
    form = assemble_form(grid.kernel, grid.measure, grid.domain)
    pair = build_stiffness(grid)
    scaled = pair.block_omega.toarray() / 0.25**2
    for _ in range(10):
        u = np.zeros(grid.domain.n)
        v = np.zeros(grid.domain.n)
        u[: grid.m] = rng.standard_normal(grid.m)
        v[: grid.m] = rng.standard_normal(grid.m)
        direct = float(v[: grid.m] @ (scaled @ u[: grid.m]))
        assert bilinear(form, u, v) == pytest.approx(direct, rel=1e-12, abs=1e-12)


def test_neumann_stiffness_kernel_is_constants():
    grid, form = square_setup(0.25)
    basis = nullspace(form)
    assert basis.dimension == 1
    w = basis.vectors[:, 0]
    assert np.max(np.abs(w - w.mean())) <= 1e-9 * np.abs(w).max()
    gap = poincare_constant(form, basis, variant="full")
    assert gap.eigenvalue > 0.0 and np.isfinite(gap.constant)


def test_neumann_solvability_dichotomy(rng):
    from nlbvp import NeumannProblem, solve_neumann
    from nlbvp.errors import IncompatibleData

    grid, form = interval_setup(0.25)
    basis = nullspace(form)
    f = rng.standard_normal(grid.m)
    f -= f.mean()
    sol = solve_neumann(NeumannProblem(form, f, np.zeros(grid.l)), basis)
    assert sol.residual <= 1e-12
    with pytest.raises(IncompatibleData):
        solve_neumann(
            NeumannProblem(form, f + 0.1 / grid.m, np.zeros(grid.l)), basis
        )


def test_poincare_equivalence_on_three_grids():
    for d, h in ((1, 0.25), (2, 0.5), (2, 0.25)):
        grid = unit_cube_grid(d, h)
        form = assemble_form(grid.kernel, grid.measure, grid.domain)
        basis = nullspace(form)
        omega_variant = poincare_constant(form, basis, variant="omega")
        full_variant = poincare_constant(form, basis, variant="full")
        assert np.isfinite(omega_variant.constant) == np.isfinite(full_variant.constant)


def test_native_norm_equivalent_to_node_norm(rng):
    for d, h in ((1, 0.25), (2, 0.25)):
        grid = unit_cube_grid(d, h)
        upper = np.sqrt(1.0 + 8.0 * d / h**2)
        lower = 1.0 / np.sqrt(1.0 + 2.0 * h**2 + 4.0 * d)
        for _ in range(20):
            u = rng.standard_normal(grid.domain.n)
            ratio = np.sqrt(
                v_norm_sq(grid.kernel, grid.measure, grid.domain, u)
                / float(u @ u)
            )
            assert lower - 1e-12 <= ratio <= upper + 1e-12


# -- convergence ---------------------------------------------------------------------


def test_convergence_second_order_2d():
    exact_u = lambda p: np.sin(np.pi * p[0]) * np.sin(np.pi * p[1])
    exact_f = lambda p: 2.0 * np.pi**2 * exact_u(p)
    rows = convergence_study(2, exact_u, exact_f, [0.25, 0.125, 0.0625])
    for row in rows[1:]:
        assert 1.8 <= row.order <= 2.2
    assert rows[-1].max_error < rows[0].max_error


def test_convergence_quadratic_exact_1d():
    exact_u = lambda p: 0.5 * p[0] * (1.0 - p[0])
    exact_f = lambda p: 1.0
    rows = convergence_study(1, exact_u, exact_f, [0.25, 0.125])
    for row in rows:
        assert row.max_error <= 1e-12


def test_convergence_zero_data():
    rows = convergence_study(1, lambda p: 0.0, lambda p: 0.0, [0.25])
    assert rows[0].max_error == 0.0


def test_convergence_rejects_nonvanishing_trace():
    with pytest.raises(ValueError, match="vanish"):
        convergence_study(1, lambda p: 1.0, lambda p: 0.0, [0.25])


def test_convergence_rejects_increasing_steps():
    with pytest.raises(ValueError, match="decreasing"):
        convergence_study(1, lambda p: 0.0, lambda p: 0.0, [0.125, 0.25])


# -- non-negative type and the discrete maximum principle ------------------------------


def test_reduced_matrix_nonnegative_type():
    grid = unit_cube_grid(1, 0.25)
    pair = build_stiffness(grid)
    reduced = pair.a_neumann[: grid.m, :]
    report = nonnegative_type_check(reduced, range(grid.m))
    assert report.nonnegative_type and report.zero_row_sums


def test_regularized_matrix_positive_row_sums():
    grid = unit_cube_grid(1, 0.25)
    pair = build_stiffness(grid)
    reduced = pair.a_neumann[: grid.m, :] + sp.hstack(
        [sp.identity(grid.m), sp.csr_matrix((grid.m, grid.l))]
    )
    report = nonnegative_type_check(reduced, range(grid.m))
    assert report.nonnegative_type and not report.zero_row_sums


def test_positive_offdiagonal_fails_check():
    matrix = np.array([[1.0, 0.5], [-1.0, 2.0]])
    report = nonnegative_type_check(matrix, [0, 1])
    assert not report.nonnegative_type


def test_discrete_max_principle_on_solves(rng):
    grid, form = square_setup(0.25)
    pair = build_stiffness(grid)
    reduced = pair.a_neumann[: grid.m, :]
    for _ in range(20):
        f = -rng.random(grid.m)
        g = rng.standard_normal(grid.l)
        u = solve_dirichlet(DirichletProblem(form, f, g), tol=1e-13).u
        assert discrete_max_principle_check(reduced, u, grid.m, grid.domain.n) is True


def test_discrete_max_principle_constant_vector():
    grid = unit_cube_grid(1, 0.25)
    pair = build_stiffness(grid)
    reduced = pair.a_neumann[: grid.m, :]
    assert discrete_max_principle_check(reduced, np.ones(5), 3, 5) is True


def test_discrete_max_principle_derived_solution():
    grid, form = interval_setup(0.25)
    pair = build_stiffness(grid)
    u = solve_dirichlet(
        DirichletProblem(form, -np.ones(3), np.array([0.0, 1.0])), tol=1e-13
    ).u
    assert_allclose(u[:3], [5 / 32, 3 / 8, 21 / 32], atol=1e-12)
    assert np.max(u[:3]) <= 1.0
    reduced = pair.a_neumann[:3, :]
    assert discrete_max_principle_check(reduced, u, 3, 5) is True


def test_discrete_max_principle_rejects_bad_matrix():
    matrix = np.array([[1.0, 0.5, -1.0]])
    with pytest.raises(HypothesisViolated):
        discrete_max_principle_check(matrix, np.zeros(3), 1, 3)


@st.composite
def nonnegative_type_rows(draw):
    """m leading rows over m + l columns: couplings 0 or in [1e-3, 1] off the
    diagonal, negated, and the diagonal that makes each row sum vanish."""
    m = draw(st.integers(1, 8))
    n = m + draw(st.integers(1, 4))
    matrix = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            if j != i:
                matrix[i, j] = -draw(st.one_of(st.just(0.0), st.floats(1e-3, 1.0)))
        matrix[i, i] = -matrix[i].sum()
    return matrix


# two interior components, one of them with no boundary edge
@example(np.array([[1.0, -1.0, 0.0, 0.0], [-1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.5, -0.5]]))
@settings(max_examples=200, deadline=None)
@given(nonnegative_type_rows())
def test_max_principle_singularity_matches_dense_rank(matrix):
    m, n = matrix.shape
    if np.linalg.matrix_rank(matrix[:, :m]) < m:
        with pytest.raises(HypothesisViolated, match="singular"):
            discrete_max_principle_check(matrix, np.ones(n), m, n)
    else:
        assert discrete_max_principle_check(matrix, np.ones(n), m, n) is True


# -- graph demo ------------------------------------------------------------------------


def test_graph_demo_path():
    sol = graph_bvp_demo([(0, 1, 1.0), (1, 2, 1.0)], [1], np.array([1.0]))
    assert sol.u[0] == pytest.approx(1.0, abs=1e-12)
    assert_allclose(sol.u[1:], np.zeros(2))


def test_graph_demo_zero_load():
    sol = graph_bvp_demo([(0, 1, 1.0), (1, 2, 1.0)], [1], np.array([0.0]))
    assert_allclose(sol.u, np.zeros(3))


def test_graph_demo_star():
    edges = [(0, k, 1.0) for k in range(1, 5)]
    sol = graph_bvp_demo(edges, [0], np.array([1.0]))
    assert sol.u[0] == pytest.approx(1.0, abs=1e-12)


def test_graph_demo_rejects_disconnected():
    with pytest.raises(ValueError, match="connected"):
        graph_bvp_demo([(0, 1, 1.0), (2, 3, 1.0)], [1], np.array([1.0]))
