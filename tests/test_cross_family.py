"""Cross-family checks: every kernel family through the full pipeline,
non-uniform masses, dense oracles, and the d=3 lattice."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from nlbvp import (
    AtomicMeasure,
    DirichletProblem,
    NeumannProblem,
    TransitionKernel,
    apply_L,
    assemble_form,
    bilinear,
    build_stiffness,
    convergence_study,
    graph_kernel,
    ibp_residual,
    nonlocal_boundary,
    nullspace,
    quadrature_kernel,
    solve_dirichlet,
    solve_neumann,
    stencil_kernel,
    strong_residual,
    trace_weight,
    unit_cube_grid,
)


def quadrature_setup():
    """Gaussian density over a non-uniform interval measure."""
    h = 0.2
    points = [[i * h] for i in range(9)]  # covers [0, 1.6]
    masses = h * (1.0 + 0.5 * np.sin(np.arange(9)))
    measure = AtomicMeasure(points, masses)
    density = lambda p, q: float(np.exp(-np.sum((p - q) ** 2)))
    kernel = quadrature_kernel(density, 2.5 * h, measure)
    domain = nonlocal_boundary(kernel, range(2, 7), measure)
    form = assemble_form(kernel, measure, domain)
    return measure, kernel, domain, form


def graph_setup():
    """Weighted cycle with a chord; interior straddles the chord."""
    edges = [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.5), (3, 4, 1.0), (4, 0, 0.5), (1, 3, 0.7)]
    kernel, measure = graph_kernel(edges)
    domain = nonlocal_boundary(kernel, [1, 2, 3], measure)
    form = assemble_form(kernel, measure, domain)
    return measure, kernel, domain, form


def dense_form_matrix(kernel, measure, domain):
    """Form matrix rebuilt entry-by-entry from the literal double sum."""
    omega = set(domain.omega.tolist())
    n = domain.n
    dense = np.zeros((n, n))
    for x in domain.omega:
        mx = measure.masses[x]
        px = domain.position(x)
        for t, w in kernel.entries(int(x)):
            pt = domain.position(t)
            factor = 0.5 if int(t) in omega else 1.0
            c = factor * mx * w
            dense[px, px] += c
            dense[pt, pt] += c
            dense[px, pt] -= c
            dense[pt, px] -= c
    return dense


@pytest.mark.parametrize("setup", [quadrature_setup, graph_setup])
def test_ibp_identity_all_families(setup, rng):
    measure, kernel, domain, form = setup()
    worst = 0.0
    for _ in range(50):
        u = rng.standard_normal(domain.n)
        v = rng.standard_normal(domain.n)
        res = ibp_residual(form, kernel, u, v)
        worst = max(worst, res / max(1.0, abs(bilinear(form, u, v))))
    assert worst <= 1e-11


@pytest.mark.parametrize("setup", [quadrature_setup, graph_setup])
def test_assembly_matches_dense_rebuild(setup):
    measure, kernel, domain, form = setup()
    dense = dense_form_matrix(kernel, measure, domain)
    assert_allclose(form.matrix.toarray(), dense, rtol=0, atol=1e-14)


def test_dirichlet_nonuniform_masses_against_dense_solve(rng):
    measure, kernel, domain, form = quadrature_setup()
    m = domain.m
    f = rng.standard_normal(m)
    g = rng.standard_normal(domain.l)
    sol = solve_dirichlet(DirichletProblem(form, f, g), tol=1e-14)
    dense = dense_form_matrix(kernel, measure, domain)
    rhs = f * measure.masses[domain.omega] - dense[:m, m:] @ g
    expected = np.linalg.solve(dense[:m, :m], rhs)
    assert np.max(np.abs(sol.u[:m] - expected)) <= 1e-10
    # weak load is reproduced nodewise: interior rows of M u equal f * mass
    residual = (form.matrix @ sol.u)[:m] - f * measure.masses[domain.omega]
    assert np.max(np.abs(residual)) <= 1e-10


@pytest.mark.parametrize("setup", [quadrature_setup, graph_setup])
def test_neumann_against_dense_least_squares(setup, rng):
    measure, kernel, domain, form = setup()
    basis = nullspace(form)
    masses = measure.masses[domain.order]
    f = rng.standard_normal(domain.m)
    g = rng.standard_normal(domain.l)
    load = np.concatenate([f, g])
    # make the load compatible: remove its pairing with the kernel vector
    w = basis.vectors[:, 0]
    load -= w * float(w @ (masses * load)) / float(w @ (masses * w))
    f, g = load[: domain.m], load[domain.m :]
    # 1e-12 is the contract default; the nullspace basis itself carries the
    # eigensolver residual, so tighter demands are not reachable here
    sol = solve_neumann(NeumannProblem(form, f, g), basis, tol=1e-12)
    dense = dense_form_matrix(kernel, measure, domain)
    lsq = np.linalg.lstsq(dense, masses * load, rcond=None)[0]
    lsq -= w * float(w @ (masses * lsq))  # same mass-orthogonal gauge
    assert np.max(np.abs(sol.u - lsq)) <= 1e-9
    r_omega, r_gamma = strong_residual(sol, kernel, domain, f, g)
    assert r_omega <= 1e-10 and r_gamma <= 1e-10


def test_graph_trace_weight_counts_interior_mass_only():
    _, kernel, domain, _ = graph_setup()
    weight = trace_weight(kernel, domain, variant="sufficient")
    # vertex 0 neighbors 1 (interior, conductance 1.0) and 4 (boundary, 0.5):
    # only the interior edge contributes, normalized by the degree 1.5
    assert weight.values[domain.gamma.tolist().index(0)] == pytest.approx(1.0 / 1.5)


def test_apply_L_rejects_exterior_reach():
    measure = AtomicMeasure([[0.0], [1.0], [2.0]])
    symmetric = TransitionKernel([[(1, 1.0)], [(0, 1.0)], []])
    domain = nonlocal_boundary(symmetric, [0], measure)
    assert list(domain.exterior) == [2]
    stray = TransitionKernel([[(2, 1.0)], [(0, 1.0)], []])
    with pytest.raises(ValueError, match="exterior"):
        apply_L(stray, domain, np.zeros(2), 0)


def test_strong_residual_empty_boundary():
    measure = AtomicMeasure([[0.0], [1.0]])
    kernel = TransitionKernel([[(1, 1.0)], [(0, 1.0)]])
    domain = nonlocal_boundary(kernel, [0, 1], measure)
    u = np.array([1.0, 2.0])
    r_omega, r_gamma = strong_residual(u, kernel, domain, np.array([-1.0, 1.0]), np.array([]))
    assert r_omega == 0.0 and r_gamma == 0.0


# -- d = 3 ------------------------------------------------------------------------


def test_stiffness_identity_3d():
    grid = unit_cube_grid(3, 0.25)
    form = assemble_form(grid.kernel, grid.measure, grid.domain)
    pair = build_stiffness(grid)
    diff = (form.matrix - pair.a_neumann).tocoo()
    assert diff.nnz == 0 or np.max(np.abs(diff.data)) == 0.0
    assert grid.m == 27 and grid.l == 6 * 9


def test_convergence_3d_second_order():
    exact_u = lambda p: float(np.prod(np.sin(np.pi * p)))
    exact_f = lambda p: 3.0 * np.pi**2 * exact_u(p)
    rows = convergence_study(3, exact_u, exact_f, [0.25, 0.125])
    assert 1.7 <= rows[1].order <= 2.3
