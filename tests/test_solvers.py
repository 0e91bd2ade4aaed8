"""Dirichlet/Neumann solves, regularized solves, and strong-form recovery."""

import dataclasses
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import nlbvp
from nlbvp import (
    AtomicMeasure,
    DirichletProblem,
    NeumannProblem,
    TransitionKernel,
    assemble_form,
    bilinear,
    compatibility_defect,
    energy_dirichlet,
    energy_neumann,
    nonlocal_boundary,
    nullspace,
    project_out_kernel,
    solve_dirichlet,
    solve_neumann,
    solve_regularized,
    stencil_kernel,
    strong_residual,
)
from nlbvp.errors import (
    FriedrichsViolated,
    IncompatibleData,
    NoConvergence,
    PoincareViolated,
    SingularAfterRegularization,
)
from nlbvp.analysis import friedrichs_constant, max_principle_check

from conftest import (
    disconnected_setup,
    interval_setup,
    quadrature_forms,
    square_setup,
    stencil_forms,
    three_node_setup,
)


# -- Dirichlet -----------------------------------------------------------------


def test_dirichlet_unit_load():
    grid, form = interval_setup(0.25)
    sol = solve_dirichlet(DirichletProblem(form, np.ones(3), np.zeros(2)))
    assert_allclose(sol.u[:3], [3.0 / 32.0, 1.0 / 8.0, 3.0 / 32.0], atol=1e-12)
    assert sol.kind == "dirichlet" and not sol.projected


def test_dirichlet_constant_boundary_data():
    grid, form = interval_setup(0.25)
    c = 2.5
    sol = solve_dirichlet(DirichletProblem(form, np.zeros(3), np.full(2, c)))
    assert_allclose(sol.u, np.full(5, c), atol=1e-12)


def test_dirichlet_mixed_boundary_data():
    grid, form = interval_setup(0.25)
    sol = solve_dirichlet(DirichletProblem(form, -np.ones(3), np.array([0.0, 1.0])))
    assert_allclose(sol.u[:3], [5.0 / 32.0, 3.0 / 8.0, 21.0 / 32.0], atol=1e-12)


def test_dirichlet_unique_under_varied_starts(rng):
    grid, form = square_setup(0.25)
    f = rng.standard_normal(grid.m)
    g = rng.standard_normal(grid.l)
    problem = DirichletProblem(form, f, g)
    base = solve_dirichlet(problem).u
    for x0 in (np.ones(grid.m), rng.standard_normal(grid.m)):
        other = solve_dirichlet(problem, x0=x0).u
        assert np.max(np.abs(base - other)) <= 1e-10


def test_dirichlet_scales_linearly(rng):
    grid, form = interval_setup(0.25)
    f = rng.standard_normal(grid.m)
    g = rng.standard_normal(grid.l)
    u1 = solve_dirichlet(DirichletProblem(form, f, g), tol=1e-14).u
    u2 = solve_dirichlet(DirichletProblem(form, 3.0 * f, 3.0 * g), tol=1e-14).u
    assert np.max(np.abs(u2 - 3.0 * u1)) <= 1e-12 * max(1.0, np.max(np.abs(u2)))


def test_dirichlet_rejects_singular_interior():
    _, _, domain, form = disconnected_setup()
    with pytest.raises(FriedrichsViolated):
        solve_dirichlet(DirichletProblem(form, np.zeros(domain.m), np.zeros(domain.l)))


def test_dirichlet_weak_identity(rng):
    grid, form = square_setup(0.25)
    f = rng.standard_normal(grid.m)
    g = rng.standard_normal(grid.l)
    sol = solve_dirichlet(DirichletProblem(form, f, g), tol=1e-13)
    assert_allclose(sol.u[grid.m :], g, rtol=0, atol=0)  # trace imposed exactly
    masses = form.mass_omega
    for _ in range(10):
        v = np.zeros(grid.domain.n)
        v[: grid.m] = rng.standard_normal(grid.m)
        assert bilinear(form, sol.u, v) == pytest.approx(
            float(f @ (v[: grid.m] * masses)), abs=1e-9
        )


# -- Neumann -------------------------------------------------------------------


def test_neumann_zero_data():
    _, _, _, form = three_node_setup()
    basis = nullspace(form)
    sol = solve_neumann(NeumannProblem(form, np.zeros(1), np.zeros(2)), basis)
    assert_allclose(sol.u, np.zeros(3), atol=1e-14)
    assert sol.projected


def test_neumann_load_in_kernel_up_to_rounding():
    # two nodes of mass 0.5035, one interior and one boundary: the constant
    # load, projected off the kernel, is rounding noise along the kernel, and
    # one projection inside the solve leaves 3 eps ||b|| of it, above n eps ||b||
    measure = AtomicMeasure([[0.0], [1.0]], [0.5035, 0.5035])
    kernel = stencil_kernel(1, 1.0, measure)
    form = assemble_form(kernel, measure, nonlocal_boundary(kernel, [0], measure))
    basis = nullspace(form)
    w = basis.vectors
    load = np.full(2, 0.5)
    load -= w @ (w.T @ (form.mass_diag * load))
    sol = solve_neumann(NeumannProblem(form, load[:1], load[1:]), basis)
    assert np.array_equal(sol.u, np.zeros(2)) and sol.iterations == 0


def test_neumann_load_mostly_in_kernel():
    # a compatible load whose kernel part (within the compatibility tolerance)
    # is 1e6 times its range part: one projection leaves more rounding along
    # the kernel than CG's tolerance allows on the range part.  The sum rounds
    # the range part to about 2e-10 relative, hence the bound.
    grid, form = interval_setup(1.0 / 16.0)
    basis = nullspace(form)
    a, mass = form.matrix.toarray(), form.mass_diag
    ramp = np.linspace(-1.0, 1.0, form.n)
    ramp -= basis.vectors @ (basis.vectors.T @ (mass * ramp))
    load = 1e-11 + 1e-17 * ramp
    sol = solve_neumann(NeumannProblem(form, load[: grid.m], load[grid.m :]), basis)
    reference = np.linalg.lstsq(a, mass * 1e-17 * ramp, rcond=None)[0]
    reference -= basis.vectors @ (basis.vectors.T @ (mass * reference))
    assert np.linalg.norm(sol.u - reference) <= 1e-9 * np.linalg.norm(reference)


def test_neumann_three_node_example():
    _, _, _, form = three_node_setup()
    basis = nullspace(form)
    sol = solve_neumann(
        NeumannProblem(form, np.zeros(1), np.array([1.0, -1.0])), basis
    )
    assert_allclose(sol.u, [0.0, 0.25, -0.25], atol=1e-12)


def test_neumann_incompatible_load():
    grid, form = interval_setup(0.25)
    basis = nullspace(form)
    f = np.full(grid.m, 0.1 / grid.m)
    with pytest.raises(IncompatibleData):
        solve_neumann(NeumannProblem(form, f, np.zeros(grid.l)), basis)


def test_neumann_gauge_freedom(rng):
    grid, form = interval_setup(0.25)
    basis = nullspace(form)
    f = rng.standard_normal(grid.m)
    f -= f.mean()  # unit masses: compatibility
    problem = NeumannProblem(form, f, np.zeros(grid.l))
    sol = solve_neumann(problem, basis)
    masses = form.mass_diag
    # representative is mass-orthogonal to the nullspace
    assert abs(basis.vectors[:, 0] @ (masses * sol.u)) <= 1e-10
    # adding a kernel vector leaves the weak residuals unchanged
    shifted = sol.u + 7.0 * basis.vectors[:, 0]
    b = masses * np.concatenate([f, np.zeros(grid.l)])
    r1 = form.matrix @ sol.u - b
    r2 = form.matrix @ shifted - b
    assert np.max(np.abs(r1 - r2)) <= 1e-9


def test_neumann_requires_spectral_gap():
    grid, form = interval_setup(0.25)
    truncated = dataclasses.replace(nullspace(form), components=np.arange(0))
    with pytest.raises(PoincareViolated):
        solve_neumann(NeumannProblem(form, np.zeros(grid.m), np.zeros(grid.l)), truncated)


# -- regularized ----------------------------------------------------------------


def test_regularized_ignores_compatibility():
    grid, form = interval_setup(0.25)
    f = np.ones(grid.m)  # incompatible for the plain problem
    sol = solve_regularized(NeumannProblem(form, f, np.zeros(grid.l)), np.ones(grid.m))
    assert sol.kind == "regularized" and not sol.projected
    # the solve satisfies the augmented weak identity
    shift = np.zeros(form.n)
    shift[: grid.m] = form.mass_omega
    b = form.mass_diag * np.concatenate([f, np.zeros(grid.l)])
    residual = (form.matrix @ sol.u + shift * sol.u) - b
    assert np.max(np.abs(residual)) <= 1e-10


def test_regularized_zero_coefficient_is_plain_neumann(rng):
    grid, form = interval_setup(0.25)
    f = np.ones(grid.m)
    with pytest.raises(IncompatibleData):
        solve_regularized(NeumannProblem(form, f, np.zeros(grid.l)), np.zeros(grid.m))
    compatible = rng.standard_normal(grid.m)
    compatible -= compatible.mean()
    problem = NeumannProblem(form, compatible, np.zeros(grid.l))
    via_regularized = solve_regularized(problem, np.zeros(grid.m))
    direct = solve_neumann(problem, nullspace(form))
    assert np.array_equal(via_regularized.u, direct.u)
    assert via_regularized.projected


def test_regularized_detects_remaining_kernel():
    _, _, domain, form = disconnected_setup()
    c = np.zeros(domain.m)
    c[0] = 1.0  # shifts only the component that touches the boundary
    with pytest.raises(SingularAfterRegularization):
        solve_regularized(NeumannProblem(form, np.zeros(domain.m), np.zeros(domain.l)), c)


def test_regularized_weak_maximum_principle(rng):
    grid, form = square_setup(0.25)
    for _ in range(10):
        f = -rng.random(grid.m)
        sol = solve_regularized(
            NeumannProblem(form, f, np.zeros(grid.l)), np.ones(grid.m)
        )
        boundary_plus = np.maximum(sol.u[grid.m :], 0.0)
        assert np.max(sol.u[: grid.m]) <= np.max(boundary_plus) + 1e-12


# -- structural gates against dense eigenvalue gates --------------------------------


@st.composite
def gated_graphs(draw):
    """Symmetric weights W (each 0 or in [1e-3, 1]) coupling only nodes of
    the same block, so that components with no boundary node or with no c
    are common; masses in [0.5, 2], an interior set, interior c values (each
    0 or in [1e-3, 1]) and which nullspace columns a truncated basis keeps."""
    n = draw(st.integers(2, 12))
    block = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    weights = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if block[i] == block[j]:
                w = draw(st.one_of(st.just(0.0), st.floats(1e-3, 1.0)))
                weights[i, j] = weights[j, i] = w
    masses = np.array(draw(st.lists(st.floats(0.5, 2.0), min_size=n, max_size=n)))
    omega = draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True))
    c = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1.0)), min_size=len(omega), max_size=len(omega)))
    keep = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return weights, masses, omega, np.array(c), np.array(keep)


def dense_smallest(matrix, masses, complement=None):
    """Smallest eigenvalue of the dense mass pencil on the scaled-coordinate
    complement (all of it by default); None when the complement is empty."""
    scale = 1.0 / np.sqrt(masses)
    b = scale[:, None] * matrix * scale
    if complement is not None:
        b = complement.T @ b @ complement
    return scipy.linalg.eigvalsh(b)[0] if b.size else None


def raises(error, solve):
    try:
        solve()
    except error:
        return True
    return False


@settings(max_examples=150, deadline=None)
@given(gated_graphs())
def test_structural_gates_match_dense_eigenvalue_gates(graph):
    weights, masses, omega, c, keep = graph
    n = len(masses)
    measure = AtomicMeasure([[float(i)] for i in range(n)], masses)
    support = [
        [(j, weights[i, j] / masses[i]) for j in range(n) if weights[i, j] > 0.0]
        for i in range(n)
    ]
    kernel = TransitionKernel(support, "quadrature")
    domain = nonlocal_boundary(kernel, omega, measure)
    form = assemble_form(kernel, measure, domain)
    m, l = domain.m, domain.l
    full = nullspace(form)
    off_diagonal = np.abs((form.matrix - np.diag(form.matrix.diagonal())).data)
    assert np.all((off_diagonal == 0.0) | (off_diagonal >= 1e3 * full.tolerance))
    assert np.all((c == 0.0) | (c >= 1e3 * full.tolerance))
    zero = (np.zeros(m), np.zeros(l))

    # Dirichlet: the gate of the Friedrichs constant on the interior block
    omega_tol = 1e-9 * max(np.max(form.omega_block.diagonal() / form.mass_omega), 1e-300)
    singular = dense_smallest(form.omega_block.toarray(), form.mass_omega) <= omega_tol
    assert raises(FriedrichsViolated, lambda: solve_dirichlet(DirichletProblem(form, *zero))) == singular

    # Neumann: the gap above a truncated basis, by deflation
    truncated = dataclasses.replace(full, components=full.components[keep[: full.dimension]])
    for basis in (full, truncated):
        complement = scipy.linalg.null_space((basis.vectors * np.sqrt(form.mass_diag)[:, None]).T)
        lam = dense_smallest(form.matrix.toarray(), form.mass_diag, complement)
        no_gap = lam is not None and lam <= basis.tolerance
        assert raises(PoincareViolated, lambda: solve_neumann(NeumannProblem(form, *zero), basis)) == no_gap

    # regularized: the kernel of the augmented pencil (c = 0 is the plain solve)
    shift = np.zeros(form.n)
    shift[:m] = c * form.mass_omega
    augmented = form.matrix.toarray() + np.diag(shift)
    gap_tol = 1e-9 * np.max(np.diag(augmented) / form.mass_diag)
    left = np.any(c > 0.0) and dense_smallest(augmented, form.mass_diag) <= gap_tol
    problem = NeumannProblem(form, *zero)
    assert raises(SingularAfterRegularization, lambda: solve_regularized(problem, c)) == left


# -- solutions against dense oracles ----------------------------------------------


def graph_form(weights, masses, omega):
    """The assembled form of the kernel W[i, j] / masses[i] on nodes 0..n-1."""
    n = len(masses)
    measure = AtomicMeasure([[float(i)] for i in range(n)], masses)
    kernel = TransitionKernel(sp.csr_matrix(weights / masses[:, None]), "quadrature")
    return assemble_form(kernel, measure, nonlocal_boundary(kernel, omega, measure))


@st.composite
def spread_graph_forms(draw):
    """The form of a `gated_graphs` graph whose node masses span 1e4 (log-spaced
    over [1e-2, 1e2], in random order) and whose pair weights W_ij m_i m_j scale
    with both masses, as a quadrature kernel's do: the form's diagonal spans
    orders of magnitude."""
    weights, _, omega = draw(gated_graphs())[:3]
    n = len(weights)
    masses = np.logspace(-2.0, 2.0, n)[draw(st.permutations(range(n)))]
    return graph_form(weights * np.outer(masses, masses), masses, omega)


@st.composite
def loaded_forms(draw):
    """The form of a `gated_graphs` graph (with masses in [0.5, 2] or spanning
    1e4), of a small quadrature kernel on a random point set or of a stencil
    kernel on a random sub-lattice, with a load in [-1, 1] at every node of the
    form."""
    graph_forms = gated_graphs().map(lambda graph: graph_form(*graph[:3]))
    form = draw(st.one_of(graph_forms, spread_graph_forms(), quadrature_forms(), stencil_forms()))
    load = draw(st.lists(st.floats(-1.0, 1.0), min_size=form.n, max_size=form.n))
    return form, np.array(load)


def condition_number(matrix):
    """Ratio of the largest to the smallest eigenvalue of a dense symmetric
    positive definite matrix."""
    values = scipy.linalg.eigvalsh(matrix)
    return values[-1] / values[0]


TOL = 1e-12


# subnormal loads: each product rounds to the subnormal grid
@example((graph_form(np.array([[0.0, 0.375], [0.375, 0.0]]), np.array([1.0, 0.5]), [0]), np.full(2, 2.2250738585e-313)))
@settings(max_examples=300, deadline=None)
@given(loaded_forms())
def test_neumann_matches_dense_least_squares(loaded):
    form, load = loaded
    m = form.domain.m
    a, mass = form.matrix.toarray(), form.mass_diag
    basis = nullspace(form)
    w = basis.vectors
    # the per-component sums against the dense formulas on the basis vectors,
    # to a summation bound over the form's n nodes; below the normal range a
    # product is off by up to half the smallest subnormal instead, a multiply
    # by a basis weight then scales that, and each side rounds n products
    rounding = 10 * form.n * np.finfo(float).eps
    defect = compatibility_defect(load[:m], load[m:], basis, form.measure)
    scale = np.max(np.abs(w).T @ np.abs(mass * load))
    underflow = form.n * (1.0 + np.max(w, initial=0.0)) * np.finfo(float).smallest_subnormal
    assert abs(defect - np.max(np.abs(w.T @ (mass * load)))) <= rounding * scale + underflow
    reached = np.isin(basis.components, basis.labels[:m])  # a component with no interior node stays
    gram = w[:m, reached].T @ (mass[:m, None] * w[:m, reached])
    dense = load - w[:, reached] @ np.linalg.solve(gram, w[:m, reached].T @ (mass[:m] * load[:m]))
    assert np.max(np.abs(project_out_kernel(load, basis, form.measure) - dense)) <= rounding
    load = load - w @ (w.T @ (mass * load))  # compatible: pairs with no kernel vector
    reference = np.linalg.lstsq(a, mass * load, rcond=None)[0]
    reference -= w @ (w.T @ (mass * reference))
    solves = []
    conjugate_gradient = nlbvp.linalg.conjugate_gradient

    def recording(matrix, rhs, **kwargs):
        result = conjugate_gradient(matrix, rhs, **kwargs)
        solves.append((rhs.copy(), result[0].copy()))
        return result

    with mock.patch.object(nlbvp.linalg, "conjugate_gradient", recording):
        u = solve_neumann(NeumannProblem(form, load[:m], load[m:]), basis, tol=TOL).u
    # the range projection (by QR) and the mass-orthogonal shift, densely
    rhs, x = solves[0]
    b = mass * load
    q = np.linalg.qr(w)[0]
    projected = b - q @ (q.T @ b)
    if 2.0 * (projected @ projected) < b @ b:
        projected -= q @ (q.T @ projected)
    assert np.linalg.norm(rhs - projected) <= rounding * np.linalg.norm(b)
    shifted = x - w @ (w.T @ (mass * x))
    assert np.max(np.abs(u - shifted)) <= rounding * np.max(np.abs(x), initial=0.0)
    spectrum = scipy.linalg.eigvalsh(a)[basis.dimension :]  # on the range; empty for a zero form
    bound = 0.0
    if spectrum.size:
        # ||b|| / ||A|| <= ||x|| sets the scale where the reference is rounding
        # noise: a load that lies in the kernel up to rounding
        scale = max(np.linalg.norm(reference), np.linalg.norm(mass * load) / spectrum[-1])
        bound = 10.0 * spectrum[-1] / spectrum[0] * TOL * scale
    assert np.linalg.norm(u - reference) <= bound
    shifted = load + w[:, -1]  # defect 1 against a mass-orthonormal kernel vector
    with pytest.raises(IncompatibleData):
        solve_neumann(NeumannProblem(form, shifted[:m], shifted[m:]), basis, tol=TOL)


@settings(max_examples=300, deadline=None)
@given(loaded_forms())
def test_dirichlet_matches_dense_solve(loaded):
    form, load = loaded
    m = form.domain.m
    a = form.matrix.toarray()
    f, g = load[:m], load[m:]
    problem = DirichletProblem(form, f, g)
    if np.linalg.matrix_rank(a[:m, :m]) < m:
        with pytest.raises(FriedrichsViolated):
            solve_dirichlet(problem, tol=TOL)
        return
    reference = np.linalg.solve(a[:m, :m], form.mass_omega * f - a[:m, m:] @ g)
    u = solve_dirichlet(problem, tol=TOL).u
    bound = 10.0 * condition_number(a[:m, :m]) * TOL * np.linalg.norm(reference)
    assert np.linalg.norm(u[:m] - reference) <= bound
    assert np.array_equal(u[m:], g)


@settings(max_examples=300, deadline=None)
@given(loaded_forms())
def test_dirichlet_solutions_obey_the_max_principle(loaded):
    """A load f <= 0 puts no interior value above the largest boundary value,
    up to the error CG's relative-residual stop allows: kappa * TOL * ||u||."""
    form, load = loaded
    m = form.domain.m
    assume(form.domain.l > 0)
    problem = DirichletProblem(form, -np.abs(load[:m]), load[m:])
    try:
        u = solve_dirichlet(problem, tol=TOL).u
    except FriedrichsViolated:
        assume(False)
    kappa = condition_number(form.matrix.toarray()[:m, :m])
    slack = 10.0 * kappa * TOL * max(1.0, np.linalg.norm(u[:m]))
    assert np.max(u[:m]) <= np.max(u[m:]) + slack


def shifted_cg_steps(matrix, masses, tol):
    """Steps within which CG on A x = b from x = 0, preconditioned by
    (A + s M)^{-1} with s = 1e-6 ||M^{-1/2} A M^{-1/2}||_inf (the factor
    `smallest_eigenpairs` leaves), brings ||b - A x|| to tol ||b|| in exact
    arithmetic.  The A-norm error falls by 2 rho^k, rho = (sqrt(c) - 1) /
    (sqrt(c) + 1) with c the condition number of (A + s M)^{-1} A, whose
    eigenvalues are lambda / (lambda + s) over the pencil (A, M); the
    residual's relative norm is at most sqrt(kappa(A)) times that fall."""
    scale = 1.0 / np.sqrt(masses)
    b = scale[:, None] * matrix * scale
    s = 1e-6 * np.abs(b).sum(axis=1).max()
    values = scipy.linalg.eigvalsh(b)
    c = values[-1] / (values[-1] + s) * (values[0] + s) / values[0]
    rho = (np.sqrt(c) - 1.0) / (np.sqrt(c) + 1.0)
    fall = tol / (2.0 * np.sqrt(condition_number(matrix)))
    return 1 if rho == 0.0 else int(np.ceil(np.log(fall) / np.log(rho)))


def spread_star_example():
    """Three interior nodes with one boundary neighbour each and a chain of
    two with one more, on masses spanning 1e4, loaded by g = 1.  D^{-1} A has
    three distinct eigenvalues on the interior block, so Jacobi CG ends in 3
    steps; (A + s M)^{-1} A has four, and the factor takes 4."""
    masses = np.logspace(-2.0, 2.0, 12)[[0, 2, 3, 4, 5, 6, 1, 7, 8, 9, 10, 11]]
    weights = np.zeros((12, 12))
    for i, j, w in [(1, 6, 1.0), (5, 8, 1.0), (7, 8, 1.0), (0, 9, 0.5), (6, 10, 1.0)]:
        weights[i, j] = weights[j, i] = w
    form = graph_form(weights * np.outer(masses, masses), masses, [1, 5, 8, 9, 10])
    return form, np.concatenate([np.zeros(5), np.ones(3)])


def stiff_chain_example():
    """A four-node path whose one boundary node is the third, on masses
    spanning 1e4: kappa(A_oo) is 6e6 and that of (A_oo + s M_o)^{-1} A_oo
    is 9.  Rounding delays both CGs past the exact-arithmetic m = 3 steps:
    Jacobi takes 4 and the factor 5."""
    masses = np.logspace(-2.0, 2.0, 4)[[3, 2, 0, 1]]
    weights = np.zeros((4, 4))
    for i, j, w in [(0, 1, 0.03), (1, 2, 0.001), (2, 3, 0.002)]:
        weights[i, j] = weights[j, i] = w
    form = graph_form(weights * np.outer(masses, masses), masses, [0, 1, 3])
    return form, np.array([0.0, 0.5, 0.9, 0.7])


@example(spread_star_example())
@example(stiff_chain_example())
@settings(max_examples=300, deadline=None)
@given(loaded_forms())
def test_friedrichs_factor_preconditions_the_dirichlet_solve(loaded):
    """CG preconditioned by the Friedrichs eigensolve's factor of
    A_oo + s M_o meets the dense solution within the bound Jacobi CG meets,
    within CG's condition-number bound for (A_oo + s M_o)^{-1} A_oo
    (`shifted_cg_steps`) and within 2 m steps, and a load f <= 0 still puts
    no interior value above the largest boundary value (see the two tests
    above for the bounds).

    Exact CG ends within m steps; rounding on a stiff interior block delays
    that (`stiff_chain_example`), and m more are allowed.  The steps are not
    bounded by Jacobi's: Jacobi CG ends within as many steps as D^{-1} A_oo
    has distinct eigenvalues, which can be fewer than the factor's
    (`spread_star_example`).  The dense eigensolve path leaves no factor, and
    then Jacobi runs."""
    form, load = loaded
    m = form.domain.m
    a = form.matrix.toarray()
    if np.linalg.matrix_rank(a[:m, :m]) < m:
        return  # the gate refuses before CG runs, whichever preconditioner
    _, inverse = friedrichs_constant(form, return_inverse=True)
    f, g = load[:m], load[m:]
    reference = np.linalg.solve(a[:m, :m], form.mass_omega * f - a[:m, m:] @ g)
    reused = solve_dirichlet(DirichletProblem(form, f, g), tol=TOL, preconditioner=inverse)
    kappa = condition_number(a[:m, :m])
    assert np.linalg.norm(reused.u[:m] - reference) <= 10.0 * kappa * TOL * np.linalg.norm(reference)
    assert np.array_equal(reused.u[m:], g)
    if inverse is not None:
        assert reused.iterations <= min(shifted_cg_steps(a[:m, :m], form.mass_omega, TOL), 2 * m)
    if form.domain.l:
        u = solve_dirichlet(DirichletProblem(form, -np.abs(f), g), tol=TOL, preconditioner=inverse).u
        slack = 10.0 * kappa * TOL * max(1.0, np.linalg.norm(u[:m]))
        assert np.max(u[:m]) <= np.max(u[m:]) + slack


def test_dirichlet_no_convergence_names_the_solve(rng):
    grid, form = square_setup(1.0 / 8.0)
    problem = DirichletProblem(form, rng.standard_normal(grid.m), rng.standard_normal(grid.l))
    with pytest.raises(NoConvergence, match=rf"^dirichlet solve on {form.n} nodes: CG stagnated .* size-{grid.m} system"):
        solve_dirichlet(problem, tol=1e-18)


# -- strong residuals --------------------------------------------------------------


def test_strong_residual_zero_solution():
    _, kernel, domain, form = three_node_setup()
    sol = solve_neumann(
        NeumannProblem(form, np.zeros(1), np.zeros(2)), nullspace(form)
    )
    assert strong_residual(sol, kernel, domain, np.zeros(1), np.zeros(2)) == (0.0, 0.0)


def test_strong_residual_neumann_example():
    _, kernel, domain, form = three_node_setup()
    g = np.array([1.0, -1.0])
    sol = solve_neumann(NeumannProblem(form, np.zeros(1), g), nullspace(form))
    r_omega, r_gamma = strong_residual(sol, kernel, domain, np.zeros(1), g)
    assert r_omega <= 1e-10 and r_gamma <= 1e-10


def test_strong_residual_dirichlet_with_derived_flux():
    grid, form = interval_setup(0.25)
    f = np.ones(grid.m)
    sol = solve_dirichlet(DirichletProblem(form, f, np.zeros(grid.l)), tol=1e-13)
    # independent flux data: exact solution is x(1-x)/2, whose one-sided
    # slope at both ends is 1/2 aside from the first-order offset h/2
    coords = grid.measure.points[grid.domain.order][:, 0]
    exact = 0.5 * coords * (1.0 - coords)
    derived_flux = np.array(
        [(exact[3] - exact[0]) / 0.25**2, (exact[4] - exact[2]) / 0.25**2]
    )
    r_omega, r_gamma = strong_residual(sol, grid.kernel, grid.domain, f, derived_flux)
    assert r_omega <= 1e-10 and r_gamma <= 1e-10


# -- energies -----------------------------------------------------------------------


def test_dirichlet_energy_minimality(rng):
    grid, form = interval_setup(0.25)
    f = rng.standard_normal(grid.m)
    g = rng.standard_normal(grid.l)
    sol = solve_dirichlet(DirichletProblem(form, f, g), tol=1e-14)
    base = energy_dirichlet(form, f, sol.u)
    for _ in range(50):
        w = np.zeros(form.n)
        w[: grid.m] = rng.standard_normal(grid.m)
        for eps in (0.1, -0.1):
            assert base <= energy_dirichlet(form, f, sol.u + eps * w) + 1e-12


def test_neumann_energy_minimality(rng):
    grid, form = interval_setup(0.25)
    basis = nullspace(form)
    f = rng.standard_normal(grid.m)
    f -= f.mean()
    g = np.zeros(grid.l)
    sol = solve_neumann(NeumannProblem(form, f, g), basis, tol=1e-14)
    base = energy_neumann(form, f, g, sol.u)
    for _ in range(50):
        v = rng.standard_normal(form.n)
        for eps in (0.1, -0.1):
            assert base <= energy_neumann(form, f, g, sol.u + eps * v) + 1e-12


def test_dirichlet_solution_passes_max_principle(rng):
    grid, form = square_setup(0.25)
    for _ in range(20):
        f = -rng.random(grid.m)
        g = rng.standard_normal(grid.l)
        sol = solve_dirichlet(DirichletProblem(form, f, g))
        assert max_principle_check(sol.u, form, grid.domain) is True
