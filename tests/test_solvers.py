"""Dirichlet/Neumann solves, regularized solves, and strong-form recovery."""

import dataclasses
import itertools
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.sparse import csgraph

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
from nlbvp.fileio import load_document
from nlbvp.analysis import friedrichs_constant, max_principle_check

from conftest import (
    couplings_separated,
    disconnected_setup,
    interleaved_setup,
    interval_setup,
    quadrature_forms,
    quadrature_setups,
    square_setup,
    stencil_forms,
    stencil_setups,
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
    """The interleaved form's two components merged under one label: a basis
    that spans too little is refused."""
    _, _, domain, form = interleaved_setup()
    basis = nullspace(form)
    merged = dataclasses.replace(basis, labels=np.zeros_like(basis.labels))
    problem = NeumannProblem(form, np.zeros(domain.m), np.zeros(domain.l))
    assert solve_neumann(problem, basis).kind == "neumann"
    with pytest.raises(PoincareViolated):
        solve_neumann(problem, merged)


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
    0 or in [1e-3, 1]) and the pair of nullspace labels a merged basis joins
    (taken modulo the nullspace dimension)."""
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
    pair = draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))
    return weights, masses, omega, np.array(c), pair


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
    weights, masses, omega, c, pair = graph
    n = len(masses)
    measure = AtomicMeasure([[float(i)] for i in range(n)], masses)
    support = [
        [(j, weights[i, j] / masses[i]) for j in range(n) if weights[i, j] > 0.0]
        for i in range(n)
    ]
    kernel = TransitionKernel(support)
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

    # Neumann: the gap above the basis and above it with a pair of labels merged, by deflation
    first, second = (label % full.dimension for label in pair)
    joined = np.where(full.labels == second, first, full.labels)
    merged = dataclasses.replace(full, labels=np.unique(joined, return_inverse=True)[1])
    for basis in (full, merged):
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


def graph_setup(weights, masses):
    """(kernel, measure) of the kernel W[i, j] / masses[i] on nodes 0..n-1."""
    measure = AtomicMeasure([[float(i)] for i in range(len(masses))], masses)
    return TransitionKernel(sp.csr_matrix(weights / masses[:, None])), measure


def graph_form(weights, masses, omega):
    """The assembled form of the kernel W[i, j] / masses[i] on nodes 0..n-1."""
    kernel, measure = graph_setup(weights, masses)
    return assemble_form(kernel, measure, nonlocal_boundary(kernel, omega, measure))


@st.composite
def spread_masses(draw, n):
    """n node masses spanning 1e4: log-spaced over [1e-2, 1e2], in random order."""
    return np.logspace(-2.0, 2.0, n)[draw(st.permutations(range(n)))]


@st.composite
def spread_graph_forms(draw):
    """The form of a `gated_graphs` graph on `spread_masses` whose pair weights
    W_ij m_i m_j scale with both masses, as a quadrature kernel's do: the
    form's diagonal spans orders of magnitude."""
    weights, _, omega = draw(gated_graphs())[:3]
    masses = draw(spread_masses(len(weights)))
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


@st.composite
def dirichlet_loaded_forms(draw):
    """A form of the `loaded_forms` families whose kernel couples nodes 0 and 1,
    with an interior set that leaves out one node of every component of the
    kernel's coupling graph, and a load in [-1, 1] at every node of the form.

    An interior component of such a set has a coupling out of it, to a node
    outside the set, which the split puts in the boundary: the boundary is
    non-empty and every interior node chains to it.  No family's coupling is
    weak at the interior tolerance (a quadrature kernel's by the separation
    filter of `quadrature_forms`), so the interior block is nonsingular."""
    family = draw(st.sampled_from(("graph", "spread graph", "quadrature", "stencil")))
    if family == "quadrature":
        kernel, measure = draw(quadrature_setups(coupled=True))[:2]
    elif family == "stencil":
        kernel, measure = draw(stencil_setups(coupled=True))[:2]
    else:
        weights, masses = draw(gated_graphs())[:2]
        weights[0, 1] = weights[1, 0] = draw(st.floats(1e-3, 1.0))
        if family == "spread graph":
            masses = draw(spread_masses(len(masses)))
            weights = weights * np.outer(masses, masses)
        kernel, measure = graph_setup(weights, masses)
    labels = csgraph.connected_components(kernel.matrix, directed=False)[1]
    anchors = [draw(st.sampled_from(np.flatnonzero(labels == c).tolist())) for c in np.unique(labels)]
    inner = np.setdiff1d(np.arange(len(measure)), anchors).tolist()
    omega = draw(st.lists(st.sampled_from(inner), min_size=1, unique=True))
    form = assemble_form(kernel, measure, nonlocal_boundary(kernel, omega, measure))
    if family == "quadrature":
        assume(couplings_separated(form))
    load = draw(st.lists(st.floats(-1.0, 1.0), min_size=form.n, max_size=form.n))
    return form, np.array(load)


def condition_number(matrix):
    """Ratio of the largest to the smallest eigenvalue of a dense symmetric
    positive definite matrix."""
    values = scipy.linalg.eigvalsh(matrix)
    return values[-1] / values[0]


TOL = 1e-12


def lone_loaded_node_example():
    """Node 1 is a component of its own and carries the whole load e_1: the
    compatible load is rounding noise in the kernel, and the solve returns
    u = 0 exactly, while `lstsq` on the unprojected load returns SVD noise."""
    masses = np.logspace(-2.0, 2.0, 11)[[1, 2, 3, 4, 10]]
    weights = np.zeros((5, 5))
    for i, j, w in [(0, 2, 6.220424539898395e-05), (2, 4, 15.84893192461114), (3, 4, 39.810717055349734)]:
        weights[i, j] = weights[j, i] = w
    return graph_form(weights, masses, [0, 1, 2, 3]), np.eye(5)[1]


def spread_chain_example(edges, load):
    """A `spread_graph_forms` draw on nine nodes of masses log-spaced over
    [1e-2, 1e2], with omega {1, 3} and the coupling weights `edges`, in which
    nodes 1 and 3 are joined by a weak coupling: a 4- or 5-node form of one
    component and a load in the form's canonical order.  CG on the singular
    form drifted along its kernel on these."""
    weights = np.zeros((9, 9))
    for i, j, w in edges:
        weights[i, j] = weights[j, i] = w
    return graph_form(weights, np.logspace(-2.0, 2.0, 9), [1, 3]), np.array(load)


@example(lone_loaded_node_example())
# drawn at --hypothesis-seed=36: a CG stall at step 250, a breakdown at step 12, and an
# iterate 225 away from the reference against a bound of 1.78
@example(spread_chain_example([(1, 3, 1e-05), (1, 8, 3.162277660168379), (2, 3, 0.0316227766016838), (3, 7, 5.0)], np.eye(5)[3]))
@example(spread_chain_example([(1, 3, 1.953125e-05), (1, 8, 3.162277660168379), (3, 7, 5.0)], np.eye(4)[3]))
@example(spread_chain_example([(1, 3, 3.90625e-05), (1, 8, 3.162277660168379), (3, 7, 5.0)], np.eye(4)[3]))
# subnormal loads: each product rounds to the subnormal grid
@example((graph_form(np.array([[0.0, 0.375], [0.375, 0.0]]), np.array([1.0, 0.5]), [0]), np.full(2, 2.2250738585e-313)))
# a subnormal solution: the library's shift and the dense one differ by one subnormal step
@example((graph_form(np.array([[0.0, 0.75], [0.75, 0.0]]), np.ones(2), [0]), np.array([0.0, 1e-311])))
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
    defect = compatibility_defect(load[:m], load[m:], basis)
    scale = np.max(np.abs(w).T @ np.abs(mass * load))
    underflow = form.n * (1.0 + np.max(w, initial=0.0)) * np.finfo(float).smallest_subnormal
    assert abs(defect - np.max(np.abs(w.T @ (mass * load)))) <= rounding * scale + underflow
    reached = np.isin(np.arange(basis.dimension), basis.labels[:m])  # a component with no interior node stays
    gram = w[:m, reached].T @ (mass[:m, None] * w[:m, reached])
    dense = load - w[:, reached] @ np.linalg.solve(gram, w[:m, reached].T @ (mass[:m] * load[:m]))
    assert np.max(np.abs(project_out_kernel(load, basis) - dense)) <= rounding
    load = load - w @ (w.T @ (mass * load))  # compatible: pairs with no kernel vector
    # the range projection (by QR), on which the dense reference is solved: a
    # load that lies in the kernel up to rounding then has the reference 0
    b = mass * load
    q = np.linalg.qr(w)[0]
    projected = b - q @ (q.T @ b)
    if 2.0 * (projected @ projected) < b @ b:
        projected -= q @ (q.T @ projected)
    reference = np.linalg.lstsq(a, projected, rcond=None)[0]
    reference -= w @ (w.T @ (mass * reference))
    solves = []
    conjugate_gradient = nlbvp.linalg.conjugate_gradient

    def recording(matrix, rhs, **kwargs):
        result = conjugate_gradient(matrix, rhs, **kwargs)
        solves.append((rhs.copy(), result[0].copy()))
        return result

    with mock.patch.object(nlbvp.linalg, "conjugate_gradient", recording):
        u = solve_neumann(NeumannProblem(form, load[:m], load[m:]), basis, tol=TOL).u
    # the range projection and the mass-orthogonal shift, densely
    rhs, x = solves[0]
    assert np.linalg.norm(rhs - projected) <= rounding * np.linalg.norm(b)
    shifted = x - w @ (w.T @ (mass * x))
    assert np.max(np.abs(u - shifted)) <= rounding * np.max(np.abs(x), initial=0.0) + underflow
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
@given(dirichlet_loaded_forms())
def test_dirichlet_solutions_obey_the_max_principle(loaded):
    """A load f <= 0 puts no interior value above the largest boundary value,
    up to the error CG's relative-residual stop allows: kappa * TOL * ||u||."""
    form, load = loaded
    m = form.domain.m
    u = solve_dirichlet(DirichletProblem(form, -np.abs(load[:m]), load[m:]), tol=TOL).u
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


# -- the quadratic patch test of the quadrature kernel -----------------------------

PATCH_DENSITIES = {
    "exp(-r*r)": lambda r: np.exp(-r * r),
    "1": lambda r: np.ones_like(r),
    "1/(1+r)": lambda r: 1.0 / (1.0 + r),
}


def second_moment(density, d, h, reach):
    """M2 = sum_k gamma(h |k|) h^d (h k_1)^2 over the integer offsets k with
    |k| <= reach, from the density's closed form."""
    k = np.array(list(itertools.product(range(-reach, reach + 1), repeat=d)))
    k = k[(k * k).sum(axis=1) <= reach * reach]
    gamma = PATCH_DENSITIES[density](h * np.sqrt((k * k).sum(axis=1)))
    return float(np.sum(gamma * h**d * (h * k[:, 0]) ** 2))


@pytest.mark.parametrize(
    "d, n_axis, reach, density, exact",
    [
        (1, 16, 1, "exp(-r*r)", "x*x"),
        (1, 24, 2, "1", "x*x"),
        (1, 40, 3, "1/(1+r)", "x*x"),
        (2, 16, 1, "1/(1+r)", "x*y"),
        (2, 12, 2, "exp(-r*r)", "x*y"),
        (2, 20, 3, "1", "x*x"),
        (3, 8, 1, "1", "x*x"),
        (3, 12, 2, "exp(-r*r)", "x*y"),
        (3, 16, 3, "exp(-r*r)", "x*x"),
        # a search at delta without the lookup tolerance keeps every pair at
        # delta for h = 1/16 but loses some at h = 1/24
        (3, 24, 3, "exp(-r*r)", "x*x"),
    ],
)
def test_quadrature_dirichlet_solve_is_exact_on_quadratics(d, n_axis, reach, density, exact):
    """The patch test: on the step-h lattice of [0, 1]^d with masses h^d and
    delta = reach h, an interior node x whose delta-ball lies inside the
    lattice sees every offset k with |k| <= reach, so the odd moments cancel:
    L(x_1^2)(x) = sum_y K(x, {y}) (x_1^2 - y_1^2) = -M2 and L(x_1 x_2)(x) = 0.
    The Dirichlet problem with f = -M2 (or 0) and g the quadratic on Gamma
    then has the quadratic itself as its solution.

    CG stops at ||b - A x|| <= TOL ||b|| <= TOL ||A|| ||u||, so the error is at
    most kappa TOL ||u||, kappa the condition number of A = A_oo, times 10 for
    the rounding of the assembled system.  Gershgorin bounds the largest
    eigenvalue by the largest absolute row sum.  The same cancellation gives,
    for v = d/2 - |x - 1/2|^2 (positive on every node), (A v)(x) =
    m_x (d M2 + sum_{y in Gamma} K(x, {y}) v(y)) > 0: A is a nonsingular
    M-matrix, and its smallest eigenvalue is at least min (A v) / v
    (Collatz-Wielandt on the nonnegative A^{-1})."""
    h = 1.0 / n_axis
    lattice = np.array(list(itertools.product(range(n_axis + 1), repeat=d)))
    inside = np.all((lattice >= reach) & (lattice <= n_axis - reach), axis=1)
    load = repr(-second_moment(density, d, h, reach)) if exact == "x*x" else "0"
    doc = load_document({
        "family": "quadrature",
        "dimension": d,
        "delta": reach * h,
        "gamma": density,
        "nodes": np.c_[lattice * h, np.full(len(lattice), h**d)].tolist(),
        "omega": np.flatnonzero(inside).tolist(),
        "problem": {"kind": "dirichlet", "f": load, "g": exact},
    })
    form = assemble_form(doc.kernel, doc.measure, doc.domain)
    solution = solve_dirichlet(DirichletProblem(form, doc.f, doc.g), tol=TOL)
    assert solution.residual <= TOL  # the relative-residual stop, not the backward-error one
    u = solution.u[: form.domain.m]
    x = doc.measure.points[doc.domain.omega]
    quadratic = x[:, 0] * x[:, 0] if exact == "x*x" else x[:, 0] * x[:, 1]
    a = form.omega_block
    v = d / 2.0 - ((x - 0.5) ** 2).sum(axis=1)
    applied = a @ v
    assert np.all(applied > 0.0)
    kappa = abs(a).sum(axis=1).max() / np.min(applied / v)
    assert np.linalg.norm(u - quadratic) <= 10.0 * kappa * TOL * np.linalg.norm(quadratic)


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
        assert max_principle_check(sol.u, grid.domain) is True
