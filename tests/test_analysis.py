"""Nullspace extraction, inequality constants, trace weights, principle checks."""

import dataclasses
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg
from hypothesis import assume, example, find, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import nlbvp
from nlbvp import (
    AtomicMeasure,
    TransitionKernel,
    assemble_form,
    bilinear,
    compatibility_defect,
    continuous_functional_check,
    friedrichs_chain_holds,
    friedrichs_constant,
    max_principle_check,
    nonlocal_boundary,
    nullspace,
    poincare_constant,
    project_out_kernel,
    strong_poincare_check,
    trace_weight,
    unit_cube_grid,
)
from nlbvp.analysis import interior_tol
from nlbvp.errors import EmptyGamma, NonPositiveC
from nlbvp.measure import quadrature_kernel

from conftest import (
    couplings_separated,
    dense_omega_constant,
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


def dense_kernel_dimension(form, tol):
    vals = scipy.linalg.eigh(
        form.matrix.toarray(), np.diag(form.mass_diag), eigvals_only=True
    )
    return int(np.sum(vals < tol))


# -- nullspace -------------------------------------------------------------------


def test_nullspace_unit_interval_is_constants():
    _, form = interval_setup(0.25)
    basis = nullspace(form)
    assert basis.dimension == 1
    w = basis.vectors[:, 0]
    assert np.max(np.abs(w - w.mean())) <= 1e-10 * np.abs(w).max()


def test_nullspace_square_is_constants():
    _, form = square_setup(0.25)
    basis = nullspace(form)
    assert basis.dimension == 1


def test_nullspace_interleaved_lattice_dimension_two():
    _, _, domain, form = interleaved_setup()
    basis = nullspace(form)
    assert basis.dimension == 2
    assert basis.dimension == dense_kernel_dimension(form, basis.tolerance)
    # basis spans the sublattice indicators: each vector constant per parity class
    coords = np.array([domain.order[i] % 2 for i in range(domain.n)])
    for k in range(2):
        w = basis.vectors[:, k]
        for parity in (0, 1):
            block = w[coords == parity]
            assert np.max(np.abs(block - block.mean())) <= 1e-9


def test_nullspace_zero_kernel_spans_everything():
    measure = AtomicMeasure([[0.0], [1.0], [2.0]])
    kernel = TransitionKernel([[], [], []])
    domain = nonlocal_boundary(kernel, [0, 1, 2], measure)
    form = assemble_form(kernel, measure, domain)
    basis = nullspace(form, tol=1e-12)
    assert basis.dimension == 3


@pytest.mark.parametrize("weak_links, expected_dim", [(1, 2), (3, 1)])
def test_nullspace_weak_couplings_bounded_per_node(weak_links, expected_dim):
    # nodes 1..3 form a strong triangle; node 0 hangs on weak_links couplings,
    # each 0.6 tol on its own: one is dropped, three sum past tol and are kept
    weak = 1e-6
    strong = [(j, 1.0) for j in (1, 2, 3)]
    support = [[(j, weak) for j in range(1, 1 + weak_links)]] + [
        [(j, w) for j, w in strong if j != i] + ([(0, weak)] if i <= weak_links else [])
        for i in (1, 2, 3)
    ]
    measure = AtomicMeasure([[float(i)] for i in range(4)])
    kernel = TransitionKernel(support)
    form = assemble_form(kernel, measure, nonlocal_boundary(kernel, [0, 1], measure))
    coupling = abs(form.matrix[form.domain.position(0), form.domain.position(1)])
    tol = 2.0 * coupling / 0.6
    basis = nullspace(form, tol=tol)
    assert basis.dimension == expected_dim
    assert basis.dimension == dense_kernel_dimension(form, tol)


def test_nullspace_vectors_annihilate_form(rng):
    _, _, _, form = interleaved_setup()
    basis = nullspace(form)
    scale = abs(form.matrix).max()
    for _ in range(20):
        v = rng.standard_normal(form.n)
        for k in range(basis.dimension):
            value = bilinear(form, basis.vectors[:, k], v)
            assert abs(value) <= 1e-9 * scale * np.linalg.norm(v)


# -- projection ----------------------------------------------------------------


def test_projection_kills_constants():
    grid, form = interval_setup(0.25)
    basis = nullspace(form)
    out = project_out_kernel(np.ones(form.n), basis)
    assert_allclose(out, np.zeros(form.n), atol=1e-12)


def test_projection_preserves_orthogonal_functions(rng):
    grid, form = interval_setup(0.25)
    basis = nullspace(form)
    masses = grid.measure.masses[grid.domain.omega]
    u = rng.standard_normal(form.n)
    u[: grid.m] -= (u[: grid.m] @ masses) / masses.sum()  # interior mean zero
    out = project_out_kernel(u, basis)
    assert_allclose(out, u, atol=1e-12)


def test_projection_is_best_approximation(rng):
    grid, form = interval_setup(0.25)
    basis = nullspace(form)
    masses = grid.measure.masses[grid.domain.omega]
    u = rng.standard_normal(form.n)
    out = project_out_kernel(u, basis)
    best = float(out[: grid.m] ** 2 @ masses)
    for c in np.linspace(-2.0, 2.0, 41):
        trial = float((u[: grid.m] - c) ** 2 @ masses)
        assert best <= trial + 1e-12
    # energy is untouched by removing a kernel component
    assert bilinear(form, out, out) == pytest.approx(bilinear(form, u, u), rel=1e-10)


def test_projection_leaves_a_component_without_interior_nodes_unchanged():
    """Node 2 hangs on interior node 1 by a weak coupling only, so it is a
    component of its own with no interior node."""
    measure = AtomicMeasure([[0.0], [1.0], [2.0]])
    weights = sp.csr_matrix([[0.0, 1.0, 0.0], [1.0, 0.0, 1e-20], [0.0, 1e-20, 0.0]])
    kernel = TransitionKernel(weights)
    domain = nonlocal_boundary(kernel, [1], measure)
    assert list(domain.weak_gamma) == [2]
    basis = nullspace(assemble_form(kernel, measure, domain))
    assert basis.dimension == 2
    u = np.array([3.0, 5.0, 7.0])  # nodes 1, 0, 2: the interior first
    out = project_out_kernel(u, basis)
    np.testing.assert_array_equal(out, [0.0, 2.0, 7.0])


# -- Friedrichs constant ---------------------------------------------------------


def test_friedrichs_closed_form():
    _, form = interval_setup(0.25)
    report = friedrichs_constant(form)
    expected = 0.25**2 / (2.0 - 2.0 * np.cos(np.pi / 4.0))
    assert report.constant == pytest.approx(expected, abs=1e-8)


def test_friedrichs_bounded_by_boundary_mass():
    grid, form = interval_setup(0.25)
    kappa = min(
        grid.kernel.evaluate(int(x), grid.domain.gamma.tolist())
        for x in grid.domain.omega
        if grid.kernel.evaluate(int(x), grid.domain.gamma.tolist()) > 0
    )
    # nodes without boundary contact do not bound kappa; use the chain view instead
    report = friedrichs_constant(form)
    assert np.isfinite(report.constant)
    # on the 3-node domain every interior node touches the boundary
    _, _, _, small_form = three_node_setup()
    small = friedrichs_constant(small_form)
    assert small.constant <= 2.0 / 8.0 + 1e-12  # K(x, boundary) = 8


def test_friedrichs_infinite_when_disconnected():
    _, _, _, form = disconnected_setup()
    report = friedrichs_constant(form)
    assert report.constant == np.inf


# -- Poincare constants -----------------------------------------------------------


def test_poincare_full_three_node():
    _, _, _, form = three_node_setup()
    basis = nullspace(form)
    report = poincare_constant(form, basis, variant="full")
    assert report.constant == pytest.approx(0.25, abs=1e-10)


def test_poincare_full_mean_zero_inequality(rng):
    _, form = interval_setup(0.25)
    basis = nullspace(form)
    report = poincare_constant(form, basis, variant="full")
    masses = form.mass_diag
    for _ in range(1000):
        v = rng.standard_normal(form.n)
        v -= (v @ masses) / masses.sum()
        lhs = float(v**2 @ masses)
        assert lhs <= report.constant * bilinear(form, v, v) * (1.0 + 1e-9)


def test_poincare_flags_infinite_on_truncated_basis():
    """A basis that spans too little, the two sublattices of the interleaved
    form merged under one label, leaves their difference in the complement:
    both Poincare constants are infinite."""
    _, _, _, form = interleaved_setup()
    basis = nullspace(form)
    assert basis.dimension == 2
    merged = dataclasses.replace(basis, labels=np.zeros_like(basis.labels))
    assert merged.dimension == 1
    for variant in ("full", "omega"):
        assert np.isfinite(poincare_constant(form, basis, variant=variant).constant)
        assert poincare_constant(form, merged, variant=variant).constant == np.inf


def test_poincare_omega_matches_dense_oracle():
    for setup in (
        lambda: interval_setup(0.25),
        lambda: square_setup(0.5),
        lambda: square_setup(1.0 / 32.0),
    ):
        _, form = setup()
        basis = nullspace(form)
        report = poincare_constant(form, basis, variant="omega")
        assert report.constant == pytest.approx(dense_omega_constant(form), rel=1e-8)


# -- the eigensolver on the paper's lattices -----------------------------------------


def lattice_pencils(d, h):
    """The unit-cube lattice form of step h with its three constants:
    Friedrichs, Poincare (full mass norm) and Poincare-omega (Kron pencil)."""
    grid = unit_cube_grid(d, h)
    form = assemble_form(grid.kernel, grid.measure, grid.domain)
    basis = nullspace(form)
    return form, basis, {
        "friedrichs": lambda: friedrichs_constant(form),
        "full": lambda: poincare_constant(form, basis, variant="full"),
        "omega": lambda: poincare_constant(form, basis, variant="omega"),
    }


def test_eigensolves_take_few_factor_solves(monkeypatch):
    """Each one-pair Lanczos run stops once its Ritz value has converged:
    at most 16 solves with the pencil's LU factor on the d=3, h=1/8 lattice."""
    factor_solves = []
    real_splu = scipy.sparse.linalg.splu

    def counting_splu(*args, **kwargs):
        factor = real_splu(*args, **kwargs)

        def solve(rhs):
            factor_solves[-1] += 1
            return factor.solve(rhs)

        factor_solves.append(0)
        return SimpleNamespace(solve=solve, perm_c=factor.perm_c)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", counting_splu)
    _, _, constants = lattice_pencils(3, 1.0 / 8.0)
    for name, constant in constants.items():
        constant()
        assert len(factor_solves) == 1 and factor_solves.pop() <= 16, name


@pytest.mark.parametrize("d, h", [(2, 1.0 / 32.0), (3, 1.0 / 8.0)])
def test_lattice_constants_match_dense_eigh(d, h):
    form, basis, constants = lattice_pencils(d, h)
    omega_values = scipy.linalg.eigh(form.omega_block.toarray(), np.diag(form.mass_omega))[0]
    full_values = scipy.linalg.eigh(form.matrix.toarray(), np.diag(form.mass_diag))[0]
    expected = {
        "friedrichs": 1.0 / omega_values[0],
        "full": 1.0 / full_values[basis.dimension],
        "omega": dense_omega_constant(form),
    }
    for name, constant in constants.items():
        assert abs(constant().constant - expected[name]) <= 1e-12 * expected[name], name


def test_friedrichs_closed_form_unit_cube():
    d, h = 3, 1.0 / 16.0
    _, _, constants = lattice_pencils(d, h)
    expected = 1.0 / (d * (4.0 / h**2) * np.sin(np.pi * h / 2.0) ** 2)
    assert abs(constants["friedrichs"]().constant - expected) <= 1e-12 * expected


@pytest.mark.parametrize("h", [1.0 / 32.0, 1.0 / 64.0])
def test_friedrichs_closed_form_square_to_rounding(h):
    """The constant is the Rayleigh quotient of its witness, so it carries
    no shift-invert back-transform error: 1e-15 relative at d=2."""
    _, form = square_setup(h)
    expected = 1.0 / (2 * (4.0 / h**2) * np.sin(np.pi * h / 2.0) ** 2)
    assert abs(friedrichs_constant(form).constant - expected) <= 1e-15 * expected


def test_poincare_omega_degenerate_single_interior():
    _, _, _, form = three_node_setup()
    basis = nullspace(form)
    report = poincare_constant(form, basis, variant="omega")
    # one interior node: the kernel already matches any value there
    assert report.constant == pytest.approx(0.0, abs=1e-12)


def test_poincare_variants_simultaneously_finite():
    for setup in (
        lambda: interval_setup(0.25),
        lambda: square_setup(0.5),
        lambda: square_setup(0.25),
    ):
        _, form = setup()
        basis = nullspace(form)
        full = poincare_constant(form, basis, variant="full")
        omega = poincare_constant(form, basis, variant="omega")
        assert np.isfinite(full.constant) == np.isfinite(omega.constant)


@st.composite
def weighted_graphs(draw):
    """Symmetric node weights W (each 0 or in [1e-3, 1]), masses and an
    interior set; the kernel is K(i, {j}) = W_ij / m_i."""
    n = draw(st.integers(2, 12))
    weights = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            w = draw(st.one_of(st.just(0.0), st.floats(1e-3, 1.0)))
            weights[i, j] = weights[j, i] = w
    masses = np.array(draw(st.lists(st.floats(0.5, 2.0), min_size=n, max_size=n)))
    omega = draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True))
    return weights, masses, omega


@st.composite
def component_graphs(draw):
    """`weighted_graphs` input in many pieces: 2-8 disjoint pieces of 1-3
    nodes, each fully coupled, so the component count is comparable to n and
    the deflated pencils reach both the dense and the Lanczos path."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=2, max_size=8))
    n = sum(sizes)
    weights = np.zeros((n, n))
    for start, size in zip(np.cumsum(sizes) - sizes, sizes):
        for i in range(start, start + size):
            for j in range(i + 1, start + size):
                weights[i, j] = weights[j, i] = draw(st.floats(1e-3, 1.0))
    masses = np.array(draw(st.lists(st.floats(0.5, 2.0), min_size=n, max_size=n)))
    omega = draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True))
    return weights, masses, omega


def dense_gap_constant(matrix, masses, skip, tol):
    """1 / (eigenvalue number skip+1) of the dense pencil, inf below tol,
    0 when the pencil has no eigenvalue beyond the first skip."""
    vals = scipy.linalg.eigh(matrix.toarray(), np.diag(masses), eigvals_only=True)
    if skip >= vals.size:
        return 0.0
    return np.inf if vals[skip] <= tol else 1.0 / vals[skip]


def weighted_graph_setup(graph):
    """(kernel, measure, domain) of a `weighted_graphs` graph."""
    weights, masses, omega = graph
    n = len(masses)
    measure = AtomicMeasure([[float(i)] for i in range(n)], masses)
    support = [
        [(j, weights[i, j] / masses[i]) for j in range(n) if weights[i, j] > 0.0]
        for i in range(n)
    ]
    kernel = TransitionKernel(support)
    return kernel, measure, nonlocal_boundary(kernel, omega, measure)


def weighted_graph_form(graph):
    """The assembled form of a `weighted_graphs` graph."""
    return assemble_form(*weighted_graph_setup(graph))


def _seed_36_graph():
    """Ten nodes, six linked (0-6, 7-8, 8-9, and 0-8 by a 2^-8 weight)."""
    weights = np.zeros((10, 10))
    for (i, j), w in {(0, 6): 1.0, (0, 8): 2.0**-8, (7, 8): 0.6875, (8, 9): 0.5}.items():
        weights[i, j] = weights[j, i] = w
    return weights, np.array([1.5, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.5, 1.0, 1.0]), [0, 8, 1]


def pencil_constants(form):
    """Friedrichs, Poincare-omega and Poincare (full) constants, in the order
    `diagnose` computes them."""
    basis = nullspace(form)
    return [
        friedrichs_constant(form).constant,
        poincare_constant(form, basis, variant="omega").constant,
        poincare_constant(form, basis, variant="full").constant,
    ]


def assert_shared_order_matches_own_orders(form):
    """The constants with the pencils factored in the form's shared order
    match those of each pencil factored in its own MMD order: the Friedrichs
    constant bit for bit, the others within 1e-14 relative.  Computed before
    any Friedrichs constant, the Poincare constants are the shared run's bit
    for bit on a form whose boundary nodes each couple to at most one
    interior node, and their own orders' bit for bit on any other form.
    Returns the orderings the shared run asked SuperLU for.  Computed again,
    the constants repeat their bits."""
    solve, factor = nlbvp.linalg.smallest_eigenpairs, scipy.sparse.linalg.splu
    orderings = []

    def own_order(matrix, *args, order=None, **kwargs):
        return solve(matrix, *args, **kwargs)

    def spy(matrix, permc_spec, **kwargs):
        orderings.append(permc_spec)
        return factor(matrix, permc_spec=permc_spec, **kwargs)

    with mock.patch.object(nlbvp.linalg, "smallest_eigenpairs", own_order):
        own = pencil_constants(form)
    form.shared_order = None
    basis = nullspace(form)
    first = [poincare_constant(form, basis, variant=v).constant for v in ("omega", "full")]
    form.shared_order = None
    with mock.patch.object(scipy.sparse.linalg, "splu", spy):
        shared = pencil_constants(form)
    one_neighbour = np.bincount(form.gamma_block.indices, minlength=1).max() <= 1
    assert first == (shared[1:] if one_neighbour else own[1:])
    assert shared[0] == own[0]
    for name, value, expected in zip(("omega", "full"), shared[1:], own[1:]):
        assert value == expected or abs(value - expected) <= 1e-14 * abs(expected), name
    assert pencil_constants(form) == shared
    return orderings


def gaussian(r):
    return np.exp(-r * r)


gaussian.radial = True


def quadrature_square_form(n_axis):
    """A 2-D quadrature form: the closed unit square's lattice with masses
    h^2, delta = 3h and density exp(-r^2), the nodes more than 3.5h from
    every side as the interior."""
    h = 1.0 / n_axis
    axis = np.arange(n_axis + 1) * h
    points = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    measure = AtomicMeasure(points, np.full(len(points), h * h))
    kernel = quadrature_kernel(gaussian, 3 * h, measure)
    inner = np.flatnonzero(np.all((points > 3.5 * h) & (points < 1.0 - 3.5 * h), axis=1))
    return assemble_form(kernel, measure, nonlocal_boundary(kernel, inner, measure))


def random_graph_form(rng, n, density, pieces=1):
    """A `weighted_graph_form` on `pieces` disjoint random graphs of n nodes
    each, weights in [1e-3, 1] on a `density` share of the pairs, masses in
    [0.5, 2], about half the nodes interior."""
    blocks = []
    for _ in range(pieces):
        weights = np.triu(rng.uniform(1e-3, 1.0, (n, n)) * (rng.random((n, n)) < density), 1)
        blocks.append(weights + weights.T)
    size = n * pieces
    omega = list(np.flatnonzero(rng.random(size) < 0.5))
    masses = rng.uniform(0.5, 2.0, size)
    return weighted_graph_form((scipy.linalg.block_diag(*blocks), masses, omega))


@pytest.mark.parametrize(
    "case, build, shared",
    [
        ("stencil 2-D", lambda rng: lattice_pencils(2, 1.0 / 24.0)[0], 2),
        ("stencil 3-D", lambda rng: lattice_pencils(3, 1.0 / 8.0)[0], 2),
        ("quadrature", lambda rng: quadrature_square_form(20), 0),
        ("graph", lambda rng: random_graph_form(rng, 150, 0.04), 0),
        ("graph pieces", lambda rng: random_graph_form(rng, 30, 0.2, pieces=5), 0),
    ],
)
def test_shared_order_matches_own_orders(case, build, shared, rng):
    """On the one-neighbour stencil forms the Friedrichs pencil orders P and
    the two Poincare pencils reuse it; elsewhere each pencil runs its own
    ordering."""
    orderings = assert_shared_order_matches_own_orders(build(rng))
    assert orderings.count("NATURAL") == shared, case
    assert orderings.count("MMD_AT_PLUS_A") == 3 - shared, case


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(
        weighted_graphs().map(weighted_graph_form),
        quadrature_forms(),
        stencil_forms(),
        component_graphs().map(weighted_graph_form),
    )
)
# drawn at --hypothesis-seed=36: a plain sum of v^T A v put the full Poincare
# constants of the two orders 1.2e-14 apart
@example(form=weighted_graph_form(_seed_36_graph()))
def test_shared_order_matches_own_orders_on_random_forms(form):
    assert_shared_order_matches_own_orders(form)


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(
        weighted_graphs().map(weighted_graph_form),
        quadrature_forms(),
        stencil_forms(),
        component_graphs().map(weighted_graph_form),
    )
)
def test_spectral_layer_matches_dense_on_random_graphs(form):
    # the dense oracles scale their thresholds by the matrix: a zero form has none
    assume(form.matrix.diagonal().max() > 0.0)
    basis = nullspace(form)
    off_diagonal = np.abs((form.matrix - np.diag(form.matrix.diagonal())).data)
    assert np.all((off_diagonal == 0.0) | (off_diagonal >= 1e3 * basis.tolerance))

    assert basis.dimension == dense_kernel_dimension(form, basis.tolerance)
    omega_tol = 1e-9 * max(np.max(form.omega_block.diagonal() / form.mass_omega), 1e-300)
    expected = {
        "friedrichs": dense_gap_constant(form.omega_block, form.mass_omega, 0, omega_tol),
        "full": dense_gap_constant(form.matrix, form.mass_diag, basis.dimension, basis.tolerance),
        "omega": dense_omega_constant(form),
    }
    reports = {
        "friedrichs": friedrichs_constant(form),
        "full": poincare_constant(form, basis, variant="full"),
        "omega": poincare_constant(form, basis, variant="omega"),
    }
    for name, report in reports.items():
        assert report.constant == pytest.approx(expected[name], rel=1e-8, abs=1e-300), name
    for variant in ("full", "omega"):
        assert poincare_constant(form, basis, variant=variant).constant == reports[variant].constant


@pytest.mark.parametrize(
    "build, components",
    [
        (lambda: square_setup(1.0 / 8.0)[1], 1),
        (lambda: quadrature_square_form(20), 1),
        (lambda: random_graph_form(np.random.default_rng(0), 10, 0.5, pieces=2), 2),
    ],
    ids=["stencil", "quadrature", "two-component graph"],
)
def test_witnesses_attain_their_eigenvalues(build, components):
    """Each report's witness w is its extremal function: B(w, w) over the
    report's squared mass norm of w gives its eigenvalue.  The Friedrichs
    witness vanishes on the boundary; the full witness is mass-orthogonal to
    every spanned component; the Omega witness is interior-mass-orthogonal to
    them and extends its interior values by the energy minimizer, so
    (A w)_y = 0 on every coupled boundary node."""
    form = build()
    m = form.domain.m
    basis = nullspace(form)
    assert basis.dimension == components
    interior = np.r_[form.mass_omega, np.zeros(form.domain.l)]

    def assert_quotient(report, masses):
        w = report.witness
        assert bilinear(form, w, w) / (w * w @ masses) == pytest.approx(report.eigenvalue, rel=1e-12)

    def assert_orthogonal(w, masses):
        pairing = np.abs(basis._sums(masses * w))
        assert np.all(pairing <= 1e-12 * np.sqrt(basis._sums(masses) * (w * w @ masses)))

    friedrichs = friedrichs_constant(form)
    assert np.isfinite(friedrichs.constant)
    assert_quotient(friedrichs, interior)
    assert np.all(friedrichs.witness[m:] == 0.0)

    full = poincare_constant(form, basis, variant="full")
    assert_quotient(full, form.mass_diag)
    assert_orthogonal(full.witness, form.mass_diag)

    omega = poincare_constant(form, basis, variant="omega")
    assert_quotient(omega, interior)
    assert_orthogonal(omega.witness, interior)
    coupled = m + np.flatnonzero(form.matrix.diagonal()[m:] > 0.0)
    scale = abs(form.matrix) @ np.abs(omega.witness)
    assert np.all(np.abs((form.matrix @ omega.witness)[coupled]) <= 1e-12 * scale[coupled])


def test_component_graphs_reach_both_eigensolver_paths():
    """Deflated by its components, the full pencil of a many-piece form has
    n - k free dimensions: some forms leave at most two (dense eigh) and some
    leave three or more across two or more components (shift-invert Lanczos)."""
    dimensions = component_graphs().map(weighted_graph_form).map(
        lambda form: (form.n - nullspace(form).dimension, nullspace(form).dimension)
    )
    find(dimensions, lambda pair: pair[0] <= 2 and pair[1] >= 2)
    find(dimensions, lambda pair: pair[0] >= 3 and pair[1] >= 2)


@settings(max_examples=100, deadline=None)
@given(st.one_of(weighted_graphs().map(weighted_graph_form), quadrature_forms(), stencil_forms()))
def test_kron_complement_is_exactly_symmetric(form):
    """Entries (a, c) and (c, a) of S = A_oo - Y Y^T sum the same products in
    the same order, so the Poincare-omega pencil passes the eigensolver's
    exact-symmetry check whatever the masses."""
    pencils = []
    solve = nlbvp.linalg.smallest_eigenpairs

    def capture(matrix, *args, **kwargs):
        pencils.append(matrix)
        return solve(matrix, *args, **kwargs)

    with mock.patch.object(nlbvp.linalg, "smallest_eigenpairs", capture):
        poincare_constant(form, nullspace(form), variant="omega")
    (schur,) = pencils
    assert (schur - schur.T).nnz == 0


# -- metamorphic relations: relabelling and disjoint union ------------------------


def family_setups():
    """(kernel, measure, domain) of a weighted graph, a quadrature kernel or a
    stencil kernel, as the form strategies draw them."""
    return st.one_of(
        weighted_graphs().map(weighted_graph_setup), quadrature_setups(), stencil_setups()
    )


def kernel_form(matrix, points, masses, omega):
    """The form of the kernel with this CSR matrix on these nodes and masses."""
    measure = AtomicMeasure(points, masses)
    kernel = TransitionKernel(matrix)
    return assemble_form(kernel, measure, nonlocal_boundary(kernel, omega, measure))


def assert_constants_within_1e14(constants, expected):
    for name, value, reference in zip(("friedrichs", "omega", "full"), constants, expected):
        assert value == reference or abs(value - reference) <= 1e-14 * abs(reference), name


@st.composite
def relabellings(draw):
    """A `family_setups` draw and a permutation of its node ids: new node k
    is old node order[k]."""
    setup = draw(family_setups())
    return setup, np.array(draw(st.permutations(range(len(setup[1])))))


def unit_mass_graph(weights, omega):
    """`weighted_graph_setup` of the graph with these {(i, j): w} links and unit masses."""
    n = 1 + max(max(pair) for pair in weights)
    matrix = np.zeros((n, n))
    for (i, j), w in weights.items():
        matrix[i, j] = matrix[j, i] = w
    return weighted_graph_setup((matrix, np.ones(n), omega))


@pytest.mark.xfail(
    strict=True,
    reason="the Rayleigh numerator's row sums and the Kron complement's diagonal cancel "
    "in an order that follows the node ids (CHANGES.md, FOUND)",
)
@settings(max_examples=100, deadline=None)
@given(relabellings())
# the full and Omega constants of the path 0 - 2 - 1 (weights 1e-3, 1) move by 1.2e-14
# when nodes 1 and 2 swap: row 2's sum 1.001 - 1 - 0.001 rounds to -1.1e-16, not 0
@example(case=(unit_mass_graph({(0, 2): 1e-3, (1, 2): 1.0}, [0, 1, 2]), np.array([0, 2, 1])))
# the Omega constant moves by 1.5e-14: S_00 = 2.1875 - (1 + 1 + 0.18) cancels 300-fold,
# and the boundary products are summed in another order
@example(
    case=(
        unit_mass_graph({(0, 1): 1.0, (0, 2): 1.0, (0, 3): 0.1875, (3, 4): 0.0078125}, [0, 4]),
        np.array([0, 1, 3, 2, 4]),
    )
)
def test_relabelling_moves_no_constant(case):
    """Renumbering the nodes by a random permutation gives the same form up
    to a symmetric permutation: its nullspace dimension is the same, and no
    constant moves by more than 1e-14 relative.  Fails today on the pinned
    examples; once it passes, strict xfail fails and the mark comes off."""
    (kernel, measure, domain), order = case
    form = assemble_form(kernel, measure, domain)
    assume(couplings_separated(form))
    relabelled = kernel_form(
        kernel.matrix[order][:, order],
        measure.points[order],
        measure.masses[order],
        np.argsort(order)[domain.omega],
    )
    assert nullspace(relabelled).dimension == nullspace(form).dimension
    assert_constants_within_1e14(pencil_constants(relabelled), pencil_constants(form))


@settings(max_examples=100, deadline=None)
@given(family_setups(), family_setups(), st.booleans())
def test_disjoint_union_adds_nullspaces_and_keeps_the_larger_constants(first, second, twin):
    """A form joined with a disjoint copy of another (or of itself, which
    makes every eigenvalue double) has block pencils: the nullspace
    dimensions add, and each constant is the larger part's within 1e-14
    relative.  The union's tolerances are the larger of the parts', so a
    part's eigenvalue is judged against them: at or below, its constant is
    +inf in the union.  Lanczos stops on a Ritz residual of EIGEN_TOL, which
    pins the Ritz value to rounding only when the next eigenvalue is at least
    about 1e-4 away (README, Kato-Temple), so the parts' eigenvalues are
    equal or that far apart; two parts 1e-10 apart gave a union constant
    between theirs."""
    parts = [first, first if twin else second]
    sizes = [len(measure) for _, measure, _ in parts]
    union = kernel_form(
        sp.block_diag([kernel.matrix for kernel, _, _ in parts], format="csr"),
        np.arange(sum(sizes), dtype=float)[:, None],
        np.concatenate([measure.masses for _, measure, _ in parts]),
        np.concatenate([parts[0][2].omega, sizes[0] + parts[1][2].omega]),
    )
    assume(couplings_separated(union))
    basis = nullspace(union)
    forms = [assemble_form(*part) for part in parts]
    assert basis.dimension == sum(nullspace(form).dimension for form in forms)
    reports = [
        [friedrichs_constant(form)]
        + [poincare_constant(form, nullspace(form), variant) for variant in ("omega", "full")]
        for form in forms
    ]
    for a, b in zip(*reports):
        gap = abs(a.eigenvalue - b.eigenvalue)
        assume(a.constant == b.constant or gap >= 1e-4 * max(a.eigenvalue, b.eigenvalue))
    tolerances = [interior_tol(union), basis.tolerance, basis.tolerance]
    expected = [
        max(np.inf if report.eigenvalue <= tolerance else report.constant for report in pair)
        for pair, tolerance in zip(zip(*reports), tolerances)
    ]
    assert_constants_within_1e14(pencil_constants(union), expected)


# -- strong Poincare check ---------------------------------------------------------


def test_strong_poincare_check_cases():
    _, form = interval_setup(0.25)
    assert strong_poincare_check(nullspace(form)) is True
    _, _, _, interleaved_form = interleaved_setup()
    assert strong_poincare_check(nullspace(interleaved_form)) is False
    measure = AtomicMeasure([[0.0], [1.0]])
    kernel = TransitionKernel([[], []])
    domain = nonlocal_boundary(kernel, [0, 1], measure)
    zero_form = assemble_form(kernel, measure, domain)
    assert strong_poincare_check(nullspace(zero_form, tol=1e-12)) is False


# -- trace weights ------------------------------------------------------------------


def test_trace_weight_sufficient_example():
    _, kernel, domain, _ = three_node_setup()
    weight = trace_weight(kernel, domain, variant="sufficient")
    assert_allclose(weight.values, [4.0, 4.0])


def test_trace_weight_positive_on_gamma():
    grid, _ = square_setup(0.25)
    weight = trace_weight(grid.kernel, grid.domain, variant="sufficient")
    assert np.all(weight.values > 0.0)


def test_trace_weight_necessary_monotone_in_c():
    grid, _ = interval_setup(0.25)
    previous = None
    for c in (0.5, 1.0, 10.0, 1e6):
        weight = trace_weight(grid.kernel, grid.domain, variant="necessary", c=c)
        assert np.all(weight.values > 0.0)
        if previous is not None:
            assert np.all(weight.values < previous)
        previous = weight.values
    assert np.all(previous < 1e-4)


def test_trace_weight_requires_positive_c():
    grid, _ = interval_setup(0.25)
    with pytest.raises(NonPositiveC):
        trace_weight(grid.kernel, grid.domain, variant="necessary", c=0.0)


# -- compatibility and functional checks ----------------------------------------------


def test_compatibility_defect_interval():
    grid, form = interval_setup(0.25)
    basis = nullspace(form)
    f = np.ones(grid.m)
    defect = compatibility_defect(f, np.zeros(grid.l), basis)
    assert defect == pytest.approx(3.0 / np.sqrt(5.0), rel=1e-10)


def test_compatibility_defect_zero_data():
    grid, form = interval_setup(0.25)
    basis = nullspace(form)
    assert compatibility_defect(np.zeros(grid.m), np.zeros(grid.l), basis) == 0.0


def test_continuous_functional_example():
    measure, kernel, domain, _ = three_node_setup()
    weight = trace_weight(kernel, domain, variant="sufficient")
    record = continuous_functional_check(np.array([1.0, 1.0]), weight, measure)
    assert record.weighted_sum == pytest.approx(0.5)
    assert record.min_weight == 4.0
    assert record.ill_conditioned is False


def test_continuous_functional_flags_tiny_weight():
    measure, kernel, domain, _ = three_node_setup()
    weight = trace_weight(kernel, domain, variant="sufficient")
    weight.values[0] = 1e-15
    record = continuous_functional_check(np.zeros(2), weight, measure)
    assert record.ill_conditioned is True
    assert record.weighted_sum == 0.0


def test_continuous_functional_on_empty_gamma():
    measure = AtomicMeasure([[0.0], [1.0]])
    kernel = TransitionKernel([[], []])
    weight = trace_weight(kernel, nonlocal_boundary(kernel, [0], measure), variant="sufficient")
    record = continuous_functional_check(np.zeros(0), weight, measure)
    assert (record.weighted_sum, record.min_weight, record.ill_conditioned) == (0.0, np.inf, False)


# -- maximum principle ---------------------------------------------------------------


def test_max_principle_constant_function():
    _, _, domain, form = three_node_setup()
    assert max_principle_check(np.ones(3), domain) is True


def test_max_principle_derived_solution():
    # interior values of the f = -1 solve with boundary data (0, 1)
    _, domain, form = None, None, None
    grid, form = interval_setup(0.25)
    u = np.array([5.0 / 32.0, 3.0 / 8.0, 21.0 / 32.0, 0.0, 1.0])
    assert max_principle_check(u, grid.domain) is True
    flipped = u.copy()
    flipped[1] = 2.0
    assert max_principle_check(flipped, grid.domain) is False


def test_max_principle_empty_gamma():
    measure = AtomicMeasure([[0.0], [1.0]])
    kernel = TransitionKernel([[], []])
    domain = nonlocal_boundary(kernel, [0, 1], measure)
    form = assemble_form(kernel, measure, domain)
    with pytest.raises(EmptyGamma):
        max_principle_check(np.zeros(2), domain)


# -- chain criterion -----------------------------------------------------------------


def test_friedrichs_chain_on_interval():
    grid, _ = interval_setup(0.25)
    omega = grid.domain.omega
    # peel inward from the boundary: {1/4, 3/4} reach the boundary, {1/2} reaches them
    chain = [[omega[0], omega[2]], [omega[1]]]
    assert friedrichs_chain_holds(grid.kernel, grid.domain, chain) is True
    # wrong order: the interior cell cannot reach the boundary directly
    assert friedrichs_chain_holds(
        grid.kernel, grid.domain, [[omega[1]], [omega[0], omega[2]]]
    ) is False


def test_friedrichs_chain_rejects_bad_partition():
    grid, _ = interval_setup(0.25)
    omega = grid.domain.omega
    with pytest.raises(ValueError):
        friedrichs_chain_holds(grid.kernel, grid.domain, [[omega[0]]])
    with pytest.raises(ValueError):
        friedrichs_chain_holds(grid.kernel, grid.domain, [list(omega), [omega[0]]])


def test_friedrichs_chain_refuses_non_integer_ids():
    grid, _ = interval_setup(0.25)
    assert grid.domain.omega.tolist() == [1, 2, 3]
    with pytest.raises(ValueError, match=r"node id 1\.5 is not an integer"):
        friedrichs_chain_holds(grid.kernel, grid.domain, [[1.5, 3], [2]])
    assert friedrichs_chain_holds(grid.kernel, grid.domain, [[1.0, 3], [2]]) is True


# -- invariants ----------------------------------------------------------------------


def test_energy_invariant_under_kernel_shift(rng):
    _, _, _, form = interleaved_setup()
    basis = nullspace(form)
    for _ in range(10):
        u = rng.standard_normal(form.n)
        shifted = project_out_kernel(u, basis)
        assert bilinear(form, shifted, shifted) == pytest.approx(
            bilinear(form, u, u), rel=1e-10
        )


@pytest.mark.parametrize("reach, weak", [(1e-13, False), (1e-15, True)])
def test_trace_weight_flag_agrees_with_weak_gamma(reach, weak):
    """One threshold decides a near-zero trace weight: node 1 reaches the
    interior with weight `reach` only, and `weak_gamma` and
    `continuous_functional_check` give it the same verdict."""
    kernel = TransitionKernel([[(1, reach)], [(0, reach)]])
    measure = AtomicMeasure([[0.0], [1.0]])
    domain = nonlocal_boundary(kernel, [0], measure)
    weight = trace_weight(kernel, domain, variant="sufficient")
    record = continuous_functional_check(np.ones(1), weight, measure)
    assert record.min_weight == reach
    assert record.ill_conditioned is weak
    assert (list(domain.weak_gamma) == [1]) is weak
