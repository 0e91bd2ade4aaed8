"""Form assembly, operator application, and the integration-by-parts identity."""

from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import nlbvp
from nlbvp import (
    AtomicMeasure,
    TransitionKernel,
    apply_L,
    apply_N,
    assemble_form,
    bilinear,
    energy_dirichlet,
    energy_neumann,
    graph_kernel,
    ibp_residual,
    negative_part,
    nonlocal_boundary,
    positive_part,
    quadrature_kernel,
    symmetry_defect,
    v_norm_sq,
)
from nlbvp.errors import (
    AsymmetricKernel,
    DimensionMismatch,
    NodeNotInGamma,
    NodeNotInOmega,
)

from conftest import (
    interval_setup,
    point_clouds,
    quadrature_setups,
    square_setup,
    stencil_setups,
    three_node_setup,
)


def brute_force_bilinear(kernel, measure, domain, u, v):
    """Literal double sum: half over interior pairs, full over coupling pairs."""
    omega = set(domain.omega.tolist())
    total = 0.0
    for x in domain.omega:
        mx = measure.masses[x]
        ux, vx = u[domain.position(x)], v[domain.position(x)]
        for t, w in kernel.entries(int(x)):
            ut, vt = u[domain.position(t)], v[domain.position(t)]
            factor = 0.5 if int(t) in omega else 1.0
            total += factor * mx * w * (ux - ut) * (vx - vt)
    return total


def test_three_node_matrix():
    _, _, _, form = three_node_setup()
    expected = 4.0 * np.array([[2.0, -1.0, -1.0], [-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])
    assert_allclose(form.matrix.toarray(), expected, rtol=0, atol=0)


def test_interval_omega_block_is_scaled_tridiagonal():
    _, form = interval_setup(0.25)
    expected = 16.0 * (np.diag([2.0, 2.0, 2.0]) + np.diag([-1.0, -1.0], 1) + np.diag([-1.0, -1.0], -1))
    assert_allclose(form.omega_block.toarray(), expected, rtol=0, atol=0)


def test_zero_kernel_assembles_zero_matrix():
    measure = AtomicMeasure([[0.0], [1.0], [2.0]])
    kernel = TransitionKernel([[], [], []])
    domain = nonlocal_boundary(kernel, [0, 1, 2], measure)
    form = assemble_form(kernel, measure, domain)
    assert form.matrix.nnz == 0


def test_matrix_exactly_symmetric():
    grid, form = square_setup(0.25)
    diff = form.matrix - form.matrix.T
    assert diff.nnz == 0 or abs(diff).max() == 0.0


def test_matrix_positive_semidefinite():
    grid, form = square_setup(0.25)
    eigs = np.linalg.eigvalsh(form.matrix.toarray())
    assert eigs.min() >= -1e-10 * abs(form.matrix).max()


def test_assembly_rejects_asymmetric_kernel():
    measure = AtomicMeasure([[0.0], [1.0]])
    kernel = TransitionKernel([[(1, 1.0)], []])
    domain = nonlocal_boundary(kernel, [0], measure)
    with pytest.raises(AsymmetricKernel):
        assemble_form(kernel, measure, domain)


def test_assembly_rejects_a_nan_symmetry_defect():
    """Weights of 1e300 against masses of 1e10 overflow W = diag(m) K to inf
    on both sides of every pair, where the defect would be inf - inf = NaN:
    the overflow is refused at its node, and a NaN defect is refused, not
    passed as zero."""
    measure = AtomicMeasure([[0.0], [1.0], [2.0]], np.full(3, 1e10))
    kernel = TransitionKernel([[(1, 1e300)], [(0, 1e300), (2, 1e300)], [(1, 1e300)]])
    domain = nonlocal_boundary(kernel, [1], measure)
    with pytest.raises(ValueError, match="mass-weighted kernel weight overflows at node 0"):
        assemble_form(kernel, measure, domain)
    measure, kernel, domain, _ = three_node_setup()
    with mock.patch.object(nlbvp.assembly, "symmetry_defect", return_value=np.nan):
        with pytest.raises(AsymmetricKernel, match="defect nan"):
            assemble_form(kernel, measure, domain)


def test_bilinear_annihilates_constants():
    _, _, _, form = three_node_setup()
    ones = np.ones(3)
    assert bilinear(form, ones, ones) == 0.0


def test_bilinear_unit_vector():
    _, _, _, form = three_node_setup()
    e0 = np.array([1.0, 0.0, 0.0])
    assert bilinear(form, e0, e0) == 8.0


def test_bilinear_matches_double_sum(rng):
    grid, form = square_setup(0.25)
    for _ in range(5):
        u = rng.standard_normal(grid.domain.n)
        v = rng.standard_normal(grid.domain.n)
        direct = brute_force_bilinear(grid.kernel, grid.measure, grid.domain, u, v)
        assert abs(bilinear(form, u, v) - direct) <= 1e-12 * max(1.0, abs(direct))


def test_bilinear_dimension_mismatch():
    _, _, _, form = three_node_setup()
    with pytest.raises(DimensionMismatch):
        bilinear(form, np.ones(2), np.ones(3))


def test_apply_L_on_polynomials():
    grid, _ = interval_setup(0.25)
    coords = grid.measure.points[grid.domain.order][:, 0]
    linear = coords.copy()
    quadratic = coords**2
    constant = np.ones(grid.domain.n)
    for x in grid.domain.omega:
        assert abs(apply_L(grid.kernel, grid.domain, linear, x)) <= 1e-12
        assert apply_L(grid.kernel, grid.domain, quadratic, x) == pytest.approx(-2.0)
        assert apply_L(grid.kernel, grid.domain, constant, x) == 0.0
    with pytest.raises(NodeNotInOmega):
        apply_L(grid.kernel, grid.domain, linear, grid.domain.gamma[0])


def test_apply_N_examples():
    measure, kernel, domain, _ = three_node_setup()
    u = np.array([1.0, 0.0, 0.0])  # ordering: 1/2, 0, 1
    assert apply_N(kernel, domain, u, 0) == -4.0
    assert apply_N(kernel, domain, np.ones(3), 0) == 0.0
    with pytest.raises(NodeNotInGamma):
        apply_N(kernel, domain, u, 1)


def test_apply_N_is_scaled_backward_difference():
    grid, _ = interval_setup(0.25)
    coords = grid.measure.points[grid.domain.order][:, 0]
    right_end = grid.measure.locate([1.0])
    value = apply_N(grid.kernel, grid.domain, coords, right_end)
    assert value == pytest.approx(1.0 / 0.25)


def test_ibp_identity_constant_test_function(rng):
    grid, form = square_setup(0.25)
    u = rng.standard_normal(grid.domain.n)
    ones = np.ones(grid.domain.n)
    assert ibp_residual(form, grid.kernel, u, ones) <= 1e-12


def test_ibp_zero():
    _, kernel, domain, form = three_node_setup()
    measure = AtomicMeasure([[0.0], [0.5], [1.0]])
    zero = np.zeros(3)
    assert ibp_residual(form, kernel, zero, zero) == 0.0


def test_ibp_random_pairs(rng):
    grid, form = square_setup(0.25)
    worst = 0.0
    for _ in range(100):
        u = rng.standard_normal(grid.domain.n)
        v = rng.standard_normal(grid.domain.n)
        res = ibp_residual(form, grid.kernel, u, v)
        scale = max(1.0, abs(bilinear(form, u, v)))
        worst = max(worst, res / scale)
    assert worst <= 1e-11


def test_energies_vanish_at_zero():
    _, _, _, form = three_node_setup()
    zero = np.zeros(3)
    assert energy_dirichlet(form, np.zeros(1), zero) == 0.0
    assert energy_neumann(form, np.zeros(1), np.zeros(2), zero) == 0.0


def test_neumann_energy_nonnegative_without_load(rng):
    _, _, _, form = three_node_setup()
    for _ in range(10):
        v = rng.standard_normal(3)
        assert energy_neumann(form, np.zeros(1), np.zeros(2), v) >= 0.0


def test_positive_negative_parts():
    u = np.array([1.0, -2.0, 0.0])
    assert_allclose(positive_part(u), [1.0, 0.0, 0.0])
    assert_allclose(negative_part(u), [0.0, 2.0, 0.0])
    assert_allclose(positive_part(u) - negative_part(u), u)


def test_part_energy_inequalities(rng):
    grid, form = square_setup(0.25)
    for _ in range(20):
        u = rng.standard_normal(grid.domain.n)
        up, um = positive_part(u), negative_part(u)
        b_uu = bilinear(form, u, u)
        assert bilinear(form, up, up) <= b_uu + 1e-12
        assert bilinear(form, um, um) <= b_uu + 1e-12
        assert bilinear(form, u, up) >= bilinear(form, up, up) - 1e-12


def test_norm_sandwich(rng):
    grid, form = square_setup(0.25)
    masses = grid.measure.masses[grid.domain.omega]
    for _ in range(20):
        u = rng.standard_normal(grid.domain.n)
        norm_sq = v_norm_sq(grid.kernel, grid.measure, grid.domain, u)
        middle = float(u[: grid.m] ** 2 @ masses) + bilinear(form, u, u)
        assert 0.5 * norm_sq <= middle + 1e-12 * norm_sq
        assert middle <= norm_sq + 1e-12 * norm_sq


# -- kernel layer against brute-force pair loops ------------------------------------


@settings(max_examples=100, deadline=None)
@given(point_clouds())
def test_kernel_layer_matches_pair_loops(cloud):
    points, masses, delta, density, omega, seed = cloud
    n = len(points)
    dist = np.array([[np.linalg.norm(p - q) for q in points] for p in points])
    off_diagonal = dist[~np.eye(n, dtype=bool)]
    assume(off_diagonal.min() > 1e-9)  # distinct nodes
    assume(np.abs(off_diagonal - delta).min() > 1e-9 * delta)  # no pair on the cut-off
    measure = AtomicMeasure(points, masses)
    kernel = quadrature_kernel(density, delta, measure)

    dense = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j and dist[i, j] <= delta:
                dense[i, j] = density(points[i], points[j]) * masses[j]
    assert np.array_equal(kernel.matrix.toarray(), dense)
    for i in range(n):
        assert kernel.entries(i) == [(j, dense[i, j]) for j in np.flatnonzero(dense[i])]

    for matrix in (dense, np.triu(dense) * 2.0):  # the second one is asymmetric
        support = [[(j, w) for j, w in enumerate(row) if w] for row in matrix]
        weights = masses[:, None] * matrix
        expected = float(np.max(np.abs(weights - weights.T)))
        assert symmetry_defect(TransitionKernel(support), measure) == expected

    domain = nonlocal_boundary(kernel, omega, measure)
    outside = np.setdiff1d(np.arange(n), omega)
    assert domain.gamma.tolist() == [y for y in outside if dense[y, omega].sum() > 0.0]
    form = assemble_form(kernel, measure, domain)
    assert (form.matrix - form.matrix.T).nnz == 0
    rng = np.random.default_rng(seed)
    u, v = rng.uniform(-1.0, 1.0, (2, domain.n))
    scale = 1.0 + 4.0 * float(np.sum(masses[:, None] * dense))
    direct = brute_force_bilinear(kernel, measure, domain, u, v)
    assert abs(bilinear(form, u, v) - direct) <= 1e-12 * scale
    assert ibp_residual(form, kernel, u, v) <= 1e-12 * scale


# -- the form against its block formula ------------------------------------------------


def block_formula(kernel, measure, domain):
    """The form matrix by its defining block formula over W = diag(mass) K:
    C = [[(W_oo + W_oo^T) / 2, W_og], [W_og^T, 0]] and A = diag(C 1) - C."""
    interior = (sp.diags(measure.masses) @ kernel.matrix)[domain.omega]
    w_oo, w_og = interior[:, domain.omega], interior[:, domain.gamma]
    coupling = sp.bmat([[0.5 * (w_oo + w_oo.T), w_og], [w_og.T, None]], format="csr")
    return (sp.diags(coupling @ np.ones(domain.n)) - coupling).tocsr()


@st.composite
def graph_setups(draw):
    """(kernel, measure, domain) of `graph_kernel` on a random graph with
    conductances in [1e-3, 10] and no isolated vertex; its W = diag(degree) K
    is symmetric only up to rounding."""
    n = draw(st.integers(2, 12))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    assume(len({v for pair in chosen for v in pair}) == n)
    edges = [(i, j, draw(st.floats(1e-3, 10.0))) for i, j in chosen]
    kernel, measure = graph_kernel(edges)
    omega = draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True))
    return kernel, measure, nonlocal_boundary(kernel, omega, measure)


@settings(max_examples=200, deadline=None)
@given(st.one_of(graph_setups(), quadrature_setups(), stencil_setups()))
def test_form_matches_block_formula_and_is_semidefinite(setup):
    kernel, measure, domain = setup
    form = assemble_form(kernel, measure, domain)
    expected = block_formula(kernel, measure, domain)
    for name in ("indptr", "indices", "data"):
        assert_array_equal(getattr(form.matrix, name), getattr(expected, name))
        assert getattr(form.matrix, name).dtype == getattr(expected, name).dtype
    matrix = form.matrix.toarray()
    norm = np.abs(matrix).sum(axis=1).max()
    assert np.linalg.eigvalsh(matrix)[0] >= -1e-12 * norm
