"""Deterministic CG and inverse-iteration building blocks."""

import re
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from nlbvp import analysis, assemble_form, unit_cube_grid
from nlbvp.errors import EigensolverFailure, NoConvergence
from nlbvp.fileio import load_document
from nlbvp.linalg import conjugate_gradient, fill_reducing_order, smallest_eigenpairs


def random_spd(n, rng):
    a = rng.standard_normal((n, n))
    return sp.csr_matrix(a @ a.T + n * np.eye(n))


def test_cg_matches_direct_solve(rng):
    a = random_spd(30, rng)
    b = rng.standard_normal(30)
    x, relres, _ = conjugate_gradient(a, b, tol=1e-13)
    assert relres <= 1e-13
    assert_allclose(x, np.linalg.solve(a.toarray(), b), rtol=1e-9, atol=1e-10)


def test_cg_zero_rhs():
    a = sp.identity(5, format="csr")
    x, relres, iters = conjugate_gradient(a, np.zeros(5))
    assert_allclose(x, np.zeros(5))
    assert iters == 0


def test_cg_iteration_cap(rng):
    a = random_spd(30, rng)
    b = rng.standard_normal(30)
    with pytest.raises(NoConvergence):
        conjugate_gradient(a, b, tol=1e-13, maxiter=2)
    with pytest.raises(NoConvergence, match=r"3 iterations on a size-30 system"):
        conjugate_gradient(a, b, tol=1e-13, maxiter=3)
    with pytest.raises(NoConvergence, match=r"breakdown at iteration 1 on a size-30 system"):
        conjugate_gradient(-a, b, maxiter=3)


def test_cg_stops_when_the_residual_stagnates(rng):
    """Below the attainable accuracy the true residual stops falling; the
    loop gives up after four refreshes without a decrease instead of
    running to the iteration cap of 1,000."""
    a = random_spd(30, rng)
    b = rng.standard_normal(30)
    with pytest.raises(NoConvergence, match=r"stagnated at iteration (\d+) on a size-30") as info:
        conjugate_gradient(a, b, tol=1e-18)
    assert int(re.search(r"iteration (\d+)", str(info.value)).group(1)) < 300
    assert "tol 1e-18" in str(info.value)


def test_cg_scales_away_a_spread_diagonal():
    """Jacobi preconditioning solves a diagonal system whose entries span
    1e-6 to 1 in one iteration; plain CG needs one per distinct entry."""
    diag = np.logspace(-6.0, 0.0, 40)
    b = np.linspace(1.0, 2.0, 40)
    x, relres, iters = conjugate_gradient(sp.diags(diag).tocsr(), b)
    assert iters == 1
    assert relres <= 1e-12
    assert_allclose(x, b / diag, rtol=1e-14)


def test_cg_iterates_scale_by_powers_of_two(rng):
    """CG runs on the load scaled by the power of two that puts its largest
    entry in [1/2, 1): the iterate for b 2^k is 2^k times the iterate for b,
    bit for bit, for loads of norm 1e-301 to 1e302.  Unscaled, p.Ap underflows
    at a load of norm about 1e-158, ||b|| underflows to 0 below about 1e-162,
    and it overflows above about 1e154."""
    a = random_spd(8, rng)
    b = rng.standard_normal(8)
    x0 = rng.standard_normal(8)
    x, relres, iters = conjugate_gradient(a, b, x0=x0)
    for k in (-1000, -540, -525, -200, -1, 1, 200, 520, 1000):
        scaled, scaled_relres, scaled_iters = conjugate_gradient(a, np.ldexp(b, k), x0=np.ldexp(x0, k))
        assert np.array_equal(scaled, np.ldexp(x, k)), k
        assert (scaled_relres, scaled_iters) == (relres, iters), k


def square_constants(k):
    """The Friedrichs, full and Omega Poincare constants of the 17 x 17 stencil
    document on the unit square (h = 1/16, the open square as Omega), its
    coordinates and h times 2^k."""
    n = 16
    nodes = [[np.ldexp(i / n, k), np.ldexp(j / n, k)] for i in range(n + 1) for j in range(n + 1)]
    doc = load_document(
        {
            "family": "stencil",
            "dimension": 2,
            "h": np.ldexp(1 / n, k),
            "nodes": nodes,
            "omega": [i * (n + 1) + j for i in range(1, n) for j in range(1, n)],
        }
    )
    form = assemble_form(doc.kernel, doc.measure, doc.domain)
    basis = analysis.nullspace(form)
    return [
        analysis.friedrichs_constant(form).constant,
        analysis.poincare_constant(form, basis, "full").constant,
        analysis.poincare_constant(form, basis, "omega").constant,
    ]


@pytest.mark.parametrize("k", [-250, -200, -60, -20, 60, 100, 200, 250])
def test_eigensolver_constants_scale_by_powers_of_four(k):
    """The eigensolver runs its pencil at unit scale, as CG runs its load:
    with coordinates and h times 2^k every constant is 4^k times its value,
    bit for bit.  An absolute shift floor swamped every eigenvalue at k = 100,
    and an unscaled pencil stopped ARPACK early, on its absolute convergence
    floor, for k from -60 down."""
    base = square_constants(0)
    assert square_constants(k) == [np.ldexp(c, 2 * k) for c in base]


def test_cg_is_deterministic(rng):
    a = random_spd(25, rng)
    b = rng.standard_normal(25)
    x1, _, _ = conjugate_gradient(a, b)
    x2, _, _ = conjugate_gradient(a, b)
    assert np.array_equal(x1, x2)


def test_smallest_eigenpairs_refuse_an_asymmetric_pencil(rng):
    a = random_spd(20, rng).tolil()
    a[3, 7] = a[3, 7] * (1.0 + 2.0**-52)  # one ulp off its transpose
    with pytest.raises(EigensolverFailure, match="size-20 pencil is not exactly symmetric"):
        smallest_eigenpairs(a.tocsr(), np.ones(20))


@st.composite
def deflated_pencils(draw):
    """A weighted graph Laplacian in 1-4 connected components of 1-6 nodes
    (a path plus random edges), random masses, and the labels of the
    components it deflates.  Each component left free also carries a
    positive diagonal, so the smallest eigenvalue on the complement of the
    deflated ones is positive; free = n - (deflated components) runs from 0
    (deflated single nodes only) up, on both sides of the dense path's
    free <= 2."""
    sizes = draw(st.lists(st.one_of(st.just(1), st.integers(1, 6)), min_size=1, max_size=4))
    deflated = draw(st.lists(st.booleans(), min_size=len(sizes), max_size=len(sizes)))
    reals = st.floats(0.1, 1.0)
    blocks = []
    for size, deflate in zip(sizes, deflated):
        weights = np.triu(draw(arrays(float, (size, size), elements=reals)), 1)
        extra = np.triu(draw(arrays(bool, (size, size))), 2)
        weights *= extra + np.eye(size, k=1)  # the path keeps the component connected
        weights += weights.T
        diagonal = 0.0 if deflate else draw(arrays(float, size, elements=reals))
        blocks.append(np.diag(weights.sum(axis=1) + diagonal) - weights)
    masses = draw(arrays(float, sum(sizes), elements=st.floats(0.25, 4.0)))
    ids = np.repeat(np.arange(len(sizes)), sizes)
    labels = np.where(np.repeat(deflated, sizes), ids, -1)
    return sp.csr_matrix(scipy.linalg.block_diag(*blocks)), masses, labels


@settings(max_examples=200, deadline=None)
@given(deflated_pencils())
def test_smallest_eigenpairs_match_dense(pencil):
    """On the D-orthogonal complement of the deflated components the value
    is dense eigh's eigenvalue above their k zeros, within 1e-8 relative;
    the vector is D-normalized and D-orthogonal to every deflated component.
    With every node deflated the value is inf, the vector zero and nothing
    is factored; the dense path (free <= 2) factors nothing either."""
    a, masses, labels = pencil
    value, vector, inverse, order = smallest_eigenpairs(a, masses, deflate=labels)
    deflated = np.unique(labels[labels >= 0])
    free = a.shape[0] - deflated.size
    if free == 0:
        assert value == np.inf and not vector.any() and inverse is None and order is None
        return
    dense = scipy.linalg.eigh(a.toarray(), np.diag(masses), eigvals_only=True)
    assert value == pytest.approx(dense[deflated.size], rel=1e-8, abs=0.0)
    assert vector @ (masses * vector) == pytest.approx(1.0, rel=1e-10, abs=0.0)
    assert_allclose(np.bincount(labels + 1, masses * vector)[deflated + 1], 0.0, atol=1e-12)
    assert (inverse is None) == (order is None) == (free <= 2)


def test_smallest_eigenpairs_match_dense_on_a_random_spd_pencil(rng):
    """A dense SPD pencil, its off-diagonal entries of both signs: the value
    is dense eigh's smallest eigenvalue and the vector is D-normalized."""
    a = random_spd(20, rng)
    masses = rng.uniform(0.5, 2.0, size=20)
    value, vector, _, _ = smallest_eigenpairs(a, masses)
    dense = scipy.linalg.eigh(a.toarray(), np.diag(masses), eigvals_only=True)
    assert value == pytest.approx(dense[0], rel=1e-8)
    assert vector @ (masses * vector) == pytest.approx(1.0, rel=1e-10)


def test_smallest_eigenpairs_with_deflation(rng):
    """Deflating the component labels of a Laplacian in 2-3 pieces, with random
    weights and masses, leaves the eigenvalue above its kernel, as dense eigh
    finds it: on the Lanczos path (5-6 nodes a piece) and on the dense one
    (pieces of 1-2 nodes, one free dimension)."""
    for sizes in ((5, 6), (4, 6, 5), (1, 2, 1)):
        blocks = []
        for size in sizes:
            weights = np.triu(rng.uniform(0.1, 1.0, (size, size)), 1)
            weights += weights.T
            blocks.append(np.diag(weights.sum(axis=1)) - weights)
        a = sp.csr_matrix(scipy.linalg.block_diag(*blocks))
        masses = rng.uniform(0.5, 2.0, size=a.shape[0])
        labels = np.repeat(np.arange(len(sizes)), sizes)
        value, vector, _, _ = smallest_eigenpairs(a, masses, deflate=labels)
        dense = scipy.linalg.eigh(a.toarray(), np.diag(masses), eigvals_only=True)
        assert value == pytest.approx(dense[len(sizes)], rel=1e-8)
        assert_allclose(np.bincount(labels, masses * vector), 0.0, atol=1e-12)


def test_smallest_eigenpairs_agree_across_elimination_orders():
    """A Laplacian with one weak link has its smallest eigenvalue far below
    ||D^{-1} A||, where a plain sum of v^T A v loses digits: the values from
    the pencil's own order and from the reversed one agree within 1e-15
    relative, and with the exact Rayleigh quotient of either vector."""
    weights = {(0, 3): 1.0, (0, 2): 2.0**-8, (2, 4): 0.6875, (2, 5): 0.5}
    a = sp.lil_matrix((6, 6))
    for (i, j), w in weights.items():
        a[i, j] = a[j, i] = -w
        a[i, i] += w
        a[j, j] += w
    a = a.tocsr()
    masses = np.array([1.5, 1.0, 1.0, 1.0, 0.5, 1.0])
    labels = np.array([0, 1, 0, 0, 0, 0])
    own = smallest_eigenpairs(a, masses, deflate=labels)
    reversed_ = smallest_eigenpairs(a, masses, deflate=labels, order=own[3][::-1])
    for value, vector, _, _ in (own, reversed_):
        exact = [Fraction(x) for x in vector]
        energy = sum(exact[i] * Fraction(a[i, j]) * exact[j] for i, j in zip(*a.nonzero()))
        norm = sum(x * x * Fraction(m) for x, m in zip(exact, masses))
        assert value == pytest.approx(float(energy / norm), rel=1e-15, abs=0.0)
    assert reversed_[0] == pytest.approx(own[0], rel=1e-15, abs=0.0)


def test_smallest_eigenpairs_singular_matrix():
    # path Laplacian: eigenvalue 0 with constant eigenvector; deflating the
    # constants leaves the next eigenvalue, 1, on the dense path (free = 2)
    lap = sp.csr_matrix(
        np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
    )
    value, vector, _, _ = smallest_eigenpairs(lap, np.ones(3))
    assert abs(value) <= 1e-12
    assert vector.max() - vector.min() <= 1e-9
    value, vector, inverse, _ = smallest_eigenpairs(lap, np.ones(3), deflate=np.zeros(3, dtype=int))
    assert value == pytest.approx(1.0, rel=1e-9)
    assert abs(vector.sum()) <= 1e-12 and inverse is None


def test_smallest_eigenpairs_zero_matrix():
    zero = sp.csr_matrix((4, 4))
    value, vector, _, _ = smallest_eigenpairs(zero, np.ones(4))
    assert value == 0.0
    assert vector @ vector == pytest.approx(1.0, rel=1e-10)


def test_smallest_eigenpairs_take_and_return_an_elimination_order(rng):
    """A sparse pencil factored in a given order gives the eigenpair and the
    shifted solve of its own MMD order, and returns the order it used."""
    weights = sp.random(60, 60, density=0.08, random_state=rng.integers(2**32))
    weights = sp.triu(weights, 1)
    weights = weights + weights.T
    a = sp.csr_matrix(sp.diags(np.asarray(weights.sum(axis=1)).ravel() + 0.1) - weights)
    masses = rng.uniform(0.5, 2.0, size=60)
    value, _, inverse, own = smallest_eigenpairs(a, masses)
    assert np.array_equal(np.sort(own), np.arange(60))
    r = rng.standard_normal(60)
    solved = inverse(r)
    for order in (own, own[::-1], rng.permutation(60)):
        given_value, _, given_inverse, used = smallest_eigenpairs(a, masses, order=order)
        assert used is order
        assert given_value == pytest.approx(value, rel=1e-13, abs=0.0)
        assert_allclose(given_inverse(r), solved, rtol=1e-10, atol=1e-12 * np.abs(solved).max())
    # the dense path factors nothing and uses no order
    _, _, inverse, order = smallest_eigenpairs(a[:2, :2], masses[:2])
    assert inverse is None and order is None


@st.composite
def symmetric_patterns(draw):
    """A symmetric pattern on 1-40 nodes split into up to four pieces with no
    entry between them, each diagonal entry present or not, so that some rows
    hold their diagonal entry only, or nothing."""
    n = draw(st.integers(1, 40))
    piece = draw(arrays(np.int64, n, elements=st.integers(0, 3)))
    upper = np.triu(draw(arrays(bool, (n, n))), 1) & (piece[:, None] == piece)
    return sp.csr_matrix((upper | upper.T | np.diag(draw(arrays(bool, n)))).astype(float))


_CUBE = unit_cube_grid(3, 1.0 / 8.0)
_CUBE_FORM = assemble_form(_CUBE.kernel, _CUBE.measure, _CUBE.domain)


@settings(max_examples=200, deadline=None)
@given(symmetric_patterns())
@example(_CUBE_FORM.omega_block)  # the Friedrichs pencil of the d = 3, h = 1/8 grid
@example(_CUBE_FORM.matrix)  # its full pencil
def test_fill_reducing_order_is_the_order_superlu_factors_in(matrix):
    """The order read from the pattern is the one SuperLU's symmetric-mode LU
    eliminates in when it orders a matrix of that pattern plus the diagonal
    itself, as `smallest_eigenpairs` does."""
    shift = abs(matrix).sum(axis=1).max() + 1.0  # B = A + shift I: diagonally dominant
    b = sp.csc_matrix(matrix + shift * sp.identity(matrix.shape[0]))
    factor = scipy.sparse.linalg.splu(
        b, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, options={"SymmetricMode": True}
    )
    assert np.array_equal(fill_reducing_order(matrix), np.argsort(factor.perm_c))
