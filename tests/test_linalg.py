"""Deterministic CG and inverse-iteration building blocks."""

import re

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from numpy.testing import assert_allclose

from nlbvp.errors import EigensolverFailure, NoConvergence
from nlbvp.linalg import conjugate_gradient, smallest_eigenpairs


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
        smallest_eigenpairs(a.tocsr(), np.ones(20), count=1)


def test_smallest_eigenpairs_match_dense(rng):
    a = random_spd(20, rng)
    masses = rng.uniform(0.5, 2.0, size=20)
    vals, vecs = smallest_eigenpairs(a, masses, count=3)
    dense = scipy.linalg.eigh(a.toarray(), np.diag(masses), eigvals_only=True)
    assert_allclose(vals, dense[:3], rtol=1e-8)
    # vectors are mass-orthonormal
    gram = vecs.T @ (masses[:, None] * vecs)
    assert_allclose(gram, np.eye(3), atol=1e-8)


def test_smallest_eigenpairs_with_deflation(rng):
    """Deflating the component labels of a Laplacian in 2-3 pieces, with random
    weights and masses, leaves the eigenvalues above its kernel, as dense eigh
    finds them: on the Lanczos path (5-6 nodes a piece) and on the dense one
    (pieces of 1-2 nodes, one free dimension)."""
    for sizes, count in (((5, 6), 2), ((4, 6, 5), 2), ((1, 2, 1), 1)):
        blocks = []
        for size in sizes:
            weights = np.triu(rng.uniform(0.1, 1.0, (size, size)), 1)
            weights += weights.T
            blocks.append(np.diag(weights.sum(axis=1)) - weights)
        a = sp.csr_matrix(scipy.linalg.block_diag(*blocks))
        masses = rng.uniform(0.5, 2.0, size=a.shape[0])
        labels = np.repeat(np.arange(len(sizes)), sizes)
        vals, vecs = smallest_eigenpairs(a, masses, count=count, deflate=labels)
        dense = scipy.linalg.eigh(a.toarray(), np.diag(masses), eigvals_only=True)
        assert vals == pytest.approx(dense[len(sizes) : len(sizes) + count], rel=1e-8)
        sums = np.array([np.bincount(labels, masses * v) for v in vecs.T])
        assert_allclose(sums, 0.0, atol=1e-12)


def test_smallest_eigenpairs_singular_matrix():
    # path Laplacian: eigenvalue 0 with constant eigenvector
    lap = sp.csr_matrix(
        np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
    )
    vals, vecs = smallest_eigenpairs(lap, np.ones(3), count=2)
    assert abs(vals[0]) <= 1e-12
    assert vals[1] == pytest.approx(1.0, rel=1e-9)
    spread = vecs[:, 0].max() - vecs[:, 0].min()
    assert spread <= 1e-9


def test_smallest_eigenpairs_zero_matrix():
    zero = sp.csr_matrix((4, 4))
    vals, vecs = smallest_eigenpairs(zero, np.ones(4), count=4)
    assert_allclose(vals, np.zeros(4), atol=1e-300)
    gram = vecs.T @ vecs
    assert_allclose(gram, np.eye(4), atol=1e-10)
