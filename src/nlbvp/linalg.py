"""Deterministic linear algebra used by the solvers and diagnostics.

Two workhorses live here:

* a preconditioned conjugate-gradient loop for symmetric positive definite
  systems, stopped on the unpreconditioned residual and run on the load
  scaled by a power of two to a largest entry in [1/2, 1), which changes no
  iterate but its exponent.  The preconditioner is the matrix's own diagonal
  (Jacobi) unless the caller passes one, such as the shifted factor an
  eigensolve leaves behind;
* the package's one eigensolver, for the smallest eigenpair of the
  generalized symmetric problem A v = lambda D v with diagonal positive D:
  one sparse LU factorization per call of the pencil, scaled and shifted on
  its CSR arrays, for ARPACK's shift-invert Lanczos, deflated by a component
  labelling in one `bincount`.  The LU eliminates in a multiple minimum
  degree (MMD) order of the pencil's own pattern, or in an order the caller
  hands in, such as the one `fill_reducing_order` reads from a pattern
  without factoring, and is handed back with that order as the solve of the
  shifted pencil A + s D, a preconditioner for A.

Everything is deterministic: fixed start vectors, no randomized restarts.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import EigensolverFailure, NoConvergence

# CG recomputes its true residual every REFRESH iterations and gives up when
# STALL_REFRESHES refreshes in a row bring no decrease
REFRESH = 50
STALL_REFRESHES = 4
# relative Ritz residual at which shift-invert Lanczos stops
EIGEN_TOL = 1e-10


def conjugate_gradient(matrix, rhs, tol=1e-12, x0=None, maxiter=None, preconditioner=None):
    """Solve matrix @ x = rhs by preconditioned CG, stopping on rhs - matrix x.

    Parameters
    ----------
    matrix : sparse matrix, symmetric positive definite
    rhs : ndarray
        Scaled with x0 by the power of two that puts its largest entry in
        [1/2, 1), so that no norm or product over- or underflows.
    tol : float
        Accept when ||rhs - matrix x|| <= tol * ||rhs|| (true residual).  When
        rounding keeps the true residual above that while the recurrence
        residual has reached it (the attainable-accuracy gap of fine grids),
        accept instead when the normwise backward error is at most tol:
        ||rhs - matrix x||_inf <= tol (||matrix||_inf ||x||_inf + ||rhs||_inf).
    x0 : ndarray, optional
        Start vector, zeros by default.
    maxiter : int, optional
        Iteration cap, default max(1000, 10 n).  The loop also stops when
        the true residual, recomputed every REFRESH iterations, has not
        decreased over STALL_REFRESHES refreshes in a row.
    preconditioner : callable, optional
        z = preconditioner(r), a symmetric positive definite approximation of
        matrix^{-1} applied to r.  By default z = D^{-1} r with D the
        diagonal of the matrix, positive since the matrix is, written in
        place.  Every stopping rule reads the unpreconditioned residual
        whichever preconditioner runs.

    Returns
    -------
    (x, relative_residual, iterations)
        relative_residual is ||rhs - matrix x|| / ||rhs||, which exceeds tol
        when the iterate was accepted by its backward error.
    """
    n = rhs.shape[0]
    if maxiter is None:
        maxiter = max(1000, 10 * n)
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
    if not np.any(rhs):
        return np.zeros(n), 0.0, 0
    exponent = np.frexp(np.max(np.abs(rhs)))[1]
    rhs, x = np.ldexp(rhs, -exponent), np.ldexp(x, -exponent)
    rhs_norm = float(np.linalg.norm(rhs))
    matrix_norm = None

    def accepted(x):
        """The true residual of x and whether x meets either stopping rule."""
        nonlocal matrix_norm
        residual = rhs - matrix @ x
        true_res = float(np.linalg.norm(residual))
        if true_res <= tol * rhs_norm:
            return true_res, True
        if matrix_norm is None:
            matrix_norm = float(abs(matrix).sum(axis=1).max())
        floor = tol * (matrix_norm * np.max(np.abs(x)) + np.max(np.abs(rhs)))
        return true_res, bool(np.max(np.abs(residual)) <= floor)

    if preconditioner is None:
        weight = 1.0 / matrix.diagonal()  # z = D^{-1} r
        buffer = np.empty(n)

        def preconditioner(r):
            return np.multiply(weight, r, out=buffer)

    r = rhs - matrix @ x
    z = preconditioner(r)
    p = z.copy()
    rz = float(r @ z)
    best, stalls = np.inf, 0
    for k in range(1, maxiter + 1):
        if np.sqrt(r @ r) <= tol * rhs_norm:
            true_res, done = accepted(x)
            if done:
                return np.ldexp(x, exponent), true_res / rhs_norm, k - 1
        ap = matrix @ p
        pap = float(p @ ap)
        if pap <= 0.0:
            # either a genuinely indefinite system or rounding at the
            # attainable floor; accept the iterate when it already qualifies
            true_res, done = accepted(x)
            if done:
                return np.ldexp(x, exponent), true_res / rhs_norm, k - 1
            raise NoConvergence(
                f"CG breakdown at iteration {k} on a size-{n} system: matrix is not "
                "positive definite on the search space"
            )
        alpha = rz / pap
        x = x + alpha * p
        r = r - alpha * ap
        if k % REFRESH == 0:
            r = rhs - matrix @ x
            true_res = float(np.linalg.norm(r))
            if true_res < best:
                best, stalls = true_res, 0
            else:
                stalls += 1
            if stalls == STALL_REFRESHES:
                raise NoConvergence(
                    f"CG stagnated at iteration {k} on a size-{n} system: relative "
                    f"residual {best / rhs_norm:.3e} (tol {tol}) did not decrease over "
                    f"{STALL_REFRESHES * REFRESH} iterations"
                )
        z = preconditioner(r)
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    true_res, done = accepted(x)
    if done:
        return np.ldexp(x, exponent), true_res / rhs_norm, maxiter
    raise NoConvergence(
        f"CG did not reach relative residual {tol} in {maxiter} iterations on a "
        f"size-{n} system (reached {true_res / rhs_norm:.3e})"
    )


def fill_reducing_order(matrix):
    """The order in which `smallest_eigenpairs` eliminates a pencil of the
    matrix's pattern (SuperLU's MMD_AT_PLUS_A), as node ids, the first
    eliminated first, read from the pattern with no factorization.  SuperLU
    fixes the column order before it factors, so an incomplete factorization
    that drops every entry it may, of a diagonally dominant matrix with the
    pattern's entries and the diagonal, reports the same order."""
    matrix = sp.csr_matrix(matrix)
    pattern = sp.csr_matrix((np.ones(matrix.nnz), matrix.indices, matrix.indptr), matrix.shape)
    dominant = (sp.diags(np.diff(matrix.indptr) + 1.0) - pattern).tocsc()
    pivots = {"diag_pivot_thresh": 0.0, "options": {"SymmetricMode": True}}  # as in the eigensolver
    ilu = spla.spilu(dominant, drop_tol=1.0, fill_factor=1.0, permc_spec="MMD_AT_PLUS_A", **pivots)
    return np.argsort(ilu.perm_c)


def smallest_eigenpairs(matrix, masses, deflate=None, order=None):
    """Smallest eigenpair of A v = lambda D v, D = diag(masses) positive, on
    the D-orthogonal complement of the components `deflate` labels (an id per
    node, -1 on a node none holds; they should span an invariant subspace,
    such as a nullspace), of dimension free = n - (deflated components).

    Works on B = D^{-1/2} A D^{-1/2} (A's CSR data scaled in index order, so
    B is exactly symmetric when A is, and refused otherwise), projected by
    x - w (sum_c w x)[id], w = sqrt(m / M_c), one `bincount`, skipped when
    nothing is deflated.  B is run at unit scale, as CG runs its load: its
    data are scaled by the power of two 2^-e that puts ||B||_inf in [1/2, 1),
    which changes no bit but the exponents, so no absolute floor (ARPACK's
    own convergence floor included) depends on the scale of A.  B + s I,
    s = 1e-6 ||B||_inf (1 for the zero pencil) added on the diagonal, is
    factored once by `splu`, and ARPACK's shift-invert Lanczos (`eigsh`,
    sigma = -s) runs on that factorization from a fixed start vector.  The
    factorization eliminates the nodes in a multiple minimum degree order of
    the pattern of A + A^T (SuperLU's MMD_AT_PLUS_A), or, when `order` is
    given (node ids, the first eliminated first), it factors B + s I permuted
    symmetrically to `order` in its natural order: a fill-reducing order
    computed once serves every pencil of its pattern.  Its Krylov basis holds
    min(free, 6) vectors, and it stops when the Ritz residual is at most
    EIGEN_TOL times the Ritz value, whose relative error is then at most
    about EIGEN_TOL^2 over the relative gap to the next eigenvalue
    (Kato-Temple): below rounding unless that gap is under 1e-4.  ARPACK
    needs free > 2; with free <= 2 a dense `eigh` answers on the free nodes
    and those of deflated components of 2+ nodes.  Either way the eigenvalue
    is the Rayleigh quotient v^T A v / v^T D v of its vector, v^T A v summed
    as sum_i r_i v_i^2 + sum_{i<j} -a_ij (v_i - v_j)^2 with r the row sums
    of A.  On the package's pencils (a_ij <= 0 off the diagonal, r >= 0)
    every term is nonnegative, so the sum keeps about full precision; the
    plain sum of v_i (A v)_i loses about eps |v|^T |A| |v|, which is not
    small against v^T A v when lambda is far below ||D^{-1} A||, and so
    depends on the last bits of v (two elimination orders gave values
    1.2e-14 apart on a ten-node graph with a 2^-8 link).

    Returns
    -------
    (value, vector, inverse, order)
        The eigenvalue and its D-normalized vector, inf and the zero vector
        when free = 0.  `inverse` is the factorization as the solve
        r -> 2^-e D^{-1/2} (B + s I)^{-1} D^{-1/2} r = (A + 2^e s D)^{-1} r
        (no deflation applied), a preconditioner for A, and `order` the
        elimination order it used; both are None when nothing was factored.
    """
    n = matrix.shape[0]
    scale = 1.0 / np.sqrt(masses)
    matrix = sp.csr_matrix(matrix, copy=True)
    matrix.sum_duplicates()  # canonical: sorted indices, as tocsc's are
    row, col = np.repeat(np.arange(n), np.diff(matrix.indptr)), matrix.indices
    data = scale[np.minimum(row, col)] * matrix.data * scale[np.maximum(row, col)]  # b_ij = b_ji
    csr = sp.csr_matrix((data, matrix.indices, matrix.indptr), matrix.shape)
    b = csr.tocsc()  # B, whose CSC arrays are the CSR arrays of B^T
    pairs = zip((csr.indptr, csr.indices, csr.data), (b.indptr, b.indices, b.data))
    if not all(np.array_equal(u, v) for u, v in pairs):
        raise EigensolverFailure(f"the scaled size-{n} pencil is not exactly symmetric")
    ids = (np.full(n, -1) if deflate is None else np.asarray(deflate)) + 1  # bin 0: free nodes
    size = np.bincount(ids)
    weight = np.where(ids > 0, np.sqrt(masses / np.bincount(ids, masses)[ids]), 0.0)
    free = n - np.count_nonzero(size[1:])
    if free == 0:
        return np.inf, np.zeros(n), None, None
    if free <= 2:  # on the free nodes and deflated components of 2+ nodes: <= 2 * free
        kept = np.flatnonzero((ids == 0) | (size[ids] > 1))
        spanned = np.flatnonzero(size[1:] > 1) + 1
        complement = scipy.linalg.null_space((ids[kept] == spanned[:, None]) * weight[kept])
        _, coords = scipy.linalg.eigh(complement.T @ (b[kept][:, kept] @ complement))
        vector = np.zeros(n)
        vector[kept] = complement @ coords[:, 0]  # eigh's first: the smallest
        shifted_inverse = order = None
    else:
        filled = np.flatnonzero(np.diff(matrix.indptr))  # ||B||_inf: the largest row sum of |B|
        norm = np.add.reduceat(np.abs(data), matrix.indptr[filled]).max(initial=0.0)
        exponent = np.frexp(norm)[1]  # B scaled exactly to a norm in [1/2, 1)
        b.data = np.ldexp(b.data, -exponent)
        shift = 1e-6 * np.ldexp(norm, -exponent) if norm else 1.0  # the zero pencil: any s > 0
        b.setdiag(b.diagonal() + shift)  # B + sI; given OPinv, eigsh reads only its shape
        # B + sI is symmetric positive definite: a symmetric fill-reducing
        # ordering with diagonal pivots needs no row interchanges
        pivots = {"diag_pivot_thresh": 0.0, "options": {"SymmetricMode": True}}
        if order is None:
            factor = spla.splu(b, permc_spec="MMD_AT_PLUS_A", **pivots)
            order, solve = np.argsort(factor.perm_c), factor.solve
        else:  # B + sI permuted symmetrically, then factored in that order
            factor = spla.splu(b[order][:, order], permc_spec="NATURAL", **pivots)

            def solve(x):
                y = np.empty_like(x)
                y[order] = factor.solve(x[order])
                return y

        def project(x):
            return x - weight * np.bincount(ids, weight * x)[ids] if free < n else x

        inverse = spla.LinearOperator((n, n), lambda x: project(solve(project(x))), dtype=float)
        start = project(np.random.default_rng(0).standard_normal(n))
        try:
            vector = spla.eigsh(
                b, k=1, sigma=-shift, OPinv=inverse, v0=start, ncv=min(free, 6), tol=EIGEN_TOL
            )[1].ravel()
        except spla.ArpackError as exc:
            raise EigensolverFailure(
                f"shift-invert Lanczos failed on the smallest eigenpair of a size-{n} pencil: {exc}"
            ) from exc

        def shifted_inverse(r):
            return np.ldexp(scale * solve(scale * r), -exponent)

    vector = vector * scale
    # the Rayleigh quotient, free of the back-transform's error and, with its
    # numerator a sum of nonnegative terms, of cancellation
    upper = row < col
    energy = np.sum(np.bincount(row, matrix.data, n) * vector**2) + np.sum(
        -matrix.data[upper] * (vector[row[upper]] - vector[col[upper]]) ** 2
    )
    value = energy / np.sum(vector**2 * masses)
    return value, vector, shifted_inverse, order
