"""Deterministic linear algebra used by the solvers and diagnostics.

Two workhorses live here:

* a preconditioned conjugate-gradient loop for symmetric positive
  (semi-)definite systems, stopped on the unpreconditioned residual; on a
  consistent singular system a kernel component the iterate picks up is
  removed by the caller's final mass-orthogonal shift.  The preconditioner
  is the matrix's own diagonal (Jacobi) unless the caller passes one, such
  as the shifted factor an eigensolve leaves behind;
* the package's one eigensolver, for the smallest eigenpairs of the
  generalized symmetric problem A v = lambda D v with diagonal positive D:
  one sparse LU factorization per call of the pencil, scaled and shifted on
  its CSR arrays, for ARPACK's shift-invert Lanczos, deflated by a component
  labelling in one `bincount`.  On request the factorization is handed back
  as the solve of the shifted pencil A + s D, a preconditioner for A.  Its
  stopping rule and the accuracy of its eigenvalues are set out in
  `smallest_eigenpairs`.

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
    matrix : sparse matrix, symmetric positive (semi-)definite
    rhs : ndarray
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
        diagonal of the matrix (weight 1 on a zero diagonal entry), written
        in place.  Every stopping rule reads the unpreconditioned residual
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
    rhs_norm = float(np.linalg.norm(rhs))
    if rhs_norm == 0.0:
        return np.zeros(n), 0.0, 0
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
        diag = matrix.diagonal()
        weight = 1.0 / np.where(diag == 0.0, 1.0, diag)  # z = D^{-1} r; weight 1 on a zero diagonal
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
                return x, true_res / rhs_norm, k - 1
        ap = matrix @ p
        pap = float(p @ ap)
        if pap <= 0.0:
            # either a genuinely indefinite system or rounding at the
            # attainable floor; accept the iterate when it already qualifies
            true_res, done = accepted(x)
            if done:
                return x, true_res / rhs_norm, k - 1
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
        return x, true_res / rhs_norm, maxiter
    raise NoConvergence(
        f"CG did not reach relative residual {tol} in {maxiter} iterations on a "
        f"size-{n} system (reached {true_res / rhs_norm:.3e})"
    )


def smallest_eigenpairs(matrix, masses, count=1, deflate=None, return_inverse=False):
    """Smallest eigenpairs of A v = lambda D v, D = diag(masses) positive.

    Works on B = D^{-1/2} A D^{-1/2} (A's CSR data scaled in index order, so
    B is exactly symmetric when A is, and refused otherwise), restricted to the
    D-orthogonal complement of the components `deflate` labels (an id per
    node, -1 on a node none holds; they should span an invariant subspace,
    such as a nullspace): x - w (sum_c w x)[id], w = sqrt(m / M_c), one
    `bincount`, skipped when nothing is deflated.  B + s I, s = 1e-6 ||B||_inf
    added on the diagonal, is factored once by `splu`, and ARPACK's
    shift-invert Lanczos (`eigsh`, sigma = -s) runs on that factorization from
    a fixed start vector.  Its Krylov basis holds min(free, 2 count + 4)
    vectors (6 for one pair; free = n - deflated components) and it stops
    when each Ritz residual is at most EIGEN_TOL times its Ritz value.  The
    Ritz value's relative error is then at most about EIGEN_TOL^2 over the
    relative gap to the next eigenvalue (Kato-Temple), below rounding unless
    that gap is under 1e-4, so the eigenvalues are those of a machine-precision
    run with fewer solves.  ARPACK needs `count` below free - 1; otherwise a
    dense `eigh` answers on the free nodes and those of deflated components
    of 2+ nodes, at most 2 (count + 1).  Either way each eigenvalue is
    returned as the Rayleigh quotient v^T A v / v^T D v of its vector, one
    sparse product for all of them.

    With `return_inverse` the factorization outlives the call as a third
    value, the function r -> D^{-1/2} (B + s I)^{-1} D^{-1/2} r = (A + s D)^{-1} r
    (no deflation applied), or None when the dense path answered.

    Returns
    -------
    (eigenvalues, vectors) or (eigenvalues, vectors, inverse)
        Eigenvalues ascending; vectors D-orthonormal, one column each.
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
    count = min(count, free)
    if count >= free - 1:  # on the free nodes and deflated components of 2+ nodes: <= 2 * free
        kept = np.flatnonzero((ids == 0) | (size[ids] > 1))
        spanned = np.flatnonzero(size[1:] > 1) + 1
        complement = scipy.linalg.null_space((ids[kept] == spanned[:, None]) * weight[kept])
        values, coords = scipy.linalg.eigh(complement.T @ (b[kept][:, kept] @ complement))
        values, vectors = values[:count], np.zeros((n, count))
        vectors[kept] = complement @ coords[:, :count]
        shifted_inverse = None
    else:
        filled = np.flatnonzero(np.diff(matrix.indptr))  # ||B||_inf: the largest row sum of |B|
        shift = 1e-6 * np.add.reduceat(np.abs(data), matrix.indptr[filled]).max(initial=0.0) + 1e-30
        b.setdiag(b.diagonal() + shift)  # B + sI; given OPinv, eigsh reads only its shape
        # B + sI is symmetric positive definite: a symmetric fill-reducing
        # ordering with diagonal pivots needs no row interchanges
        factor = spla.splu(
            b, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, options={"SymmetricMode": True}
        )

        def project(x):
            return x - weight * np.bincount(ids, weight * x)[ids] if free < n else x

        inverse = spla.LinearOperator((n, n), lambda x: project(factor.solve(project(x))), dtype=float)
        start = project(np.random.default_rng(0).standard_normal(n))
        try:
            values, vectors = spla.eigsh(
                b, k=count, sigma=-shift, OPinv=inverse, v0=start,
                ncv=min(free, 2 * count + 4), tol=EIGEN_TOL,
            )
        except spla.ArpackError as exc:
            raise EigensolverFailure(
                f"shift-invert Lanczos failed on {count} eigenpairs of a size-{n} pencil: {exc}"
            ) from exc
        vectors = vectors[:, np.argsort(values)]

        def shifted_inverse(r):
            return scale * factor.solve(scale * r)

    vectors = vectors * scale[:, None]
    # each vector's Rayleigh quotient, free of the back-transform's error
    energy = np.sum(vectors * (matrix @ vectors), axis=0)
    values = energy / np.sum(vectors**2 * masses[:, None], axis=0)
    if return_inverse:
        return values, vectors, shifted_inverse
    return values, vectors
