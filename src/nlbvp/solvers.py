"""Well-posed solves of the nonlocal Dirichlet and Neumann problems.

Dirichlet: the boundary trace is imposed exactly by zero-extending the data
into the interior, moving its energy pairing to the right-hand side, and
solving the positive-definite interior block by conjugate gradients.

Neumann: the full singular system is solved by conjugate gradients with the
load projected onto the range and every iterate projected against the
nullspace; the returned representative is mass-orthogonal to the nullspace.

All solves start from a deterministic vector (zeros unless overridden) so
repeated runs are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import analysis, linalg
from .assembly import _operators
from .errors import (
    FriedrichsViolated,
    IncompatibleData,
    PoincareViolated,
    SingularAfterRegularization,
)

DEFAULT_SOLVE_TOL = 1e-12
COMPAT_TOL_FACTOR = 1e-9


@dataclass
class DirichletProblem:
    form: object
    f: np.ndarray  # interior load, length m
    g: np.ndarray  # boundary trace, length l

    def __post_init__(self):
        self.f = np.asarray(self.f, dtype=float)
        self.g = np.asarray(self.g, dtype=float)
        domain = self.form.domain
        if self.f.shape != (domain.m,) or self.g.shape != (domain.l,):
            raise ValueError("f and g lengths must match the interior/boundary blocks")


@dataclass
class NeumannProblem:
    form: object
    f: np.ndarray  # interior load, length m
    g: np.ndarray  # boundary flux data, length l
    compat_tol: float | None = None  # default: COMPAT_TOL_FACTOR * load scale

    def __post_init__(self):
        self.f = np.asarray(self.f, dtype=float)
        self.g = np.asarray(self.g, dtype=float)
        domain = self.form.domain
        if self.f.shape != (domain.m,) or self.g.shape != (domain.l,):
            raise ValueError("f and g lengths must match the interior/boundary blocks")
        if self.compat_tol is not None and self.compat_tol <= 0.0:
            raise ValueError("compat_tol must be positive")


@dataclass
class Solution:
    u: np.ndarray
    residual: float  # final relative linear-system residual
    iterations: int
    projected: bool  # whether nullspace projection was applied
    kind: str = ""


def _compat_tol(problem):
    if problem.compat_tol is not None:
        return problem.compat_tol
    form = problem.form
    scale = float(np.abs(problem.f) @ form.mass_omega) + float(
        np.abs(problem.g) @ form.mass_diag[form.domain.m:]
    )
    return COMPAT_TOL_FACTOR * max(scale, 1.0)


def solve_dirichlet(problem, tol=DEFAULT_SOLVE_TOL, x0=None):
    """Solve for the unique function with the prescribed boundary values whose
    energy pairing against every interior test vector matches the load.

    Raises FriedrichsViolated when the interior block is singular (the
    problem is not well-posed) and NoConvergence when CG stalls.
    """
    form = problem.form
    if not np.isfinite(analysis.friedrichs_constant(form).constant):
        raise FriedrichsViolated(
            "interior block is singular: the Friedrichs inequality fails and "
            "the Dirichlet problem has no unique solution"
        )
    m = form.domain.m
    rhs = problem.f * form.mass_omega - form.gamma_block @ problem.g
    x, residual, iterations = linalg.conjugate_gradient(
        form.omega_block, rhs, tol=tol, x0=x0
    )
    u = np.concatenate([x, problem.g])
    return Solution(u=u, residual=residual, iterations=iterations, projected=False, kind="dirichlet")


def solve_neumann(problem, basis, tol=DEFAULT_SOLVE_TOL):
    """Solve the flux problem on the orthogonal complement of the nullspace.

    Requires a finite Poincare constant (spectral gap above the nullspace)
    and a compatible load.  The returned representative is mass-orthogonal
    to every nullspace vector; any other solution differs from it by a
    nullspace element only.
    """
    form = problem.form
    if not np.isfinite(analysis.poincare_constant(form, basis, variant="full").constant):
        raise PoincareViolated(
            "no spectral gap above the nullspace: the Poincare inequality fails"
        )
    defect = analysis.compatibility_defect(problem.f, problem.g, basis, form.measure)
    limit = _compat_tol(problem)
    if defect > limit:
        raise IncompatibleData(
            f"compatibility condition violated: the load pairs with the "
            f"nullspace (defect={defect:.6e}, tolerance={limit:.6e}); "
            "no solution exists"
        )
    masses = form.mass_diag
    b = masses * np.concatenate([problem.f, problem.g])
    w = basis.vectors
    if basis.dimension:
        q_euclid, _ = np.linalg.qr(w)

        def onto_range(v):
            return v - q_euclid @ (q_euclid.T @ v)

        b = onto_range(b)
    else:
        onto_range = None
    x, residual, iterations = linalg.conjugate_gradient(
        form.matrix, b, tol=tol, project=onto_range
    )
    if basis.dimension:
        x = x - w @ (w.T @ (masses * x))  # mass-orthogonal representative
    return Solution(u=x, residual=residual, iterations=iterations, projected=True, kind="neumann")


def solve_regularized(problem, c, tol=DEFAULT_SOLVE_TOL):
    """Solve the flux problem for the operator augmented by a zeroth-order
    term c >= 0 on the interior.

    A strictly positive term removes the constant-function kernel on
    connected domains, so no compatibility condition and no projection are
    needed; this is verified by an eigenvalue check at solve time.  With
    c identically zero the call reduces exactly to the plain flux solve.
    """
    form = problem.form
    m = form.domain.m
    c = np.asarray(c, dtype=float)
    if c.shape != (m,):
        raise ValueError("c must be an interior node function")
    if np.any(c < 0.0):
        raise ValueError("the zeroth-order coefficient must be non-negative")
    if not np.any(c > 0.0):
        return solve_neumann(problem, analysis.nullspace(form), tol=tol)
    shift = np.zeros(form.n)
    shift[:m] = c * form.mass_omega
    augmented = (form.matrix + sp.diags(shift)).tocsr()
    lam, _ = linalg.smallest_eigenpairs(augmented, form.mass_diag, count=1)
    gap_tol = analysis.NULLSPACE_TOL_FACTOR * max(
        float(np.max(augmented.diagonal() / form.mass_diag)), 1e-300
    )
    if lam[0] <= gap_tol:
        raise SingularAfterRegularization(
            f"augmented system still has a numerical kernel (eigenvalue {lam[0]:.3e})"
        )
    b = form.mass_diag * np.concatenate([problem.f, problem.g])
    x, residual, iterations = linalg.conjugate_gradient(augmented, b, tol=tol)
    return Solution(u=x, residual=residual, iterations=iterations, projected=False, kind="regularized")


def strong_residual(solution, kernel, domain, f, g):
    """Nodewise residuals of the strong equations:

    (max over interior of |Lu - f|, max over boundary of |Nu - g|).
    """
    u = solution.u if isinstance(solution, Solution) else np.asarray(solution, dtype=float)
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    values = _operators(kernel, domain, u, domain.order)
    interior = float(np.max(np.abs(values[: domain.m] - f), initial=0.0))
    boundary = float(np.max(np.abs(values[domain.m :] - g), initial=0.0))
    return interior, boundary
