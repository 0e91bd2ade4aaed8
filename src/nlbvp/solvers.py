"""Well-posed solves of the nonlocal Dirichlet and Neumann problems.

Dirichlet: the boundary trace is imposed exactly by zero-extending the data
into the interior, moving its energy pairing to the right-hand side, and
solving the positive-definite interior block by conjugate gradients.

Neumann: conjugate gradients solve the range-projected load on the form with
the first node of each component pinned by its own mass, a positive-definite
system solved by the solution that vanishes on the pinned nodes; one shift
along the nullspace then gives the mass-orthogonal representative.

Each solve first checks well-posedness on the kept-coupling components of
the form's graph (`analysis.nullspace`'s rule; the Dirichlet gate labels at
`analysis.interior_tol`), with no eigensolve: the kernel of a graph
Laplacian is spanned by its component indicators.

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
    NoConvergence,
    PoincareViolated,
    SingularAfterRegularization,
)

DEFAULT_SOLVE_TOL = 1e-12
COMPAT_TOL_FACTOR = 1e-9


@dataclass
class _Problem:
    form: object
    f: np.ndarray  # interior load, length m
    g: np.ndarray  # boundary data, length l

    def __post_init__(self):
        self.f = np.asarray(self.f, dtype=float)
        self.g = np.asarray(self.g, dtype=float)
        domain = self.form.domain
        if self.f.shape != (domain.m,) or self.g.shape != (domain.l,):
            raise ValueError("f and g lengths must match the interior/boundary blocks")


class DirichletProblem(_Problem):
    """Interior load f and boundary trace g."""


class NeumannProblem(_Problem):
    """Interior load f and boundary flux data g."""


@dataclass
class Solution:
    u: np.ndarray
    residual: float  # final relative linear-system residual
    iterations: int
    projected: bool  # whether nullspace projection was applied
    kind: str = ""


def _cg(stage, form, matrix, rhs, tol, x0=None, preconditioner=None):
    """`linalg.conjugate_gradient`, its NoConvergence naming the solve and n."""
    try:
        return linalg.conjugate_gradient(matrix, rhs, tol=tol, x0=x0, preconditioner=preconditioner)
    except NoConvergence as exc:
        raise NoConvergence(f"{stage} solve on {form.n} nodes: {exc}") from exc


def solve_dirichlet(problem, tol=DEFAULT_SOLVE_TOL, x0=None, preconditioner=None):
    """Solve for the unique function with the prescribed boundary values whose
    energy pairing against every interior test vector matches the load.

    CG on the interior block is Jacobi-preconditioned unless `preconditioner`
    (r -> z, see `linalg.conjugate_gradient`) is given, such as the shifted
    block's solve that `analysis.friedrichs_constant` returns on request.

    Raises FriedrichsViolated when the interior block is singular, that is,
    when some component, labelled at `analysis.interior_tol`, holds an
    interior node but no boundary node (every other interior row chains to a
    row coupled to the boundary), and NoConvergence when CG stalls.
    """
    form = problem.form
    m = form.domain.m
    labels = analysis.nullspace(form, analysis.interior_tol(form)).labels
    stranded = np.count_nonzero(~np.isin(labels[:m], labels[m:]))
    if stranded:
        raise FriedrichsViolated(
            f"interior block is singular ({stranded} of {m} interior nodes reach no "
            "boundary node): the Friedrichs inequality fails and the Dirichlet "
            "problem has no unique solution"
        )
    rhs = problem.f * form.mass_omega - form.gamma_block @ problem.g
    x, residual, iterations = _cg("dirichlet", form, form.omega_block, rhs, tol, x0, preconditioner)
    u = np.concatenate([x, problem.g])
    return Solution(u=u, residual=residual, iterations=iterations, projected=False, kind="dirichlet")


def solve_neumann(problem, basis, tol=DEFAULT_SOLVE_TOL):
    """Solve the flux problem on the orthogonal complement of the nullspace.

    Requires a spectral gap above the nullspace, that is, a basis carrying
    the form's component labelling at the basis tolerance, and a compatible
    load.
    The returned representative is mass-orthogonal to every nullspace
    vector; any other solution differs from it by a nullspace element only.
    """
    form = problem.form
    if not np.array_equal(basis.labels, analysis.nullspace(form, basis.tolerance).labels):
        raise PoincareViolated(
            "no spectral gap above the nullspace: the Poincare inequality fails"
        )
    defect = analysis.compatibility_defect(problem.f, problem.g, basis)
    b = form.mass_diag * np.concatenate([problem.f, problem.g])
    limit = COMPAT_TOL_FACTOR * max(float(np.abs(b).sum()), 1.0)
    if defect > limit:
        raise IncompatibleData(
            f"compatibility condition violated: the load pairs with the "
            f"nullspace (defect={defect:.6e}, tolerance={limit:.6e}); "
            "no solution exists"
        )
    rhs = b - (basis._sums(b) / basis._sums(np.ones(form.n)))[basis.labels]  # no component mean
    first = np.unique(basis.labels, return_index=True)[1]  # the first node of each component
    pinned = form.matrix + sp.diags(np.bincount(first, form.mass_diag[first], form.n))
    x, residual, iterations = _cg("neumann", form, pinned, rhs, tol)
    # the mass-orthogonal representative: no component mass-weighted mean
    x -= (basis._sums(form.mass_diag * x) / basis._sums(form.mass_diag))[basis.labels]
    return Solution(u=x, residual=residual, iterations=iterations, projected=True, kind="neumann")


def solve_regularized(problem, c, tol=DEFAULT_SOLVE_TOL):
    """Solve the flux problem for the operator augmented by a zeroth-order
    term c >= 0 on the interior.

    The term removes the kernel of every component holding a node with c at
    or above the tolerance, so no compatibility condition and no projection
    are needed; SingularAfterRegularization is raised when some component
    holds none.  With c identically zero the call reduces exactly to the
    plain flux solve.
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
    basis = analysis.nullspace(form)
    uncovered = basis.dimension - np.unique(basis.labels[:m][c >= basis.tolerance]).size
    if uncovered:
        raise SingularAfterRegularization(
            f"augmented system still has a numerical kernel: {uncovered} of "
            f"{basis.dimension} graph components hold no node with c >= {basis.tolerance:.3e}"
        )
    augmented = form.matrix + sp.diags(np.r_[c * form.mass_omega, np.zeros(form.domain.l)])
    b = form.mass_diag * np.concatenate([problem.f, problem.g])
    x, residual, iterations = _cg("regularized", form, augmented, b, tol)
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
