"""Spectral and structural diagnostics of the assembled energy form.

The nullspace of the form is the gauge freedom of the Neumann problem.  The
form is a weighted graph Laplacian, so the nullspace is read off exactly from
the connected components of its coupling graph, with no eigensolve.  The
Friedrichs and Poincare constants are reciprocals of generalized eigenvalues
of the form against mass diagonals, each from one call of the shift-invert
eigensolver in `linalg` (one factorization per pencil).

The Poincare constant comes in two variants differing only in which mass
diagonal appears on the left-hand side of the inequality:

* ``variant="omega"``   : interior-mass norm (the defining inequality),
  computed on the Kron reduction of the form to the interior;
* ``variant="full"``    : interior+boundary mass norm (the mean-zero form).

On finite node sets the two are simultaneously finite or infinite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from . import linalg
from .errors import EmptyGamma, NonPositiveC
from .measure import WEAK_BOUNDARY_THRESHOLD

NULLSPACE_TOL_FACTOR = 1e-9  # default eigenvalue threshold: factor * largest diagonal
MAX_PRINCIPLE_TOL = 1e-12


@dataclass
class NullspaceBasis:
    """The zero-energy subspace of the form, held as the component labelling
    of its coupling graph: the span of the indicators of `components`."""

    labels: np.ndarray  # component id of each node, in the canonical ordering
    components: np.ndarray  # ascending ids of the spanned components
    masses: np.ndarray  # node masses in the canonical ordering
    tolerance: float
    domain: object

    @property
    def dimension(self):
        return self.components.size

    @property
    def vectors(self):
        """(n, k) indicators of the spanned components, orthonormal in the full
        mass inner product, built on each access for callers that want columns."""
        vectors = (self.labels[:, None] == self.components).astype(float)
        return vectors / np.sqrt(self.masses @ vectors)

    def _spanned_labels(self):
        """The labels, -1 on the nodes of the components not spanned."""
        return np.where(np.isin(self.labels, self.components), self.labels, -1)

    def _sums(self, values):
        """Sums of a node function over the spanned components, in order."""
        return np.bincount(self.labels, values)[self.components]


@dataclass
class InequalityReport:
    """Outcome of an inequality-constant computation.

    constant    : best constant, +inf when the inequality fails
    eigenvalue  : the generalized eigenvalue the constant came from
    witness     : node function achieving the extremal Rayleigh quotient
    """

    constant: float
    eigenvalue: float
    witness: np.ndarray


@dataclass
class TraceWeight:
    """Boundary weight function characterizing admissible trace data.

    variant "sufficient": w(y) = K(y, Omega); boundary data square-summable
    against this weight extends into the solution space.
    variant "necessary": w(y) = sum_{s in Omega} K(y,{s}) / (K(s, Gamma) + c);
    square-summability against it is necessary for extendability.
    """

    values: np.ndarray
    variant: str
    c: float | None
    domain: object


@dataclass
class FunctionalCheck:
    """Continuity diagnostics of the boundary load against a trace weight."""

    weighted_sum: float
    min_weight: float
    ill_conditioned: bool


def _gap_tol(matrix, masses):
    """Gap tolerance of the pencil (matrix, masses): NULLSPACE_TOL_FACTOR times
    its largest mass-scaled diagonal entry, that entry taken as at least 1e-300."""
    diag = matrix.diagonal()
    return NULLSPACE_TOL_FACTOR * max(float(np.max(diag / masses)) if diag.size else 0.0, 1e-300)


def interior_tol(form):
    """Gap tolerance of the interior block, shared by the Friedrichs and Dirichlet gates."""
    return _gap_tol(form.omega_block, form.mass_omega)


def nullspace(form, tol=None):
    """Basis of the numerical kernel of the form: its component labelling.

    The form is a weighted graph Laplacian on the interior+boundary nodes,
    so its kernel is spanned by the indicators of the graph's connected
    components.  A coupling a_ij is weak when |a_ij| (1/m_i + 1/m_j) < tol.
    Weak couplings are dropped before the components are labelled, but only
    at nodes whose weak couplings sum to less than tol: the dropped couplings
    then move no eigenvalue of the pencil (form, masses) by tol or more, so
    every returned direction has pencil quotient below tol, and a node held
    only by such couplings counts as a kernel direction of its own.  The
    count can fall short of the number of pencil eigenvalues below tol only
    when the kept couplings form a graph whose own spectral gap is below
    tol.  The default tolerance is NULLSPACE_TOL_FACTOR times the largest
    mass-scaled diagonal entry; the form keeps its default-tolerance basis.
    Components are numbered in the order of their first node.
    """
    n = form.n
    default = _gap_tol(form.matrix, form.mass_diag)
    if (tol is None or tol == default) and form.nullspace is not None:
        return form.nullspace
    tol = default if tol is None else tol
    if tol <= 0.0:
        raise ValueError("nullspace tolerance must be positive")
    # the couplings above the diagonal, read off the CSR arrays
    matrix = form.matrix
    row = np.repeat(np.arange(n), np.diff(matrix.indptr))
    upper = matrix.indices > row
    row, col = row[upper], matrix.indices[upper]
    inverse_mass = 1.0 / form.mass_diag
    weight = np.abs(matrix.data[upper]) * (inverse_mass[row] + inverse_mass[col])
    weak = weight < tol
    # by Cauchy-Schwarz the dropped couplings shift the pencil by at most the
    # largest per-node sum of their weights
    weak_sum = np.bincount(row[weak], weight[weak], n) + np.bincount(col[weak], weight[weak], n)
    kept = ~weak | (weak_sum[row] >= tol) | (weak_sum[col] >= tol)
    graph = sp.coo_matrix((np.ones(np.count_nonzero(kept)), (row[kept], col[kept])), shape=(n, n))
    count, labels = csgraph.connected_components(graph, directed=False)
    basis = NullspaceBasis(
        labels=labels,
        components=np.arange(count),
        masses=form.mass_diag,
        tolerance=tol,
        domain=form.domain,
    )
    if tol == default:
        form.nullspace = basis
    return basis


def project_out_kernel(u, basis, measure):
    """Remove the interior-mass-weighted projection of u onto the nullspace:
    each spanned component loses its interior-mass-weighted mean.

    The projection minimizes the interior mass norm of the difference; the
    result is interior-mass orthogonal to every basis vector.  Orthogonality
    in the full solution-space inner product coincides because the energy
    part vanishes against the nullspace.  A component with no interior node
    is left unchanged.
    """
    domain = basis.domain
    weights = np.zeros(domain.n)
    weights[: domain.m] = measure.masses[domain.omega]
    total = basis._sums(weights)
    mean = np.divide(basis._sums(weights * u), total, out=np.zeros_like(total), where=total > 0.0)
    shift = np.zeros(domain.n)  # indexed by component id
    shift[basis.components] = mean
    return u - shift[basis.labels]


def friedrichs_constant(form, return_inverse=False):
    """Best constant in ||u||^2_{L2(Omega)} <= C B(u, u) over functions
    vanishing on the boundary; +inf when the interior block is singular.

    Computed from the smallest eigenvalue of the interior-block pencil
    (omega_block, interior masses).  With `return_inverse` the report comes
    with the eigensolve's factorization as the solve of the shifted block
    A_oo + s M_o (see `linalg.smallest_eigenpairs`), None when there is none:
    a preconditioner for the Dirichlet system.
    """
    m = form.domain.m
    lam, vec, inverse = linalg.smallest_eigenpairs(
        form.omega_block, form.mass_omega, count=1, return_inverse=True
    )
    witness = np.zeros(form.n)
    witness[:m] = vec[:, 0]
    report = _gap_report(lam, witness, interior_tol(form))
    return (report, inverse) if return_inverse else report


def _gap_report(lam, witness, tolerance):
    if lam.size == 0:
        # the nullspace spans everything: the projected inequality holds with
        # an arbitrarily small constant
        return InequalityReport(constant=0.0, eigenvalue=np.inf, witness=witness)
    if lam[0] <= tolerance:
        return InequalityReport(constant=np.inf, eigenvalue=lam[0], witness=witness)
    return InequalityReport(constant=1.0 / lam[0], eigenvalue=lam[0], witness=witness)


def _poincare_full(form, basis):
    lam, vec = linalg.smallest_eigenpairs(
        form.matrix, form.mass_diag, count=1, deflate=basis._spanned_labels()
    )
    witness = vec[:, 0] if lam.size else np.zeros(form.n)
    return _gap_report(lam, witness, basis.tolerance)


def _poincare_omega(form, basis):
    """Largest quotient (interior mass norm)^2 / B(v, v) over functions
    interior-mass orthogonal to the nullspace, by Kron reduction.

    Boundary nodes never interact, so the boundary block of the form is
    diagonal.  Eliminating it leaves the Schur complement S = A_oo - Y Y^T,
    Y = A_og diag(A_gg)^{-1/2}, on the interior, exactly symmetric (S_ac and
    S_ca sum the same products in order); v^T S v is the least energy of any
    function with interior values v.  The constant is 1 / lambda, lambda the
    smallest eigenvalue of (S, interior masses) on the interior-mass
    complement of the nullspace's interior part; the witness extends the
    eigenvector to the boundary by that energy minimizer.
    """
    m = form.domain.m
    diag = form.matrix.diagonal()[m:]
    # a boundary node with no coupling left has an empty column in A_og
    inverse_gg = np.divide(1.0, diag, out=np.zeros_like(diag), where=diag > 0.0)
    y = form.gamma_block.copy()  # Y: A_og's data scaled
    y.data *= np.sqrt(inverse_gg)[y.indices]
    schur = form.omega_block - y @ y.T
    lam, vec = linalg.smallest_eigenpairs(
        schur, form.mass_omega, count=1, deflate=basis._spanned_labels()[:m]
    )
    interior = vec[:, 0] if lam.size else np.zeros(m)
    witness = np.concatenate([interior, -inverse_gg * (form.gamma_block.T @ interior)])
    return _gap_report(lam, witness, basis.tolerance)


def poincare_constant(form, basis, variant="full"):
    """Best constant C with (mass norm of v)^2 <= C B(v, v) on the
    orthogonal complement of the nullspace.

    variant "full" uses the interior+boundary mass norm (constant = 1 over
    the spectral gap above the nullspace); variant "omega" uses the interior
    mass norm.  Reports +inf when the complement still touches the numerical
    kernel (gap below the basis tolerance).
    """
    if variant == "full":
        return _poincare_full(form, basis)
    if variant == "omega":
        return _poincare_omega(form, basis)
    raise ValueError(f"unknown Poincare variant {variant!r}")


def strong_poincare_check(basis):
    """True when the nullspace is exactly the constants (one component covers
    every node): then the mean-zero inequality and the projected inequality
    coincide."""
    return basis.dimension == 1 and bool(np.all(basis.labels == basis.components[0]))


def trace_weight(kernel, domain, variant="sufficient", c=None):
    """Boundary weight for the trace-space characterization.

    "sufficient": w(y) = K(y, Omega).
    "necessary":  w(y) = sum_{s in Omega} K(y,{s}) / (K(s, Gamma) + c), c > 0.
    """
    to_omega = kernel.matrix[domain.gamma][:, domain.omega]
    if variant == "sufficient":
        values = to_omega @ np.ones(domain.m)
        return TraceWeight(values=values, variant=variant, c=None, domain=domain)
    if variant == "necessary":
        if c is None or c <= 0.0:
            raise NonPositiveC("the necessary trace weight needs a constant c > 0")
        k_to_gamma = kernel.matrix[domain.omega][:, domain.gamma] @ np.ones(domain.l)
        to_omega.data = to_omega.data / (k_to_gamma + c)[to_omega.indices]
        values = to_omega @ np.ones(domain.m)
        return TraceWeight(values=values, variant=variant, c=float(c), domain=domain)
    raise ValueError(f"unknown trace-weight variant {variant!r}")


def compatibility_defect(f, g, basis, measure):
    """Worst violation of the solvability condition: the load must annihilate
    every nullspace vector, max over spanned components c of
    |sum_c load m| / sqrt(M_c), M_c the mass of c."""
    domain = basis.domain
    load = np.concatenate([np.asarray(f, dtype=float), np.asarray(g, dtype=float)])
    if load.shape != (domain.n,):
        raise ValueError("f and g lengths must match the interior/boundary blocks")
    pairing = basis._sums(measure.masses[domain.order] * load)
    return float(np.max(np.abs(pairing) / np.sqrt(basis._sums(basis.masses)), initial=0.0))


def continuous_functional_check(g, weight, measure):
    """Report sum_Gamma g^2 m / w and min_Gamma w.

    On finite node sets the boundary load always induces a continuous
    functional; the record exists to flag near-zero weights (below
    WEAK_BOUNDARY_THRESHOLD scale) as ill-conditioned trace data.
    """
    domain = weight.domain
    masses = measure.masses[domain.gamma]
    g = np.asarray(g, dtype=float)
    if weight.values.size:
        weighted_sum = float(np.sum(g * g * masses / weight.values))
        min_weight = float(np.min(weight.values))
    else:
        weighted_sum, min_weight = 0.0, np.inf
    return FunctionalCheck(
        weighted_sum=weighted_sum,
        min_weight=min_weight,
        ill_conditioned=bool(min_weight < WEAK_BOUNDARY_THRESHOLD),
    )


def max_principle_check(u, form, domain):
    """True when the interior maximum does not exceed the boundary maximum
    (up to MAX_PRINCIPLE_TOL times the value scale)."""
    if domain.l == 0:
        raise EmptyGamma("the nonlocal boundary is empty; the principle is vacuous")
    m = domain.m
    scale = max(1.0, float(np.max(np.abs(u))))
    return float(np.max(u[:m])) <= float(np.max(u[m:])) + MAX_PRINCIPLE_TOL * scale


def friedrichs_chain_holds(kernel, domain, measure, partition):
    """Chain criterion for the Friedrichs inequality over an interior
    partition: the first cell must reach the boundary, every later cell must
    reach its predecessor, each with positive kernel mass at every node."""
    omega_set = set(int(i) for i in domain.omega)
    covered: set[int] = set()
    cells = []
    for cell in partition:
        ids = set(int(i) for i in cell)
        if not ids or not ids <= omega_set or ids & covered:
            raise ValueError("partition must split the interior into disjoint non-empty cells")
        covered |= ids
        cells.append(ids)
    if covered != omega_set:
        raise ValueError("partition must cover the interior")
    previous = domain.gamma
    for ids in cells:
        if np.min(kernel.matrix[sorted(ids)][:, sorted(previous)].sum(axis=1)) <= 0.0:
            return False
        previous = ids
    return True

