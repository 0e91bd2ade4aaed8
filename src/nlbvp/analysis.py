"""Spectral and structural diagnostics of the assembled energy form.

The nullspace of the form is the gauge freedom of the Neumann problem.  The
form is a weighted graph Laplacian, so the nullspace is read off exactly from
the connected components of its coupling graph, with no eigensolve.  The
Friedrichs and Poincare constants are reciprocals of generalized eigenvalues
of the form against mass diagonals, each from one call of the shift-invert
eigensolver in `linalg` (one factorization per pencil).

Boundary nodes never interact, so once the boundary block is eliminated the
full pencil and the Kron pencil share the interior pattern
P = pattern(A_oo + A_og A_go), and the Friedrichs pencil A_oo has pattern P
too when every boundary node couples to at most one interior node (as in
every stencil form).  Such a form keeps one fill-reducing order of P,
`shared_order`, read from the pattern of A_oo, and each Poincare pencil is
factored in it, the full pencil with the boundary first, whichever constant
is computed first.  The Friedrichs pencil is factored in its own order of
that pattern, the same one.  On any other form each pencil is factored in
its own order.

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
from .measure import WEAK_BOUNDARY_THRESHOLD, _indicator, _node_ids

NULLSPACE_TOL_FACTOR = 1e-9  # default eigenvalue threshold: factor * largest diagonal
MAX_PRINCIPLE_TOL = 1e-12


@dataclass
class NullspaceBasis:
    """The zero-energy subspace of the form, held as the component labelling
    of its coupling graph: the span of the indicators of its labels."""

    labels: np.ndarray  # component id 0..k-1 of each node, in the canonical ordering
    masses: np.ndarray  # node masses in the canonical ordering
    tolerance: float
    domain: object

    @property
    def dimension(self):
        return int(self.labels.max(initial=-1)) + 1

    @property
    def vectors(self):
        """(n, k) indicators of the components, orthonormal in the full mass
        inner product, built on each access for callers that want columns."""
        vectors = (self.labels[:, None] == np.arange(self.dimension)).astype(float)
        return vectors / np.sqrt(self.masses @ vectors)

    def _sums(self, values):
        """Sums of a node function over the components, in label order."""
        return np.bincount(self.labels, values, self.dimension)


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
    """A `trace_weight`: one value per boundary node of `domain`."""

    values: np.ndarray
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
    labels = csgraph.connected_components(graph, directed=False)[1]
    basis = NullspaceBasis(labels=labels, masses=form.mass_diag, tolerance=tol, domain=form.domain)
    if tol == default:
        form.nullspace = basis
    return basis


def project_out_kernel(u, basis):
    """Remove the interior-mass-weighted projection of u onto the nullspace:
    each component loses its `basis.masses`-weighted interior mean.

    The projection minimizes the interior mass norm of the difference; the
    result is interior-mass orthogonal to every basis vector.  Orthogonality
    in the full solution-space inner product coincides because the energy
    part vanishes against the nullspace.  A component with no interior node
    is left unchanged.
    """
    domain = basis.domain
    weights = np.zeros(domain.n)
    weights[: domain.m] = basis.masses[: domain.m]
    total = basis._sums(weights)
    mean = np.divide(basis._sums(weights * u), total, out=np.zeros_like(total), where=total > 0.0)
    return u - mean[basis.labels]


def friedrichs_constant(form, return_inverse=False):
    """Best constant in ||u||^2_{L2(Omega)} <= C B(u, u) over functions
    vanishing on the boundary; +inf when the interior block is singular.

    Computed from the smallest eigenvalue of the interior-block pencil
    (omega_block, interior masses).  With `return_inverse` the report comes
    with the eigensolve's factorization as the solve of the shifted block
    A_oo + s M_o (see `linalg.smallest_eigenpairs`), None when there is none:
    a preconditioner for the Dirichlet system.  On a form whose Poincare
    pencils share its pattern and that keeps no `shared_order` yet, the
    factorization's elimination order becomes that order.
    """
    value, vector, inverse, order = linalg.smallest_eigenpairs(form.omega_block, form.mass_omega)
    if form.shared_order is None and _one_neighbour(form):
        form.shared_order = order
    witness = np.concatenate([vector, np.zeros(form.domain.l)])  # zero on the boundary
    report = _gap_report(value, witness, interior_tol(form))
    return (report, inverse) if return_inverse else report


def _gap_report(value, witness, tolerance):
    """Constant 1 / value, +inf when value <= tolerance; 0 when value is inf
    (the nullspace spans everything), as any constant then holds."""
    constant = np.inf if value <= tolerance else 1.0 / value
    return InequalityReport(constant=constant, eigenvalue=value, witness=witness)


def _one_neighbour(form):
    """Whether every boundary node couples to at most one interior node, so
    that A_oo has the pattern P of the Poincare pencils."""
    return np.bincount(form.gamma_block.indices, minlength=1).max() <= 1


def _shared_order(form):
    """The form's `shared_order`, read from the pattern of A_oo on first use
    when the form has one (see the module docstring), else None."""
    if form.shared_order is None and _one_neighbour(form):
        form.shared_order = linalg.fill_reducing_order(form.omega_block)
    return form.shared_order


def _poincare_full(form, basis):
    order = _shared_order(form)
    if order is not None:  # the boundary nodes first, then P in its kept order
        order = np.concatenate([np.arange(form.domain.m, form.n), order])
    value, vector, _, _ = linalg.smallest_eigenpairs(
        form.matrix, form.mass_diag, deflate=basis.labels, order=order
    )
    return _gap_report(value, vector, basis.tolerance)


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
    value, interior, _, _ = linalg.smallest_eigenpairs(
        schur, form.mass_omega, deflate=basis.labels[:m], order=_shared_order(form)
    )
    witness = np.concatenate([interior, -inverse_gg * (form.gamma_block.T @ interior)])
    return _gap_report(value, witness, basis.tolerance)


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
    return basis.dimension == 1


def trace_weight(kernel, domain, variant="sufficient", c=None):
    """Boundary weight for the trace-space characterization.

    "sufficient": w(y) = K(y, Omega); boundary data square-summable against
    it extends into the solution space.
    "necessary":  w(y) = sum_{s in Omega} K(y,{s}) / (K(s, Gamma) + c), c > 0;
    square-summability against it is necessary for extendability.
    """
    if variant not in ("sufficient", "necessary"):
        raise ValueError(f"unknown trace-weight variant {variant!r}")
    in_omega = _indicator(len(kernel), domain.omega)
    rows = kernel.matrix[domain.gamma]
    if variant == "necessary":
        if c is None or c <= 0.0:
            raise NonPositiveC("the necessary trace weight needs a constant c > 0")
        k_to_gamma = kernel.matrix @ _indicator(len(kernel), domain.gamma)
        # each entry K(y, {s}) over K(s, Gamma) + c, those off Omega zeroed
        # first so that no quotient there can overflow against the indicator
        rows.data = rows.data * in_omega[rows.indices] / (k_to_gamma + c)[rows.indices]
    return TraceWeight(values=rows @ in_omega, domain=domain)


def compatibility_defect(f, g, basis):
    """Worst violation of the solvability condition: the load must annihilate
    every nullspace vector, max over components c of
    |sum_c load m| / sqrt(M_c), m = `basis.masses` and M_c the mass of c."""
    load = np.concatenate([np.asarray(f, dtype=float), np.asarray(g, dtype=float)])
    if load.shape != basis.masses.shape:
        raise ValueError("f and g lengths must match the interior/boundary blocks")
    pairing = basis._sums(basis.masses * load)
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


def max_principle_check(u, domain):
    """True when the interior maximum of u (in canonical order) does not exceed
    the boundary maximum (up to MAX_PRINCIPLE_TOL max |u|, at any scale of u)."""
    if domain.l == 0:
        raise EmptyGamma("the nonlocal boundary is empty; the principle is vacuous")
    m = domain.m
    scale = float(np.max(np.abs(u)))
    return float(np.max(u[:m])) <= float(np.max(u[m:])) + MAX_PRINCIPLE_TOL * scale


def friedrichs_chain_holds(kernel, domain, partition):
    """Chain criterion for the Friedrichs inequality over an interior
    partition: the first cell must reach the boundary, every later cell must
    reach its predecessor, each with positive kernel mass at every node."""
    n = len(kernel)
    cells = [np.unique(_node_ids(cell)) for cell in partition]
    ids = np.concatenate([np.zeros(0, dtype=int), *cells])
    disjoint = all(cell.size for cell in cells) and np.unique(ids).size == ids.size
    if not disjoint or not np.isin(ids, domain.omega).all():
        raise ValueError("partition must split the interior into disjoint non-empty cells")
    if ids.size != domain.m:
        raise ValueError("partition must cover the interior")
    previous = domain.gamma
    for cell in cells:
        if np.min(kernel.matrix[cell] @ _indicator(n, previous)) <= 0.0:
            return False
        previous = cell
    return True
