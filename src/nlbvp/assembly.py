"""Assembly of the nonlocal energy form and pointwise operator application.

The energy pairing of two node functions u, v is

    B(u, v) = 1/2 * sum_{x in Omega} m_x sum_{y in Omega} K(x,{y}) (u_x - u_y)(v_x - v_y)
            +       sum_{x in Omega} m_x sum_{y in Gamma} K(x,{y}) (u_x - u_y)(v_x - v_y)

where the outer sum runs over interior nodes only; boundary-boundary
interactions contribute nothing.  Node functions are plain numpy vectors in
the domain's canonical ordering (interior block first, boundary block last).

Assembly reads the CSR arrays of W = diag(mass) K: its interior rows, with
columns renumbered to the canonical ordering, exterior columns dropped and
interior-interior entries halved, form H, and the coupling matrix

    C = H + H^T = [[(W_oo + W_oo^T) / 2, W_og], [W_og^T, 0]]

is symmetric entry by entry, so A = diag(C 1) - C is exactly symmetric.  The
pointwise operators and residuals sum the atoms w (u_x - u_y) of each row of K.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import (
    AsymmetricKernel,
    DimensionMismatch,
    NodeNotInGamma,
    NodeNotInOmega,
)
from .measure import symmetry_defect

ASSEMBLY_SYMMETRY_TOL = 1e-10


@dataclass
class AssembledForm:
    """Sparse symmetric matrix of the energy form with its block views.

    matrix       : n x n form matrix in the canonical ordering
    omega_block  : leading m x m block (the Dirichlet system matrix)
    gamma_block  : m x l interior-boundary coupling block
    mass_diag    : node masses over the canonical ordering
    mass_omega   : node masses restricted to the interior block
    symmetry_defect : the kernel's symmetry defect, checked at assembly
    nullspace    : the default-tolerance `analysis.nullspace` basis, once computed
    shared_order : the elimination order of A_oo's pattern, once computed on
                   a form whose spectral pencils share that pattern (see
                   `analysis`)
    """

    matrix: sp.csr_matrix
    omega_block: sp.csr_matrix
    gamma_block: sp.csr_matrix
    mass_diag: np.ndarray
    mass_omega: np.ndarray
    domain: object
    symmetry_defect: float
    nullspace: object = field(default=None, init=False, repr=False, compare=False)
    shared_order: object = field(default=None, init=False, repr=False, compare=False)

    @property
    def n(self):
        return self.matrix.shape[0]


def assemble_form(kernel, measure, domain):
    """Assemble the energy form over the domain's interior/boundary ordering.

    Refuses kernels whose symmetry defect exceeds ASSEMBLY_SYMMETRY_TOL or is
    NaN, and, with a ValueError naming the node, kernels whose mass-weighted
    weights or diagonal weight sums overflow, or whose diagonal entries a_ii
    make 2n a_ii / m_i overflow: under that bound the mass-scaled quantities
    of the spectral stage stay finite.
    Interior-interior pair coefficients average the two ordered kernel
    weights, which reproduces them exactly for symmetric kernels and keeps
    the matrix symmetric entry-wise for near-symmetric ones.
    """
    defect = symmetry_defect(kernel, measure)
    if not defect <= ASSEMBLY_SYMMETRY_TOL:
        raise AsymmetricKernel(
            f"kernel symmetry defect {defect:.3e} exceeds {ASSEMBLY_SYMMETRY_TOL}"
        )
    m, n = domain.m, domain.n
    half = kernel.matrix[domain.omega]  # H: these rows of W, renumbered and filtered
    cols = domain._pos[half.indices]
    half.data *= np.repeat(measure.masses[domain.omega], np.diff(half.indptr))
    half.data *= np.where(cols < m, 0.5, 1.0) * (cols >= 0)  # an exterior column becomes 0
    half.indices[:] = np.maximum(cols, 0)
    half.eliminate_zeros()
    half.resize(n, n)
    half.sort_indices()
    coupling = half + half.T
    diagonal = coupling @ np.ones(n)
    overflow = np.flatnonzero(~np.isfinite(diagonal))
    if overflow.size:
        raise ValueError(f"kernel weight sum overflows at node {domain.order[overflow[0]]}")
    masses = measure.masses[domain.order]
    # 2n a_ii / m_i bounds the nullspace weights |a_ij| (1/m_i + 1/m_j) and
    # the row sums of the mass-scaled pencils
    with np.errstate(over="ignore"):
        scaled = 2 * n * (diagonal / masses)
    overflow = np.flatnonzero(~np.isfinite(scaled))
    if overflow.size:
        raise ValueError(f"mass-scaled form entry overflows at node {domain.order[overflow[0]]}")
    matrix = (sp.diags(diagonal) - coupling).tocsr()
    return AssembledForm(
        matrix=matrix,
        omega_block=matrix[:m, :m].tocsr(),
        gamma_block=matrix[:m, m:].tocsr(),
        mass_diag=masses,
        mass_omega=masses[:m],
        domain=domain,
        symmetry_defect=defect,
    )


def _check_length(form, u):
    if u.shape != (form.n,):
        raise DimensionMismatch(f"expected length {form.n}, got {u.shape}")


def bilinear(form, u, v):
    """Evaluate the energy pairing B(u, v) = v^T M u."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    _check_length(form, u)
    _check_length(form, v)
    return float(v @ (form.matrix @ u))


def _edges(kernel, domain, nodes):
    """Atoms (x, y, K(x,{y})) of the given nodes in CSR order, as local indices:
    all atoms of interior nodes (refused if one reaches an exterior node, where
    the node function is undefined) and the boundary nodes' atoms on Omega."""
    nodes = np.asarray(nodes, dtype=int)
    k = kernel.matrix[nodes].tocoo()
    x, y = domain._pos[nodes][k.row], domain._pos[k.col]
    stray = np.flatnonzero((x < domain.m) & (y < 0))
    if stray.size:
        raise ValueError(
            f"support of node {nodes[k.row[stray[0]]]} reaches exterior node "
            f"{k.col[stray[0]]}; the node function is undefined there"
        )
    keep = (x < domain.m) | ((y >= 0) & (y < domain.m))
    return x[keep], y[keep], k.data[keep]


def _operators(kernel, domain, u, nodes):
    """Lu at the interior nodes and Nu at the boundary nodes among `nodes`,
    by local index (zero elsewhere): each row's atoms w (u_x - u_y) summed
    one after another in CSR order."""
    x, y, w = _edges(kernel, domain, nodes)
    return np.bincount(x, weights=w * (u[x] - u[y]), minlength=domain.n)


def _operator_at(kernel, domain, u, node, block, error, region):
    """The operator at one node, whose local index must lie in `block`."""
    node = int(node)
    p = int(domain._pos[node]) if 0 <= node < len(domain._pos) else -1
    if p not in block:
        raise error(f"node {node} is not {region} node")
    return float(_operators(kernel, domain, u, [node])[p])


def apply_L(kernel, domain, u, node):
    """Pointwise nonlocal operator at an interior node:
    sum_y K(x,{y}) (u(x) - u(y)) over the support of x."""
    return _operator_at(kernel, domain, u, node, range(domain.m), NodeNotInOmega, "an interior")


def apply_N(kernel, domain, u, node):
    """Nonlocal Neumann operator at a boundary node:
    sum_{x in Omega} K(y,{x}) (u(y) - u(x))."""
    gamma = range(domain.m, domain.n)
    return _operator_at(kernel, domain, u, node, gamma, NodeNotInGamma, "a boundary")


def ibp_residual(form, kernel, u, v):
    """Residual of the integration-by-parts identity, over the form's domain
    and masses m:

    |sum_Omega Lu * v * m  -  B(u, v)  +  sum_Gamma Nu * v * m|.
    """
    values = _operators(kernel, form.domain, u, form.domain.order)
    return abs(float(np.sum(values * v * form.mass_diag)) - bilinear(form, u, v))


def energy_dirichlet(form, f, v):
    """Dirichlet energy 1/2 B(v, v) - sum_Omega f v m; weak solutions are
    exactly its minimizers over functions with the prescribed boundary trace."""
    m = form.domain.m
    return 0.5 * bilinear(form, v, v) - float(f @ (v[:m] * form.mass_omega))


def energy_neumann(form, f, g, v):
    """Neumann energy 1/2 B(v, v) - (sum_Omega f v m + sum_Gamma g v m)."""
    m = form.domain.m
    load = float(f @ (v[:m] * form.mass_omega)) + float(g @ (v[m:] * form.mass_diag[m:]))
    return 0.5 * bilinear(form, v, v) - load


def positive_part(u):
    return np.maximum(u, 0.0)


def negative_part(u):
    return np.maximum(-u, 0.0)


def v_norm_sq(kernel, measure, domain, u):
    """Squared native norm: sum_Omega u^2 m plus the full interaction sum
    sum_{x in Omega} m_x sum_y K(x,{y}) (u(x) - u(y))^2."""
    m = domain.m
    masses = measure.masses[domain.order]
    x, y, w = _edges(kernel, domain, domain.omega)
    return float((u[:m] ** 2) @ masses[:m]) + float(np.sum(masses[x] * w * (u[x] - u[y]) ** 2))
