"""Built-in benchmark: the discrete Poisson problem on the unit cube.

The (2d+1)-point difference operator on a step-h lattice is a nonlocal
operator with an atomic kernel, and its classical Dirichlet/Neumann systems
are exactly the weak problems of this package under the counting measure on
the lattice.  This module builds those grids, whose nodes all sit on h Z^d,
so `measure.stencil_kernel` joins their neighbours by lattice key with no
geometric search.  It constructs the stiffness matrices from the literal
adjacency rules in `build_stiffness`, a separate route that shares nothing
with `stencil_kernel` and against which the kernel-based assembly is
checked, runs convergence studies, and carries the discrete maximum
principle toolkit plus a weighted-graph demo.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from .assembly import assemble_form
from .errors import BadStep, HypothesisViolated
from .measure import AtomicMeasure, _sample, graph_kernel, nonlocal_boundary, stencil_kernel
from .solvers import DirichletProblem, solve_dirichlet

ZERO_ROWSUM_TOL = 1e-12
SOLVE_TOL = 1e-13  # CG tolerance of the manufactured-solution solves


@dataclass
class UnitCubeGrid:
    """Lattice discretization of the open unit cube.

    The measure carries every lattice point of the closed cube with unit
    mass; the interior block is the open-cube points and the boundary block
    is the facet points (exactly one coordinate on a face).  Cube corners,
    and for d=3 cube-edge points, have no interior lattice neighbor, so the
    kernel-derived nonlocal boundary never contains them; they stay exterior.
    Both blocks are ordered lexicographically by coordinates.
    """

    d: int
    h: float
    n_axis: int  # nodes per axis minus one: coordinates are i*h, i=0..n_axis
    measure: AtomicMeasure
    kernel: object
    domain: object

    @property
    def m(self):
        return self.domain.m

    @property
    def l(self):
        return self.domain.l


class StiffnessPair(NamedTuple):
    """Stiffness matrices of the discrete Dirichlet and Neumann problems.

    a_dirichlet / a_neumann carry the 1/h^2 scaling; block_omega and
    block_gamma are the unscaled adjacency blocks (diagonal 2d, off-diagonal
    -1 for lattice neighbors).
    """

    a_dirichlet: sp.csr_matrix
    a_neumann: sp.csr_matrix
    block_omega: sp.csr_matrix
    block_gamma: sp.csr_matrix


class StudyRow(NamedTuple):
    h: float
    max_error: float
    order: float  # nan on the first row


class NonnegativeTypeReport(NamedTuple):
    nonnegative_type: bool
    zero_row_sums: bool


def unit_cube_grid(d, h):
    """Build the lattice grid, its stencil kernel, and the node partition.

    Requires 1/h to be an integer >= 2 and d in {1, 2, 3}.  Every node sits
    on h Z^d, so `stencil_kernel` joins the neighbours by lattice key.
    `build_stiffness` remains the separate oracle the assembled form is
    checked against; it shares no code with `stencil_kernel`.
    """
    if d not in (1, 2, 3):
        raise BadStep(f"dimension {d} not supported; use 1, 2, or 3")
    n_axis = round(1.0 / h) if h > 0.0 and math.isfinite(1.0 / h) else 0
    if n_axis < 2 or abs(1.0 / h - n_axis) > 1e-9:
        raise BadStep(f"step {h} is not the reciprocal of an integer >= 2")
    indices = np.indices((n_axis + 1,) * d).reshape(d, -1).T  # lexicographic
    measure = AtomicMeasure(indices * h, lookup_tol=h * 1e-9)
    on_face = (indices == 0) | (indices == n_axis)
    kernel = stencil_kernel(d, h, measure)
    domain = nonlocal_boundary(kernel, np.flatnonzero(~on_face.any(axis=1)), measure)
    if not np.array_equal(domain.gamma, np.flatnonzero(on_face.sum(axis=1) == 1)):
        raise AssertionError("kernel-derived boundary differs from the facet set")
    return UnitCubeGrid(d=d, h=h, n_axis=n_axis, measure=measure, kernel=kernel, domain=domain)


def build_stiffness(grid):
    """Stiffness matrices from the literal adjacency rules.

    This route never touches the kernel: entries come from integer lattice
    adjacency, so comparing against the assembled form is a genuine
    cross-check of the assembly.  Each node's integer key rint(x / h) is
    looked up in a lattice array padded by one layer of -1 (no node), so
    the 2d neighbour keys of every interior node are read without bounds
    checks.
    """
    d, h, n_axis = grid.d, grid.h, grid.n_axis
    m, l = grid.domain.m, grid.domain.l
    keys = np.rint(grid.measure.points[grid.domain.order] / h).astype(int).T + 1
    local = np.full((n_axis + 3,) * d, -1)
    local[tuple(keys)] = np.arange(m + l)
    rows, cols = [np.arange(m)], [np.arange(m)]
    for axis, step in itertools.product(range(d), (1, -1)):
        neighbour = keys[:, :m].copy()
        neighbour[axis] += step
        k = local[tuple(neighbour)]
        rows.append(np.flatnonzero(k >= 0))
        cols.append(k[k >= 0])
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    values = np.where(rows == cols, 2 * d, -1)
    inner = cols < m
    block_omega = sp.csr_matrix((values[inner], (rows[inner], cols[inner])), shape=(m, m))
    block_gamma = sp.csr_matrix((values[~inner], (rows[~inner], cols[~inner] - m)), shape=(m, l))
    scale = 1.0 / (h * h)
    top = [scale * block_omega, scale * block_gamma]
    identity = scale * sp.identity(l, format="csr")
    a_dirichlet = sp.bmat([top, [None, identity]], format="csr")
    a_neumann = sp.bmat([top, [scale * block_gamma.T, identity]], format="csr")
    return StiffnessPair(a_dirichlet, a_neumann, block_omega, block_gamma)


def manufactured_solve(grid, form, exact_u, exact_f):
    """Dirichlet solve on a built grid and form against a manufactured solution.

    exact_u must vanish on the cube boundary (checked on the boundary
    nodes); the load is sampled from exact_f at the interior nodes.  Each
    of exact_u, exact_f is a `p -> float` callable of one point, or, when
    it carries a true `vectorized` attribute (the marker `quadrature_kernel`
    also honours), a function called once on the (d, k) coordinate stack
    that returns the k values.
    Returns (max-norm error over the interior, solution).
    """
    pts_omega = grid.measure.points[grid.domain.omega]
    trace = _sample(exact_u, grid.measure.points[grid.domain.gamma])
    if np.any(np.abs(trace) > 1e-12):
        raise ValueError("exact_u must vanish on the cube boundary")
    f = _sample(exact_f, pts_omega)
    solution = solve_dirichlet(DirichletProblem(form, f, np.zeros(grid.l)), tol=SOLVE_TOL)
    reference = _sample(exact_u, pts_omega)
    return float(np.max(np.abs(solution.u[: grid.m] - reference))), solution


def _order(prev_error, error):
    """Observed order log2(prev_error / error); nan unless both are positive."""
    return float(np.log2(prev_error / error)) if prev_error > 0 and error > 0 else float("nan")


def convergence_study(d, exact_u, exact_f, h_list):
    """Dirichlet solves against a manufactured solution over decreasing steps.

    Each step builds its grid and form and runs `manufactured_solve`, so
    exact_u and exact_f may be per-point callables or carry the
    `vectorized` marker described there; the observed order compares
    consecutive steps.
    """
    h_list = list(h_list)
    if any(h_list[i] <= h_list[i + 1] for i in range(len(h_list) - 1)):
        raise ValueError("h_list must be strictly decreasing")
    rows = []
    prev_error = float("nan")
    for h in h_list:
        grid = unit_cube_grid(d, h)
        form = assemble_form(grid.kernel, grid.measure, grid.domain)
        error, _ = manufactured_solve(grid, form, exact_u, exact_f)
        rows.append(StudyRow(h=h, max_error=error, order=_order(prev_error, error)))
        prev_error = error
    return rows


def nonnegative_type_check(matrix, rows):
    """Check non-positive off-diagonals and non-negative row sums on the
    given rows; also report whether the row sums vanish identically."""
    matrix = sp.csr_matrix(matrix)
    scale = max(float(abs(matrix).max()), 1.0) if matrix.nnz else 1.0
    tol = ZERO_ROWSUM_TOL * scale
    rows = np.asarray(rows, dtype=int)
    block = matrix[rows]
    sums = block @ np.ones(matrix.shape[1])  # CSR order, as a running row sum
    entries = block.tocoo()
    off_diagonal = entries.data[rows[entries.row] != entries.col]
    nonnegative = not (np.any(off_diagonal > tol) or np.any(sums < -tol))
    zero_sums = not np.any(np.abs(sums) > tol)
    return NonnegativeTypeReport(nonnegative_type=nonnegative, zero_row_sums=zero_sums)


def discrete_max_principle_check(matrix, u, m, n):
    """Evaluate the global discrete maximum principle on one vector:

    if (A u)_i <= 0 on the leading m rows then max over all n entries of u
    must not exceed the max over the trailing boundary entries.  Returns
    True when the conclusion holds or the premise fails; raises
    HypothesisViolated when the matrix itself is inadmissible.

    With vanishing row sums the leading m x m block is nonsingular exactly
    when it is weakly chained diagonally dominant: every leading row reaches,
    along the nonzero couplings of the leading block, a row with a nonzero
    entry in the trailing columns.  The rows that reach none form a block
    with zero row sums and no coupling out of it, which is singular.
    """
    matrix = sp.csr_matrix(matrix)
    if matrix.shape != (m, n):
        raise ValueError(f"expected an {m} x {n} matrix, got {matrix.shape}")
    report = nonnegative_type_check(matrix, range(m))
    if not report.nonnegative_type or not report.zero_row_sums:
        raise HypothesisViolated(
            "matrix is not of non-negative type with vanishing row sums"
        )
    # reversed coupling graph with every trailing column merged into node m
    coo = matrix.tocoo()
    nonzero = coo.data != 0.0
    reversed_graph = sp.csr_matrix(
        (np.ones(nonzero.sum()), (np.minimum(coo.col[nonzero], m), coo.row[nonzero])),
        shape=(m + 1, m + 1),
    )
    if csgraph.breadth_first_order(reversed_graph, m, return_predecessors=False).size <= m:
        raise HypothesisViolated("leading block is singular")
    u = np.asarray(u, dtype=float)
    applied = matrix @ u
    scale = max(1.0, float(np.max(np.abs(applied))), float(np.max(np.abs(u))))
    premise = bool(np.all(applied <= ZERO_ROWSUM_TOL * scale))
    if not premise:
        return True
    return float(np.max(u)) <= float(np.max(u[m:])) + ZERO_ROWSUM_TOL * scale


def graph_bvp_demo(edges, omega_vertices, f, tol=1e-12):
    """Dirichlet problem for the degree-normalized graph Laplacian.

    Builds the graph kernel with its degree measure, takes the boundary as
    the neighbors of the interior set, and solves with zero boundary data.
    Before solving, the assembled system is verified against the direct
    block rules (degree on the diagonal, minus the conductance off it).
    """
    edges = list(edges)  # read once: for the kernel and for the check below
    kernel, measure = graph_kernel(edges)
    n_vertices = len(measure)
    if csgraph.connected_components(kernel.matrix, directed=False)[0] != 1:
        raise ValueError("graph must be connected")
    omega = sorted(int(v) for v in omega_vertices)
    if not omega or len(omega) >= n_vertices:
        raise ValueError("omega_vertices must be a non-empty proper subset")
    domain = nonlocal_boundary(kernel, omega, measure)
    form = assemble_form(kernel, measure, domain)
    m, order = domain.m, domain.order
    i, j, c = np.array(edges, dtype=float).T
    i, j = i.astype(int), j.astype(int)
    conductance = sp.csr_matrix((np.r_[c, c], (np.r_[i, j], np.r_[j, i])), shape=(n_vertices,) * 2)
    conductance = conductance[order[:m]][:, order]
    rows = form.matrix[:m]
    degree = measure.masses[order[:m]]
    if np.any(np.abs(rows.diagonal() - degree) > 1e-12 * np.maximum(1.0, degree)):
        raise AssertionError("assembled diagonal differs from the vertex degree")
    gap = abs(rows - sp.diags(rows.diagonal(), shape=rows.shape) + conductance)
    if (gap > 1e-12).multiply(gap > 1e-12 * conductance).nnz:
        raise AssertionError("assembled off-diagonal differs from the conductance")
    return solve_dirichlet(DirichletProblem(form, f, np.zeros(domain.l)), tol=tol)
