"""Built-in benchmark: the discrete Poisson problem on the unit cube.

The (2d+1)-point difference operator on a step-h lattice is a nonlocal
operator with an atomic kernel, and its classical Dirichlet/Neumann systems
are exactly the weak problems of this package under the counting measure on
the lattice.  This module builds those grids, constructs the stiffness
matrices directly from the adjacency rules (an independent route against
which the kernel-based assembly is checked), runs convergence studies, and
carries the discrete maximum principle toolkit plus a weighted-graph demo.
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
from .measure import (
    AtomicMeasure,
    graph_kernel,
    nonlocal_boundary,
    stencil_kernel,
)
from .solvers import DirichletProblem, solve_dirichlet

ZERO_ROWSUM_TOL = 1e-12


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

    @property
    def omega_nodes(self):
        return self.domain.omega

    @property
    def boundary_nodes(self):
        return self.domain.gamma


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

    Requires 1/h to be an integer >= 2 and d in {1, 2, 3}.
    """
    if d not in (1, 2, 3):
        raise BadStep(f"dimension {d} not supported; use 1, 2, or 3")
    n_axis = round(1.0 / h)
    if h <= 0.0 or abs(1.0 / h - n_axis) > 1e-9 or n_axis < 2:
        raise BadStep(f"step {h} is not the reciprocal of an integer >= 2")
    indices = np.array(list(itertools.product(range(n_axis + 1), repeat=d)))  # lexicographic
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
    cross-check of the assembly.
    """
    d, h, n_axis = grid.d, grid.h, grid.n_axis
    domain = grid.domain
    m, l = domain.m, domain.l
    index_of = {}
    for local, node in enumerate(domain.order):
        key = tuple(int(round(c / h)) for c in grid.measure.points[node])
        index_of[key] = local

    def neighbors(key):
        for axis in range(d):
            for step in (1, -1):
                nb = list(key)
                nb[axis] += step
                if 0 <= nb[axis] <= n_axis:
                    yield tuple(nb)

    rows_o, cols_o, vals_o = [], [], []
    rows_g, cols_g, vals_g = [], [], []
    for key, j in index_of.items():
        if j >= m:
            continue
        rows_o.append(j)
        cols_o.append(j)
        vals_o.append(2 * d)
        for nb in neighbors(key):
            k = index_of.get(nb)
            if k is None:
                continue
            if k < m:
                rows_o.append(j)
                cols_o.append(k)
                vals_o.append(-1)
            else:
                rows_g.append(j)
                cols_g.append(k - m)
                vals_g.append(-1)
    block_omega = sp.coo_matrix((vals_o, (rows_o, cols_o)), shape=(m, m)).tocsr()
    block_gamma = sp.coo_matrix((vals_g, (rows_g, cols_g)), shape=(m, l)).tocsr()
    identity = sp.identity(l, format="csr")
    scale = 1.0 / (h * h)
    a_dirichlet = sp.bmat(
        [[scale * block_omega, scale * block_gamma], [None, scale * identity]],
        format="csr",
    )
    a_neumann = sp.bmat(
        [
            [scale * block_omega, scale * block_gamma],
            [scale * block_gamma.T, scale * identity],
        ],
        format="csr",
    )
    return StiffnessPair(
        a_dirichlet=a_dirichlet,
        a_neumann=a_neumann,
        block_omega=block_omega,
        block_gamma=block_gamma,
    )


def manufactured_solve(grid, form, exact_u, exact_f, solve_tol=1e-13):
    """Dirichlet solve on a built grid and form against a manufactured solution.

    exact_u must vanish on the cube boundary (checked on the boundary
    nodes); the load is sampled from exact_f at the interior nodes.
    Returns (max-norm error over the interior, solution).
    """
    pts_omega = grid.measure.points[grid.domain.omega]
    pts_gamma = grid.measure.points[grid.domain.gamma]
    trace = np.array([exact_u(p) for p in pts_gamma])
    if np.any(np.abs(trace) > 1e-12):
        raise ValueError("exact_u must vanish on the cube boundary")
    f = np.array([exact_f(p) for p in pts_omega])
    solution = solve_dirichlet(DirichletProblem(form, f, np.zeros(grid.l)), tol=solve_tol)
    reference = np.array([exact_u(p) for p in pts_omega])
    return float(np.max(np.abs(solution.u[: grid.m] - reference))), solution


def convergence_study(d, exact_u, exact_f, h_list, solve_tol=1e-13):
    """Dirichlet solves against a manufactured solution over decreasing steps.

    Each step builds its grid and form and runs `manufactured_solve`; the
    observed order compares consecutive steps.
    """
    h_list = list(h_list)
    if any(h_list[i] <= h_list[i + 1] for i in range(len(h_list) - 1)):
        raise ValueError("h_list must be strictly decreasing")
    rows = []
    prev_error = None
    for h in h_list:
        grid = unit_cube_grid(d, h)
        form = assemble_form(grid.kernel, grid.measure, grid.domain)
        error, _ = manufactured_solve(grid, form, exact_u, exact_f, solve_tol)
        order = math.log2(prev_error / error) if prev_error is not None and error > 0 else float("nan")
        rows.append(StudyRow(h=h, max_error=error, order=order))
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
    conductances = kernel.params["conductances"]
    (i, j), c = np.array(list(conductances), dtype=int).T, list(conductances.values())
    conductance = sp.csr_matrix((c + c, (np.r_[i, j], np.r_[j, i])), shape=(n_vertices,) * 2)
    conductance = conductance[order[:m]][:, order]
    rows = form.matrix[:m]
    degree = measure.masses[order[:m]]
    if np.any(np.abs(rows.diagonal() - degree) > 1e-12 * np.maximum(1.0, degree)):
        raise AssertionError("assembled diagonal differs from the vertex degree")
    gap = abs(rows - sp.diags(rows.diagonal(), shape=rows.shape) + conductance)
    if (gap > 1e-12).multiply(gap > 1e-12 * conductance).nnz:
        raise AssertionError("assembled off-diagonal differs from the conductance")
    f = np.asarray(f, dtype=float)
    problem = DirichletProblem(form, f, np.zeros(domain.l))
    return solve_dirichlet(problem, tol=tol)
