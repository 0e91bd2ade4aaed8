"""Atomic measures, transition kernels, and the nonlocal boundary.

A measure is a finite set of nodes in R^d with strictly positive masses.
A transition kernel on n nodes is one non-negative n x n CSR matrix K with
K[x, y] = K(x, {y}); evaluating it on a node set sums a row over the set's
columns.  Symmetry with respect to the measure says that W = diag(m) K equals
its transpose, so the symmetry check, the boundary split and everything built
on them downstream are sparse-matrix expressions over K or W.

Nodes are paired by one linked-cell search (`_close_pairs`): nodes are binned
into cells of the search radius and compared only with the nodes of adjacent
cells.  It serves the coincidence scan of the measure, stencil target
resolution and quadrature neighborhoods.

The node x itself never appears in its own support: the difference
u(x) - u(y) vanishes on the diagonal, so diagonal atoms would contribute
nothing to any operator built here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .errors import (
    AsymmetricDensity,
    IsolatedVertex,
    NonCommensurateGrid,
    NonPositiveConductance,
)

DEFAULT_LOOKUP_TOL = 1e-12

# Nodes whose kernel mass toward the interior is positive but below this
# threshold still join the boundary, flagged as ill-conditioned trace data.
WEAK_BOUNDARY_THRESHOLD = 1e-14


class KernelEntry(NamedTuple):
    target: int
    weight: float


def _close_pairs(points, radius):
    """Ordered pairs (i, j), i != j, of nodes at distance <= radius, sorted.

    Linked-cell search: cells have side `radius` and a node is compared only
    with the nodes of its own and the adjacent cells, one cell offset at a
    time so that only the surviving pairs are kept.  Cells are indexed by the
    ranks of the occupied cell coordinates along each axis, so their ids stay
    below n^d however small `radius` is.  A rank step that skips empty cells
    only adds candidates, which the distance filter drops.
    """
    n, d = points.shape
    coords = np.ascontiguousarray(points.T)
    cells = np.floor(points / max(radius, 1e-300))
    ranks = np.stack([np.unique(axis, return_inverse=True)[1] for axis in cells.T], axis=1)
    sizes = ranks.max(axis=0) + 1
    strides = np.cumprod(np.concatenate(([1], sizes[:-1])))
    cell_ids = ranks @ strides
    by_cell = np.argsort(cell_ids, kind="stable")
    sorted_ids = cell_ids[by_cell]
    found_i, found_j = [], []
    # offsets o and -o find the same pairs mirrored: scan the zero offset and
    # the half of the offsets after it, and mirror what they find
    for offset in list(itertools.product((-1, 0, 1), repeat=d))[3**d // 2 :]:
        nbr = ranks + offset
        nbr_id = nbr @ strides
        lo = np.searchsorted(sorted_ids, nbr_id, "left")
        count = np.searchsorted(sorted_ids, nbr_id, "right") - lo
        count[~np.all((nbr >= 0) & (nbr < sizes), axis=1)] = 0
        i = np.repeat(np.arange(n), count)
        j = by_cell[np.arange(i.size) + np.repeat(lo - np.cumsum(count) + count, count)]
        close = np.linalg.norm(coords[:, j] - coords[:, i], axis=0) <= radius
        keep = close & ((i < j) | any(offset))
        found_i += [i[keep], j[keep]]
        found_j += [j[keep], i[keep]]
    i, j = np.concatenate(found_i), np.concatenate(found_j)
    order = np.argsort(i * n + j)
    return i[order], j[order]


class AtomicMeasure:
    """Finite node set in R^d with positive masses and coordinate lookup.

    Parameters
    ----------
    points : array_like, shape (n, d)
        Node coordinates.  Must be pairwise distinct under `lookup_tol`.
    masses : array_like, shape (n,), optional
        Strictly positive node masses; defaults to 1 everywhere.
    lookup_tol : float
        Absolute coordinate tolerance for node identification.
    """

    def __init__(self, points, masses=None, lookup_tol=DEFAULT_LOOKUP_TOL):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ValueError("points must be a non-empty (n, d) array")
        self.points = pts
        n = pts.shape[0]
        if masses is None:
            self.masses = np.ones(n)
        else:
            self.masses = np.asarray(masses, dtype=float)
            if self.masses.shape != (n,):
                raise ValueError("masses must have one entry per node")
            if np.any(self.masses <= 0.0):
                raise ValueError("all node masses must be strictly positive")
        self.lookup_tol = float(lookup_tol)
        i, j = _close_pairs(pts, self.lookup_tol)
        if i.size:
            raise ValueError(
                f"nodes {j[0]} and {i[0]} coincide within tolerance {self.lookup_tol}"
            )

    # -- basic queries ---------------------------------------------------

    def __len__(self):
        return self.points.shape[0]

    @property
    def dim(self):
        return self.points.shape[1]

    @property
    def total_mass(self):
        return float(self.masses.sum())

    def locate(self, point, tol=None):
        """Return the node id within `tol` of `point`, or None."""
        tol = self.lookup_tol if tol is None else float(tol)
        dist = np.linalg.norm(self.points - np.asarray(point, dtype=float), axis=1)
        best = int(np.argmin(dist))
        return best if dist[best] <= tol else None

    def near(self, point, radius):
        """Node ids with 0 < distance(point, node) <= radius."""
        dist = np.linalg.norm(self.points - np.asarray(point, dtype=float), axis=1)
        return np.flatnonzero((dist > 0.0) & (dist <= radius)).tolist()


class TransitionKernel:
    """Kernel K(x, .) on n nodes stored as one n x n CSR matrix.

    `matrix[x, y]` is K(x, {y}).  `support` is either that matrix (any scipy
    sparse format) or, per node, a list of (target, weight) pairs; repeated
    targets are summed.  Weights are non-negative and never on the diagonal.
    """

    def __init__(self, support, family, params=None):
        if sp.issparse(support):
            matrix = sp.csr_matrix(support, dtype=float)
        else:
            support = list(support)
            atoms = [(x, t, w) for x, entries in enumerate(support) for t, w in entries]
            x, t, w = np.array(atoms, dtype=float).reshape(-1, 3).T
            matrix = sp.csr_matrix((w, (x.astype(int), t.astype(int))), shape=(len(support),) * 2)
        matrix.sum_duplicates()  # canonical CSR: rows ascending by target
        self.matrix = matrix
        self.family = family
        self.params = dict(params or {})
        rows = np.repeat(np.arange(matrix.shape[0]), np.diff(matrix.indptr))
        bad = np.flatnonzero((matrix.data < 0.0) | (matrix.indices == rows))
        if bad.size:
            kind = "negative kernel weight" if matrix.data[bad[0]] < 0.0 else "diagonal kernel atom"
            raise ValueError(f"{kind} at node {rows[bad[0]]}")

    def __len__(self):
        return self.matrix.shape[0]

    def _row(self, node):
        span = slice(self.matrix.indptr[node], self.matrix.indptr[node + 1])
        return self.matrix.indices[span], self.matrix.data[span]

    def entries(self, node):
        """The atoms of K(node, .) as KernelEntry pairs, ascending by target."""
        return [KernelEntry(int(t), float(w)) for t, w in zip(*self._row(node))]

    @property
    def support(self):
        """Per-node entry lists, as `entries` gives them."""
        k = self.matrix
        atoms = list(map(KernelEntry, k.indices.tolist(), k.data.tolist()))
        return [atoms[a:b] for a, b in zip(k.indptr[:-1].tolist(), k.indptr[1:].tolist())]

    def evaluate(self, node, targets):
        """K(node, S) for a node set S given as ids."""
        cols, weights = self._row(node)
        return float(weights[np.isin(cols, list(targets))].sum())

    def total(self, node):
        """K(node, R^d): the full kernel mass of one node."""
        return float(self._row(node)[1].sum())


@dataclass(frozen=True)
class NonlocalDomain:
    """Partition of the node set into interior, nonlocal boundary, exterior.

    The canonical ordering (interior first, then boundary, each ascending by
    node id) is fixed here and reused by assembly, solvers and reports.
    `_pos[node]` is the node's local index in that ordering, -1 if exterior.
    """

    omega: np.ndarray
    gamma: np.ndarray
    exterior: np.ndarray
    weak_gamma: np.ndarray
    _pos: np.ndarray = field(repr=False, compare=False, default=None)

    @property
    def m(self):
        return len(self.omega)

    @property
    def l(self):
        return len(self.gamma)

    @property
    def n(self):
        return self.m + self.l

    @property
    def order(self):
        return np.concatenate([self.omega, self.gamma])

    def position(self, node):
        """Local index of a node in the canonical ordering."""
        p = self.local(node)
        if p is None:
            raise KeyError(int(node))
        return p

    def local(self, node):
        """Local index, or None for exterior nodes."""
        node = int(node)
        if not 0 <= node < len(self._pos) or self._pos[node] < 0:
            return None
        return int(self._pos[node])

    def is_omega(self, node):
        p = self.local(node)
        return p is not None and p < self.m

    def is_gamma(self, node):
        p = self.local(node)
        return p is not None and p >= self.m


def nonlocal_boundary(kernel, omega, measure):
    """Split the node set: boundary = nodes outside omega with K(y, omega) > 0.

    The split is exact: kernel masses toward omega are finite sums, the row
    sums of K over omega's columns.  Nodes whose mass toward omega is positive
    but below WEAK_BOUNDARY_THRESHOLD are kept in the boundary and listed in
    `weak_gamma`.
    """
    omega_ids = np.sort(np.fromiter(omega, dtype=int))
    n = len(measure)
    outside = (omega_ids < 0) | (omega_ids >= n)
    if outside.any():
        raise ValueError(f"omega references node {omega_ids[outside][0]} outside the measure")
    if np.any(np.diff(omega_ids) == 0):
        raise ValueError("omega contains duplicate nodes")
    in_omega = np.zeros(n, dtype=bool)
    in_omega[omega_ids] = True
    k_to_omega = kernel.matrix @ in_omega.astype(float)
    reaches = k_to_omega > 0.0
    gamma = np.flatnonzero(~in_omega & reaches)
    pos = np.full(n, -1)
    pos[np.r_[omega_ids, gamma]] = np.arange(len(omega_ids) + len(gamma))
    return NonlocalDomain(
        omega=omega_ids,
        gamma=gamma,
        exterior=np.flatnonzero(~in_omega & ~reaches),
        weak_gamma=gamma[k_to_omega[gamma] < WEAK_BOUNDARY_THRESHOLD],
        _pos=pos,
    )


def stencil_kernel(d, h, measure):
    """Kernel of the (2d+1)-point difference operator on a step-h lattice.

    Every node gets the atoms (x + h e_i, 1/h^2) and (x - h e_i, 1/h^2) for
    each axis whose target resolves to a node of the measure (the nearest
    within h * 1e-9); missing targets are omitted.  A target that resolves
    to no node but has some node strictly within h/2 signals a lattice that
    is not commensurate with h.  Both scans run over the node pairs within
    1.5 h, which contain every node that close to a target.
    """
    if h <= 0.0:
        raise ValueError("step h must be positive")
    if measure.dim != d:
        raise ValueError(f"measure has dimension {measure.dim}, expected {d}")
    tol = h * 1e-9
    band = 0.5 * h * (1.0 - 1e-9)  # open band: a node at exactly h/2 is a legitimate finer lattice
    pts = measure.points
    i, j = _close_pairs(pts, 1.5 * h)
    offsets = (pts[j] - pts[i]).T
    rows, cols, failures = [], [], []
    for axis in range(d):
        for s, sign in enumerate((1.0, -1.0)):
            from_target = offsets.copy()
            from_target[axis] -= sign * h
            dist = np.linalg.norm(from_target, axis=0)
            hits = np.flatnonzero(dist <= tol)
            hits = hits[np.lexsort((dist[hits], i[hits]))]
            hits = hits[np.unique(i[hits], return_index=True)[1]]  # the nearest per node
            rows.append(i[hits])
            cols.append(j[hits])
            strays = np.flatnonzero((dist > 0.0) & (dist <= band) & ~np.isin(i, i[hits]))
            if strays.size:
                failures.append((i[strays[0]], axis, s, j[strays[0]]))
    if failures:
        node, axis, _, stray = min(failures)
        raise NonCommensurateGrid(
            f"target of node {node} along axis {axis} lands between nodes "
            f"(nearest stray: node {stray})"
        )
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    matrix = sp.csr_matrix((np.full(rows.size, 1.0 / (h * h)), (rows, cols)), shape=(len(pts),) * 2)
    return TransitionKernel(matrix, "stencil", {"d": d, "h": h})


def graph_kernel(edges, coordinates=None):
    """Degree-normalized kernel of a weighted graph, with its degree measure.

    Parameters
    ----------
    edges : sequence of (i, j, conductance)
        Undirected edges over integer vertex ids 0..V-1, each listed once.
    coordinates : array_like, optional
        Vertex embedding in R^d; defaults to vertex k at (k,).

    Returns
    -------
    (TransitionKernel, AtomicMeasure)
        Kernel with support(x) = {(y, mu_xy / mu(x)) : y ~ x} and the measure
        carrying the vertex degree mu(x) = sum_y mu_xy as node mass.
    """
    conductances: dict[tuple[int, int], float] = {}
    for i, j, c in edges:
        i, j, c = int(i), int(j), float(c)
        if c <= 0.0:
            raise NonPositiveConductance(f"edge ({i}, {j}) has conductance {c}")
        if i == j:
            raise ValueError(f"self-loop at vertex {i}")
        key = (min(i, j), max(i, j))
        if key in conductances:
            raise ValueError(f"edge ({i}, {j}) listed more than once")
        conductances[key] = c
    if not conductances:
        raise ValueError("edge list is empty")
    (i, j), c = np.array(list(conductances), dtype=int).T, list(conductances.values())
    max_id = int(j.max())
    if coordinates is None:
        n_vertices = max_id + 1
        coordinates = np.arange(n_vertices, dtype=float)[:, None]
    else:
        coordinates = np.atleast_2d(np.asarray(coordinates, dtype=float))
        n_vertices = coordinates.shape[0]
        if max_id >= n_vertices:
            raise ValueError("edge references a vertex beyond the coordinate list")
    matrix = sp.csr_matrix((c + c, (np.r_[i, j], np.r_[j, i])), shape=(n_vertices,) * 2)
    degrees = matrix @ np.ones(n_vertices)
    if np.any(degrees == 0.0):
        raise IsolatedVertex(f"vertex {np.flatnonzero(degrees == 0.0)[0]} has no incident edge")
    matrix.data /= np.repeat(degrees, np.diff(matrix.indptr))
    measure = AtomicMeasure(coordinates, degrees)
    kernel = TransitionKernel(matrix, "graph", {"conductances": conductances})
    return kernel, measure


def quadrature_kernel(gamma, delta, measure, symmetry_tol=1e-12):
    """Kernel of a truncated density: weight gamma(x, y) * mass(y) within delta.

    The node masses act as quadrature weights, so continuum densities enter
    only through their values at node pairs.  The cut-off |x - y| <= delta
    is taken up to the measure's coordinate tolerance `lookup_tol`, so pairs
    at exactly delta (a lattice with delta a multiple of its step) are kept
    however their coordinates were rounded.  The density is probed once per
    unordered pair within delta, in both orientations, and checked for
    symmetry there; an asymmetric density is rejected rather than
    symmetrized, since silent symmetrization would mask modeling errors.

    `gamma` is either a `(p, q) -> float` callable, probed pair by pair, or
    a vectorized density (marked by a true `gamma.vectorized` attribute, as
    `fileio.radial_density` returns) that takes coordinate-major stacks of
    shape (d, k) and returns the k values; it is called once per orientation.
    """
    if delta <= 0.0:
        raise ValueError("interaction radius delta must be positive")
    pts = measure.points
    i, j = _close_pairs(pts, delta + measure.lookup_tol)
    i, j = i[i < j], j[i < j]
    if getattr(gamma, "vectorized", False):
        g_ij = np.asarray(gamma(pts[i].T, pts[j].T), dtype=float)
        g_ji = np.asarray(gamma(pts[j].T, pts[i].T), dtype=float)
    else:
        pairs = list(zip(i.tolist(), j.tolist()))
        g_ij = np.array([float(gamma(pts[a], pts[b])) for a, b in pairs])
        g_ji = np.array([float(gamma(pts[b], pts[a])) for a, b in pairs])
    negative = (g_ij < 0.0) | (g_ji < 0.0)
    scale = np.maximum(1.0, np.maximum(np.abs(g_ij), np.abs(g_ji)))
    failing = np.flatnonzero(negative | (np.abs(g_ij - g_ji) > symmetry_tol * scale))
    if failing.size:
        k = failing[0]
        if negative[k]:
            raise ValueError(f"density is negative on pair ({i[k]}, {j[k]})")
        raise AsymmetricDensity(
            f"gamma({i[k]}, {j[k]}) = {float(g_ij[k])} but gamma({j[k]}, {i[k]}) = {float(g_ji[k])}"
        )
    density = sp.csr_matrix((np.r_[g_ij, g_ji], (np.r_[i, j], np.r_[j, i])), shape=(len(pts),) * 2)
    return TransitionKernel(density @ sp.diags(measure.masses), "quadrature", {"delta": delta})


def symmetry_defect(kernel, measure):
    """Worst violation of mass(x) K(x,{y}) = mass(y) K(y,{x}) over node pairs,
    max |W - W^T| with W = diag(mass) K.

    Zero exactly when the product of measure and kernel is flip-invariant on
    the atomic product sigma-algebra.
    """
    if len(kernel) != len(measure):
        raise ValueError("kernel and measure describe different node counts")
    weights = sp.diags(measure.masses) @ kernel.matrix
    return float(abs(weights - weights.T).max())
