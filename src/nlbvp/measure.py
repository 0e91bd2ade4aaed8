"""Atomic measures, transition kernels, and the nonlocal boundary.

A measure is a finite set of nodes in R^d with strictly positive masses.
A transition kernel on n nodes is one non-negative n x n CSR matrix K with
K[x, y] = K(x, {y}); K(x, S) is the row of x summed against S's 0/1 indicator.
Symmetry with respect to the measure says that W = diag(m) K (K's data scaled
by row masses) equals its transpose, so the symmetry check, the boundary split
and all downstream stages are sparse expressions over K or W.

Nodes are paired by one linked-cell search (`_close_pairs`): nodes are binned
into cells of the search radius, and the occupied cells look up their
neighbour cells once per cell offset, so each unordered pair is found once.
A step between adjacent cells along an axis is taken only when the two
cells' coordinate extents on that axis come within the radius, so a tiny
radius compares each node with its own cell alone.  Distances are taken at
the search's scale (`_distance`), so no pair depends on how it was searched
or on a power-of-two scaling of the layout.  The search serves the
coincidence scan, stencil targets off h Z^d and quadrature neighborhoods.

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
DENSITY_SYMMETRY_TOL = 1e-12  # relative to max(1, |gamma|) on each pair

# Nodes whose kernel mass toward the interior is positive but below this
# threshold still join the boundary, flagged as ill-conditioned trace data.
WEAK_BOUNDARY_THRESHOLD = 1e-14


class KernelEntry(NamedTuple):
    target: int
    weight: float


def _distance(diffs, scale):
    """Euclidean lengths of the difference columns `diffs`, taken over 2^e >
    |scale| and scaled back: exact, so `np.linalg.norm`'s bits wherever its
    squares neither over- nor underflow; near `scale` none do, far ones may be inf."""
    e = np.frexp(scale)[1]
    with np.errstate(over="ignore"):
        return np.ldexp(np.sqrt(sum(np.ldexp(c, -e) ** 2 for c in diffs)), e)


def _axis_cells(coord, radius):
    """Cells of width `radius` along one axis.

    Returns each node's cell rank among the occupied cells and, per rank r,
    whether a pair within `radius` can join cell r to cell r + 1: whether the
    gap from r's largest to r + 1's smallest coordinate is at most `radius`.
    """
    order = np.argsort(coord, kind="stable")
    ordered = coord[order]
    with np.errstate(all="ignore"):
        cells = np.floor(ordered / radius)
    # past the float range (or at radius 0) distinct coordinates are never within radius
    cells = np.where(np.isfinite(cells), cells, ordered)
    new = np.r_[True, cells[1:] != cells[:-1]]
    rank = np.empty(coord.size, dtype=np.int64)
    rank[order] = np.cumsum(new) - 1
    starts = np.flatnonzero(new)[1:]
    return rank, ordered[starts] - ordered[starts - 1] <= radius


def _close_pairs(points, radius):
    """Pairs (i, j), i < j, of nodes at distance <= radius, sorted.

    Linked-cell search over occupied cells.  Cells have side `radius` and are
    indexed by the ranks of the occupied cell coordinates along each axis, so
    their ids stay below n^d however small `radius` is.  For each cell offset
    (the zero offset and half of the others; the rest mirror them), one
    `searchsorted` of the sorted cell ids shifted by the offset finds the
    neighbour cells, and every node of a cell meets every node of its
    neighbour, so each unordered pair is met once.  A rank step along an axis
    is taken only when the two cells' coordinate extents on that axis come
    within `radius` (`_axis_cells`), so rank steps over empty cells add no
    candidates, and an offset is skipped when it steps along an axis where no
    step is taken.  The filter is `_distance` at the scale of `radius`: a kept
    pair differs by at most `radius` on every axis, so the step rule drops
    none; radius 0 pairs coincident nodes only, a negative radius none.
    """
    n, d = points.shape
    ranks, steps = zip(*(_axis_cells(axis, radius) for axis in points.T))
    strides = np.cumprod([1] + [step.size + 1 for step in steps[:-1]])
    node_cell = sum(rank * stride for rank, stride in zip(ranks, strides))
    by_cell = np.argsort(node_cell, kind="stable")
    sorted_cells = node_cell[by_cell]
    first = np.flatnonzero(np.r_[True, sorted_cells[1:] != sorted_cells[:-1]])
    cell_ids, counts = sorted_cells[first], np.diff(np.r_[first, n])
    cell_ranks = [rank[by_cell[first]] for rank in ranks]
    coords = np.ascontiguousarray(points[by_cell].T)  # nodes in cell order
    keys = []
    for offset in list(itertools.product((-1, 0, 1), repeat=d))[3**d // 2 :]:
        if any(o and not step.any() for o, step in zip(offset, steps)):
            continue  # no rank step along that axis is taken
        allowed = np.ones(cell_ids.size, dtype=bool)
        for rank, step, o in zip(cell_ranks, steps, offset):
            if o:
                allowed &= (np.r_[step, False] if o > 0 else np.r_[False, step])[rank]
        a = np.flatnonzero(allowed)
        target = cell_ids[a] + int(np.dot(offset, strides))
        b = np.minimum(np.searchsorted(cell_ids, target), cell_ids.size - 1)
        found = cell_ids[b] == target
        a, b = a[found], b[found]
        # every node of cell a against every node of cell b, by cell-order slot
        per = counts[a] * counts[b]
        local = np.arange(per.sum()) - np.repeat(np.cumsum(per) - per, per)
        across, down = np.divmod(local, np.repeat(counts[b], per))
        u = np.repeat(first[a], per) + across
        v = np.repeat(first[b], per) + down
        close = _distance((axis[v] - axis[u] for axis in coords), radius) <= radius
        i, j = by_cell[u[close]], by_cell[v[close]]
        if not any(offset):
            i, j = i[i < j], j[i < j]
        keys.append(np.minimum(i, j) * n + np.maximum(i, j))
    key = np.sort(np.concatenate(keys))
    return key // n, key % n


def _sample(func, *points):
    """The k values of `func` at the rows of the (k, d) arrays `points`: one
    call on their (d, k) coordinate stacks when `func.vectorized` is true (a
    scalar result is broadcast), else one call per row.  It probes the
    (p, q) densities of `quadrature_kernel` and the manufactured solutions
    of `poisson.manufactured_solve`."""
    values = np.empty(points[0].shape[0])
    if getattr(func, "vectorized", False):
        values[...] = func(*(p.T for p in points))
    else:
        values[...] = [float(func(*row)) for row in zip(*points)]
    return values


class AtomicMeasure:
    """Finite node set in R^d with positive masses and coordinate lookup.

    Parameters
    ----------
    points : array_like, shape (n, d)
        Finite node coordinates.  Must be pairwise distinct under `lookup_tol`.
    masses : array_like, shape (n,), optional
        Strictly positive finite node masses; defaults to 1 everywhere.
    lookup_tol : float
        Finite absolute coordinate tolerance for node identification.
    """

    def __init__(self, points, masses=None, lookup_tol=DEFAULT_LOOKUP_TOL):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ValueError("points must be a non-empty (n, d) array")
        nonfinite = np.flatnonzero(~np.isfinite(pts).all(axis=1))
        if nonfinite.size:
            raise ValueError(f"node {nonfinite[0]} has a non-finite coordinate")
        self.points = pts
        n = pts.shape[0]
        if masses is None:
            self.masses = np.ones(n)
        else:
            self.masses = np.asarray(masses, dtype=float)
            if self.masses.shape != (n,):
                raise ValueError("masses must have one entry per node")
            if not np.all((self.masses > 0.0) & (self.masses < np.inf)):
                raise ValueError("all node masses must be strictly positive and finite")
        self.lookup_tol = float(lookup_tol)
        if not np.isfinite(self.lookup_tol):
            raise ValueError(f"lookup tolerance {self.lookup_tol} is not finite")
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

    def locate(self, point, tol=None):
        """Return the node id within `tol` of `point`, or None."""
        tol = self.lookup_tol if tol is None else float(tol)
        dist = _distance((self.points - np.asarray(point, dtype=float)).T, tol)
        best = int(np.argmin(dist))
        return best if dist[best] <= tol else None

    def near(self, point, radius):
        """Node ids with 0 < distance(point, node) <= radius."""
        dist = _distance((self.points - np.asarray(point, dtype=float)).T, radius)
        return np.flatnonzero((dist > 0.0) & (dist <= radius)).tolist()


def _node_ids(ids):
    """Node ids (any iterable) as an int64 array; a non-integer id is a ValueError."""
    values = ids.astype(float) if isinstance(ids, np.ndarray) else np.fromiter(ids, dtype=float)
    if np.any(values % 1):
        raise ValueError(f"node id {values[values % 1 != 0][0]} is not an integer")
    return values.astype(np.int64)


def _indicator(n, ids):
    """The 0/1 vector of the node set `ids` over n nodes: every K(x, S) is
    (K @ _indicator(n, S))[x].  An id outside 0..n-1 is a ValueError."""
    ids = np.asarray(ids, dtype=np.int64)
    outside = ids[(ids < 0) | (ids >= n)]
    if outside.size:
        raise ValueError(f"node id {outside[0]} is outside 0..{n - 1}")
    indicator = np.zeros(n)
    indicator[ids] = 1.0
    return indicator


class TransitionKernel:
    """Kernel K(x, .) on n nodes stored as one n x n CSR matrix.

    `matrix[x, y]` is K(x, {y}).  `support` is either that matrix (any scipy
    sparse format) or, per node, a list of (target, weight) pairs; repeated
    targets are summed.  Weights are finite, non-negative and never on the
    diagonal.
    """

    def __init__(self, support):
        if sp.issparse(support):
            matrix = sp.csr_matrix(support, dtype=float)
        else:
            support = list(support)
            atoms = [(x, t, w) for x, entries in enumerate(support) for t, w in entries]
            x, t, w = np.array(atoms, dtype=float).reshape(-1, 3).T
            matrix = sp.csr_matrix((w, (x.astype(int), t.astype(int))), shape=(len(support),) * 2)
        matrix.sum_duplicates()  # canonical CSR: rows ascending by target
        self.matrix = matrix
        rows = np.repeat(np.arange(matrix.shape[0]), np.diff(matrix.indptr))
        finite = np.isfinite(matrix.data)
        bad = np.flatnonzero(~finite | (matrix.data < 0.0) | (matrix.indices == rows))
        if bad.size:
            k = bad[0]
            kind = (
                "non-finite kernel weight" if not finite[k]
                else "negative kernel weight" if matrix.data[k] < 0.0
                else "diagonal kernel atom"
            )
            raise ValueError(f"{kind} at node {rows[k]}")

    def __len__(self):
        return self.matrix.shape[0]

    def entries(self, node):
        """The atoms of K(node, .) as KernelEntry pairs, ascending by target."""
        span = slice(self.matrix.indptr[node], self.matrix.indptr[node + 1])
        atoms = zip(self.matrix.indices[span], self.matrix.data[span])
        return [KernelEntry(int(t), float(w)) for t, w in atoms]

    @property
    def support(self):
        """Per-node entry lists, as `entries` gives them."""
        k = self.matrix
        atoms = list(map(KernelEntry, k.indices.tolist(), k.data.tolist()))
        return [atoms[a:b] for a, b in zip(k.indptr[:-1].tolist(), k.indptr[1:].tolist())]

    def evaluate(self, node, targets):
        """K(node, S) for a node set S given as ids: the bits of
        `(matrix @ _indicator(n, S))[node]`; a non-integer id or one outside 0..n-1
        is a ValueError."""
        if not 0 <= node < len(self):
            raise ValueError(f"node id {node} is outside 0..{len(self) - 1}")
        return float((self.matrix[node] @ _indicator(len(self), _node_ids(targets)))[0])


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
        """Local index of a node in the canonical ordering; KeyError if exterior."""
        node = int(node)
        if not 0 <= node < len(self._pos) or self._pos[node] < 0:
            raise KeyError(node)
        return int(self._pos[node])


def nonlocal_boundary(kernel, omega, measure):
    """Split the node set: boundary = nodes outside omega with K(y, omega) > 0.

    The split is exact: kernel masses toward omega are finite sums, the rows
    of K summed against omega's indicator.  Nodes whose mass toward omega is
    positive but below WEAK_BOUNDARY_THRESHOLD are kept in the boundary and
    listed in `weak_gamma`.  A non-integer id or one outside the measure is a ValueError.
    """
    omega_ids = np.sort(_node_ids(omega))
    n = len(measure)
    if np.any(np.diff(omega_ids) == 0):
        raise ValueError("omega contains duplicate nodes")
    in_omega = _indicator(n, omega_ids)
    k_to_omega = kernel.matrix @ in_omega
    reaches = k_to_omega > 0.0
    gamma = np.flatnonzero((in_omega == 0.0) & reaches)
    pos = np.full(n, -1)
    pos[np.r_[omega_ids, gamma]] = np.arange(len(omega_ids) + len(gamma))
    return NonlocalDomain(
        omega=omega_ids,
        gamma=gamma,
        exterior=np.flatnonzero((in_omega == 0.0) & ~reaches),
        weak_gamma=gamma[k_to_omega[gamma] < WEAK_BOUNDARY_THRESHOLD],
        _pos=pos,
    )


def _lattice_join(h, points):
    """Stencil atoms (rows, cols) joined by the keys k = rint(x / h), or None
    unless every node sits on its own point of h Z^d: |k| <= bound = min(2^16,
    2^(b-2)) with b = 62 // d, each coordinate within 1e-11 h of k h, and no
    key shared.  The fields k + bound <= 2^(b-1) pack into one int64 id, b
    bits per axis with axis 0 the most significant (the grids' order), so one
    sort of the ids and one `searchsorted` of every id plus every axis stride
    join node k both ways to node k + e_a (k's id plus stride a, no carry).
    No distance is taken, and memory is linear in the node count.

    These are `_stencil_search`'s atoms, so the CSR arrays agree bit for bit:
    with the rounding of k h (under 2^-53 |k| h < 7.3e-12 h) each node lies
    within 1.8e-11 h of its lattice point per axis, and the search takes its
    distances at the scale of h, so it puts node k + s e_a within
    3.7e-11 sqrt(d) h < h 1e-9 of the target x + s h e_a (for any d whose
    3^d cell offsets it can enumerate) and every other node nearly h away,
    beyond h/2: one hit per target, no tie and no stray.
    """
    bits = 62 // points.shape[1]
    bound = 2 ** min(16, bits - 2)
    with np.errstate(over="ignore"):  # a key past the float range fails the bound
        keys = np.rint(points / h)
    if not (np.abs(keys).max() <= bound and np.abs(points - keys * h).max() <= 1e-11 * h):
        return None
    strides = 2 ** (bits * np.arange(points.shape[1] - 1, -1, -1, dtype=np.int64))
    ids = (keys + bound).astype(np.int64) @ strides
    order = np.argsort(ids, kind="stable")
    ids = ids[order]
    if np.any(ids[1:] == ids[:-1]):
        return None  # two nodes share a key
    targets = (strides[:, None] + ids).ravel()  # axis by axis, every id plus the stride
    at = np.searchsorted(ids, targets)
    tail = np.flatnonzero(np.r_[ids, -1][at] == targets)
    pairs = order[np.stack([tail % ids.size, at[tail]])]
    return tuple(np.hstack([pairs, pairs[::-1]]))


def _stencil_search(d, h, points):
    """Stencil atoms (rows, cols) of any node set, from the coordinates: each
    target resolves to the nearest node within h * 1e-9, and a target that
    resolves to no node but has some node strictly within h/2 signals a
    lattice not commensurate with h.  Both scans run over the node pairs
    within 1.5 h, which contain every node that close to a target, in one
    pass: a node within h/2 of a target x +/- h e_i is offset from x the most
    along axis i, on that side, so each pair is measured against one target
    only.  When several nodes tie for the nearest, the lowest id wins; the
    first unresolved target in (node, axis, sign) order is reported with its
    nearest stray, the lowest id on ties.
    """
    tol = h * 1e-9
    band = 0.5 * h * (1.0 - 1e-9)  # open band: a node at exactly h/2 is a legitimate finer lattice
    i, j = _close_pairs(points, 1.5 * h)
    # a node within h/2 of the target x + sign h e_axis is offset from x the
    # most along that axis, with that sign: one distance per pair suffices
    from_target = np.stack([c[j] - c[i] for c in points.T])
    axis = np.abs(from_target).argmax(axis=0)
    pair = np.arange(i.size)
    toward = from_target[axis, pair]
    sign = np.where(toward >= 0.0, 1.0, -1.0)
    from_target[axis, pair] = toward - sign * h
    dist = _distance(from_target, h)
    # j sees i on the same axis with the opposite sign, at the same distance
    near = np.flatnonzero(dist <= band)
    i, j = np.r_[i[near], j[near]], np.r_[j[near], i[near]]
    dist, axis = np.tile(dist[near], 2), np.tile(axis[near], 2)
    sign = np.r_[sign[near], -sign[near]]
    target = 2 * d * i + 2 * axis + (sign < 0.0)  # (node, axis, +/-) in that order
    hits = np.flatnonzero(dist <= tol)
    hits = hits[np.lexsort((j[hits], dist[hits], target[hits]))]
    hits = hits[np.unique(target[hits], return_index=True)[1]]  # the nearest per target
    resolved = np.zeros(2 * d * len(points), dtype=bool)
    resolved[target[hits]] = True
    strays = np.flatnonzero(~resolved[target])
    if strays.size:
        k = strays[np.lexsort((j[strays], dist[strays], target[strays]))[0]]
        raise NonCommensurateGrid(
            f"target of node {i[k]} along axis {axis[k]} lands between nodes "
            f"(nearest stray: node {j[k]})"
        )
    return i[hits], j[hits]


def stencil_kernel(d, h, measure):
    """Kernel of the (2d+1)-point difference operator on a step-h lattice.

    Every node gets the atoms (x + h e_i, 1/h^2) and (x - h e_i, 1/h^2) for
    each axis whose target is a node of the measure; missing targets are
    omitted.  When every node sits on its own point of h Z^d, as on the
    grids of `poisson.unit_cube_grid`, neighbours are joined by lattice key
    (`_lattice_join`); any other measure (offset or mixed lattices, strays)
    takes the coordinate search, whose kernel the join repeats to the bit.
    """
    if not 0.0 < h < np.inf:
        raise ValueError(f"step h must be positive and finite, got {h}")
    if measure.dim != d:
        raise ValueError(f"measure has dimension {measure.dim}, expected {d}")
    rows, cols = _lattice_join(h, measure.points) or _stencil_search(d, h, measure.points)
    m, e = np.frexp(h)  # 1/h^2 = 2^-2e / m^2, with no h * h to underflow
    with np.errstate(over="ignore"):  # an overflowing weight is refused by TransitionKernel
        weights = np.full(rows.size, np.ldexp(1.0 / (m * m), -2 * e))
    return TransitionKernel(sp.csr_matrix((weights, (rows, cols)), shape=(len(measure),) * 2))


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
        if not c > 0.0:
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
    return TransitionKernel(matrix), measure


def quadrature_kernel(gamma, delta, measure):
    """Kernel of a truncated density: weight gamma(x, y) * mass(y) within delta.

    The node masses act as quadrature weights, so continuum densities enter
    only through their values at node pairs.  The cut-off |x - y| <= delta
    is taken up to the measure's coordinate tolerance `lookup_tol`, so pairs
    at exactly delta (a lattice with delta a multiple of its step) are kept
    however their coordinates were rounded.  The density is probed on the
    unordered pairs within delta and checked there: a non-finite or negative
    value is a ValueError, and an asymmetric density is rejected rather than
    symmetrized, since silent symmetrization would mask modeling errors.

    `gamma` is either a radial density, marked by a true `gamma.radial`
    attribute as `fileio.radial_density` returns, or a (p, q) density.  A
    radial density takes the array of pair distances r (`_distance` at the
    scale of delta) and is called once, and each value serves both
    orientations of its pair, so the symmetry check passes it on every pair.
    A (p, q) density is probed in both orientations, either pair by pair or,
    when `gamma.vectorized` is true, once per orientation on coordinate-major
    stacks of shape (d, k) (see `_sample`).
    """
    if not 0.0 < delta < np.inf:
        raise ValueError(f"interaction radius delta must be positive and finite, got {delta}")
    pts = measure.points
    i, j = _close_pairs(pts, delta + measure.lookup_tol)
    if getattr(gamma, "radial", False):
        g_ij = g_ji = gamma(_distance((axis[i] - axis[j] for axis in pts.T), delta))
    else:
        p, q = pts[i], pts[j]
        g_ij, g_ji = _sample(gamma, p, q), _sample(gamma, q, p)
    nonfinite = np.flatnonzero(~(np.isfinite(g_ij) & np.isfinite(g_ji)))
    if nonfinite.size:
        k = nonfinite[0]
        raise ValueError(f"density is not finite on pair ({i[k]}, {j[k]}): {g_ij[k]}, {g_ji[k]}")
    negative = (g_ij < 0.0) | (g_ji < 0.0)
    scale = np.maximum(1.0, np.maximum(np.abs(g_ij), np.abs(g_ji)))
    failing = np.flatnonzero(negative | (np.abs(g_ij - g_ji) > DENSITY_SYMMETRY_TOL * scale))
    if failing.size:
        k = failing[0]
        if negative[k]:
            raise ValueError(f"density is negative on pair ({i[k]}, {j[k]})")
        raise AsymmetricDensity(
            f"gamma({i[k]}, {j[k]}) = {float(g_ij[k])} but gamma({j[k]}, {i[k]}) = {float(g_ji[k])}"
        )
    # K(x, {y}) = gamma(x, y) mass(y); each row's columns come out ascending.
    # A product that overflows is refused by TransitionKernel as non-finite.
    with np.errstate(over="ignore"):
        weights = np.r_[g_ji * measure.masses[i], g_ij * measure.masses[j]]
    matrix = sp.csr_matrix((weights, (np.r_[j, i], np.r_[i, j])), shape=(len(pts),) * 2)
    matrix.eliminate_zeros()  # a weight that is exactly zero is no atom
    return TransitionKernel(matrix)


def symmetry_defect(kernel, measure):
    """Worst violation of mass(x) K(x,{y}) = mass(y) K(y,{x}) over node pairs,
    max |W - W^T| with W = diag(mass) K.

    Zero exactly when the product of measure and kernel is flip-invariant on
    the atomic product sigma-algebra.  A weight of W that overflows is a
    ValueError naming its node.
    """
    if len(kernel) != len(measure):
        raise ValueError("kernel and measure describe different node counts")
    weights = kernel.matrix.copy()  # W: each row's data scaled by its node's mass
    rows = np.repeat(np.arange(len(kernel)), np.diff(weights.indptr))
    with np.errstate(over="ignore"):
        weights.data *= measure.masses[rows]
    overflow = np.flatnonzero(~np.isfinite(weights.data))
    if overflow.size:
        raise ValueError(f"mass-weighted kernel weight overflows at node {rows[overflow[0]]}")
    return float(abs(weights - weights.T).max())
