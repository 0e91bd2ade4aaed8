"""Kernel construction, boundary detection, and symmetry diagnostics."""

import functools
import itertools
import re
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from nlbvp import (
    AtomicMeasure,
    TransitionKernel,
    graph_kernel,
    nonlocal_boundary,
    quadrature_kernel,
    stencil_kernel,
    symmetry_defect,
    unit_cube_grid,
)
from nlbvp.errors import (
    AsymmetricDensity,
    IsolatedVertex,
    NonCommensurateGrid,
    NonPositiveConductance,
)
from nlbvp.fileio import radial_density
from nlbvp.measure import _axis_cells, _close_pairs, _lattice_join, _node_ids

from conftest import point_clouds, three_node_setup


def interval_measure(h, cell_mass=1.0):
    n = round(1.0 / h)
    return AtomicMeasure([[i * h] for i in range(n + 1)], np.full(n + 1, cell_mass))


# -- atomic measure -------------------------------------------------------------


def test_measure_rejects_nonpositive_mass():
    with pytest.raises(ValueError, match="strictly positive"):
        AtomicMeasure([[0.0], [1.0]], [1.0, 0.0])


def test_measure_rejects_coincident_nodes():
    with pytest.raises(ValueError, match="coincide"):
        AtomicMeasure([[0.0], [1e-14]], lookup_tol=1e-12)


def test_measure_accepts_nodes_whose_squared_gaps_underflow():
    """Nodes 1e-170 apart square their gaps to 0, but the coincidence scan
    measures them at the scale of the tolerance."""
    measure = AtomicMeasure(np.arange(5.0)[:, None] * 1e-170, lookup_tol=1e-179)
    assert len(measure) == 5
    assert measure.locate([2e-170]) == 2
    assert measure.near([2e-170], 1.5e-170) == [1, 3]


def test_measure_lookup():
    measure = interval_measure(0.25)
    assert measure.locate([0.5 + 1e-12], tol=1e-9) == 2
    assert measure.locate([0.6], tol=1e-9) is None
    assert measure.near([0.5], 0.3) == [1, 3]


# -- linked-cell search -----------------------------------------------------------


def all_close_pairs(points, radius):
    """Every ordered pair (i, j), i != j, whose distance is at most radius;
    sorted by (i, j).  Each pair's differences are divided by the power of two
    above its largest one, squared, summed axis by axis, rooted and scaled
    back: the bits of the plain root wherever its squares neither over- nor
    underflow, and no distance of a distinct pair comes out 0."""
    n = len(points)
    i, j = np.divmod(np.arange(n * n), n)
    diffs = points[j] - points[i]
    e = np.frexp(np.abs(diffs).max(axis=1))[1]
    squares = sum(np.ldexp(diffs[:, a], -e) ** 2 for a in range(points.shape[1]))
    keep = (np.ldexp(np.sqrt(squares), e) <= radius) & (i != j)
    return i[keep], j[keep]


@st.composite
def search_clouds(draw):
    """Points in d = 1..3 and a radius: a random cloud; a lattice, possibly
    shifted, searched at a multiple of its step; a cloud with duplicated and
    near-duplicated nodes; or a cloud shifted by up to 1e7 and searched at
    radius 1e-12, where the cell coordinates floor(p / r) pass 2^53."""
    d = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["random", "lattice", "duplicates", "shifted"]))
    if kind == "lattice":
        k = draw(st.integers(1, 6 if d < 3 else 3))
        step = draw(st.sampled_from([1.0 / k, 0.1, 0.3, 0.7, 1.0 / 3.0]))
        points = np.array(list(itertools.product(range(k + 1), repeat=d))) * step
        shift = draw(st.sampled_from([0.0, 0.1, -2.7, 1e3]))
        return points + shift, draw(st.integers(1, 3)) * step
    n = draw(st.integers(1, 30))
    points = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n * d, max_size=n * d)))
    points = points.reshape(n, d)
    if kind == "random":
        return points, draw(st.floats(0.0, 1.5))
    copies = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n))
    nudge = draw(st.sampled_from([0.0, 1e-15, 1e-13, 1e-12, 1e-10]))
    points = np.concatenate([points, points[copies] + nudge])
    if kind == "duplicates":
        return points, draw(st.sampled_from([0.0, 1e-12, 1e-10, 1e-3, 0.3]))
    return points * draw(st.floats(1e-3, 1.0)) + draw(st.floats(-1e7, 1e7)), 1e-12


@settings(max_examples=300, deadline=None)
@given(search_clouds())
def test_close_pairs_match_all_pairs(cloud):
    points, radius = cloud
    i, j = _close_pairs(points, radius)
    expected_i, expected_j = all_close_pairs(points, radius)
    upper = expected_i < expected_j  # each unordered pair once
    expected_i, expected_j = expected_i[upper], expected_j[upper]
    assert_array_equal(i, expected_i)
    assert_array_equal(j, expected_j)


@pytest.mark.parametrize("radius", [0.0, 1e-320])
def test_axis_cells_keep_distinct_coordinates_apart(radius):
    """At radius 0, or where x / radius passes the float range, each distinct
    coordinate is its own cell and no step joins two, so the search compares
    no distinct nodes rather than all of them."""
    coord = np.array([0.5, 0.0, 1.0, 0.5, 0.25])
    rank, steps = _axis_cells(coord, radius)
    assert_array_equal(rank, [2, 0, 3, 2, 1])
    assert not steps.any()


# -- stencil kernel --------------------------------------------------------------


def test_stencil_weights_quarter_grid():
    measure = interval_measure(0.25)
    kernel = stencil_kernel(1, 0.25, measure)
    assert sorted(kernel.entries(2)) == [(1, 16.0), (3, 16.0)]


def test_stencil_one_sided_at_edge():
    measure = interval_measure(0.25)
    kernel = stencil_kernel(1, 0.25, measure)
    assert kernel.entries(0) == [(1, 16.0)]


def test_stencil_2d_center():
    pts = [[i * 0.5, j * 0.5] for i in range(3) for j in range(3)]
    measure = AtomicMeasure(pts)
    kernel = stencil_kernel(2, 0.5, measure)
    center = measure.locate([0.5, 0.5])
    entries = kernel.entries(center)
    assert len(entries) == 4
    assert all(w == 4.0 for _, w in entries)


def test_stencil_noncommensurate_grid():
    measure = AtomicMeasure([[0.0], [0.3], [0.6]])
    with pytest.raises(NonCommensurateGrid):
        stencil_kernel(1, 0.25, measure)


def test_stencil_reports_nearest_stray():
    # the target 1.0 of node 0 has strays 1.3 (id 1) and 0.8 (id 2) within h/2
    measure = AtomicMeasure([[0.0], [1.3], [0.8]])
    message = "target of node 0 along axis 0 lands between nodes (nearest stray: node 2)"
    with pytest.raises(NonCommensurateGrid, match=re.escape(message)):
        stencil_kernel(1, 1.0, measure)


def square_lattice(h=0.5):
    return [[i * h, j * h] for i in range(3) for j in range(3)]


def test_stencil_stray_node_off_target_2d():
    # node (1.0, 0.5) moved 0.3h toward the center: the center's +x target
    # resolves to no node but has a stray strictly within h/2
    pts = square_lattice()
    pts[pts.index([1.0, 0.5])] = [1.0 - 0.3 * 0.5, 0.5]
    with pytest.raises(NonCommensurateGrid):
        stencil_kernel(2, 0.5, AtomicMeasure(pts))


def test_stencil_open_band_at_half_step_2d():
    # extra nodes at exactly h/2 from lattice targets form no stray and
    # resolve no target of their own
    pts = square_lattice() + [[0.25, 0.0], [0.75, 0.5]]
    measure = AtomicMeasure(pts)
    kernel = stencil_kernel(2, 0.5, measure)
    assert kernel.entries(9) == [] and kernel.entries(10) == []
    center = measure.locate([0.5, 0.5])
    assert sorted(kernel.entries(center)) == [(1, 4.0), (3, 4.0), (5, 4.0), (7, 4.0)]
    assert sorted(kernel.entries(0)) == [(1, 4.0), (3, 4.0)]
    assert symmetry_defect(kernel, measure) == 0.0


def test_stencil_far_off_lattice_node_is_ignored_2d():
    # (0.25, 0.25) is sqrt(2) h/2 > h/2 away from every lattice target
    pts = square_lattice() + [[0.25, 0.25]]
    measure = AtomicMeasure(pts)
    kernel = stencil_kernel(2, 0.5, measure)
    reference = stencil_kernel(2, 0.5, AtomicMeasure(square_lattice()))
    assert kernel.entries(9) == []
    assert all(kernel.entries(i) == reference.entries(i) for i in range(9))


def stencil_loop(d, h, points):
    """Per node, axis and sign in that order: the nearest node within h 1e-9
    of the target (the lowest id on ties) as a CSR kernel matrix, or, at the
    first target that resolves to no node, the nearest node strictly within
    h/2 of it (the lowest id on ties) as (node, axis, stray)."""
    tol, band = h * 1e-9, 0.5 * h * (1.0 - 1e-9)
    rows, cols = [], []
    for x, axis, sign in itertools.product(range(len(points)), range(d), (1.0, -1.0)):
        from_target = points - points[x]
        from_target[:, axis] -= sign * h
        dist = np.linalg.norm(from_target, axis=1)
        if dist.min() <= tol:
            rows.append(x)
            cols.append(int(np.argmin(dist)))
        elif np.any((dist > 0.0) & (dist <= band)):
            strays = np.flatnonzero((dist > 0.0) & (dist <= band))
            return x, axis, int(strays[np.argmin(dist[strays])])
    shape = (len(points),) * 2
    matrix = sp.csr_matrix((np.full(len(rows), 1.0 / (h * h)), (rows, cols)), shape=shape)
    matrix.sum_duplicates()
    return matrix


@st.composite
def stencil_lattices(draw):
    """A random subset of the step-1/k lattice nodes of [0, 1]^d, as
    `stencil_setups` draws them (d = 3 added), with or without one stray node
    placed off a lattice node by less than 0.6 h per axis, and with or
    without the whole lattice shifted off h Z^d by 0.01 h to 0.99 h per axis,
    which leaves the lattice join to coordinate search."""
    d = draw(st.integers(1, 3))
    k = draw(st.integers(1, (10, 3, 2)[d - 1]))
    lattice = np.array(list(itertools.product(np.arange(k + 1) / k, repeat=d)))
    if draw(st.booleans()):
        lattice += np.array(draw(st.lists(st.floats(0.01, 0.99), min_size=d, max_size=d))) / k
    keep = sorted(draw(st.lists(st.integers(0, len(lattice) - 1), min_size=1, unique=True)))
    points = lattice[keep]
    if draw(st.booleans()):
        offset = draw(st.lists(st.floats(-0.6, 0.6), min_size=d, max_size=d))
        stray = lattice[draw(st.integers(0, len(lattice) - 1))] + np.array(offset) / k
        assume(np.linalg.norm(points - stray, axis=1).min() > 1e-9)
        position = draw(st.integers(0, len(points)))
        points = np.insert(points, position, stray, axis=0)
    return d, 1.0 / k, points


@settings(max_examples=300, deadline=None)
@given(stencil_lattices())
def test_stencil_kernel_matches_node_loop(lattice):
    d, h, points = lattice
    expected = stencil_loop(d, h, points)
    if isinstance(expected, tuple):
        node, axis, stray = expected
        message = (
            f"target of node {node} along axis {axis} lands between nodes "
            f"(nearest stray: node {stray})"
        )
        with pytest.raises(NonCommensurateGrid, match=re.escape(message)):
            stencil_kernel(d, h, AtomicMeasure(points))
        return
    matrix = stencil_kernel(d, h, AtomicMeasure(points)).matrix
    assert_array_equal(matrix.indptr, expected.indptr)
    assert_array_equal(matrix.indices, expected.indices)
    assert_array_equal(matrix.data, expected.data)


def moved_node(shift):
    """The 5 x 5 lattice of step 0.25 with node 7 moved by `shift` along axis 0."""
    points = np.array(list(itertools.product(np.arange(5) * 0.25, repeat=2)))
    points[7, 0] += shift
    return points


def keyed_lattice(d, top):
    """The 2^d nodes of a unit-step lattice cube whose largest key along axis
    0 is `top`."""
    points = np.array(list(itertools.product((0.0, 1.0), repeat=d)))
    points[:, 0] += top - 1
    return points


@pytest.mark.parametrize(
    "h, points, joined",
    [
        (0.25, moved_node(0.5e-11 * 0.25), True),  # within the join's offset bound
        (0.25, moved_node(2e-11 * 0.25), False),  # beyond it, still within the search's tol
        (1e3, np.array([[0.0], [1e3], [2e3], [1e3 + 1e-9]]), False),  # nodes 1 and 3 share a key
        (1.0, keyed_lattice(4, 2**13), True),  # d = 4 fields of 15 bits hold |k| <= 2^13
        (1.0, keyed_lattice(4, 2**13 + 1), False),
        (1.0, keyed_lattice(2, 2**16 + 1), False),  # d <= 3 keeps the bound |k| <= 2^16
    ],
    ids=["half-bound", "twice-bound", "shared-key", "d4-key-2^13", "d4-key-2^13+1", "d2-key-2^16+1"],
)
def test_stencil_lattice_join_rule(h, points, joined):
    assert (_lattice_join(h, points) is not None) == joined
    expected = stencil_loop(points.shape[1], h, points)
    matrix = stencil_kernel(points.shape[1], h, AtomicMeasure(points)).matrix
    assert_array_equal(matrix.indptr, expected.indptr)
    assert_array_equal(matrix.indices, expected.indices)
    assert_array_equal(matrix.data, expected.data)


@pytest.mark.parametrize("shift", [0.0, 1.0 / 3.0], ids=["joined", "searched"])
def test_stencil_kernel_at_h_1e155(shift):
    """Coordinates near 1e155 square past the float range; the kernel still
    has all 8 atoms, each 1/h^2 = 1e-310, and no warning is raised."""
    h = 1e155
    points = (np.arange(5.0)[:, None] + shift) * h
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        matrix = stencil_kernel(1, h, AtomicMeasure(points, lookup_tol=h * 1e-9)).matrix
    assert_array_equal(matrix.indptr, [0, 1, 3, 5, 7, 8])
    assert_array_equal(matrix.indices, [1, 0, 2, 1, 3, 2, 4, 3])
    assert_array_equal(matrix.data, np.full(8, 1e-310))


@settings(max_examples=100, deadline=None)
@given(
    st.integers(2, 3),
    st.integers(1, 4),
    st.sampled_from([1.0, 0.25, 0.1, 1.0 / 3.0]),
    st.booleans(),
    st.integers(-520, 520),
)
@example(d=2, n_axis=2, h=0.25, shifted=False, k=520)
@example(d=3, n_axis=1, h=1.0 / 3.0, shifted=True, k=-520)
@example(d=2, n_axis=2, h=0.25, shifted=True, k=-508)  # 1/h^2 = 2^1020, the largest finite weight
def test_stencil_kernel_scales_by_powers_of_two(d, n_axis, h, shifted, k):
    """Coordinates, h and the lookup tolerance times 2^k: the measure is
    accepted, the lattice is joined (or, shifted by h/3, searched) as at
    k = 0, the CSR pattern is the same and every weight is 4^-k times its
    k = 0 value, bit for bit; where that overflows, the kernel is refused."""
    points = np.array(list(itertools.product(range(n_axis + 1), repeat=d))) * h + shifted * h / 3.0

    def kernel(k):
        scaled = np.ldexp(points, k)
        assert (_lattice_join(np.ldexp(h, k), scaled) is None) == shifted
        measure = AtomicMeasure(scaled, lookup_tol=np.ldexp(h * 1e-9, k))
        return stencil_kernel(d, np.ldexp(h, k), measure).matrix

    reference = kernel(0)
    with np.errstate(over="ignore"):
        expected = np.ldexp(reference.data, -2 * k)
    if not np.isfinite(expected).all():
        with pytest.raises(ValueError, match="non-finite kernel weight"):
            kernel(k)
        return
    matrix = kernel(k)
    assert_array_equal(matrix.indptr, reference.indptr)
    assert_array_equal(matrix.indices, reference.indices)
    assert_array_equal(matrix.data.view(np.int64), expected.view(np.int64))


# -- graph kernel ----------------------------------------------------------------


def test_graph_path_degree_normalization():
    kernel, measure = graph_kernel([(0, 1, 1.0), (1, 2, 1.0)])
    assert_allclose(measure.masses, [1.0, 2.0, 1.0])
    assert sorted(kernel.entries(1)) == [(0, 0.5), (2, 0.5)]


def test_graph_single_edge():
    kernel, measure = graph_kernel([(0, 1, 3.0)])
    assert kernel.entries(0) == [(1, 1.0)]
    assert measure.masses[0] == 3.0


def test_graph_triangle_is_symmetric():
    kernel, measure = graph_kernel([(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0)])
    assert symmetry_defect(kernel, measure) == 0.0


def test_graph_rejects_bad_input():
    with pytest.raises(NonPositiveConductance):
        graph_kernel([(0, 1, -1.0)])
    with pytest.raises(IsolatedVertex):
        graph_kernel([(0, 1, 1.0)], coordinates=[[0.0], [1.0], [2.0]])
    with pytest.raises(ValueError, match="listed more than once"):
        graph_kernel([(0, 1, 1.0), (1, 0, 1.0)])
    with pytest.raises(ValueError, match="self-loop"):
        graph_kernel([(0, 0, 1.0)])


# -- quadrature kernel -------------------------------------------------------------


def test_quadrature_indicator_is_scaled_stencil():
    h = 0.25
    measure = interval_measure(h, cell_mass=h)
    kernel = quadrature_kernel(lambda p, q: 1.0, 1.1 * h, measure)
    assert sorted(kernel.entries(2)) == [(1, h), (3, h)]


def test_quadrature_zero_density():
    measure = interval_measure(0.25)
    kernel = quadrature_kernel(lambda p, q: 0.0, 0.5, measure)
    assert all(kernel.entries(i) == [] for i in range(len(measure)))
    domain = nonlocal_boundary(kernel, [1, 2, 3], measure)
    assert domain.l == 0


def test_quadrature_symmetric_density_uniform_masses_exact():
    measure = interval_measure(0.25)
    gauss = lambda p, q: float(np.exp(-np.sum((p - q) ** 2)))
    kernel = quadrature_kernel(gauss, 0.6, measure)
    assert symmetry_defect(kernel, measure) == 0.0


def test_quadrature_matches_pair_loop():
    h = 0.25
    measure = interval_measure(h, cell_mass=h)
    gauss = lambda p, q: float(np.exp(-np.sum((p - q) ** 2)))
    kernel = quadrature_kernel(gauss, 2 * h, measure)
    for i in range(len(measure)):
        expected = {}
        for j in range(len(measure)):
            dist = abs(measure.points[i, 0] - measure.points[j, 0])
            if i != j and dist <= 2 * h:
                expected[j] = gauss(measure.points[i], measure.points[j]) * h
        assert dict(kernel.entries(i)) == pytest.approx(expected)


def test_quadrature_keeps_lattice_pairs_at_exactly_delta():
    # the computed length of a 3-step pair may exceed the computed 3h
    n, h = 40, 1.0 / 40
    idx = np.array([(i, j) for i in range(n + 1) for j in range(n + 1)])
    measure = AtomicMeasure(idx * h)
    kernel = quadrature_kernel(lambda p, q: 1.0, 3 * h, measure)
    node = {tuple(ij): k for k, ij in enumerate(idx.tolist())}
    dense = kernel.matrix.toarray()
    for k, (i, j) in enumerate(idx.tolist()):
        for di, dj in ((3, 0), (-3, 0), (0, 3), (0, -3)):
            target = node.get((i + di, j + dj))
            if target is not None:
                assert dense[k, target] == 1.0, (i, j, di, dj)


def test_quadrature_rejects_asymmetric_density():
    measure = interval_measure(0.5)
    with pytest.raises(AsymmetricDensity):
        quadrature_kernel(lambda p, q: 1.0 + p[0] - q[0], 0.6, measure)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("vectorized", [False, True])
def test_quadrature_rejects_nonfinite_density(value, vectorized):
    measure = AtomicMeasure([[0.0], [0.25], [0.5]])

    def gamma(p, q):
        # finite except on the pair of nodes 1 and 2
        return np.where(np.minimum(p[0], q[0]) > 0.1, value, 1.0)

    gamma.vectorized = vectorized
    with pytest.raises(ValueError, match=r"not finite on pair \(1, 2\)"):
        quadrature_kernel(gamma, 0.3, measure)


def test_quadrature_overflowing_weight_is_refused_without_a_warning():
    """A finite density times a finite mass can overflow; the kernel refuses
    the infinite weight, and no RuntimeWarning escapes (warnings are errors
    here)."""
    measure = AtomicMeasure([[0.0], [0.25], [0.5]], [2.0, 2.0, 2.0])
    with pytest.raises(ValueError, match="non-finite kernel weight at node 0"):
        quadrature_kernel(lambda p, q: 1e308, 0.3, measure)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda d: st.lists(st.lists(st.integers(0, 64), min_size=d, max_size=d), min_size=1, max_size=30)
    ),
    st.sampled_from([0.125, 0.25, 0.3, 0.5]),
    st.integers(-520, 520),
)
@example(indices=[[0], [1], [16]], delta=0.25, k=520)
@example(indices=[[0, 0], [1, 0], [16, 0], [0, 16]], delta=0.25, k=-520)
def test_quadrature_kernel_is_unchanged_by_powers_of_two(indices, delta, k):
    """Coordinates, delta and the lookup tolerance times 2^k: a constant
    radial density gives the same CSR arrays as at k = 0."""
    points = np.unique(np.array(indices, dtype=float) / 64, axis=0)  # pairs at exactly delta
    gamma = radial_density("1.5")

    def kernel(k):
        measure = AtomicMeasure(np.ldexp(points, k), lookup_tol=np.ldexp(1e-12, k))
        return quadrature_kernel(gamma, np.ldexp(delta, k), measure).matrix

    reference, matrix = kernel(0), kernel(k)
    assert_array_equal(matrix.indptr, reference.indptr)
    assert_array_equal(matrix.indices, reference.indices)
    assert_array_equal(matrix.data.view(np.int64), reference.data.view(np.int64))


RADIAL_EXPRESSIONS = ["exp(-r*r)", "1/(1+r)", "r", "2.5", "sqrt(r)*cos(r)", "abs(1 - 3*r)**1.5"]


@settings(max_examples=200, deadline=None)
@given(point_clouds(), st.sampled_from(RADIAL_EXPRESSIONS))
def test_radial_density_matches_coordinate_density_bit_for_bit(cloud, expr):
    """The distances of the radial path are the bits of `np.linalg.norm`
    over the coordinate differences, in either orientation."""
    points, masses, delta, _, _, _ = cloud
    gaps = np.linalg.norm(points[:, None] - points[None], axis=-1)
    assume(gaps[~np.eye(len(points), dtype=bool)].min() > 1e-9)
    measure = AtomicMeasure(points, masses)
    radial = radial_density(expr)

    def by_coordinates(p, q):
        return radial(np.linalg.norm(p - q, axis=0))

    by_coordinates.vectorized = True
    fast = quadrature_kernel(radial, delta, measure).matrix
    reference = quadrature_kernel(by_coordinates, delta, measure).matrix
    assert_array_equal(fast.indptr, reference.indptr)
    assert_array_equal(fast.indices, reference.indices)
    assert_array_equal(fast.data.view(np.int64), reference.data.view(np.int64))


def test_radial_density_is_evaluated_once_per_kernel():
    """One call on the distances of all unordered pairs; the marker survives
    a `functools.wraps` wrapper."""
    measure = interval_measure(0.25)
    density = radial_density("exp(-r*r)")
    calls = []

    @functools.wraps(density)
    def counted(r):
        calls.append(r.shape)
        return density(r)

    kernel = quadrature_kernel(counted, 0.6, measure)
    assert calls == [(kernel.matrix.nnz // 2,)]
    assert (kernel.matrix != quadrature_kernel(density, 0.6, measure).matrix).nnz == 0


@pytest.mark.parametrize(
    "value, message",
    [
        (float("nan"), r"not finite on pair \(0, 2\): nan, nan"),
        (-1.0, r"negative on pair \(0, 2\)"),
    ],
)
def test_radial_density_values_are_checked_once(value, message):
    """Pairs (0, 1), (0, 2), (1, 2) at r = 0.25, 0.5, 0.25: the value at
    r = 0.5 is refused with the (p, q) path's message."""
    measure = AtomicMeasure([[0.0], [0.25], [0.5]])

    def gamma(r):
        return np.where(r > 0.4, value, 1.0)

    gamma.radial = True
    with pytest.raises(ValueError, match=message):
        quadrature_kernel(gamma, 0.6, measure)


# -- transition kernel ---------------------------------------------------------------


@pytest.mark.parametrize(
    "weight, message",
    [
        (float("nan"), "non-finite kernel weight"),
        (float("inf"), "non-finite kernel weight"),
        (-1.0, "negative kernel weight"),
    ],
)
@pytest.mark.parametrize("sparse", [False, True])
def test_kernel_rejects_bad_weights(weight, message, sparse):
    support = [[(1, 1.0)], [(0, 1.0), (2, weight)], [(1, 1.0)]]
    if sparse:
        rows, cols, data = zip(*((x, t, w) for x, entries in enumerate(support) for t, w in entries))
        support = sp.coo_matrix((data, (rows, cols)), shape=(3, 3))
    with pytest.raises(ValueError, match=f"^{message} at node 1$"):
        TransitionKernel(support)


def quadrature_lattice(n_axis, cells):
    """The closed unit square's lattice with masses h^2 under the density
    exp(-r^2) within delta = cells * h, and its nodes more than delta from
    every side as the interior."""
    h = 1.0 / n_axis
    axis = np.arange(n_axis + 1) * h
    points = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    measure = AtomicMeasure(points, np.full(len(points), h * h))
    kernel = quadrature_kernel(radial_density("exp(-r*r)"), cells * h, measure)
    inner = (points > (cells + 0.5) * h) & (points < 1.0 - (cells + 0.5) * h)
    return kernel, nonlocal_boundary(kernel, np.flatnonzero(inner.all(axis=1)), measure)


@pytest.mark.parametrize("family", ["quadrature", "stencil"])
def test_evaluate_is_the_row_sum_against_the_indicator(family):
    """K(x, S) has one definition: `evaluate` gives the bits of the row of x
    summed against S's indicator, the sum the boundary split and the trace
    weights take, on every node, for S the interior and a random half of the
    nodes of a 41 x 41, delta = 3h quadrature lattice or a stencil grid."""
    if family == "quadrature":
        kernel, domain = quadrature_lattice(40, 3)
    else:
        grid = unit_cube_grid(2, 1.0 / 16.0)
        kernel, domain = grid.kernel, grid.domain
    n = len(kernel)
    half = np.flatnonzero(np.random.default_rng(7).random(n) < 0.5)
    for ids in (domain.omega, half):
        indicator = np.zeros(n)
        indicator[ids] = 1.0
        row_sums = kernel.matrix @ indicator
        values = np.array([kernel.evaluate(x, ids.tolist()) for x in range(n)])
        assert_array_equal(values, row_sums)


def test_evaluate_refuses_ids_outside_the_kernel():
    kernel = TransitionKernel([[(1, 1.0)], [(0, 2.0)]])
    for node, targets in [(0, [2]), (0, [-1]), (2, [0]), (-1, [0])]:
        with pytest.raises(ValueError, match=r"outside 0\.\.1$"):
            kernel.evaluate(node, targets)
    assert kernel.evaluate(1, range(2)) == 2.0


# -- nonlocal boundary ---------------------------------------------------------------


def test_boundary_refuses_non_integer_ids():
    grid = unit_cube_grid(1, 0.25)
    with pytest.raises(ValueError, match=r"node id 1\.5 is not an integer"):
        nonlocal_boundary(grid.kernel, [1.5, 2, 3], grid.measure)
    assert nonlocal_boundary(grid.kernel, [1.0, 2, 3], grid.measure).omega.tolist() == [1, 2, 3]


def test_node_ids_read_arrays_and_generators():
    with pytest.raises(ValueError, match=r"^node id 1\.5 is not an integer$"):
        _node_ids(np.array([1.5, 2.0]))
    assert _node_ids(i for i in (3, 1, 2)).tolist() == [3, 1, 2]


def test_boundary_of_center_node_2d():
    pts = [[i * 0.5, j * 0.5] for i in range(3) for j in range(3)]
    measure = AtomicMeasure(pts)
    kernel = stencil_kernel(2, 0.5, measure)
    center = measure.locate([0.5, 0.5])
    domain = nonlocal_boundary(kernel, [center], measure)
    gamma_pts = sorted(tuple(measure.points[i]) for i in domain.gamma)
    assert gamma_pts == [(0.0, 0.5), (0.5, 0.0), (0.5, 1.0), (1.0, 0.5)]
    exterior_pts = sorted(tuple(measure.points[i]) for i in domain.exterior)
    assert exterior_pts == [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]


def test_boundary_one_step_reach():
    measure = interval_measure(0.25)
    kernel = stencil_kernel(1, 0.25, measure)
    domain = nonlocal_boundary(kernel, [1, 2, 3], measure)
    assert [measure.points[i, 0] for i in domain.gamma] == [0.0, 1.0]


def test_weak_boundary_flag():
    support = [[(1, 1e-15)], [(0, 1e-15)]]
    kernel = TransitionKernel(support)
    measure = AtomicMeasure([[0.0], [1.0]])
    domain = nonlocal_boundary(kernel, [0], measure)
    assert list(domain.gamma) == [1]
    assert list(domain.weak_gamma) == [1]


# -- symmetry -------------------------------------------------------------------------


def test_stencil_defect_zero_on_lattice():
    measure = interval_measure(0.25)
    kernel = stencil_kernel(1, 0.25, measure)
    assert symmetry_defect(kernel, measure) == 0.0


def test_broken_kernel_has_positive_defect():
    measure = interval_measure(0.25)
    kernel = stencil_kernel(1, 0.25, measure)
    support = [list(kernel.entries(i)) for i in range(len(measure))]
    support[2] = [entry for entry in support[2] if entry.target != 1]
    broken = TransitionKernel(support)
    assert symmetry_defect(broken, measure) == 16.0


def test_interior_supports_avoid_exterior(rng):
    # boundary construction plus symmetry force K(x, exterior) = 0 on interior nodes
    pts = [[i * 0.5, j * 0.5] for i in range(3) for j in range(3)]
    measure = AtomicMeasure(pts)
    kernel = stencil_kernel(2, 0.5, measure)
    center = measure.locate([0.5, 0.5])
    domain = nonlocal_boundary(kernel, [center], measure)
    exterior = set(domain.exterior.tolist())
    for x in domain.omega:
        assert all(t not in exterior for t, _ in kernel.entries(int(x)))


def test_fubini_identity_random_function(rng):
    _, kernel, _, _ = three_node_setup()
    measure = AtomicMeasure([[0.0], [0.5], [1.0]])
    values = rng.standard_normal((3, 3))
    f = lambda x, y: values[x, y]
    left = sum(
        measure.masses[x] * w * f(x, t)
        for x in range(3)
        for t, w in kernel.entries(x)
    )
    right = sum(
        measure.masses[y] * w * f(t, y)
        for y in range(3)
        for t, w in kernel.entries(y)
    )
    assert abs(left - right) <= 1e-12 * max(1.0, abs(left))
