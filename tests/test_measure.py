"""Kernel construction, boundary detection, and symmetry diagnostics."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from nlbvp import (
    AtomicMeasure,
    TransitionKernel,
    graph_kernel,
    nonlocal_boundary,
    quadrature_kernel,
    stencil_kernel,
    symmetry_defect,
)
from nlbvp.errors import (
    AsymmetricDensity,
    IsolatedVertex,
    NonCommensurateGrid,
    NonPositiveConductance,
)

from conftest import three_node_setup


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


def test_measure_lookup():
    measure = interval_measure(0.25)
    assert measure.locate([0.5 + 1e-12], tol=1e-9) == 2
    assert measure.locate([0.6], tol=1e-9) is None
    assert measure.near([0.5], 0.3) == [1, 3]


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


# -- nonlocal boundary ---------------------------------------------------------------


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
    kernel = TransitionKernel(support, "quadrature")
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
    broken = TransitionKernel(support, "stencil")
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
