"""Shared grid builders and form generators for the test suite."""

import itertools

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import assume
from hypothesis import strategies as st

from nlbvp import (
    AtomicMeasure,
    assemble_form,
    nonlocal_boundary,
    nullspace,
    quadrature_kernel,
    stencil_kernel,
    unit_cube_grid,
)


def interval_setup(h):
    """Unit-interval lattice with the step-h kernel; interior = open interval."""
    grid = unit_cube_grid(1, h)
    form = assemble_form(grid.kernel, grid.measure, grid.domain)
    return grid, form


def three_node_setup():
    """Single interior node at 1/2 with boundary {0, 1}, step 1/2."""
    measure = AtomicMeasure([[0.0], [0.5], [1.0]])
    kernel = stencil_kernel(1, 0.5, measure)
    domain = nonlocal_boundary(kernel, [1], measure)
    form = assemble_form(kernel, measure, domain)
    return measure, kernel, domain, form


def interleaved_setup():
    """Lattice of spacing 1/8 under the step-1/4 kernel: two decoupled
    sublattices, so the zero-energy space is two-dimensional."""
    measure = AtomicMeasure([[i / 8.0] for i in range(9)])
    kernel = stencil_kernel(1, 0.25, measure)
    domain = nonlocal_boundary(kernel, range(1, 8), measure)
    form = assemble_form(kernel, measure, domain)
    return measure, kernel, domain, form


def disconnected_setup():
    """Interior component {5, 6} has no path to the boundary."""
    measure = AtomicMeasure([[0.0], [1.0], [2.0], [5.0], [6.0]])
    kernel = stencil_kernel(1, 1.0, measure)
    domain = nonlocal_boundary(kernel, [1, 3, 4], measure)
    form = assemble_form(kernel, measure, domain)
    return measure, kernel, domain, form


def square_setup(h):
    grid = unit_cube_grid(2, h)
    form = assemble_form(grid.kernel, grid.measure, grid.domain)
    return grid, form


def dense_omega_constant(form):
    """Independent route to the interior-norm constant: reduce to the
    orthogonal complement of the kernel and take the largest pencil quotient."""
    matrix = form.matrix.toarray()
    masses = form.mass_diag
    m = form.domain.m
    d_omega = np.zeros_like(masses)
    d_omega[:m] = masses[:m]
    vals, vecs = scipy.linalg.eigh(matrix, np.diag(masses))
    kernel = vecs[:, vals < 1e-9 * np.max(matrix.diagonal())]
    if kernel.shape[1] == 0:
        basis_s = np.eye(matrix.shape[0])
    else:
        basis_s = scipy.linalg.null_space(kernel.T * d_omega)
    a = basis_s.T @ (d_omega[:, None] * basis_s)
    b = basis_s.T @ matrix @ basis_s
    quotients = scipy.linalg.eigh(a, b, eigvals_only=True)
    return float(quotients[-1])


@st.composite
def point_clouds(draw, max_nodes=30):
    """Up to max_nodes nodes in [0, 1]^d with masses, a radius delta, a
    symmetric density (zero on part of the pairs), an interior set and a
    seed."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(2, max_nodes))
    coords = draw(st.lists(st.floats(0.0, 1.0), min_size=n * d, max_size=n * d))
    masses = draw(st.lists(st.floats(0.25, 4.0), min_size=n, max_size=n))
    delta = draw(st.floats(0.05, 1.0))
    bend = draw(st.floats(-2.0, 2.0))
    omega = draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True))
    seed = draw(st.integers(0, 2**32 - 1))
    points = np.array(coords).reshape(n, d)

    def density(p, q):
        return max(0.0, 1.0 + bend * float(np.sum(p + q)) - float(np.sum((p - q) ** 2)))

    return points, np.array(masses), delta, density, omega, seed


def couplings_separated(form):
    """Whether every coupling of the form is 0 or at least 1e3 times the
    nullspace tolerance, so that no dense oracle's threshold sits near one."""
    off_diagonal = np.abs((form.matrix - sp.diags(form.matrix.diagonal())).data)
    return bool(np.all((off_diagonal == 0.0) | (off_diagonal >= 1e3 * nullspace(form).tolerance)))


@st.composite
def quadrature_setups(draw, coupled=False):
    """(kernel, measure, domain) of a `point_clouds` quadrature kernel on at
    most 12 distinct nodes.  With `coupled`, node 0 sits at the origin and
    node 1 at t <= min(delta, 0.3) from it along the first axis, where the
    density 1 + bend t - t^2 is at least 0.31, so the kernel couples them."""
    points, masses, delta, density, omega, _ = draw(point_clouds(max_nodes=12))
    if coupled:
        points[:2] = 0.0
        points[1, 0] = draw(st.floats(0.01, min(delta, 0.3)))
    gaps = np.linalg.norm(points[:, None] - points[None], axis=-1)
    assume(gaps[~np.eye(len(points), dtype=bool)].min() > 1e-9)
    measure = AtomicMeasure(points, masses)
    kernel = quadrature_kernel(density, delta, measure)
    return kernel, measure, nonlocal_boundary(kernel, omega, measure)


@st.composite
def quadrature_forms(draw):
    """The form of a `quadrature_setups` kernel, its couplings separated from
    the nullspace tolerance."""
    form = assemble_form(*draw(quadrature_setups()))
    assume(couplings_separated(form))
    return form


@st.composite
def stencil_setups(draw, coupled=False):
    """(kernel, measure, domain) of the step-1/k stencil kernel on a random
    subset of the lattice nodes of [0, 1]^d (d = 1 or 2), with equal masses,
    so that some nodes lose neighbours and the coupling graph may fall
    apart.  With `coupled`, the subset holds lattice nodes 0 and 1, which
    are neighbours along the last axis."""
    d = draw(st.integers(1, 2))
    k = draw(st.integers(1, 10 if d == 1 else 3))
    lattice = np.array(list(itertools.product(np.arange(k + 1) / k, repeat=d)))
    keep = draw(st.lists(st.integers(0, len(lattice) - 1), min_size=1, unique=True))
    keep = sorted(set(keep) | ({0, 1} if coupled else set()))
    mass = draw(st.floats(0.5, 2.0))
    measure = AtomicMeasure(lattice[keep], np.full(len(keep), mass))
    kernel = stencil_kernel(d, 1.0 / k, measure)
    omega = draw(st.lists(st.integers(0, len(keep) - 1), min_size=1, unique=True))
    return kernel, measure, nonlocal_boundary(kernel, omega, measure)


def stencil_forms():
    """The form of a `stencil_setups` kernel."""
    return stencil_setups().map(lambda setup: assemble_form(*setup))


@pytest.fixture
def rng():
    return np.random.default_rng(42)
