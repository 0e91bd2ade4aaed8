"""Shared grid builders for the test suite."""

import numpy as np
import pytest
import scipy.linalg

from nlbvp import (
    AtomicMeasure,
    assemble_form,
    nonlocal_boundary,
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


@pytest.fixture
def rng():
    return np.random.default_rng(42)
