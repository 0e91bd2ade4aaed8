"""Seeded inputs, operations and output checks of the three benchmark workloads.

Each workload is a list of operations.  An operation is one `nlbvp` CLI
command (`bench`, `diagnose` or `solve`) run in-process through
`nlbvp.cli.main` on a generated document, plus the check of its output.
The seed only shapes the generated documents: it permutes node ids and picks
load coefficients.  `nlbvp` itself sees nothing but the documents.

    cube3d_bench       nlbvp bench --d 3 --h 1/8,1/16 (no document; the seed
                       cannot change this input)
    square2d_diagnose  nlbvp diagnose on 2-D unit-square stencil documents at
                       h = 1/16, 1/24, 1/32, 1/48 with Dirichlet problems
    quadrature_solve   nlbvp solve on a Neumann and a regularized 2-D
                       quadrature document (41 x 41 lattice, delta = 3h)

Every command is expected to exit 0.  Checks run outside the timed region.
A check that fails marks its operation failed; an unexpected exit code does too.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

FRIEDRICHS_RTOL = 1e-10
BENCH_ERROR_RTOL = 1e-8  # CG stops at 1e-13 relative; the reference is a direct solve
ORDER_BAND = (1.8, 2.2)  # second-order scheme on smooth data
STRONG_RESIDUAL_FACTOR = 10.0  # rounding slack over tol * sqrt(n) * max|load|, the CG bound
ORTHOGONALITY_TOL = 1e-10

DIAGNOSE_STEPS = (16, 24, 32, 48)  # 1/h
QUAD_AXIS = 40  # 41 x 41 lattice
QUAD_DELTA_CELLS = 3
QUAD_DENSITY = "exp(-r*r)"


@dataclass
class Operation:
    """One CLI invocation and what its output must satisfy."""

    name: str
    argv: list
    nodes: int  # canonical nodes m + l of the problem(s) the command solves
    check: object  # callable(out_path) -> None, raises CheckFailed
    out: str
    seeded: bool = True  # whether the seed shapes this operation's input
    forms: list | None = None  # (n, nnz) of each form it assembles, from a traced pass


class CheckFailed(Exception):
    """The command's output does not satisfy its check."""


def friedrichs_closed_form(d, h):
    """C_F = 1/(d (4/h^2) sin^2(pi h/2)) of the unit-mass lattice Laplacian."""
    return 1.0 / (d * (4.0 / (h * h)) * math.sin(math.pi * h / 2.0) ** 2)


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def _close(value, expected, rtol):
    return abs(value - expected) <= rtol * abs(expected)


# -- cube3d_bench --------------------------------------------------------------

CUBE_D = 3
CUBE_STEPS = (8, 16)


def _cube_nodes(d, n_axis):
    m = (n_axis - 1) ** d
    l = 2 * d * (n_axis - 1) ** (d - 1)
    return m + l


def _bench_reference(d, n_axis):
    """Max error of the sine solution from `build_stiffness` and a direct
    sparse solve: no kernel, no assembled form, no CG."""
    import scipy.sparse.linalg as spla
    from nlbvp import poisson

    grid = poisson.unit_cube_grid(d, 1.0 / n_axis)
    pair = poisson.build_stiffness(grid)
    pts = grid.measure.points[grid.domain.omega]
    exact = np.prod(np.sin(np.pi * pts), axis=1)
    load = d * np.pi * np.pi * exact
    a_omega = pair.a_dirichlet[: grid.m, : grid.m].tocsc()
    u = spla.spsolve(a_omega, load)
    return float(np.max(np.abs(u - exact)))


def _cube_ops(workdir, seed):
    del seed  # the bench command takes no document
    out = os.path.join(workdir, "bench.tsv")
    steps = ",".join(f"1/{n}" for n in CUBE_STEPS)
    references = {}

    def check(path):
        rows = []
        with open(path) as handle:
            for line in handle:
                if line.startswith("#") or not line.strip():
                    continue
                rows.append([float(v) for v in line.split("\t")])
        _require(len(rows) == len(CUBE_STEPS), f"bench report has {len(rows)} rows")
        for row, n_axis in zip(rows, CUBE_STEPS):
            h, m, l, max_error, order, friedrichs = row[:6]
            _require(_close(h, 1.0 / n_axis, 1e-15), f"row step {h}")
            _require(int(m) + int(l) == _cube_nodes(CUBE_D, n_axis), f"row size {m}+{l}")
            expected = friedrichs_closed_form(CUBE_D, 1.0 / n_axis)
            _require(
                _close(friedrichs, expected, FRIEDRICHS_RTOL),
                f"h=1/{n_axis}: friedrichs_C {friedrichs!r} != closed form {expected!r}",
            )
            if n_axis not in references:
                references[n_axis] = _bench_reference(CUBE_D, n_axis)
            _require(
                _close(max_error, references[n_axis], BENCH_ERROR_RTOL),
                f"h=1/{n_axis}: max_error {max_error!r} != reference {references[n_axis]!r}",
            )
        order = rows[-1][4]
        _require(ORDER_BAND[0] <= order <= ORDER_BAND[1], f"observed order {order!r}")

    return [
        Operation(
            name=f"bench_d{CUBE_D}",
            argv=["bench", "--d", str(CUBE_D), "--h", steps, "--out", out],
            nodes=sum(_cube_nodes(CUBE_D, n) for n in CUBE_STEPS),
            check=check,
            out=out,
            seeded=False,
        )
    ]


# -- square2d_diagnose -----------------------------------------------------------

def _lattice(n_axis, d=2):
    """Lattice index tuples of the closed unit square, lexicographic."""
    axis = np.arange(n_axis + 1)
    return np.stack(np.meshgrid(*([axis] * d), indexing="ij"), axis=-1).reshape(-1, d)


def _canonical(ids_by_point, mask):
    """Lattice point indices selected by mask, ordered by document id."""
    points = np.flatnonzero(mask)
    return points[np.argsort(ids_by_point[points])]


def _document_nodes(coords, perm, masses=None):
    nodes = [None] * len(perm)
    for k, doc_id in enumerate(perm):
        entry = [float(c) for c in coords[k]]
        if masses is not None:
            entry.append(float(masses[k]))
        nodes[doc_id] = entry
    return nodes


def stencil_square_document(n_axis, rng):
    """Unit-square stencil document with a Dirichlet problem.

    The load f <= 0 is rough noise, so CG has real work and the maximum
    principle must hold; the boundary data g is noise of either sign.
    """
    idx = _lattice(n_axis)
    perm = rng.permutation(len(idx))  # perm[k] = document id of lattice point k
    on_face = (idx == 0) | (idx == n_axis)
    interior = ~on_face.any(axis=1)
    facet = on_face.sum(axis=1) == 1  # corners have no interior neighbour
    omega = _canonical(perm, interior)
    gamma = _canonical(perm, facet)
    f = -(0.5 + rng.random(len(omega)))
    g = rng.uniform(-1.0, 1.0, len(gamma))
    doc = {
        "family": "stencil",
        "dimension": 2,
        "h": 1.0 / n_axis,
        "nodes": _document_nodes(idx / n_axis, perm),
        "omega": sorted(int(perm[k]) for k in omega),
        "problem": {"kind": "dirichlet", "f": f.tolist(), "g": g.tolist()},
    }
    return doc, len(omega) + len(gamma)


def _diagnose_check(n_axis):
    def check(path):
        with open(path) as handle:
            record = json.load(handle)
        expected = friedrichs_closed_form(2, 1.0 / n_axis)
        value = record["friedrichs_constant"]
        _require(
            isinstance(value, float) and _close(value, expected, FRIEDRICHS_RTOL),
            f"friedrichs_constant {value!r} != closed form {expected!r}",
        )
        _require(record["symmetry_defect"] == 0.0, f"symmetry_defect {record['symmetry_defect']!r}")
        _require(record["gamma_size"] == 4 * (n_axis - 1), f"gamma_size {record['gamma_size']!r}")
        _require(record["nullspace_dim"] == 1, f"nullspace_dim {record['nullspace_dim']!r}")
        _require(record["max_principle"] is True, f"max_principle {record['max_principle']!r}")
        _require(
            len(record.get("trace_weight_sufficient", ())) == 4 * (n_axis - 1),
            "trace weights missing",
        )

    return check


def _square_ops(workdir, seed):
    rng = np.random.default_rng([seed, 2])
    ops = []
    for n_axis in DIAGNOSE_STEPS:
        doc, n_nodes = stencil_square_document(n_axis, rng)
        path = os.path.join(workdir, f"square_h{n_axis}.json")
        with open(path, "w") as handle:
            json.dump(doc, handle)
        out = os.path.join(workdir, f"square_h{n_axis}.report.json")
        ops.append(
            Operation(
                name=f"diagnose_h1/{n_axis}",
                argv=["diagnose", path, "--out", out],
                nodes=n_nodes,
                check=_diagnose_check(n_axis),
                out=out,
            )
        )
    return ops


# -- quadrature_solve --------------------------------------------------------------

def quadrature_document(kind, n_axis, rng):
    """2-D quadrature document: masses h^2, delta = 3h, density exp(-r*r).

    Omega is the lattice square at distance >= delta from the unit square's
    edges; the boundary is whatever the kernel reaches from it.  Neumann
    loads are shifted to annihilate the constants (the nullspace of the
    connected form); the regularized document gives c as an expression.
    """
    h = 1.0 / n_axis
    delta = QUAD_DELTA_CELLS * h
    idx = _lattice(n_axis)
    perm = rng.permutation(len(idx))  # perm[k] = document id of lattice point k
    interior = np.all((idx >= QUAD_DELTA_CELLS) & (idx <= n_axis - QUAD_DELTA_CELLS), axis=1)
    # boundary = outside nodes within delta of omega (the density is positive)
    lo, hi = QUAD_DELTA_CELLS, n_axis - QUAD_DELTA_CELLS
    gap = np.maximum(np.maximum(lo - idx, idx - hi), 0)
    reach = (gap**2).sum(axis=1) <= QUAD_DELTA_CELLS**2
    omega = _canonical(perm, interior)
    gamma = _canonical(perm, reach & ~interior)
    f = rng.uniform(-1.0, 1.0, len(omega))
    g = rng.uniform(-1.0, 1.0, len(gamma))
    problem = {"kind": kind}
    c = None
    if kind == "neumann":
        shift = np.concatenate([f, g]).mean()  # equal masses: compatible means zero mean
        f, g = f - shift, g - shift
    else:
        c0, c1 = float(rng.uniform(0.5, 1.5)), float(rng.uniform(0.0, 1.0))
        problem["c"] = f"{c0!r} + {c1!r}*x*y"
        x, y = (idx[omega] * h).T
        c = c0 + c1 * x * y
    problem["f"], problem["g"] = f.tolist(), g.tolist()
    doc = {
        "family": "quadrature",
        "dimension": 2,
        "delta": delta,
        "gamma": QUAD_DENSITY,
        "nodes": _document_nodes(idx * h, perm, np.full(len(idx), h * h)),
        "omega": sorted(int(perm[k]) for k in omega),
        "problem": problem,
    }
    order = perm[np.concatenate([omega, gamma])]
    return doc, order, (f, g, c)


def _solve_check(doc_path, order, loads):
    """Strong-form residual of the written solution; for Neumann also its
    mass-orthogonality to the constants.

    The node order and the loads f, g, c come from the generator; only the
    kernel and the node partition are read back through `load_document`.
    """
    f, g, c = loads
    loaded = []

    def check(path):
        from nlbvp import fileio, solvers

        if not loaded:  # the document is the same on every pass
            loaded.append(fileio.load_document(doc_path))
        doc = loaded[0]
        rows = fileio.read_solution_table(path)
        _require(
            [row[0] for row in rows] == order.tolist(),
            f"solution rows are not the {len(order)} nodes in canonical order",
        )
        u = np.array([row[3] for row in rows])
        interior_load = f if c is None else f - c * u[: len(f)]
        interior, boundary = solvers.strong_residual(u, doc.kernel, doc.domain, interior_load, g)
        scale = max(float(np.max(np.abs(f))), float(np.max(np.abs(g))))
        limit = STRONG_RESIDUAL_FACTOR * doc.tol * math.sqrt(len(u)) * scale
        _require(
            interior <= limit and boundary <= limit,
            f"strong residual ({interior:.3e}, {boundary:.3e}) exceeds {limit:.3e}",
        )
        if c is None:  # Neumann: equal masses, so mass-orthogonal means zero mean
            mean = abs(float(u.mean()))
            _require(mean <= ORTHOGONALITY_TOL * float(np.max(np.abs(u))), f"mean of u is {mean:.3e}")

    return check


def _quadrature_ops(workdir, seed):
    rng = np.random.default_rng([seed, 3])
    ops = []
    for kind in ("neumann", "regularized"):
        doc, order, loads = quadrature_document(kind, QUAD_AXIS, rng)
        path = os.path.join(workdir, f"quad_{kind}.json")
        with open(path, "w") as handle:
            json.dump(doc, handle)
        out = os.path.join(workdir, f"quad_{kind}.tsv")
        ops.append(
            Operation(
                name=f"solve_{kind}",
                argv=["solve", path, "--out", out],
                nodes=len(order),
                check=_solve_check(path, order, loads),
                out=out,
            )
        )
    return ops


_BUILDERS = {
    "cube3d_bench": _cube_ops,
    "square2d_diagnose": _square_ops,
    "quadrature_solve": _quadrature_ops,
}
WORKLOADS = tuple(_BUILDERS)


def operations(workload, workdir, seed):
    """Write the workload's documents into workdir and return its operations."""
    return _BUILDERS[workload](workdir, seed)


def warmup_argv(workload, workdir):
    """A small command of the workload's kind, run once before timing so the
    first timed pass pays no first-call costs."""
    if workload == "cube3d_bench":
        return ["bench", "--d", "2", "--h", "1/4,1/8", "--out", os.path.join(workdir, "warm.tsv")]
    rng = np.random.default_rng(0)
    if workload == "square2d_diagnose":
        doc, _ = stencil_square_document(6, rng)
        command = "diagnose"
    else:
        doc = quadrature_document("neumann", 10, rng)[0]
        command = "solve"
    path = os.path.join(workdir, "warm.json")
    with open(path, "w") as handle:
        json.dump(doc, handle)
    return [command, path, "--out", os.path.join(workdir, "warm.out")]
