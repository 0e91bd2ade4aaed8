"""Command-line front door: solve, diagnose, bench.

Exit codes form a stable contract: 0 on success, else the `exit_code` that
the error's class in `errors` carries, and 1 for any other error.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import functools
import json
import sys
import time

import numpy as np

from . import analysis, fileio, poisson
from .assembly import assemble_form
from .errors import DocumentError, NlbvpError
from .solvers import (
    DirichletProblem,
    NeumannProblem,
    solve_dirichlet,
    solve_neumann,
    solve_regularized,
)

# interior nodes from which `bench` factors the Friedrichs and full pencils
# at once: below it a second thread costs more than the overlap saves
CONCURRENT_MIN_NODES = 2500


def _parse_step(text):
    text = text.strip()
    if "/" in text:
        num, den = text.split("/", 1)
        return float(num) / float(den)
    return float(text)


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def cmd_solve(args):
    doc = fileio.load_document(args.document)
    if doc.kind is None:
        raise DocumentError("document has no problem block to solve")
    form = assemble_form(doc.kernel, doc.measure, doc.domain)
    tol = doc.tol if args.tol is None else fileio.positive_finite(args.tol, "--tol")
    if doc.kind == "dirichlet":
        solution = solve_dirichlet(DirichletProblem(form, doc.f, doc.g), tol=tol)
    elif doc.kind == "neumann":
        basis = analysis.nullspace(form)
        solution = solve_neumann(NeumannProblem(form, doc.f, doc.g), basis, tol=tol)
    else:
        solution = solve_regularized(NeumannProblem(form, doc.f, doc.g), doc.c, tol=tol)
    summary = {
        "kind": doc.kind,
        "residual": solution.residual,
        "iterations": solution.iterations,
        "projected": solution.projected,
    }
    if args.format == "structured":
        rows = [
            {
                "node": int(node),
                "coords": [float(c) for c in doc.measure.points[node]],
                "region": "omega" if local < doc.domain.m else "gamma",
                "value": solution.u[local],
            }
            for local, node in enumerate(doc.domain.order)
        ]
        _emit(json.dumps({"summary": summary, "solution": rows}, indent=2) + "\n", args.out)
    else:
        table = fileio.write_solution_table(solution, doc.domain, doc.measure)
        _emit(table, args.out)
        sys.stderr.write(fileio.write_json(summary) + "\n")
    return 0


def cmd_diagnose(args):
    doc = fileio.load_document(args.document)
    form = assemble_form(doc.kernel, doc.measure, doc.domain)
    basis = analysis.nullspace(form)
    # the Friedrichs factorization of A_oo + s M_o preconditions the Dirichlet
    # solve, then goes before the Poincare pencils are factored
    friedrichs, shifted_inverse = analysis.friedrichs_constant(form, return_inverse=True)
    compat = None
    principle = None
    if doc.kind is not None:
        compat = analysis.compatibility_defect(doc.f, doc.g, basis)
        if doc.kind == "dirichlet" and np.isfinite(friedrichs.constant) and doc.domain.l:
            problem = DirichletProblem(form, doc.f, doc.g)
            solution = solve_dirichlet(problem, tol=doc.tol, preconditioner=shifted_inverse)
            principle = analysis.max_principle_check(solution.u, doc.domain)
    del shifted_inverse
    poincare_full = analysis.poincare_constant(form, basis, variant="full")
    poincare_omega = analysis.poincare_constant(form, basis, variant="omega")
    record = {
        "symmetry_defect": form.symmetry_defect,
        "gamma_size": doc.domain.l,
        "nullspace_dim": basis.dimension,
        "friedrichs_constant": friedrichs.constant,
        "poincare_constant_omega": poincare_omega.constant,
        "poincare_constant_full": poincare_full.constant,
        "compatibility_defect": compat,
        "max_principle": principle,
        "weak_gamma": [int(node) for node in doc.domain.weak_gamma],
    }
    if doc.domain.l:
        weight = analysis.trace_weight(doc.kernel, doc.domain, variant="sufficient")
        record["trace_weight_sufficient"] = [float(v) for v in weight.values]
        necessary = analysis.trace_weight(doc.kernel, doc.domain, variant="necessary", c=1.0)
        record["trace_weight_necessary_c1"] = [float(v) for v in necessary.values]
    _emit(fileio.write_json(record) + "\n", args.out)
    return 0


def _bench_one(d, h, exact_kind):
    start = time.perf_counter()
    grid = poisson.unit_cube_grid(d, h)
    form = assemble_form(grid.kernel, grid.measure, grid.domain)
    pair = poisson.build_stiffness(grid)
    deviation = form.matrix - pair.a_neumann
    if deviation.nnz and abs(deviation).max() > 1e-12:
        raise NlbvpError("assembled form deviates from the stiffness matrix")
    report = poisson.nonnegative_type_check(
        pair.a_neumann[: grid.m, :], range(grid.m)
    )
    if not report.nonnegative_type or not report.zero_row_sums:
        raise NlbvpError("reduced stiffness matrix is not of non-negative type")
    basis = analysis.nullspace(form)
    if grid.m >= CONCURRENT_MIN_NODES:
        # SuperLU releases the GIL while it factors, and the full pencil's
        # order is read from its pattern, not from the Friedrichs factor, so
        # the two factorizations overlap; either may store the form's shared
        # order, and both store the same one
        with concurrent.futures.ThreadPoolExecutor(max_workers=1) as pool:
            future = pool.submit(analysis.poincare_constant, form, basis, "full")
            friedrichs = analysis.friedrichs_constant(form)
            poincare = future.result()
    else:
        friedrichs = analysis.friedrichs_constant(form)
        poincare = analysis.poincare_constant(form, basis, variant="full")
    error, solution = poisson.manufactured_solve(grid, form, *_manufactured(d, exact_kind))
    runtime = (time.perf_counter() - start) * 1000.0
    row = {
        "h": h,
        "m": grid.m,
        "l": grid.l,
        "max_error": error,
        "order": float("nan"),
        "friedrichs_C": friedrichs.constant,
        "poincare_C": poincare.constant,
        "runtime_ms": runtime,
    }
    return row, grid, solution


def _manufactured(d, kind):
    """Exact solution and load of the bench, vectorized: each takes the
    (d, k) coordinate stack of k points and returns the k values."""
    if kind == "quadratic":
        if d != 1:
            raise DocumentError("the quadratic exact solution is one-dimensional")

        def exact_u(p):
            return 0.5 * p[0] * (1.0 - p[0])

        def exact_f(p):
            return 1.0
    else:

        def exact_u(p):
            return np.prod(np.sin(np.pi * p), axis=0)

        def exact_f(p):
            return d * np.pi * np.pi * exact_u(p)

    exact_u.vectorized = exact_f.vectorized = True
    return exact_u, exact_f


def cmd_bench(args):
    try:
        h_list = [_parse_step(tok) for tok in args.h.split(",") if tok.strip()]
    except (ValueError, ZeroDivisionError) as exc:
        raise DocumentError(f"cannot parse step list {args.h!r}: {exc}") from exc
    if not h_list:
        raise DocumentError("empty step list")
    rows = []
    for h in h_list:
        row, grid, solution = _bench_one(args.d, h, args.exact)
        rows.append(row)
        if args.plot_prefix:
            table = fileio.write_solution_table(solution, grid.domain, grid.measure)
            _emit(table, f"{args.plot_prefix}_h{h:.6g}.tsv")
    for prev, cur in zip(rows, rows[1:]):
        cur["order"] = poisson._order(prev["max_error"], cur["max_error"])
    _emit(fileio.write_bench_report(rows), args.out)
    return 0


@functools.cache  # one parser per process; parse_args leaves it unchanged
def build_parser():
    parser = argparse.ArgumentParser(
        prog="nlbvp",
        description="Nonlocal Dirichlet/Neumann boundary-value problems on finite node sets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve the problem described by a document")
    p_solve.add_argument("document")
    p_solve.add_argument("--tol", type=float, default=None)
    p_solve.add_argument("--out", default=None)
    p_solve.add_argument("--format", choices=("table", "structured"), default="table")
    p_solve.set_defaults(func=cmd_solve)

    p_diag = sub.add_parser("diagnose", help="kernel and form diagnostics for a document")
    p_diag.add_argument("document")
    p_diag.add_argument("--out", default=None)
    p_diag.set_defaults(func=cmd_diagnose)

    p_bench = sub.add_parser("bench", help="unit-cube benchmark and convergence study")
    p_bench.add_argument("--d", type=int, required=True)
    p_bench.add_argument("--h", required=True, help="comma-separated steps, e.g. 1/8,1/16")
    p_bench.add_argument("--exact", choices=("sine", "quadratic"), default="sine")
    p_bench.add_argument("--out", default=None)
    p_bench.add_argument("--plot-prefix", default=None)
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except (NlbvpError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return getattr(exc, "exit_code", 1)


if __name__ == "__main__":
    sys.exit(main())
