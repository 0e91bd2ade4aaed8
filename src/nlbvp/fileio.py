"""Problem documents and all text exports.

Documents are JSON with the fixed kernel/measure fields

    family     "stencil" | "graph" | "quadrature"
    dimension  ambient dimension
    h          lattice step (stencil)
    delta      interaction radius (quadrature)
    gamma      radial density expression in the variable r (quadrature)
    nodes      coordinate list, each entry [x1..xd] or [x1..xd, mass]
    edges      [i, j, conductance] triples (graph)
    omega      interior node ids

plus an optional problem block {kind, f, g, c, tol}.  Load data f/g/c may be
per-node value lists, expression strings over the coordinates, or
{"table": path} to reuse a previously written solution table.

Expressions (the load data and gamma) follow one small grammar, checked on
the parsed tree before anything is evaluated: numeric constants (taken as
floats), the variables x, y, z (one per coordinate; r for gamma) and pi,
the operators + - * / ** and unary - +, and one-argument calls of sin, cos,
exp, sqrt and abs.  Every other construct is a DocumentError.  Each
expression is compiled once and evaluated on numpy arrays, with floating-point
division by zero, invalid operations and overflow raised as DocumentError.

All numeric output is written with 17 significant digits so that re-reading
reproduces the exact double.
"""

from __future__ import annotations

import ast
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DocumentError
from .measure import (
    AtomicMeasure,
    graph_kernel,
    nonlocal_boundary,
    quadrature_kernel,
    stencil_kernel,
)

_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "sqrt": np.sqrt, "abs": np.abs}
_OPERATORS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow, ast.USub, ast.UAdd)
_COORDINATES = ("x", "y", "z")


def fmt(x):
    """17-significant-digit rendering; round-trips every finite double."""
    return format(float(x), ".17g")


def json_value(x):
    if x is None:
        return None
    if isinstance(x, (bool, str, int)):
        return x
    x = float(x)
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if math.isnan(x):
        return "nan"
    return x


def write_json(record, path=None):
    payload = json.dumps({k: json_value(v) for k, v in record.items()}, indent=2)
    if path is None:
        return payload
    with open(path, "w") as handle:
        handle.write(payload + "\n")
    return payload


def _vet(node, names, constants):
    """`node` with each numeric constant replaced by a name bound to its
    float64 in `constants`; ValueError on anything outside the grammar."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, _OPERATORS):
        node.left = _vet(node.left, names, constants)
        node.right = _vet(node.right, names, constants)
        return node
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, _OPERATORS):
        node.operand = _vet(node.operand, names, constants)
        return node
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in _FUNCTIONS
        and len(node.args) == 1
        and not node.keywords
    ):
        node.args[0] = _vet(node.args[0], names, constants)
        return node
    if isinstance(node, ast.Name) and node.id in names:
        return node
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        name = f"_c{len(constants)}"
        constants[name] = np.float64(float(node.value))
        return ast.copy_location(ast.Name(name, ast.Load()), node)
    raise ValueError(f"{ast.unparse(node)!r} is not allowed")


def _compile_expression(expr, variables):
    """Check `expr` against the expression grammar and compile it once.

    Returns a function of the variables (keyword arguments, floats or equally
    shaped arrays) that evaluates the expression with numpy under raised
    floating-point errors.  Float constants mean that no big-integer
    arithmetic can run: 9**9**9 overflows at once.
    """
    constants = {}
    try:
        tree = ast.parse(expr, mode="eval")
        tree.body = _vet(tree.body, {*variables, "pi"}, constants)
        code = compile(ast.fix_missing_locations(tree), "<expression>", "eval")
    # the parser reports too deep a nesting as MemoryError or RecursionError
    except (TypeError, ValueError, SyntaxError, OverflowError, RecursionError, MemoryError) as exc:
        raise DocumentError(f"invalid expression {expr!r}: {exc}") from exc
    namespace = {"__builtins__": {}, "pi": np.float64(math.pi), **_FUNCTIONS, **constants}

    def evaluate(**values):
        try:
            with np.errstate(divide="raise", invalid="raise", over="raise"):
                return eval(code, namespace, values)  # noqa: S307 - vetted tree
        except ArithmeticError as exc:
            raise DocumentError(f"cannot evaluate expression {expr!r}: {exc}") from exc

    return evaluate


def evaluate_expression(expr, points):
    """Evaluate a coordinate expression at every row of `points` (k, d) in
    one call; a constant expression is broadcast to the k nodes."""
    points = np.asarray(points, dtype=float)
    evaluate = _compile_expression(expr, _COORDINATES[: points.shape[1]])
    values = np.empty(points.shape[0])
    values[...] = evaluate(**dict(zip(_COORDINATES, points.T)))
    return values


def radial_density(expr):
    """Symmetric density from a radial expression in the variable r.

    The density takes two coordinate-major stacks p, q of shape (d, k) and
    returns the k values at r = |p[:, k] - q[:, k]|; `gamma.vectorized`
    tells `quadrature_kernel` to call it once on all pairs.
    """
    evaluate = _compile_expression(expr, ("r",))

    def gamma(p, q):
        r = np.linalg.norm(np.asarray(p, dtype=float) - np.asarray(q, dtype=float), axis=0)
        values = np.empty(r.shape)
        values[...] = evaluate(r=r)
        return values

    gamma.vectorized = True
    return gamma


# -- solution tables -----------------------------------------------------------

def write_solution_table(solution, domain, measure, path=None):
    """Per-node table: index, coordinates, region, value (tab-separated)."""
    u = solution.u if hasattr(solution, "u") else solution
    lines = ["# node\tcoords\tregion\tvalue"]
    for local, node in enumerate(domain.order):
        coords = ",".join(fmt(c) for c in measure.points[node])
        region = "omega" if local < domain.m else "gamma"
        lines.append(f"{int(node)}\t{coords}\t{region}\t{fmt(u[local])}")
    text = "\n".join(lines) + "\n"
    if path is not None:
        with open(path, "w") as handle:
            handle.write(text)
    return text


def read_solution_table(path):
    """Rows of a solution table as (node, coords, region, value) tuples."""
    rows = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            node, coords, region, value = line.split("\t")
            rows.append(
                (
                    int(node),
                    tuple(float(c) for c in coords.split(",")),
                    region,
                    float(value),
                )
            )
    return rows


def gamma_values_from_table(path):
    """Boundary values of a solution table, in table (canonical) order."""
    return np.array([value for _, _, region, value in read_solution_table(path) if region == "gamma"])


def write_matrix_coo(matrix, path):
    """Coordinate-list export: row, col, value per line."""
    coo = matrix.tocoo()
    with open(path, "w") as handle:
        for i, j, v in zip(coo.row, coo.col, coo.data):
            handle.write(f"{i}\t{j}\t{fmt(v)}\n")


def write_bench_report(rows, path=None):
    """Benchmark table: h, m, l, max_error, order, friedrichs_C, poincare_C, runtime_ms."""
    lines = ["# h\tm\tl\tmax_error\torder\tfriedrichs_C\tpoincare_C\truntime_ms"]
    for row in rows:
        lines.append(
            "\t".join(
                [
                    fmt(row["h"]),
                    str(row["m"]),
                    str(row["l"]),
                    fmt(row["max_error"]),
                    fmt(row["order"]),
                    fmt(row["friedrichs_C"]),
                    fmt(row["poincare_C"]),
                    fmt(row["runtime_ms"]),
                ]
            )
        )
    text = "\n".join(lines) + "\n"
    if path is not None:
        with open(path, "w") as handle:
            handle.write(text)
    return text


# -- problem documents ---------------------------------------------------------

@dataclass
class ProblemDocument:
    kernel: object
    measure: AtomicMeasure
    domain: object
    kind: str | None  # dirichlet | neumann | regularized | None
    f: np.ndarray | None
    g: np.ndarray | None
    c: np.ndarray | None
    tol: float


def _require(data, key):
    if key not in data:
        raise DocumentError(f"document is missing the field {key!r}")
    return data[key]


def _parse_nodes(data, dimension):
    raw = _require(data, "nodes")
    points, masses = [], []
    for entry in raw:
        entry = list(entry) if isinstance(entry, (list, tuple)) else [entry]
        if len(entry) == dimension:
            points.append(entry)
            masses.append(1.0)
        elif len(entry) == dimension + 1:
            points.append(entry[:dimension])
            masses.append(float(entry[dimension]))
        else:
            raise DocumentError(
                f"node entry {entry} does not match dimension {dimension}"
            )
    if not points:
        raise DocumentError("document contains no nodes")
    return np.array(points, dtype=float), np.array(masses)


def _node_values(raw, points, count, name):
    if raw is None:
        return np.zeros(count)
    if isinstance(raw, str):
        return evaluate_expression(raw, points)
    if isinstance(raw, dict) and "table" in raw:
        values = gamma_values_from_table(raw["table"])
        if values.shape != (count,):
            raise DocumentError(
                f"table for {name!r} holds {values.shape[0]} boundary values, expected {count}"
            )
        return values
    values = np.asarray(raw, dtype=float)
    if values.shape != (count,):
        raise DocumentError(f"{name!r} must provide {count} values, got {values.shape}")
    return values


def load_document(source):
    """Build measure, kernel, domain, and problem data from a document.

    `source` is a path to a JSON file or an already-parsed dict.
    """
    if isinstance(source, dict):
        data = source
    else:
        try:
            with open(source) as handle:
                data = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise DocumentError(f"cannot read document: {exc}") from exc
    family = _require(data, "family")
    try:
        if family == "stencil":
            dimension = int(_require(data, "dimension"))
            h = float(_require(data, "h"))
            points, masses = _parse_nodes(data, dimension)
            measure = AtomicMeasure(points, masses, lookup_tol=h * 1e-9)
            kernel = stencil_kernel(dimension, h, measure)
        elif family == "quadrature":
            dimension = int(_require(data, "dimension"))
            delta = float(_require(data, "delta"))
            density = radial_density(_require(data, "gamma"))
            points, masses = _parse_nodes(data, dimension)
            measure = AtomicMeasure(points, masses)
            kernel = quadrature_kernel(density, delta, measure)
        elif family == "graph":
            edges = [(int(i), int(j), float(c)) for i, j, c in _require(data, "edges")]
            coords = data.get("nodes")
            kernel, measure = graph_kernel(edges, coordinates=coords)
        else:
            raise DocumentError(f"unknown kernel family {family!r}")
        omega = _require(data, "omega")
        if not omega:
            raise DocumentError("omega must not be empty")
        domain = nonlocal_boundary(kernel, omega, measure)
    except DocumentError:
        raise
    except Exception as exc:
        raise DocumentError(str(exc)) from exc
    problem = data.get("problem") or {}
    kind = problem.get("kind")
    if kind is not None and kind not in ("dirichlet", "neumann", "regularized"):
        raise DocumentError(f"unknown problem kind {kind!r}")
    pts_omega = measure.points[domain.omega]
    pts_gamma = measure.points[domain.gamma]
    f = _node_values(problem.get("f"), pts_omega, domain.m, "f") if kind else None
    g = _node_values(problem.get("g"), pts_gamma, domain.l, "g") if kind else None
    c = None
    if kind == "regularized":
        c = _node_values(problem.get("c"), pts_omega, domain.m, "c")
    return ProblemDocument(
        kernel=kernel,
        measure=measure,
        domain=domain,
        kind=kind,
        f=f,
        g=g,
        c=c,
        tol=float(data.get("tol", 1e-12)),
    )
