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

plus an optional problem block {kind, f, g, c} and the CG tolerance tol.  Load
data f/g/c may be per-node value lists, expression strings over the
coordinates, or {"table": path} to reuse a previously written solution table.
The document and the problem block are JSON objects, omega, nodes, edges and
each edge lists.  Every number must be finite (h, delta and tol also
positive), dimension and the ids of omega and edges integral; anything else
is a DocumentError naming the field, raised before any solve.

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
import numbers
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
_QUOTE_LIMIT = 80  # characters of an expression quoted in an error message


def fmt(x):
    """17-significant-digit rendering; round-trips every finite double."""
    return format(float(x), ".17g")


def json_value(x):
    if x is None or isinstance(x, (bool, str, int, list)):
        return x
    x = float(x)
    return x if math.isfinite(x) else str(x)  # "inf", "-inf" or "nan"


def write_json(record):
    return json.dumps({k: json_value(v) for k, v in record.items()}, indent=2)


def _quote(text):
    """repr of text, cut to its first _QUOTE_LIMIT characters and an ellipsis."""
    return repr(text if len(text) <= _QUOTE_LIMIT else text[:_QUOTE_LIMIT] + "…")


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
    raise ValueError(f"{_quote(ast.unparse(node))} is not allowed")


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
        raise DocumentError(f"invalid expression {_quote(expr)}: {exc}") from exc
    namespace = {"__builtins__": {}, "pi": np.float64(math.pi), **_FUNCTIONS, **constants}

    def evaluate(**values):
        try:
            with np.errstate(divide="raise", invalid="raise", over="raise"):
                return eval(code, namespace, values)  # noqa: S307 - vetted tree
        except ArithmeticError as exc:
            raise DocumentError(f"cannot evaluate expression {_quote(expr)}: {exc}") from exc

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
    """Density from a radial expression in the variable r.

    The density takes the array `r` of pair distances and returns the
    density at each.  A function of |x - y| alone is symmetric, so
    `gamma.radial` tells `quadrature_kernel` to call it once, on the
    distances of all unordered pairs, and to use each value for both
    orientations of its pair.
    """
    evaluate = _compile_expression(expr, ("r",))

    def gamma(r):
        values = np.empty(r.shape)
        values[...] = evaluate(r=r)
        return values

    gamma.radial = True
    return gamma


# -- solution tables -----------------------------------------------------------

def write_solution_table(solution, domain, measure):
    """Per-node table: index, coordinates, region, value (tab-separated),
    every number as `fmt` writes it (one %-format per row)."""
    u = solution.u if hasattr(solution, "u") else solution
    points = measure.points[domain.order]
    row = "%d\t" + ",".join(["%.17g"] * points.shape[1]) + "\t%s\t%.17g"
    regions = ["omega"] * domain.m + ["gamma"] * domain.l
    rows = zip(domain.order.tolist(), points.tolist(), regions, np.asarray(u, dtype=float).tolist())
    lines = ["# node\tcoords\tregion\tvalue"]
    lines += [row % (node, *coords, region, value) for node, coords, region, value in rows]
    return "\n".join(lines) + "\n"


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


def write_bench_report(rows):
    """Benchmark table: h, m, l, max_error, order, friedrichs_C, poincare_C, runtime_ms."""
    reals = ("max_error", "order", "friedrichs_C", "poincare_C", "runtime_ms")
    lines = ["# h\tm\tl\tmax_error\torder\tfriedrichs_C\tpoincare_C\truntime_ms"]
    lines += [
        "\t".join([fmt(row["h"]), str(row["m"]), str(row["l"])] + [fmt(row[key]) for key in reals])
        for row in rows
    ]
    return "\n".join(lines) + "\n"


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


def _sequence(value, name):
    """`value`; a DocumentError naming `name` unless it is a list (in a parsed
    dict also a tuple or a numpy array)."""
    if not isinstance(value, (list, tuple, np.ndarray)):
        raise DocumentError(f"{name} must be a list, got {type(value).__name__}")
    return value


def _parse_nodes(data, dimension):
    raw = _sequence(_require(data, "nodes"), "nodes")
    try:  # a rectangular node list is read in one call
        table = np.array(raw, dtype=float)
    except (TypeError, ValueError):
        table = np.empty((0, 0))
    if table.ndim != 2 or not len(table) or table.shape[1] not in (dimension, dimension + 1):
        rows = []  # entry by entry: pads ragged lists with unit masses, names a bad entry
        for index, entry in enumerate(raw):
            entry = list(entry) if isinstance(entry, (list, tuple)) else [entry]
            if len(entry) not in (dimension, dimension + 1):
                raise DocumentError(f"node entry {entry} does not match dimension {dimension}")
            rows.append(_numbers(entry, f"nodes entry {index}") + [1.0] * (dimension + 1 - len(entry)))
        if not rows:
            raise DocumentError("document contains no nodes")
        table = np.array(rows, dtype=float)
    masses = table[:, dimension] if table.shape[1] > dimension else np.ones(len(table))
    return np.ascontiguousarray(table[:, :dimension]), np.ascontiguousarray(masses)


def _integers(values, name, least=0):
    """A DocumentError naming `name` and the first entry of `values` that is
    not an integral number >= `least` (a bool is none)."""
    for value in values:
        if isinstance(value, bool) or not isinstance(value, numbers.Real) or value % 1 or value < least:
            raise DocumentError(f"{name}: {value!r} is not an integer >= {least}")


def positive_finite(value, name):
    """`value` as a float; a DocumentError unless it is a finite positive number."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not 0.0 < value < math.inf:
        raise DocumentError(f"{name} must be a finite positive number, got {value!r}")
    return float(value)


def _numbers(values, name):
    """The entries of the list `values` as floats; a DocumentError naming
    `name` and its first entry that is not a number."""
    floats = []
    for index, value in enumerate(values):
        try:
            floats.append(float(value))
        except (TypeError, ValueError, OverflowError):
            raise DocumentError(f"{name}: {value!r} at index {index} is not a number") from None
    return floats


def _node_values(raw, points, count, name):
    if raw is None:
        return np.zeros(count)
    if isinstance(raw, str):
        values = evaluate_expression(raw, points)
    elif isinstance(raw, dict):
        if not isinstance(raw.get("table"), str):
            raise DocumentError(f'{name!r} as an object must be {{"table": path}}')
        values = gamma_values_from_table(raw["table"])
        if values.shape != (count,):
            raise DocumentError(
                f"table for {name!r} holds {values.shape[0]} boundary values, expected {count}"
            )
    else:
        values = np.asarray(_numbers(raw, name) if isinstance(raw, (list, tuple)) else raw, dtype=float)
        if values.shape != (count,):
            raise DocumentError(f"{name!r} must provide {count} values, got {values.shape}")
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise DocumentError(f"{name!r} is not finite at index {bad[0]}: {values[bad[0]]}")
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
    if not isinstance(data, dict):
        raise DocumentError(f"document must be a JSON object, got {type(data).__name__}")
    family = _require(data, "family")
    try:
        if family in ("stencil", "quadrature"):
            dimension = _require(data, "dimension")
            _integers([dimension], "dimension", least=1)
            dimension = int(dimension)
            points, masses = _parse_nodes(data, dimension)
        if family == "stencil":
            h = positive_finite(_require(data, "h"), "h")
            measure = AtomicMeasure(points, masses, lookup_tol=h * 1e-9)
            kernel = stencil_kernel(dimension, h, measure)
        elif family == "quadrature":
            delta = positive_finite(_require(data, "delta"), "delta")
            density = radial_density(_require(data, "gamma"))
            measure = AtomicMeasure(points, masses, lookup_tol=delta * 1e-9)
            kernel = quadrature_kernel(density, delta, measure)
        elif family == "graph":
            edges = _sequence(_require(data, "edges"), "edges")
            _integers([i for edge in edges for i in _sequence(edge, "edges entry")[:2]], "edges")
            nodes = data.get("nodes")  # optional vertex coordinates
            coordinates = None if nodes is None else _sequence(nodes, "nodes")
            kernel, measure = graph_kernel(edges, coordinates)
        else:
            raise DocumentError(f"unknown kernel family {family!r}")
        omega = _sequence(_require(data, "omega"), "omega")
        _integers(omega, "omega")
        if not len(omega):
            raise DocumentError("omega must not be empty")
        domain = nonlocal_boundary(kernel, omega, measure)
    except DocumentError:
        raise
    except Exception as exc:
        raise DocumentError(str(exc)) from exc
    problem = {} if data.get("problem") is None else data["problem"]
    if not isinstance(problem, dict):
        raise DocumentError(f"problem must be a JSON object, got {type(problem).__name__}")
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
        tol=positive_finite(data.get("tol", 1e-12), "tol"),
    )
