"""Command-line contract: documents, exit codes, outputs, round-trips."""

import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nlbvp
from nlbvp import cli, fileio
from nlbvp.errors import DocumentError
from nlbvp.fileio import load_document, gamma_values_from_table


def write_doc(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def interval_doc(problem=None):
    doc = {
        "family": "stencil",
        "dimension": 1,
        "h": 0.25,
        "nodes": [[0.0], [0.25], [0.5], [0.75], [1.0]],
        "omega": [1, 2, 3],
    }
    if problem is not None:
        doc["problem"] = problem
    return doc


# -- documents -------------------------------------------------------------------


def test_load_document_builds_domain(tmp_path):
    path = write_doc(tmp_path, "doc.json", interval_doc())
    doc = load_document(path)
    assert doc.domain.m == 3 and doc.domain.l == 2
    assert doc.kind is None


def test_load_document_expression_data(tmp_path):
    data = interval_doc({"kind": "dirichlet", "f": "sin(pi*x)", "g": "0"})
    doc = load_document(write_doc(tmp_path, "doc.json", data))
    expected = np.sin(np.pi * np.array([0.25, 0.5, 0.75]))
    np.testing.assert_allclose(doc.f, expected)
    np.testing.assert_allclose(doc.g, np.zeros(2))


def test_load_document_rejects_garbage(tmp_path):
    from nlbvp.errors import DocumentError

    with pytest.raises(DocumentError):
        load_document(write_doc(tmp_path, "doc.json", {"family": "warp"}))
    with pytest.raises(DocumentError):
        load_document(str(tmp_path / "missing.json"))
    bad = interval_doc()
    bad["omega"] = []
    with pytest.raises(DocumentError):
        load_document(write_doc(tmp_path, "doc.json", bad))


# -- solve ------------------------------------------------------------------------


def test_solve_dirichlet_table(tmp_path, capsys):
    data = interval_doc({"kind": "dirichlet", "f": "1", "g": "0"})
    path = write_doc(tmp_path, "doc.json", data)
    assert cli.main(["solve", path]) == 0
    table = capsys.readouterr().out
    assert "0.125" in table
    assert "omega" in table and "gamma" in table


def test_solve_structured_format(tmp_path, capsys):
    data = interval_doc({"kind": "dirichlet", "f": "1", "g": "0"})
    path = write_doc(tmp_path, "doc.json", data)
    assert cli.main(["solve", path, "--format", "structured"]) == 0
    payload = json.loads(capsys.readouterr().out)
    values = {row["node"]: row["value"] for row in payload["solution"]}
    assert values[2] == pytest.approx(0.125, abs=1e-12)
    assert payload["summary"]["kind"] == "dirichlet"


def test_solve_incompatible_neumann_exits_2(tmp_path, capsys):
    data = interval_doc({"kind": "neumann", "f": "1", "g": "0"})
    path = write_doc(tmp_path, "doc.json", data)
    assert cli.main(["solve", path]) == 2
    assert "compatibility" in capsys.readouterr().err


def test_solve_singular_interior_exits_3(tmp_path, capsys):
    data = {
        "family": "stencil",
        "dimension": 1,
        "h": 1.0,
        "nodes": [[0.0], [1.0], [2.0], [5.0], [6.0]],
        "omega": [1, 3, 4],
        "problem": {"kind": "dirichlet", "f": "0", "g": "0"},
    }
    path = write_doc(tmp_path, "doc.json", data)
    assert cli.main(["solve", path]) == 3


def test_solve_empty_omega_exits_1(tmp_path, capsys):
    data = interval_doc({"kind": "dirichlet", "f": "1", "g": "0"})
    data["omega"] = []
    path = write_doc(tmp_path, "doc.json", data)
    assert cli.main(["solve", path]) == 1
    assert "omega" in capsys.readouterr().err


def test_solution_roundtrip_bitwise(tmp_path, capsys):
    data = interval_doc({"kind": "dirichlet", "f": "sin(pi*x)", "g": "cos(3*x)"})
    path = write_doc(tmp_path, "doc.json", data)
    out = str(tmp_path / "solution.tsv")
    assert cli.main(["solve", path, "--out", out]) == 0
    doc = load_document(path)
    recovered = gamma_values_from_table(out)
    assert recovered.shape == doc.g.shape
    assert np.array_equal(recovered, doc.g)  # bit-for-bit through the table
    # feed the table back in as boundary data
    data2 = interval_doc({"kind": "dirichlet", "f": "1", "g": {"table": out}})
    doc2 = load_document(write_doc(tmp_path, "doc2.json", data2))
    assert np.array_equal(doc2.g, doc.g)


# -- diagnose ----------------------------------------------------------------------


def test_diagnose_stencil(tmp_path, capsys):
    path = write_doc(tmp_path, "doc.json", interval_doc())
    assert cli.main(["diagnose", path]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["symmetry_defect"] == 0.0
    assert record["nullspace_dim"] == 1
    assert record["gamma_size"] == 2
    assert record["friedrichs_constant"] == pytest.approx(0.10669417382415924)
    assert len(record["trace_weight_sufficient"]) == 2


def test_diagnose_zero_kernel(tmp_path, capsys):
    data = {
        "family": "quadrature",
        "dimension": 1,
        "delta": 0.5,
        "gamma": "0",
        "nodes": [[0.0], [0.25], [0.5]],
        "omega": [0, 1, 2],
    }
    path = write_doc(tmp_path, "doc.json", data)
    assert cli.main(["diagnose", path]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["gamma_size"] == 0
    assert record["friedrichs_constant"] == "inf"


def test_diagnose_interleaved_lattice(tmp_path, capsys):
    data = {
        "family": "stencil",
        "dimension": 1,
        "h": 0.25,
        "nodes": [[i / 8.0] for i in range(9)],
        "omega": list(range(1, 8)),
    }
    path = write_doc(tmp_path, "doc.json", data)
    assert cli.main(["diagnose", path]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["nullspace_dim"] == 2


@pytest.mark.parametrize("n_axis", [32, 64])
def test_diagnose_unit_square(tmp_path, n_axis):
    from conftest import dense_omega_constant, square_setup

    axis = range(n_axis + 1)
    data = {
        "family": "stencil",
        "dimension": 2,
        "h": 1.0 / n_axis,
        "nodes": [[i / n_axis, j / n_axis] for i in axis for j in axis],
        "omega": [
            i * (n_axis + 1) + j for i in axis for j in axis
            if 0 < i < n_axis and 0 < j < n_axis
        ],
    }
    path = write_doc(tmp_path, "doc.json", data)
    outputs = [str(tmp_path / f"report{k}.json") for k in range(2)]
    for out in outputs:
        assert cli.main(["diagnose", path, "--out", out]) == 0
    first, second = (Path(out).read_bytes() for out in outputs)
    assert first == second
    record = json.loads(first)
    assert record["nullspace_dim"] == 1
    assert isinstance(record["poincare_constant_omega"], float)
    if n_axis == 32:
        _, form = square_setup(1.0 / n_axis)
        expected = dense_omega_constant(form)
        assert record["poincare_constant_omega"] == pytest.approx(expected, rel=1e-8)


def test_diagnose_graph_document(tmp_path, capsys):
    data = {
        "family": "graph",
        "edges": [[0, 1, 1.0], [1, 2, 1.0]],
        "omega": [1],
    }
    path = write_doc(tmp_path, "doc.json", data)
    assert cli.main(["diagnose", path]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["symmetry_defect"] == 0.0
    assert record["gamma_size"] == 2


# -- bench -------------------------------------------------------------------------


def test_bench_quadratic_exact(tmp_path, capsys):
    assert cli.main(["bench", "--d", "1", "--h", "1/4", "--exact", "quadratic"]) == 0
    out = capsys.readouterr().out
    row = out.strip().splitlines()[-1].split("\t")
    assert float(row[3]) <= 1e-12  # max_error column


def test_bench_second_order(tmp_path, capsys):
    assert cli.main(["bench", "--d", "2", "--h", "1/4,1/8,1/16"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    orders = [float(line.split("\t")[4]) for line in lines[2:]]
    assert all(1.8 <= o <= 2.2 for o in orders)


def test_bench_invalid_step(tmp_path, capsys):
    assert cli.main(["bench", "--d", "2", "--h", "0.3"]) == 1
    assert cli.main(["bench", "--d", "2", "--h", "nope"]) == 1


def test_bench_writes_report_and_plot_data(tmp_path):
    out = str(tmp_path / "bench.tsv")
    prefix = str(tmp_path / "plot")
    assert (
        cli.main(
            [
                "bench", "--d", "1", "--h", "1/4", "--exact", "quadratic",
                "--out", out, "--plot-prefix", prefix,
            ]
        )
        == 0
    )
    text = Path(out).read_text()
    assert text.startswith("# h\t")
    assert (tmp_path / "plot_h0.25.tsv").exists()


def test_solve_regularized_document(tmp_path, capsys):
    data = interval_doc(
        {"kind": "regularized", "f": "1", "g": "0", "c": [1.0, 1.0, 1.0]}
    )
    path = write_doc(tmp_path, "doc.json", data)
    assert cli.main(["solve", path, "--format", "structured"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["kind"] == "regularized"
    assert payload["summary"]["projected"] is False


def test_solve_graph_neumann_document(tmp_path, capsys):
    data = {
        "family": "graph",
        "edges": [[0, 1, 1.0], [1, 2, 2.0], [2, 3, 1.0], [3, 0, 1.0]],
        "omega": [1, 2],
        "problem": {"kind": "neumann", "f": [0.5, -0.5], "g": [0.0, 0.0]},
    }
    path = write_doc(tmp_path, "doc.json", data)
    assert cli.main(["solve", path, "--format", "structured"]) == 0
    payload = json.loads(capsys.readouterr().out)
    values = {row["node"]: row["value"] for row in payload["solution"]}
    assert values[1] == pytest.approx(0.375, abs=1e-10)
    assert values[2] == pytest.approx(-0.375, abs=1e-10)
    assert payload["summary"]["projected"] is True


def test_diagnose_with_problem_block(tmp_path, capsys):
    data = interval_doc({"kind": "dirichlet", "f": "0-1", "g": "0"})
    path = write_doc(tmp_path, "doc.json", data)
    assert cli.main(["diagnose", path]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["compatibility_defect"] == pytest.approx(3.0 / np.sqrt(5.0))
    assert record["max_principle"] is True  # f <= 0 solve obeys the principle


def test_nodes_with_masses(tmp_path):
    data = {
        "family": "quadrature",
        "dimension": 1,
        "delta": 0.6,
        "gamma": "1",
        "nodes": [[0.0, 0.5], [0.5, 2.0], [1.0, 0.5]],
        "omega": [1],
    }
    doc = load_document(write_doc(tmp_path, "doc.json", data))
    np.testing.assert_allclose(doc.measure.masses, [0.5, 2.0, 0.5])
    # kernel weights carry the target mass as quadrature weight
    assert dict(doc.kernel.entries(1)) == {0: 0.5, 2: 0.5}


# -- expressions -------------------------------------------------------------------

HOSTILE = [
    "().__class__.__base__.__subclasses__()",
    "().__class__.__base__.__subclasses__().__len__()",
    "__import__('os')",
    "(lambda: 1)()",
    "[1 for t in (1, 2)][0]",
    "(1, 2)[0]",
    "'1'",
    "exp(x=1)",
    "log(1)",
    "y",
    "9**9**9",
]


def hostile_doc(field, expr):
    if field == "gamma":
        return {
            "family": "quadrature",
            "dimension": 1,
            "delta": 0.3,
            "gamma": expr,
            "nodes": [[0.0], [0.25], [0.5], [0.75], [1.0]],
            "omega": [1, 2, 3],
        }
    if field == "f":
        return interval_doc({"kind": "dirichlet", "f": expr, "g": "0"})
    return interval_doc({"kind": "regularized", "f": "1", "g": "0", "c": expr})


@pytest.mark.parametrize("field", ["f", "c", "gamma"])
@pytest.mark.parametrize("expr", HOSTILE)
def test_hostile_expression_is_a_document_error(tmp_path, capsys, field, expr):
    path = write_doc(tmp_path, "doc.json", hostile_doc(field, expr))
    start = time.perf_counter()
    assert cli.main(["solve", path]) == 1
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err.startswith("error: ")
    with pytest.raises(DocumentError):
        load_document(path)


FORBIDDEN = [
    "().__class__", "x.real", "x[0]", "lambda: 1", "[t for t in x]", "'1'", "b'1'",
    "None", "True", "1j", "...", "sin(x=1)", "sin(x, x)", "sin(*x)", "log(x)",
    "__import__('os')", "pi(x)", "sin", "q", "x < 1", "x and y", "x if y else 1",
    "x // y", "x % y", "x ^ y", "not x", "~x", "(x := 1)", "(x, y)", "{x: y}", "f'{x}'",
]
VALID = st.recursive(
    st.sampled_from(["x", "y", "pi", "2", "0.5"]),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(["+", "-", "*", "/", "**"]), inner).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"
        ),
        st.tuples(st.sampled_from(["sin", "cos", "exp", "sqrt", "abs", "-", "+"]), inner).map(
            lambda t: f"{t[0]}({t[1]})"
        ),
    ),
    max_leaves=8,
)


@settings(max_examples=200, deadline=None)
@given(VALID, st.sampled_from(FORBIDDEN), st.integers(0, 7))
def test_compiler_rejects_spliced_constructs_before_evaluating(valid, forbidden, position):
    fileio._compile_expression(valid, ("x", "y"))  # the host compiles
    leaves = list(re.finditer(r"\b(x|y|pi|2|0\.5)\b", valid))
    leaf = leaves[position % len(leaves)]
    spliced = f"{valid[: leaf.start()]}({forbidden}){valid[leaf.end():]}"
    with pytest.raises(DocumentError):
        fileio._compile_expression(spliced, ("x", "y"))


def within_one_ulp(a, b):
    return (a == b) | (a == np.nextafter(b, np.inf)) | (a == np.nextafter(b, -np.inf))


@pytest.mark.parametrize(
    "expr,reference,exact",
    [
        ("x + y", lambda x, y: x + y, True),
        ("x - y", lambda x, y: x - y, True),
        ("x * y", lambda x, y: x * y, True),
        ("x / y", lambda x, y: x / y, True),
        ("-x + (+y)", lambda x, y: -x + (+y), True),
        ("sin(x)", lambda x, y: math.sin(x), True),
        ("cos(x)", lambda x, y: math.cos(x), True),
        ("sqrt(y)", lambda x, y: math.sqrt(y), True),
        ("abs(x)", lambda x, y: abs(x), True),
        ("exp(x)", lambda x, y: math.exp(x), False),
        ("y ** x", lambda x, y: y**x, False),
        ("x ** 2", lambda x, y: x**2.0, False),
    ],
)
def test_vectorized_evaluation_matches_per_point_floats(expr, reference, exact):
    rng = np.random.default_rng(7)
    points = np.column_stack([rng.uniform(-20.0, 20.0, 4000), rng.uniform(0.1, 10.0, 4000)])
    values = fileio.evaluate_expression(expr, points)
    expected = np.array([reference(float(x), float(y)) for x, y in points])
    if exact:
        assert np.array_equal(values, expected)
    else:
        assert np.all(within_one_ulp(values, expected))


def test_expression_underflow_is_zero_and_constants_broadcast():
    points = np.array([[0.0], [0.5], [1.0]])
    assert fileio.evaluate_expression("exp(-1000)", points).tolist() == [0.0] * 3
    assert fileio.evaluate_expression("exp(-1000*x - 1000)", points).tolist() == [0.0] * 3
    assert fileio.evaluate_expression("0", points).tolist() == [0.0] * 3


@pytest.mark.parametrize(
    "expr",
    ["1/x", "sqrt(x - 1)", "exp(2000*x)", "(0 - 8) ** (1/3)", "-" * 100000 + "1", "1+" * 2000 + "1"],
    ids=["divide", "sqrt", "overflow", "power", "deep-unary", "deep-binary"],
)
def test_expression_errors_are_document_errors(expr):
    with pytest.raises(DocumentError):
        fileio.evaluate_expression(expr, np.array([[0.0], [0.5]]))


# -- formatting helpers --------------------------------------------------------------


def test_float_format_roundtrips():
    for x in (0.1, 1.0 / 3.0, np.pi, 1e-300, 123456.789):
        assert float(fileio.fmt(x)) == x


def test_matrix_coo_export(tmp_path):
    from conftest import three_node_setup

    _, _, _, form = three_node_setup()
    path = tmp_path / "matrix.coo"
    fileio.write_matrix_coo(form.matrix, str(path))
    entries = {}
    for line in path.read_text().splitlines():
        i, j, v = line.split("\t")
        entries[(int(i), int(j))] = float(v)
    assert entries[(0, 0)] == 8.0
    assert entries[(0, 1)] == -4.0
    assert entries[(1, 0)] == entries[(0, 1)]


def test_cli_import_leaves_scipy_spatial_out():
    # scipy.spatial pulls in scipy.special: about 0.1 s and 6 MB per process start
    src = os.path.dirname(os.path.dirname(os.path.abspath(nlbvp.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = "import sys, nlbvp.cli; print('scipy.spatial' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "False"
