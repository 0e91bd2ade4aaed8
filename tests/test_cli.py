"""Command-line contract: documents, exit codes, outputs, round-trips."""

import importlib
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import nlbvp
from nlbvp import cli, fileio, linalg
from nlbvp.errors import DocumentError, EigensolverFailure
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


def test_load_document_takes_a_parsed_dict(tmp_path):
    data = interval_doc({"kind": "dirichlet", "f": "x", "g": "1"})
    from_dict, from_file = load_document(data), load_document(write_doc(tmp_path, "doc.json", data))
    assert np.array_equal(from_dict.domain.order, from_file.domain.order)
    assert np.array_equal(from_dict.f, from_file.f) and np.array_equal(from_dict.g, from_file.g)


def test_load_document_missing_loads_are_zero():
    doc = load_document(interval_doc({"kind": "dirichlet"}))
    assert np.array_equal(doc.f, np.zeros(3)) and np.array_equal(doc.g, np.zeros(2))


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


def nonfinite_cases():
    nan = float("nan")
    dirichlet = {"kind": "dirichlet", "f": "1", "g": "0"}
    neumann = {"kind": "neumann", "f": "x - 0.5", "g": "0"}
    regularized = {"kind": "regularized", "f": "1", "g": "0", "c": [1.0, 1.0, 1.0]}
    quadrature = {
        "family": "quadrature", "dimension": 1, "delta": 0.3, "gamma": "1",
        "nodes": [[0.0], [0.25], [0.5], [0.75], [1.0]], "omega": [1, 2, 3],
        "problem": neumann,
    }
    cases = {
        "f overflows": interval_doc({**dirichlet, "f": "1e400"}),
        "g overflows": interval_doc({**dirichlet, "g": "-1e400"}),
        "f NaN": interval_doc({**dirichlet, "f": [1.0, nan, 1.0]}),
        "g infinite": interval_doc({**neumann, "g": [0.0, float("inf")]}),
        "c NaN": interval_doc({**regularized, "c": [1.0, nan, 1.0]}),
        "mass NaN": {
            **interval_doc(neumann), "nodes": [[0.0], [0.25, nan], [0.5], [0.75], [1.0]],
        },
        "coordinate NaN": {
            **interval_doc(dirichlet), "nodes": [[0.0], [nan], [0.5], [0.75], [1.0]],
        },
        "tol NaN": {**interval_doc(dirichlet), "tol": nan},
        "tol negative": {**interval_doc(dirichlet), "tol": -1.0},
        "h NaN": {**interval_doc(dirichlet), "h": nan},
        "h infinite": {**interval_doc(dirichlet), "h": float("inf")},
        "delta NaN": {**quadrature, "delta": nan},
        "conductance NaN": {
            "family": "graph", "edges": [[0, 1, 1.0], [1, 2, nan], [2, 3, 1.0]],
            "omega": [1, 2], "problem": dirichlet,
        },
    }
    return [pytest.param(doc, [], id=name) for name, doc in cases.items()] + [
        pytest.param(interval_doc(dirichlet), ["--tol", value], id=f"--tol {value}")
        for value in ("nan", "-1", "inf")
    ]


@pytest.mark.parametrize("data, extra", nonfinite_cases())
def test_nonfinite_document_numbers_exit_1_before_any_solve(
    tmp_path, capsys, monkeypatch, data, extra
):
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran on a bad document")

    monkeypatch.setattr(nlbvp.linalg, "conjugate_gradient", no_solve)
    path = write_doc(tmp_path, "doc.json", data)
    assert cli.main(["solve", path, *extra]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def non_integer_cases():
    dirichlet = {"kind": "dirichlet", "f": "1", "g": "0"}
    graph = {
        "family": "graph", "edges": [[0, 1, 1.0], [1, 2, 1.0], [2, 3, 1.0]],
        "omega": [1, 2], "problem": dirichlet,
    }
    cases = {
        "omega float": ({"omega": [1.5, 2, 3]}, "omega", "1.5"),
        "omega strings": ({"omega": ["1", "2", "3"]}, "omega", "'1'"),
        "omega bool": ({"omega": [True, 2, 3]}, "omega", "True"),
        "omega float after an id": ({"omega": [1, 1.2, 3]}, "omega", "1.2"),
        "dimension float": ({"dimension": 1.7}, "dimension", "1.7"),
        "dimension string": ({"dimension": "1"}, "dimension", "'1'"),
        "dimension bool": ({"dimension": True}, "dimension", "True"),
        "dimension zero": ({"dimension": 0}, "dimension", "0"),
        "h string": ({"h": "0.25"}, "h", "'0.25'"),
        "tol bool": ({"tol": True}, "tol", "True"),
    }
    params = [
        pytest.param({**interval_doc(dirichlet), **change}, field, entry, id=name)
        for name, (change, field, entry) in cases.items()
    ]
    edges = [[0, 1.5, 1.0], [1, 2, 1.0], [2, 3, 1.0]]
    return params + [pytest.param({**graph, "edges": edges}, "edges", "1.5", id="edge id float")]


@pytest.mark.parametrize("data, field, entry", non_integer_cases())
def test_non_integer_ids_and_fields_exit_1_naming_the_field(tmp_path, capsys, data, field, entry):
    """Ids and integer fields must be integers, and h and tol numbers: each
    bad document exits 1 with one error line naming the field and its first
    bad entry, where it used to solve or to report another fault."""
    assert cli.main(["solve", write_doc(tmp_path, "doc.json", data)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert field in err and entry in err


def non_number_cases():
    dirichlet = {"kind": "dirichlet", "f": "1", "g": "0"}
    regularized = {"kind": "regularized", "f": "1", "g": "0", "c": "1"}
    nodes = interval_doc(dirichlet)["nodes"]
    cases = {
        "nodes entry": ({**interval_doc(dirichlet), "nodes": ["abc", *nodes[1:]]}, "nodes entry 0: 'abc'"),
        "nodes coordinate": ({**interval_doc(dirichlet), "nodes": [["abc"], *nodes[1:]]}, "nodes entry 0: 'abc'"),
        "f list": (interval_doc({**dirichlet, "f": ["a", "b", "c"]}), "f: 'a'"),
        "c list": (interval_doc({**regularized, "c": ["x", 1, 1]}), "c: 'x'"),
    }
    return [pytest.param(data, message, id=name) for name, (data, message) in cases.items()]


@pytest.mark.parametrize("data, message", non_number_cases())
def test_non_numbers_exit_1_naming_the_field(tmp_path, capsys, data, message):
    """A node or load list holding a non-number exits 1 with one error line
    naming the field and its first bad entry, where numpy's conversion
    message named neither."""
    assert cli.main(["solve", write_doc(tmp_path, "doc.json", data)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"{message} at index 0 is not a number" in err


def wrong_type_cases():
    dirichlet = {"kind": "dirichlet", "f": "1", "g": "0"}
    regularized = {"kind": "regularized", "f": "1", "g": "0", "c": "1"}
    graph = {
        "family": "graph", "edges": [[0, 1, 1.0], [1, 2, 1.0], [2, 3, 1.0]],
        "omega": [1, 2], "problem": dirichlet,
    }
    cases = {
        "document number": (5, "document must be a JSON object"),
        "problem list": ({**interval_doc(), "problem": [1, 2]}, "problem"),
        "f object": (interval_doc({**dirichlet, "f": {"x": 1}}), "'f'"),
        "g object": (interval_doc({**dirichlet, "g": {"x": 1}}), "'g'"),
        "c object": (interval_doc({**regularized, "c": {"x": 1}}), "'c'"),
        "f table not a path": (interval_doc({**dirichlet, "f": {"table": 1.5}}), "'f'"),
        "omega digits": ({**interval_doc(dirichlet), "omega": "123"}, "omega"),
        "omega object": ({**interval_doc(dirichlet), "omega": {"a": 1}}, "omega"),
        # unchecked, the string reads as the nodes 1, 2, 3 of a step-1 lattice
        "nodes digits": ({**interval_doc(dirichlet), "nodes": "123", "h": 1, "omega": [1]}, "nodes"),
        "nodes letters": ({**interval_doc(dirichlet), "nodes": "abc"}, "nodes"),
        "edges string": ({**graph, "edges": "x"}, "edges"),
        "edge number": ({**graph, "edges": [[0, 1, 1.0], 5]}, "edges"),
        "graph nodes string": ({**graph, "nodes": "0123"}, "nodes"),
    }
    return [
        pytest.param(command, data, field, id=f"{command}: {name}")
        for name, (data, field) in cases.items()
        for command in ("solve", "diagnose")
    ]


@pytest.mark.parametrize("command, data, field", wrong_type_cases())
def test_document_fields_of_the_wrong_type_exit_1_naming_the_field(
    tmp_path, capsys, command, data, field
):
    """The document and its problem block must be objects, a load an object
    only as {"table": path}, and omega, nodes, edges and each edge lists:
    anything else exits 1 with one error line naming the field, where it used
    to crash with a traceback, be misread (omega "123" as the ids 1, 2, 3) or
    fail with a message that named no field."""
    assert cli.main([command, write_doc(tmp_path, "doc.json", data)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert field in err


def test_integral_document_numbers_still_load():
    data = {**interval_doc(), "dimension": 1.0, "omega": [1.0, 2, np.int64(3)], "h": 1}
    doc = load_document({**data, "nodes": [[0.0], [1.0], [2.0], [3.0], [4.0]]})
    assert doc.domain.omega.tolist() == [1, 2, 3] and doc.domain.gamma.tolist() == [0, 4]


def test_numpy_omega_loads():
    """A parsed document's omega may be a numpy array; an empty one is still
    refused as empty."""
    doc = load_document({**interval_doc(), "omega": np.array([1, 2, 3])})
    assert doc.domain.omega.tolist() == [1, 2, 3] and doc.domain.gamma.tolist() == [0, 4]
    with pytest.raises(DocumentError, match="omega must not be empty"):
        load_document({**interval_doc(), "omega": np.array([])})


OVERFLOWING_WEIGHTS = {
    # density 1e308 times mass 2 overflows to an infinite kernel weight
    "quadrature": {
        "family": "quadrature", "dimension": 1, "delta": 0.3, "gamma": "1e308",
        "nodes": [[0.0, 2.0], [0.25, 2.0], [0.5, 2.0]], "omega": [1],
    },
    # 1 / h^2 overflows to inf
    "stencil": {
        "family": "stencil", "dimension": 1, "h": 1e-160,
        "nodes": [[k * 1e-160] for k in range(5)], "omega": [1, 2, 3],
    },
}


@pytest.mark.parametrize("command", ["solve", "diagnose"])
@pytest.mark.parametrize("family", sorted(OVERFLOWING_WEIGHTS))
def test_infinite_kernel_weights_exit_1_before_assembly(tmp_path, capsys, monkeypatch, family, command):
    def no_assembly(*args, **kwargs):
        raise AssertionError("a form was assembled from infinite kernel weights")

    monkeypatch.setattr(cli, "assemble_form", no_assembly)
    data = dict(OVERFLOWING_WEIGHTS[family], problem={"kind": "dirichlet", "f": "1", "g": "0"})
    assert cli.main([command, write_doc(tmp_path, "doc.json", data)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: non-finite kernel weight") and err.count("\n") == 1


def test_stencil_document_at_h_1e_170_names_the_infinite_weight():
    """At h = 1e-170 the measure is accepted and 1/h^2 overflows: loading
    names the non-finite kernel weight, not a division by zero."""
    data = {
        "family": "stencil", "dimension": 1, "h": 1e-170,
        "nodes": [[k * 1e-170] for k in range(5)], "omega": [1, 2, 3],
    }
    with pytest.raises(DocumentError, match="non-finite kernel weight at node 0"):
        load_document(data)


def test_max_principle_reads_the_same_at_every_scale(tmp_path, capsys):
    """f = 1 lifts the interior of a 33 x 33 lattice above the boundary's
    g = 0, and the check says so at coordinates and h times 1 and 2^-40,
    where the solution is 2^-80 times smaller."""
    n = 32
    verdicts = []
    for scale in (1.0, 2.0**-40):
        data = {
            "family": "stencil", "dimension": 2, "h": scale / n,
            "nodes": [[scale * i / n, scale * j / n] for i in range(n + 1) for j in range(n + 1)],
            "omega": [i * (n + 1) + j for i in range(1, n) for j in range(1, n)],
            "problem": {"kind": "dirichlet", "f": "1", "g": "0"},
        }
        assert cli.main(["diagnose", write_doc(tmp_path, "doc.json", data)]) == 0
        verdicts.append(json.loads(capsys.readouterr().out)["max_principle"])
    assert verdicts == [False, False]


def test_quadrature_document_kernels_are_the_same_at_every_scale():
    """A 9 x 9 lattice document with delta = 3h loads with the same 1,656-atom
    kernel pattern at coordinates and delta times 1 and 2^-40: its lookup
    tolerance is delta * 1e-9, where an absolute 1e-12 would merge the
    2^-40-scaled nodes, 1.1e-13 apart."""
    n = 8
    patterns = []
    for scale in (1.0, 2.0**-40):
        data = {
            "family": "quadrature", "dimension": 2, "delta": 3 * scale / n, "gamma": "1",
            "nodes": [[scale * i / n, scale * j / n] for i in range(n + 1) for j in range(n + 1)],
            "omega": [i * (n + 1) + j for i in range(1, n) for j in range(1, n)],
        }
        kernel = load_document(data).kernel.matrix
        patterns.append((kernel.indptr, kernel.indices))
    assert patterns[0][1].size == 1656
    assert all(np.array_equal(a, b) for a, b in zip(*patterns))


OVERFLOWING_FORMS = {
    # K = 1e300 is finite, but W = mass * K = 1e310 is not
    "weights": (
        {
            "family": "quadrature", "dimension": 1, "delta": 0.6, "gamma": "1e290",
            "nodes": [[0.0, 1e10], [0.5, 1e10], [1.0, 1e10]], "omega": [1],
        },
        "mass-weighted kernel weight overflows at node 0",
    ),
    # W = 1e308 is finite, but an interior node's weight sum 2e308 is not
    "sums": (
        {
            "family": "quadrature", "dimension": 1, "delta": 0.6, "gamma": "1e308",
            "nodes": [[0.0, 1.0], [0.5, 1.0], [1.0, 1.0], [1.5, 1.0]], "omega": [1, 2],
        },
        "kernel weight sum overflows at node 1",
    ),
}


@pytest.mark.parametrize("command", ["solve", "diagnose"])
@pytest.mark.parametrize("case", sorted(OVERFLOWING_FORMS))
def test_overflowing_forms_exit_1_before_any_solve(tmp_path, capsys, monkeypatch, case, command):
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran on an overflowing form")

    monkeypatch.setattr(nlbvp.linalg, "conjugate_gradient", no_solve)
    monkeypatch.setattr(nlbvp.linalg, "smallest_eigenpairs", no_solve)
    data, message = OVERFLOWING_FORMS[case]
    data = dict(data, problem={"kind": "dirichlet", "f": "1", "g": "0"})
    assert cli.main([command, write_doc(tmp_path, "doc.json", data)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["solve", "diagnose"])
def test_overflowing_mass_scaled_entries_exit_1_before_any_solve(tmp_path, capsys, monkeypatch, command):
    """The form's entries and weight sums are finite (1e308), but the
    nullspace weights a_01 (1/m_0 + 1/m_1) and the scaled pencil's row sums
    are not; assembly refuses the form, naming the node."""

    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran on an overflowing form")

    monkeypatch.setattr(nlbvp.linalg, "conjugate_gradient", no_solve)
    monkeypatch.setattr(nlbvp.linalg, "smallest_eigenpairs", no_solve)
    data = {
        "family": "quadrature", "dimension": 1, "delta": 0.6, "gamma": "1e308",
        "nodes": [[0.0, 1.0], [0.5, 1.0]], "omega": [0],
        "problem": {"kind": "neumann", "f": [1.0], "g": [-1.0]},
    }
    assert cli.main([command, write_doc(tmp_path, "doc.json", data)]) == 1
    assert capsys.readouterr().err == "error: mass-scaled form entry overflows at node 0\n"


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


HEAVY_INTERIOR = {
    "family": "quadrature", "dimension": 1, "delta": 1.05, "gamma": "exp(-30*r*r)",
    "nodes": [[0.0, 1e6], [0.1, 1.0], [-1.0, 1.0]], "omega": [0, 2],
    "problem": {"kind": "dirichlet", "f": "1", "g": "0"},
}


def test_dirichlet_gate_labels_at_the_interior_tolerance(tmp_path, capsys):
    """The heavy interior node 0 gives its boundary neighbour the largest
    mass-scaled diagonal, 7.4e5, so at the full form's tolerance, 7.4e-4, node
    2's only coupling (9.4e-8) is dropped and the node looks stranded.  The
    interior block's tolerance, 7.4e-10, on which the Friedrichs constant
    (1.07e7) gates, keeps it: both commands exit 0, and CG solves the 2 x 2
    interior system to the dense solve's rounding."""
    path = write_doc(tmp_path, "doc.json", HEAVY_INTERIOR)
    assert cli.main(["diagnose", path]) == 0
    assert json.loads(capsys.readouterr().out)["friedrichs_constant"] == pytest.approx(1.0686e7, rel=1e-4)
    assert cli.main(["solve", path, "--format", "structured"]) == 0
    values = [row["value"] for row in json.loads(capsys.readouterr().out)["solution"]]
    doc = load_document(path)
    form = nlbvp.assemble_form(doc.kernel, doc.measure, doc.domain)
    expected = np.linalg.solve(form.omega_block.toarray(), form.mass_omega * doc.f)
    assert values == pytest.approx([*expected, 0.0], rel=1e-12)


DISCONNECTED = {
    "family": "stencil",
    "dimension": 1,
    "h": 1.0,
    "nodes": [[0.0], [1.0], [2.0], [5.0], [6.0]],
    "omega": [1, 3, 4],
}


def test_solve_path_runs_no_eigensolve_and_no_factorization(tmp_path, monkeypatch, capsys):
    """The well-posedness gates of `solve` are graph checks: with the
    eigensolver and the sparse LU refusing to run, every problem kind still
    solves, and ill-posed documents still exit 3."""

    def refuse(*args, **kwargs):
        raise AssertionError("the solve path ran an eigensolve or a factorization")

    monkeypatch.setattr(nlbvp.linalg, "smallest_eigenpairs", refuse)
    monkeypatch.setattr(scipy.sparse.linalg, "splu", refuse)
    well_posed = {
        "dirichlet": interval_doc({"kind": "dirichlet", "f": "1", "g": "0"}),
        "neumann": interval_doc({"kind": "neumann", "f": "x - 0.5", "g": "0"}),
        "regularized": interval_doc({"kind": "regularized", "f": "1", "g": "0", "c": "1"}),
    }
    for kind, data in well_posed.items():
        assert cli.main(["solve", write_doc(tmp_path, f"{kind}.json", data)]) == 0, kind
    capsys.readouterr()
    ill_posed = {
        "dirichlet": {"kind": "dirichlet", "f": "0", "g": "0"},
        # c covers the component of node 1 and leaves {5, 6} without a term
        "regularized": {"kind": "regularized", "f": "0", "g": "0", "c": [1.0, 0.0, 0.0]},
    }
    for kind, problem in ill_posed.items():
        path = write_doc(tmp_path, f"ill_{kind}.json", dict(DISCONNECTED, problem=problem))
        assert cli.main(["solve", path]) == 3, kind
    assert "kernel" in capsys.readouterr().err


def test_solve_empty_omega_exits_1(tmp_path, capsys):
    data = interval_doc({"kind": "dirichlet", "f": "1", "g": "0"})
    data["omega"] = []
    path = write_doc(tmp_path, "doc.json", data)
    assert cli.main(["solve", path]) == 1
    assert "omega" in capsys.readouterr().err


def test_solve_without_problem_block_exits_1(tmp_path, capsys):
    assert cli.main(["solve", write_doc(tmp_path, "doc.json", interval_doc())]) == 1
    assert "no problem block" in capsys.readouterr().err


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


def test_diagnose_lists_weak_boundary_nodes(tmp_path, capsys):
    """The kernel of `test_weak_boundary_flag`: node 1 reaches the interior
    with weight 1e-15 only, so it is a boundary node flagged as weak."""
    data = {
        "family": "quadrature",
        "dimension": 1,
        "delta": 1.0,
        "gamma": "1e-15",
        "nodes": [[0.0], [1.0]],
        "omega": [0],
    }
    assert cli.main(["diagnose", write_doc(tmp_path, "doc.json", data)]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["gamma_size"] == 1
    assert record["weak_gamma"] == [1]
    path = write_doc(tmp_path, "strong.json", interval_doc())
    assert cli.main(["diagnose", path]) == 0
    assert json.loads(capsys.readouterr().out)["weak_gamma"] == []


def test_each_form_is_labelled_once(tmp_path, monkeypatch, capsys):
    """`nullspace` and the solve gates share one component labelling per
    form: a Neumann solve and a Dirichlet diagnose each run `_components`'
    labelling (its one connected-components call) once."""
    runs = []
    label = nlbvp.analysis.csgraph.connected_components

    def counting(*args, **kwargs):
        runs.append(args)
        return label(*args, **kwargs)

    monkeypatch.setattr(nlbvp.analysis.csgraph, "connected_components", counting)
    neumann = interval_doc({"kind": "neumann", "f": "x - 0.5", "g": "0"})
    assert cli.main(["solve", write_doc(tmp_path, "neumann.json", neumann)]) == 0
    assert len(runs) == 1
    capsys.readouterr()
    dirichlet = interval_doc({"kind": "dirichlet", "f": "-1", "g": "0"})
    assert cli.main(["diagnose", write_doc(tmp_path, "dirichlet.json", dirichlet)]) == 0
    assert len(runs) == 2
    assert json.loads(capsys.readouterr().out)["max_principle"] is True


def test_dirichlet_diagnose_factors_three_pencils_and_reuses_one(tmp_path, monkeypatch, capsys):
    """A Dirichlet diagnose factors the Friedrichs and the two Poincare
    pencils, one LU each, and its CG, preconditioned by the Friedrichs
    factor, takes a handful of iterations at h = 1/32 (Jacobi takes 122)."""
    factorizations, iterations = [], []
    factor = scipy.sparse.linalg.splu
    solve = nlbvp.linalg.conjugate_gradient

    def counting_factor(*args, **kwargs):
        factorizations.append(args[0].shape)
        return factor(*args, **kwargs)

    def counting_solve(*args, **kwargs):
        result = solve(*args, **kwargs)
        iterations.append(result[2])
        return result

    monkeypatch.setattr(scipy.sparse.linalg, "splu", counting_factor)
    monkeypatch.setattr(nlbvp.linalg, "conjugate_gradient", counting_solve)
    n_axis = 32
    axis = np.arange(n_axis + 1) / n_axis
    nodes = [[x, y] for x in axis for y in axis]
    inside = lambda p: 0.0 < p[0] < 1.0 and 0.0 < p[1] < 1.0
    data = {
        "family": "stencil",
        "dimension": 2,
        "h": 1.0 / n_axis,
        "nodes": nodes,
        "omega": [k for k, p in enumerate(nodes) if inside(p)],
        "problem": {"kind": "dirichlet", "f": "-1 - x*y", "g": "sin(3*x) - cos(2*y)"},
    }
    assert cli.main(["diagnose", write_doc(tmp_path, "square.json", data)]) == 0
    assert json.loads(capsys.readouterr().out)["max_principle"] is True
    assert len(factorizations) == 3
    assert len(iterations) == 1 and 0 < iterations[0] <= 5


def square_document(n_axis, family):
    """A Dirichlet document on the closed unit square's lattice of step
    1/n_axis: the stencil family with the open square as the interior, or the
    quadrature family (masses h^2, delta = 3h, density exp(-r^2)) with the
    nodes more than 3.5h from every side as the interior."""
    h = 1.0 / n_axis
    axis = np.arange(n_axis + 1) * h
    nodes = [[x, y] for x in axis for y in axis]
    margin = h / 2 if family == "stencil" else 3.5 * h
    data = {
        "family": family,
        "dimension": 2,
        "nodes": nodes,
        "omega": [k for k, p in enumerate(nodes) if all(margin < c < 1.0 - margin for c in p)],
        "problem": {"kind": "dirichlet", "f": "1", "g": "x*y"},
    }
    if family == "stencil":
        data["h"] = h
    else:
        data.update(delta=3 * h, gamma="exp(-r*r)", nodes=[p + [h * h] for p in nodes])
    return data


@pytest.mark.parametrize(
    "command, expected",
    [
        # Friedrichs orders P on a one-neighbour form; both Poincare pencils reuse it
        ("diagnose stencil", ["MMD_AT_PLUS_A", "NATURAL", "NATURAL"]),
        # the Friedrichs pencil has its own pattern: each pencil orders itself
        ("diagnose quadrature", ["MMD_AT_PLUS_A"] * 3),
        # per grid: the Friedrichs pencil orders P and the full pencil reuses it
        ("bench", ["MMD_AT_PLUS_A", "NATURAL"] * 2),
        # per grid, on two threads: the ordering pass reads P's order from its
        # pattern while the Friedrichs pencil orders P itself (calls sorted)
        ("bench concurrent", sorted(["MMD_AT_PLUS_A", "NATURAL", "spilu MMD_AT_PLUS_A"] * 2)),
    ],
)
def test_pencils_of_one_form_share_one_ordering(tmp_path, monkeypatch, capsys, command, expected):
    """On a form whose boundary nodes each couple to one interior node, the
    Friedrichs pencil's multiple-minimum-degree ordering (MMD_AT_PLUS_A)
    serves the Poincare pencils, factored in it (NATURAL): one ordering per
    stencil `diagnose` and per `bench` grid.  A quadrature `diagnose` runs
    three, one per pencil.  Every factorization and the ordering pass's
    incomplete one run under SuperLU's one configuration, `linalg.SUPERLU`."""
    orderings, configurations = [], []
    factor, incomplete = scipy.sparse.linalg.splu, scipy.sparse.linalg.spilu
    ordered = threading.Event()  # the concurrent bench's Friedrichs factor waits for the ordering

    def spy(matrix, permc_spec, **kwargs):
        if command == "bench concurrent" and permc_spec == "MMD_AT_PLUS_A":
            assert ordered.wait(timeout=60)
            ordered.clear()
        orderings.append(permc_spec)
        configurations.append(kwargs)
        return factor(matrix, permc_spec=permc_spec, **kwargs)

    def ordering_spy(matrix, drop_tol, fill_factor, permc_spec, **kwargs):
        orderings.append(f"spilu {permc_spec}")
        configurations.append(kwargs)
        ordered.set()
        return incomplete(matrix, drop_tol, fill_factor, permc_spec=permc_spec, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", spy)
    monkeypatch.setattr(scipy.sparse.linalg, "spilu", ordering_spy)
    if command == "bench concurrent":
        monkeypatch.setattr(cli, "CONCURRENT_MIN_NODES", 0)
    if command.startswith("bench"):
        argv = ["bench", "--d", "3", "--h", "1/4,1/8"]
    else:
        document = square_document(24, command.split()[1])
        argv = ["diagnose", write_doc(tmp_path, "square.json", document)]
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert (sorted(orderings) if command == "bench concurrent" else orderings) == expected
    assert configurations == [linalg.SUPERLU] * len(orderings)


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


def test_diagnose_deflates_many_components_without_a_large_svd(tmp_path, capsys, monkeypatch):
    """2,000 disjoint edges, each an interior and a boundary vertex: the
    Poincare pencils deflate 2,000 components by their labels, with no
    orthonormalization and no dense factorization of any matrix above 4 x 4."""

    def small_only(name):
        real = getattr(scipy.linalg, name)

        def call(a, *args, **kwargs):
            if max(np.shape(a)) > 4:
                raise AssertionError(f"scipy.linalg.{name} ran on a {np.shape(a)} matrix")
            return real(a, *args, **kwargs)

        return call

    def refuse(*args, **kwargs):
        raise AssertionError("scipy.linalg.orth ran")

    monkeypatch.setattr(scipy.linalg, "orth", refuse)
    for name in ("null_space", "svd", "eigh"):
        monkeypatch.setattr(scipy.linalg, name, small_only(name))
    data = {
        "family": "graph",
        "edges": [[2 * i, 2 * i + 1, 1.0] for i in range(2000)],
        "omega": list(range(0, 4000, 2)),
        "problem": {"kind": "dirichlet", "f": "1", "g": "0"},
    }
    assert cli.main(["diagnose", write_doc(tmp_path, "doc.json", data)]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["nullspace_dim"] == 2000
    assert record["friedrichs_constant"] == 1.0
    assert record["poincare_constant_full"] == 0.5
    assert record["poincare_constant_omega"] == 0.0


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


def test_bench_fine_square_meets_its_tolerance(capsys):
    """At h = 1/128 rounding keeps CG's true residual above the bench's
    1e-13; the iterate is accepted by its backward error instead of running
    to the iteration cap."""
    start = time.perf_counter()
    assert cli.main(["bench", "--d", "2", "--h", "1/64,1/128"]) == 0
    assert time.perf_counter() - start < 10.0
    order = float(capsys.readouterr().out.strip().splitlines()[-1].split("\t")[4])
    assert 1.9 <= order <= 2.1


def test_bench_invalid_step(tmp_path, capsys):
    assert cli.main(["bench", "--d", "2", "--h", "0.3"]) == 1
    assert cli.main(["bench", "--d", "2", "--h", "nope"]) == 1
    assert cli.main(["bench", "--d", "2", "--h", "1/0"]) == 1
    assert cli.main(["bench", "--d", "2", "--h", "0"]) == 1
    errors = capsys.readouterr().err.splitlines()
    assert len(errors) == 4 and all(line.startswith("error: ") for line in errors)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--d", "2", "--h", "1/4", "--exact", "quadratic"], "one-dimensional"),
        (["--d", "1", "--h", " , "], "empty step list"),
    ],
)
def test_bench_refusals_exit_1(capsys, argv, message):
    assert cli.main(["bench", *argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_concurrent_bench_prints_the_sequential_columns(monkeypatch, capsys):
    """Factoring the full pencil on a worker thread while the main thread
    factors the Friedrichs pencil changes no printed bit: every column but
    the runtime is the sequential run's, also with the interpreter switching
    threads every microsecond."""
    tables = []
    interval = sys.getswitchinterval()
    for least in (0, 10**9):
        monkeypatch.setattr(cli, "CONCURRENT_MIN_NODES", least)
        sys.setswitchinterval(1e-6 if least == 0 else interval)
        try:
            assert cli.main(["bench", "--d", "3", "--h", "1/8,1/16"]) == 0
        finally:
            sys.setswitchinterval(interval)
        tables.append([line.split("\t")[:7] for line in capsys.readouterr().out.splitlines()])
    assert tables[0] == tables[1]


def test_failing_worker_exits_as_the_sequential_bench(monkeypatch, capsys):
    """An eigensolver failure on the worker thread reaches `main` through
    the future: the same exit code and error line as the sequential run."""

    def fail(form, basis, variant="full"):
        raise EigensolverFailure("shift-invert Lanczos failed on a size-9 pencil")

    monkeypatch.setattr(nlbvp.analysis, "poincare_constant", fail)
    outcomes = []
    for least in (0, 10**9):
        monkeypatch.setattr(cli, "CONCURRENT_MIN_NODES", least)
        outcomes.append((cli.main(["bench", "--d", "2", "--h", "1/4"]), capsys.readouterr()))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == 1
    assert outcomes[0][1].err == "error: shift-invert Lanczos failed on a size-9 pencil\n"


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
    with pytest.raises(DocumentError) as excinfo:
        fileio.evaluate_expression(expr, np.array([[0.0], [0.5]]))
    assert len(str(excinfo.value)) < 500  # a bounded prefix of the expression


# -- formatting helpers --------------------------------------------------------------


def test_float_format_roundtrips():
    for x in (0.1, 1.0 / 3.0, np.pi, 1e-300, 123456.789):
        assert float(fileio.fmt(x)) == x


def test_solution_table_matches_fmt_on_extreme_values():
    extremes = [-0.0, 5e-324, 1e308, math.inf, math.nan]
    domain = SimpleNamespace(order=np.array([3, 0, 4, 1, 2]), m=3, l=2)
    measure = SimpleNamespace(points=np.column_stack([extremes, np.roll(extremes, 1)]))
    u = np.array(extremes)
    expected = ["# node\tcoords\tregion\tvalue"]
    for local, node in enumerate(domain.order):
        coords = ",".join(fileio.fmt(c) for c in measure.points[node])
        region = "omega" if local < domain.m else "gamma"
        expected.append(f"{node}\t{coords}\t{region}\t{fileio.fmt(u[local])}")
    assert fileio.write_solution_table(u, domain, measure) == "\n".join(expected) + "\n"


def test_cli_import_leaves_scipy_spatial_out():
    # scipy.spatial pulls in scipy.special: about 0.1 s and 6 MB per process start
    src = os.path.dirname(os.path.dirname(os.path.abspath(nlbvp.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = "import sys, nlbvp.cli; print('scipy.spatial' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "False"


# -- the exit-code contract on generated documents -------------------------------------


@st.composite
def exit_code_documents(draw, family, kind):
    """A small document of the family with a problem block of the kind, and
    the exit code it must produce, worked out from its node couplings alone.

    The coupling graph links two nodes when the kernel weights them and one
    of them is interior.  Its components decide the code: 3 for a Dirichlet
    problem with an interior component that holds no boundary node, or a
    regularized one whose c leaves a component without a positive value; 2
    for a flux load (Neumann, or regularized with c = 0) that pairs with a
    component indicator; 1 for a non-finite number or an unknown kind; else
    0.  Weights and masses lie in [0.5, 2], far above the weak-coupling
    tolerance, so the graph is the library's kept-coupling graph."""
    unit = st.floats(0.5, 2.0)
    if family == "graph":  # one random tree per block of vertices: none is isolated
        links, n = [], 0
        for size in draw(st.lists(st.integers(2, 4), min_size=1, max_size=3)):
            links += [(n + draw(st.integers(0, v - 1)), n + v) for v in range(1, size)]
            n += size
        edges = [[a, b, draw(unit)] for a, b in links]
        masses = np.zeros(n)
        for a, b, conductance in edges:
            masses[a] += conductance
            masses[b] += conductance
        data = {"family": "graph", "edges": edges}
    else:
        cell = st.tuples(st.integers(0, 3), st.integers(0, 3))
        cells = draw(st.lists(cell, min_size=2, max_size=9, unique=True))
        n = len(cells)
        reach = 1 if family == "stencil" else 2  # squared lattice distance of a coupling
        links = [
            (a, b) for a in range(n) for b in range(a + 1, n)
            if (cells[a][0] - cells[b][0]) ** 2 + (cells[a][1] - cells[b][1]) ** 2 <= reach
        ]
        coords = [[0.25 * x, 0.25 * y] for x, y in cells]
        if family == "stencil":
            masses = np.ones(n)
            data = {"family": "stencil", "dimension": 2, "h": 0.25, "nodes": coords}
        else:
            masses = np.array([draw(unit) for _ in range(n)])
            data = {
                "family": "quadrature", "dimension": 2, "delta": 0.375,
                "gamma": draw(st.sampled_from(["1", "exp(-r)"])),
                "nodes": [xy + [mass] for xy, mass in zip(coords, masses.tolist())],
            }
    omega = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1)))
    interior = np.zeros(n, dtype=bool)
    interior[omega] = True
    coupled = [(a, b) for a, b in links if interior[a] or interior[b]]
    gamma = sorted({node for pair in coupled for node in pair} - set(omega))
    label = list(range(n))  # union-find over the coupled pairs

    def root(node):
        while label[node] != node:
            node = label[node]
        return node

    for a, b in coupled:
        label[root(a)] = root(b)
    roots = np.array([root(node) for node in range(n)])
    # values with zero mass-weighted mean on every component: a compatible load
    values = np.array([draw(st.floats(-1.0, 1.0)) for _ in range(n)])
    nodes = np.array(omega + gamma)
    for r in set(roots[nodes].tolist()):
        part = nodes[roots[nodes] == r]
        values[part] -= values[part] @ masses[part] / masses[part].sum()
    offset = draw(st.booleans())
    problem = {"kind": kind, "f": (values[omega] + offset).tolist(), "g": values[gamma].tolist()}
    if kind == "dirichlet":
        stranded = set(roots[omega].tolist()) - set(roots[gamma].tolist())
        expected = 3 if stranded else 0
    elif kind == "neumann":
        expected = 2 if offset else 0
    else:
        c = np.array([draw(st.sampled_from([2.0, 0.5, 0.0])) for _ in omega])
        if draw(st.booleans()):  # no term on the first interior node's component
            c[roots[omega] == roots[omega[0]]] = 0.0
        problem["c"] = c.tolist()
        if c.any():
            uncovered = set(roots[nodes].tolist()) - set(roots[omega][c > 0].tolist())
            expected = 3 if uncovered else 0
        else:  # with c = 0 the regularized solve is the Neumann solve
            expected = 2 if offset else 0
    data.update(omega=omega, problem=problem)
    corrupt = draw(st.sampled_from([None, None, None, "kind", "f", "tol", "parameter"]))
    if corrupt is not None:
        expected = 1
    if corrupt == "kind":
        problem["kind"] = "robin"
    elif corrupt == "f":
        problem["f"][0] = math.nan
    elif corrupt == "tol":
        data["tol"] = math.inf
    elif corrupt == "parameter":
        if family == "graph":
            data["edges"][0][2] = math.nan
        else:
            data["h" if family == "stencil" else "delta"] = math.inf
    return data, expected


@pytest.mark.parametrize("kind", ["dirichlet", "neumann", "regularized"])
@pytest.mark.parametrize("family", ["stencil", "graph", "quadrature"])
def test_exit_codes_on_generated_documents(tmp_path_factory, family, kind):
    @settings(max_examples=40, deadline=None)
    @given(exit_code_documents(family, kind))
    def check(case):
        data, expected = case
        workdir = tmp_path_factory.mktemp("exit")
        path = write_doc(workdir, "doc.json", data)
        assert cli.main(["solve", path, "--out", str(workdir / "out.tsv")]) == expected

    check()


def test_traced_bench_wrappers_resolve_and_come_off():
    """`bench/tracing.py` rebinds the library functions its TABLE names: every
    entry must still resolve, be wrapped inside `instrument` and be restored
    after it, so a renamed or removed function cannot silently break a traced
    bench run."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)

    def bindings():
        found = []
        for module_name, attr, _ in tracing.TABLE:
            owner = importlib.import_module(module_name)
            for name in attr.split("."):
                owner = getattr(owner, name)
            found.append(owner)
        return found

    before = bindings()
    with tracing.instrument(tracing.Tracer()):
        during = bindings()
    assert all(now is not then for now, then in zip(during, before))
    assert all(now is then for now, then in zip(bindings(), before))
