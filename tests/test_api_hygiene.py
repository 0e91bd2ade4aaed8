"""Library hygiene checked on the source tree: every function parameter is read."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nlbvp"

# callbacks whose signature a protocol fixes: (file, function, parameter)
UNREAD_ALLOWED = {
    ("cli.py", "exact_f", "p"),  # the quadratic load is constant in the point
}


def unread_parameters(path):
    """(file, function, parameter, line) of each parameter of a function or
    lambda in the file that its body never loads, nested bodies included."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        params += [arg for arg in (args.vararg, args.kwarg) if arg is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        loaded = {
            name.id
            for statement in body
            for name in ast.walk(statement)
            if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)
        }
        name = getattr(node, "name", "<lambda>")
        found += [(path.name, name, p.arg, node.lineno) for p in params if p.arg not in loaded]
    return found


def test_every_parameter_is_read():
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths, f"no sources under {PACKAGE}"
    unread = [
        f"{file}:{line} {function}({param})"
        for path in paths
        for file, function, param, line in unread_parameters(path)
        if (file, function, param) not in UNREAD_ALLOWED
    ]
    assert not unread, "parameters their functions never read: " + ", ".join(unread)


def test_the_walk_flags_an_unread_parameter(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text("def f(u, form, domain):\n    return u[: domain.m]\n")
    assert unread_parameters(source) == [("sample.py", "f", "form", 1)]
