"""Span tracer that wraps `nlbvp`'s public functions from outside the package.

`instrument(tracer)` replaces each function in `TABLE` with a wrapper that
records a span (name, start, end, parent) and updates counters, and rebinds
the wrapper in every `nlbvp` module that imported the function by name
(`stencil_kernel` in fileio and poisson, `assemble_form` in cli and poisson,
`symmetry_defect` in assembly and cli, ...).  `scipy.sparse.linalg.splu` is
wrapped on its module, because `nlbvp.linalg` looks it up as `spla.splu` at
each call.  Functions left out of the table are counted in the self time of
the nearest wrapped caller.

Spans stay in memory until the run ends.  Density and expression
evaluations (about 88k per quadrature document) are leaf calls: their time
and count go to a per-name total and to the enclosing span's child time,
without a span record each.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# span name -> how its `<name>_s` metric is reported: "self" time (span
# minus children), "incl" (inclusive stage time) or "leaf" (hot calls summed
# without span records)
SPAN_KIND = {
    "cli.self": "self",
    "measure.atomic_measure": "self",
    "measure.kernel": "self",
    "measure.boundary": "self",
    "measure.symmetry": "self",
    "fileio.load": "self",
    "fileio.expr": "leaf",
    "fileio.write": "self",
    "assembly.assemble": "self",
    "linalg.cg": "self",
    "linalg.eig": "self",
    "linalg.splu": "self",
    "analysis.nullspace": "incl",
    "analysis.friedrichs": "incl",
    "analysis.poincare_full": "incl",
    "analysis.poincare_omega": "incl",
    "analysis.trace_weight": "incl",
    "solvers.dirichlet": "incl",
    "solvers.neumann": "incl",
    "solvers.regularized": "incl",
    "poisson.grid": "self",
    "poisson.stiffness": "self",
    "poisson.study": "self",
    "poisson.nonneg_check": "self",
}
TIME_METRICS = tuple(f"{name}_s" for name in SPAN_KIND)

COUNTERS = (
    "measure.kernel_entries",
    "measure.symmetry_calls",
    "fileio.expr_evals",
    "assembly.assemble_calls",
    "assembly.form_nnz",
    "linalg.cg_calls",
    "linalg.cg_iters",
    "linalg.eig_calls",
    "linalg.splu_calls",
    "analysis.nullspace_dim",
    "poisson.grid_calls",
)


class Tracer:
    """Spans as [name, start, end, parent, child_time] lists, plus counters.

    One tracer serves one thread; the benchmark drives `nlbvp` from one.
    """

    def __init__(self):
        self.spans = []
        self.leaf_time = defaultdict(float)
        self.counts = defaultdict(int)
        self.forms = []  # (n, nnz) of every assembled form, in call order
        self._stack = []

    def call(self, name, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), 0.0, parent, 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
            if parent >= 0:
                self.spans[parent][4] += span[2] - span[1]

    def leaf(self, name, fn, args):
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            elapsed = time.perf_counter() - start
            self.leaf_time[name] += elapsed
            if self._stack:
                self.spans[self._stack[-1]][4] += elapsed

    def metrics(self):
        """Per-layer metrics of everything recorded so far."""
        out = {name: 0.0 for name in TIME_METRICS}
        out.update({name: 0 for name in COUNTERS})
        for index, (name, start, end, parent, child) in enumerate(self.spans):
            if SPAN_KIND[name] == "self":
                out[f"{name}_s"] += (end - start) - child
            elif not self._has_ancestor(index, name):
                out[f"{name}_s"] += end - start
        for name, elapsed in self.leaf_time.items():
            out[f"{name}_s"] += elapsed
        out.update(self.counts)
        return out

    def _has_ancestor(self, index, name):
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False


# -- wrappers -------------------------------------------------------------------

def _span(name, after=None):
    """Wrapper factory: one span per call; `after(tracer, result)` counts."""

    def factory(tracer, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = tracer.call(name, fn, args, kwargs)
            if after is not None:
                after(tracer, result)
            return result

        return wrapper

    return factory


def _calls(counter):
    def after(tracer, result):
        tracer.counts[counter] += 1

    return after


def _kernel_entries(tracer, kernel):
    tracer.counts["measure.kernel_entries"] += sum(len(entries) for entries in kernel.support)


def _form(tracer, form):
    tracer.counts["assembly.assemble_calls"] += 1
    tracer.counts["assembly.form_nnz"] += int(form.matrix.nnz)
    tracer.forms.append((int(form.n), int(form.matrix.nnz)))


def _cg(tracer, result):
    tracer.counts["linalg.cg_calls"] += 1
    tracer.counts["linalg.cg_iters"] += int(result[2])


def _nullspace(tracer, basis):
    tracer.counts["analysis.nullspace_dim"] += int(basis.dimension)


def _poincare(tracer, fn):
    @functools.wraps(fn)
    def wrapper(form, basis, variant="full"):
        return tracer.call(f"analysis.poincare_{variant}", fn, (form, basis, variant), {})

    return wrapper


def _expression(tracer, fn):
    @functools.wraps(fn)
    def wrapper(*args):
        tracer.counts["fileio.expr_evals"] += 1
        return tracer.leaf("fileio.expr", fn, args)

    return wrapper


def _radial_density(tracer, fn):
    @functools.wraps(fn)
    def wrapper(expr):
        return _expression(tracer, fn(expr))

    return wrapper


# (module, attribute, wrapper factory); "AtomicMeasure.__init__" names a method
TABLE = (
    ("nlbvp.cli", "main", _span("cli.self")),
    ("nlbvp.measure", "AtomicMeasure.__init__", _span("measure.atomic_measure")),
    ("nlbvp.measure", "stencil_kernel", _span("measure.kernel", _kernel_entries)),
    ("nlbvp.measure", "quadrature_kernel", _span("measure.kernel", _kernel_entries)),
    ("nlbvp.measure", "nonlocal_boundary", _span("measure.boundary")),
    ("nlbvp.measure", "symmetry_defect", _span("measure.symmetry", _calls("measure.symmetry_calls"))),
    ("nlbvp.fileio", "load_document", _span("fileio.load")),
    ("nlbvp.fileio", "evaluate_expression", _expression),
    ("nlbvp.fileio", "radial_density", _radial_density),
    ("nlbvp.fileio", "write_solution_table", _span("fileio.write")),
    ("nlbvp.fileio", "write_bench_report", _span("fileio.write")),
    ("nlbvp.fileio", "write_json", _span("fileio.write")),
    ("nlbvp.assembly", "assemble_form", _span("assembly.assemble", _form)),
    ("nlbvp.linalg", "conjugate_gradient", _span("linalg.cg", _cg)),
    ("nlbvp.linalg", "smallest_eigenpairs", _span("linalg.eig", _calls("linalg.eig_calls"))),
    ("scipy.sparse.linalg", "splu", _span("linalg.splu", _calls("linalg.splu_calls"))),
    ("nlbvp.analysis", "nullspace", _span("analysis.nullspace", _nullspace)),
    ("nlbvp.analysis", "friedrichs_constant", _span("analysis.friedrichs")),
    ("nlbvp.analysis", "poincare_constant", _poincare),
    ("nlbvp.analysis", "trace_weight", _span("analysis.trace_weight")),
    ("nlbvp.solvers", "solve_dirichlet", _span("solvers.dirichlet")),
    ("nlbvp.solvers", "solve_neumann", _span("solvers.neumann")),
    ("nlbvp.solvers", "solve_regularized", _span("solvers.regularized")),
    ("nlbvp.poisson", "unit_cube_grid", _span("poisson.grid", _calls("poisson.grid_calls"))),
    ("nlbvp.poisson", "build_stiffness", _span("poisson.stiffness")),
    ("nlbvp.poisson", "convergence_study", _span("poisson.study")),
    ("nlbvp.poisson", "nonnegative_type_check", _span("poisson.nonneg_check")),
)


@contextmanager
def instrument(tracer):
    """Install the wrappers for the duration of the block, then restore."""
    import nlbvp  # noqa: F401 - loads every library module the table names
    import nlbvp.cli  # noqa: F401

    holders = [mod for name, mod in sys.modules.items() if name == "nlbvp" or name.startswith("nlbvp.")]
    restore = []
    try:
        for module_name, attr, factory in TABLE:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            original = getattr(owner, attr)
            wrapper = factory(tracer, original)
            targets = [owner] + [mod for mod in holders if mod is not owner]
            for target in targets:
                for name, value in list(vars(target).items()):
                    if value is original:
                        restore.append((target, name, original))
                        setattr(target, name, wrapper)
        yield tracer
    finally:
        for target, name, original in reversed(restore):
            setattr(target, name, original)
