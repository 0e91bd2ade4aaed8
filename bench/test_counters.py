"""Self-checks of the benchmark itself (not part of the package's test suite).

    python3 -m pytest bench/test_counters.py -q

Two traced passes on documents generated from the same seed must give
identical counters and identical operation sizes; the wrappers must come
off after a traced pass; BENCHMARK.json must name exactly the metrics that
run.py reports.
"""

from __future__ import annotations

import json
import os

import pytest

import child  # puts this checkout's src/ first on sys.path
import run
import tracing
import workloads

SEED = 7


def _traced(workload, workdir):
    os.makedirs(workdir)
    cli = child.import_nlbvp()
    ops = workloads.operations(workload, str(workdir), SEED)
    tracer = tracing.Tracer()
    result = child.run_pass(cli, ops, tracer)
    metrics = tracer.metrics()
    counts = {name: metrics[name] for name in tracing.COUNTERS}
    sizes = [(op.name, op.nodes, op.forms) for op in ops]
    return counts, sizes, [o["failure"] is None for o in result["ops"]]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counters_repeat_for_a_seed(workload, tmp_path):
    first = _traced(workload, tmp_path / "first")
    second = _traced(workload, tmp_path / "second")
    assert first == second
    counts, sizes, _ = first
    assert counts["assembly.assemble_calls"] == sum(len(forms) for _, _, forms in sizes)
    assert counts["assembly.form_nnz"] == sum(nnz for _, _, forms in sizes for _, nnz in forms)


def test_wrappers_rebind_every_reference_and_come_off():
    child.import_nlbvp()
    import nlbvp.cli
    import scipy.sparse.linalg as spla
    from nlbvp import assembly, measure, poisson

    def bindings():
        return (
            nlbvp.cli.main,
            nlbvp.cli.assemble_form,
            poisson.assemble_form,
            poisson.stencil_kernel,
            spla.splu,
            measure.AtomicMeasure.__init__,
        )

    originals = bindings()
    with tracing.instrument(tracing.Tracer()):
        assert nlbvp.cli.assemble_form is assembly.assemble_form is poisson.assemble_form
        assert assembly.assemble_form.__wrapped__ is originals[1]
        assert all(now is not before for now, before in zip(bindings(), originals))
    assert bindings() == originals


def test_benchmark_json_names_the_reported_metrics():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    record = {
        "passes": [{"pass_s": 1.0, "nodes_per_s": 1.0, "wall_s": 1.0}],
        "traced": [{"pass_s": 1.0}],
        "peak_rss_mb": 1.0,
        "attempted": 1,
        "failed": 0,
        "layers": {name: 0 for name in tracing.TIME_METRICS + tracing.COUNTERS},
    }
    table, _ = run.end_to_end(record, [{"setup_s": 1.0, "setup_wall_s": 1.0}])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: v[1] for k, v in table.items()}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: v[1] for k, v in run.layers(record).items()}
