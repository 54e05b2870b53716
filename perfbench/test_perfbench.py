"""Tests of the pipeline benchmark itself.

Run from the root of a checkout:  python3 -m pytest -q perfbench
"""

import json
import os
import threading

import pytest

import run
import spans
from workloads import TINY, WORKLOADS


@pytest.fixture(autouse=True)
def one_setup_probe(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_passes_its_checks(name):
    report = run.run_benchmark(TINY[name], seed=3, seconds=0, trace=0)
    assert report["problems"] == []
    assert report["failed"] == 0 and report["attempted"] == 5
    assert set(report["end_to_end"]) == {n for n, _ in run.END_TO_END}
    assert all(v > 0 for v in report["end_to_end"].values())


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_traced(name):
    report = run.run_benchmark(TINY[name], seed=4, seconds=0, trace=1)
    # one untraced reference pass, one traced pass matching it byte for byte
    assert report["problems"] == []
    assert len(report["traces"]) == 1
    layers = report["per_layer"]
    assert set(layers) == {n for n, _ in spans.PER_LAYER}
    assert layers["lrkron.iterations"] >= 1
    assert layers["linalg.eig_calls"] >= 1
    assert layers["formats.read_bytes"] > 0
    assert layers["filters.apply_calls"] >= TINY[name].n_bins
    multipass_ran = layers["multipass.stack_calls"] > 0
    assert multipass_ran == TINY[name].multipass


def test_tiny_workloads_keep_the_full_shape():
    for name, tiny in TINY.items():
        full = WORKLOADS[name]
        assert (tiny.ra, tiny.rb, tiny.threads, tiny.multipass) == \
            (full.ra, full.rb, full.threads, full.multipass)
        assert dict(tiny.scene).keys() == dict(full.scene).keys()


def test_benchmark_json_declares_what_the_runner_reports():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == \
        [m for m in spans.PER_LAYER if m[0] not in spans.WHERE_RUN]


def test_seed_changes_only_the_generated_config():
    w = WORKLOADS["many-bins"]
    assert w.config_text(5) == w.config_text(5)
    assert w.config_text(5) != w.config_text(6)
    assert "seed = 5\n" in w.config_text(5)


def _span(i, name, parent, start, end, layer="filters"):
    return spans.Span(i, name, layer, parent, 0, 0, start, end)


def test_self_time_with_overlapping_children_from_two_threads():
    recorded = [
        _span(0, "stage.filter", None, 0.0, 10.0, layer="cli"),
        _span(1, spans.POOL_SPAN, 0, 1.0, 9.0, layer="parallel"),
        _span(2, "StapFilter.apply_matrix", 0, 2.0, 6.0),   # pool thread 1
        _span(3, "StapFilter.apply_matrix", 0, 4.0, 8.0),   # pool thread 2
        _span(4, "filters.hermitian_eig", 2, 3.0, 4.0, layer="linalg"),
    ]
    selfs = spans.self_times(recorded)
    # the stage loses the union [2, 8] of its children, not their sum
    assert selfs == {0: 4.0, 2: 3.0, 3: 4.0, 4: 1.0}
    assert spans.overlap_times(recorded) == {0: 2.0, 2: 0.0}
    wall, layers, overlap = spans.stage_balance(recorded)["filter"]
    assert (wall, overlap) == (10.0, 2.0)
    assert layers == {"cli": 4.0, "filters": 7.0, "linalg": 1.0}
    assert sum(layers.values()) - overlap == wall


def test_union_length():
    assert spans.union_length([]) == 0.0
    assert spans.union_length([(0, 1), (2, 3)]) == 2.0
    assert spans.union_length([(0, 4), (1, 2), (3, 5)]) == 5.0


def test_pool_thread_spans_name_the_caller_as_parent():
    run.load_cli()
    from kronstap.parallel import WorkerPool

    tracer = spans.Tracer()
    both_open = threading.Barrier(2, timeout=10)

    def work(start, stop):
        with tracer.span("child", "filters"):
            both_open.wait()

    with tracer.installed(), WorkerPool(2) as pool:
        with tracer.span("stage.detect", "cli"):
            pool.run(work, [(0, 1), (1, 2)])

    stage, pool_span = tracer.spans[0], tracer.spans[1]
    children = [s for s in tracer.spans if s.name == "child"]
    assert pool_span.name == spans.POOL_SPAN and pool_span.parent == stage.id
    assert len({c.thread for c in children}) == 2
    assert all(c.parent == stage.id for c in children)
    overlap = spans.overlap_times(tracer.spans)[stage.id]
    assert overlap > 0
    wall, layers, total_overlap = spans.stage_balance(tracer.spans)["detect"]
    assert total_overlap == overlap
    assert sum(layers.values()) - overlap == pytest.approx(wall, abs=1e-9)


def test_installed_restores_the_package():
    cli = run.load_cli()
    from kronstap.filters import StapFilter

    before = (cli.sample_covariance, StapFilter.apply_matrix)
    with spans.Tracer().installed():
        assert cli.sample_covariance is not before[0]
    assert (cli.sample_covariance, StapFilter.apply_matrix) == before
