"""Self-time math, cross-thread parenting, wrapper removal, the tail rule and
the speed scaling."""

from __future__ import annotations

import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from measure import REFERENCE_CALIBRATION_S, Speed, pinned_to_one_cpu, tail
from spans import LAYER_NAMES, Span, Tracer, layer_totals, self_times

MAIN, POOL = 1, 2


def span(span_id, parent, layer, start, end, cpu, thread=MAIN, op=0):
    return Span(span_id, parent, layer, "m", op, thread, start, end, 0, cpu)


def test_self_time_subtracts_same_thread_children_only():
    spans = [
        span(1, 0, "core", 0, 100, 90),
        span(2, 1, "engines", 10, 50, 35),
        span(3, 2, "gf", 20, 30, 10),
        span(4, 1, "rmi.cluster", 60, 90, 5),
        # a pool-thread root under the client span that waits for it
        span(5, 4, "filters.server", 61, 88, 25, thread=POOL),
    ]
    own = self_times(spans)
    assert own[1] == (100 - 40 - 30, 90 - 35 - 5)
    assert own[2] == (40 - 10, 35 - 10)
    assert own[3] == (10, 10)
    # not reduced by the pool span: the client was blocked, not computing
    assert own[4] == (30, 5)
    assert own[5] == (27, 25)

    totals = layer_totals(spans, client_thread=MAIN)
    assert set(LAYER_NAMES) <= set(totals)
    assert totals["rmi.cluster"].client_wall_ns - totals["rmi.cluster"].client_cpu_ns == 25
    assert totals["filters.server"] == (1, 25, 0, 0)
    # self CPU partitions each thread's root span: 90 on the client, 25 pooled
    assert sum(t.cpu_ns for t in totals.values()) == 90 + 25


def _busy(seconds_of_work: int) -> int:
    return sum(range(seconds_of_work))


def test_pool_thread_spans_parent_to_the_waiting_client_span():
    tracer = Tracer()
    pool = ThreadPoolExecutor(max_workers=2)
    inner = tracer.wrap("gf", "inner", _busy)

    def scatter():
        futures = [pool.submit(inner, 200_000) for _ in range(2)]
        return [future.result() for future in futures]

    outer = tracer.wrap("rmi.cluster", "scatter", scatter)
    tracer.enabled = True
    tracer.op = 7
    try:
        outer()
    finally:
        tracer.enabled = False
        pool.shutdown(wait=True)
    spans = tracer.drain()
    (root,) = [s for s in spans if s.layer == "rmi.cluster"]
    workers = [s for s in spans if s.layer == "gf"]
    assert len(workers) == 2
    for worker in workers:
        assert worker.parent_id == root.span_id
        assert worker.thread != root.thread
        assert worker.op == 7
        assert worker.end_ns - worker.start_ns >= worker.cpu_end_ns - worker.cpu_start_ns
    totals = layer_totals(spans, tracer.client_thread)
    # worker CPU counts for gf; the client thread only waited
    assert totals["gf"].cpu_ns == sum(w.cpu_end_ns - w.cpu_start_ns for w in workers)
    assert totals["gf"].client_wall_ns == 0
    assert totals["rmi.cluster"].client_wall_ns > totals["rmi.cluster"].client_cpu_ns


def test_same_layer_calls_and_generators_make_one_span():
    tracer = Tracer()

    def rows(count):
        yield from range(count)

    scan = tracer.wrap("storage", "scan", rows)
    outer = tracer.wrap("storage", "outer", lambda: sum(scan(5)))
    consumer = tracer.wrap("filters.server", "consume", lambda: [row for row in scan(1000)])
    tracer.enabled = True
    assert outer() == 10
    assert len(consumer()) == 1000
    tracer.enabled = False
    spans = tracer.drain()
    assert [(s.layer, s.method) for s in spans] == [
        ("storage", "outer"),
        ("storage", "scan"),
        ("filters.server", "consume"),
    ]
    scan_span = spans[1]
    assert scan_span.parent_id == spans[2].span_id
    assert self_times(spans)[spans[2].span_id].wall_ns >= 0


def _repro_callables():
    """Identity snapshot of every repro module attribute and class member."""
    snapshot = {}
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for attribute, value in vars(module).items():
            snapshot[(name, attribute)] = id(value)
            if isinstance(value, type):
                for member, item in vars(value).items():
                    snapshot[(name, attribute, member)] = id(item)
    return snapshot


def test_stop_restores_every_original():
    import repro.core.database  # noqa: F401  (loads every layer)
    from repro.filters.server import ServerFilter
    from repro.gf.kernels import PrimeKernel

    before = _repro_callables()
    tracer = Tracer()
    tracer.start()
    try:
        assert tracer.installed
        assert _repro_callables() != before
        assert hasattr(ServerFilter.evaluate_batch, "__wrapped__")
        assert hasattr(PrimeKernel.horner_many, "__wrapped__")
        assert not hasattr(PrimeKernel.mul, "__wrapped__")  # scalar op
    finally:
        tracer.stop()
    assert not tracer.installed
    assert _repro_callables() == before


@pytest.mark.parametrize(
    "count, percentile, beyond",
    [(1680, 99.0, 16), (1400, 99.0, 14), (600, 98.0, 12), (224, 95.0, 11), (112, 90.0, 11),
     (56, 75.0, 14), (10, 50.0, 5)],
)
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(count, percentile, beyond):
    samples = list(range(count, 0, -1))
    result = tail(samples)
    assert (result.percentile, result.beyond) == (percentile, beyond)
    assert result.value == count - beyond
    assert sum(1 for sample in samples if sample > result.value) == beyond


def test_scaling_divides_out_the_calibrations_on_both_sides():
    reference = REFERENCE_CALIBRATION_S
    assert Speed.scale(0.010, reference, reference) == pytest.approx(0.010)
    # a machine half as fast: twice the CPU, twice the calibration time
    assert Speed.scale(0.020, 2 * reference, 2 * reference) == pytest.approx(0.010)
    # a slowdown starting mid-operation: the mean of the two calibrations
    assert Speed.scale(0.015, reference, 2 * reference) == pytest.approx(0.010)
    speed = Speed()
    assert speed.sample() > 0 and speed.factor() > 0


def test_pinning_covers_new_threads_and_is_undone():
    original = os.sched_getaffinity(0)
    seen = []
    with pinned_to_one_cpu() as cpu:
        worker = threading.Thread(target=lambda: seen.append(os.sched_getaffinity(0)))
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        assert os.sched_getaffinity(0) == {cpu}
    assert seen == [{cpu}]
    assert os.sched_getaffinity(0) == original
