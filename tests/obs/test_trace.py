"""Tracer/NullTracer span math, counters, emission, ambient stack.

Everything runs on injected fake clocks, so span durations and event
timestamps are exact — the property RPL150 enforces for the
instrumented production code too.
"""

import threading

import pytest

from repro.obs import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    activate,
    current_tracer,
    default_worker_id,
)
from repro.obs.trace import _NULL_SPAN


class FakeClock:
    """A monotonic clock advancing 1.0 per read."""

    def __init__(self, start=0.0):
        self.t = start

    def __call__(self):
        self.t += 1.0
        return self.t


class TestSpans:
    def test_span_duration_on_the_injected_clock(self):
        tr = Tracer(clock=FakeClock(), worker="w")
        with tr.span("cell", kind="cell"):
            pass
        (span,) = tr.spans
        assert span.name == "cell" and span.kind == "cell"
        assert span.dur_s == 1.0  # t0=1.0, t1=2.0

    def test_nesting_closes_inner_before_outer(self):
        tr = Tracer(clock=FakeClock(), worker="w")
        with tr.span("cell", kind="cell"):
            with tr.span("engine"):
                pass
        assert [s.name for s in tr.spans] == ["engine", "cell"]

    def test_span_closes_on_exception(self):
        tr = Tracer(clock=FakeClock(), worker="w")
        with pytest.raises(RuntimeError):
            with tr.span("cell"):
                raise RuntimeError("boom")
        assert len(tr.spans) == 1 and tr.spans[0].t1 is not None

    def test_attrs_ride_on_the_span(self):
        tr = Tracer(clock=FakeClock(), worker="w")
        with tr.span("cell", kind="cell", cell="abc", sweep="s"):
            tr.annotate(engine_path="vectorized")
        assert tr.spans[0].attrs == {
            "cell": "abc", "sweep": "s", "engine_path": "vectorized",
        }


class TestCounters:
    def test_count_adds_on_the_innermost_span(self):
        tr = Tracer(clock=FakeClock(), worker="w")
        with tr.span("cell"):
            tr.count("rng_draws", 10)
            with tr.span("engine"):
                tr.count("rng_draws", 5)
                tr.count("rng_draws", 7)
        engine, cell = tr.spans
        assert engine.counters == {"rng_draws": 12}
        assert cell.counters == {"rng_draws": 10}

    def test_gauge_keeps_the_max(self):
        tr = Tracer(clock=FakeClock(), worker="w")
        with tr.span("engine"):
            tr.gauge("frontier_peak", 4)
            tr.gauge("frontier_peak", 9)
            tr.gauge("frontier_peak", 2)
        assert tr.spans[0].counters == {"frontier_peak": 9}

    def test_counters_outside_any_span_are_dropped(self):
        tr = Tracer(clock=FakeClock(), worker="w")
        tr.count("x")
        tr.gauge("y", 1)
        tr.annotate(z=2)
        assert tr.spans == []


class TestEmission:
    def test_emitted_record_is_flat_and_attributed(self):
        records = []
        tr = Tracer(
            clock=FakeClock(),
            walltime=lambda: 1000.0,
            sink=records.append,
            worker="w0",
            lease="abcd1234",
        )
        with tr.span("engine", kind="phase", cell="deadbeef"):
            tr.count("engine_steps", 7)
        (record,) = records
        assert record == {
            "kind": "phase", "name": "engine", "seq": 0, "dur_s": 1.0,
            "t_wall": 1000.0, "worker": "w0", "lease": "abcd1234",
            "cell": "deadbeef", "c_engine_steps": 7,
        }

    def test_seq_increments_per_emission(self):
        records = []
        tr = Tracer(clock=FakeClock(), sink=records.append, worker="w")
        with tr.span("a"):
            pass
        with tr.span("b"):
            pass
        assert [r["seq"] for r in records] == [0, 1]

    def test_no_lease_key_without_a_lease(self):
        records = []
        tr = Tracer(clock=FakeClock(), sink=records.append, worker="w")
        with tr.span("a"):
            pass
        assert "lease" not in records[0]

    def test_counter_names_are_prefixed_against_attr_collision(self):
        records = []
        tr = Tracer(clock=FakeClock(), sink=records.append, worker="w")
        with tr.span("a", cell="x"):
            tr.count("cell", 3)  # counter named like an attribute
        assert records[0]["cell"] == "x" and records[0]["c_cell"] == 3

    def test_a_tracer_with_a_sink_keeps_no_spans(self):
        records = []
        tr = Tracer(clock=FakeClock(), sink=records.append, worker="w")
        for _ in range(1000):
            with tr.span("serve", kind="http"):
                pass
        assert len(records) == 1000
        assert tr.spans == []


class TestThreads:
    def test_each_thread_annotates_its_own_span(self):
        """Two handler threads on one tracer, interleaved: A opens, B
        opens, A annotates and closes, then B annotates and closes."""
        records = []
        tr = Tracer(clock=FakeClock(), sink=records.append, worker="w")
        a_open, b_open, a_closed = (threading.Event() for _ in range(3))

        def handler_a():
            with tr.span("serve", kind="http", route="/frame"):
                a_open.set()
                assert b_open.wait(10)
                tr.annotate(status=200)
            a_closed.set()

        def handler_b():
            assert a_open.wait(10)
            with tr.span("serve", kind="http", route="/cell"):
                b_open.set()
                assert a_closed.wait(10)
                tr.annotate(status=404)

        threads = [threading.Thread(target=f) for f in (handler_a, handler_b)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert [(r["route"], r.get("status")) for r in records] == [
            ("/frame", 200), ("/cell", 404),
        ]


class TestNullTracer:
    def test_disabled_and_free(self):
        assert NULL_TRACER.enabled is False
        assert NULL_TRACER.span("anything", kind="cell", x=1) is _NULL_SPAN
        with NULL_TRACER.span("engine"):
            NULL_TRACER.count("x")
            NULL_TRACER.gauge("y", 1)
            NULL_TRACER.annotate(z=2)
        assert NULL_TRACER.spans == []

    def test_clocks_stay_real_for_provenance(self):
        tr = NullTracer(clock=FakeClock(start=10.0), walltime=lambda: 99.0)
        assert tr.clock() == 11.0
        assert tr.walltime() == 99.0

    def test_default_clocks_are_functional(self):
        assert NULL_TRACER.clock() >= 0.0
        assert NULL_TRACER.walltime() > 0.0


class TestAmbientStack:
    def test_default_is_the_null_tracer(self):
        assert current_tracer() is NULL_TRACER

    def test_activate_installs_and_restores(self):
        tr = Tracer(clock=FakeClock(), worker="w")
        with activate(tr):
            assert current_tracer() is tr
            inner = Tracer(clock=FakeClock(), worker="w2")
            with activate(inner):
                assert current_tracer() is inner
            assert current_tracer() is tr
        assert current_tracer() is NULL_TRACER

    def test_restores_on_exception(self):
        tr = Tracer(clock=FakeClock(), worker="w")
        with pytest.raises(ValueError):
            with activate(tr):
                raise ValueError
        assert current_tracer() is NULL_TRACER


def test_default_worker_id_is_host_pid():
    import os
    import socket

    assert default_worker_id() == f"{socket.gethostname()}-{os.getpid()}"
