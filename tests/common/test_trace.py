"""The cross-layer tracer: span trees, ring buffer, disabled path."""

import pytest

from repro.common.clock import SimClock
from repro.common.trace import NULL_SPAN, NULL_TRACER, Tracer


def build(capacity=4096):
    clock = SimClock()
    tracer = Tracer(clock, capacity=capacity)
    tracer.enable()
    return tracer, clock


class TestDisabledPath:
    def test_disabled_span_is_the_shared_null_handle(self):
        tracer = Tracer()
        assert tracer.span("simdisk", "read") is NULL_SPAN
        assert tracer.span("rpc", "transmit") is NULL_SPAN

    def test_null_handle_accepts_everything_silently(self):
        with NULL_TRACER.span("file_agent", "read") as span:
            span.annotate("k", "v")
            span.annotate_add("n", 3)
        NULL_TRACER.annotate("k", "v")
        NULL_TRACER.annotate_add("n")
        assert NULL_TRACER.spans() == []

    def test_disabled_records_nothing(self):
        tracer = Tracer()
        with tracer.span("simdisk", "read"):
            pass
        assert tracer.spans() == []
        assert tracer.roots() == []

    def test_enable_requires_clock(self):
        with pytest.raises(ValueError):
            Tracer().enable()

    def test_disable_then_enable_round_trip(self):
        tracer, clock = build()
        tracer.disable()
        with tracer.span("simdisk", "read"):
            pass
        assert tracer.spans() == []
        tracer.enable()
        with tracer.span("simdisk", "read"):
            pass
        assert len(tracer.spans()) == 1


class TestNesting:
    def test_child_inherits_trace_id_and_parent(self):
        tracer, clock = build()
        with tracer.span("file_agent", "read"):
            with tracer.span("file_service", "read"):
                pass
        child, root = tracer.spans()
        assert root.parent_id is None
        assert root.trace_id == root.span_id
        assert child.parent_id == root.span_id
        assert child.trace_id == root.span_id

    def test_sibling_requests_get_distinct_trace_ids(self):
        tracer, clock = build()
        with tracer.span("file_agent", "read"):
            pass
        with tracer.span("file_agent", "write"):
            pass
        first, second = tracer.roots()
        assert first.trace_id != second.trace_id

    def test_span_ids_are_monotonic(self):
        tracer, clock = build()
        for _ in range(5):
            with tracer.span("simdisk", "read"):
                pass
        ids = [span.span_id for span in tracer.spans()]
        assert ids == sorted(ids) == list(range(5))

    def test_durations_come_from_simulated_clock(self):
        tracer, clock = build()
        with tracer.span("disk_service", "get"):
            clock.advance_us(250)
        (span,) = tracer.spans()
        assert span.duration_us == 250
        assert span.start_us == 0
        assert span.end_us == 250

    def test_annotations_via_kwargs_handle_and_tracer(self):
        tracer, clock = build()
        with tracer.span("disk_service", "get", disk="0") as handle:
            handle.annotate("source", "main")
            tracer.annotate("track_cache", "hit")
            tracer.annotate_add("sectors", 4)
            tracer.annotate_add("sectors", 2)
        (span,) = tracer.spans()
        assert span.annotations == {
            "disk": "0", "source": "main", "track_cache": "hit", "sectors": 6,
        }

    def test_annotate_outside_any_span_is_a_noop(self):
        tracer, clock = build()
        tracer.annotate("k", "v")
        tracer.annotate_add("n")
        assert tracer.spans() == []

    def test_layer_path_follows_primary_chain(self):
        tracer, clock = build()
        with tracer.span("file_agent", "read") as root_handle:
            with tracer.span("file_service", "read"):
                with tracer.span("disk_service", "get"):
                    with tracer.span("simdisk", "read"):
                        pass
        root = tracer.roots()[0]
        assert tracer.layer_path(root.trace_id) == [
            "file_agent", "file_service", "disk_service", "simdisk",
        ]

    def test_children_and_trace_lookup(self):
        tracer, clock = build()
        with tracer.span("file_service", "read"):
            with tracer.span("disk_service", "get"):
                pass
            with tracer.span("disk_service", "get"):
                pass
        root = tracer.roots()[0]
        assert len(tracer.children(root)) == 2
        assert len(tracer.trace(root.trace_id)) == 3


class TestRingBuffer:
    def test_capacity_bounds_completed_spans(self):
        tracer, clock = build(capacity=3)
        for index in range(10):
            with tracer.span("simdisk", "read", index=index):
                pass
        spans = tracer.spans()
        assert len(spans) == 3
        assert [span.annotations["index"] for span in spans] == [7, 8, 9]

    def test_reset_drops_everything(self):
        tracer, clock = build()
        with tracer.span("simdisk", "read"):
            pass
        tracer.reset()
        assert tracer.spans() == []


class TestDeterminism:
    def test_identical_runs_produce_identical_traces(self):
        def run():
            tracer, clock = build()
            for index in range(4):
                with tracer.span("file_agent", "read", index=index):
                    clock.advance_us(10 + index)
                    with tracer.span("file_service", "read"):
                        clock.advance_us(5)
            return [
                (s.span_id, s.parent_id, s.trace_id, s.layer, s.op,
                 s.start_us, s.end_us, tuple(sorted(s.annotations.items())))
                for s in tracer.spans()
            ]

        assert run() == run()
