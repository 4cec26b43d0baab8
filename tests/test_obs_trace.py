"""Tests for distributed tracing: ids, contexts, buffer, rendering."""

from __future__ import annotations

import threading

import pytest

from repro import obs
from repro.exceptions import ObservabilityError
from repro.obs import trace as trace_mod
from repro.obs.trace import (
    CONTEXT_BYTES,
    SpanRecord,
    TraceBuffer,
    TraceContext,
    format_trace_tree,
    new_span_id,
    new_trace_id,
)


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.disable()
    yield
    obs.disable()


def _record(trace_id, span_id, parent=None, name="op", start=0.0,
            duration=0.001, links=(), **attrs):
    return SpanRecord(
        trace_id=trace_id,
        span_id=span_id,
        parent_id=parent,
        name=name,
        start=start,
        duration=duration,
        attrs=attrs,
        links=tuple(links),
    )


class TestIdsAndContext:
    def test_id_shapes(self):
        assert len(new_trace_id()) == 16
        assert len(new_span_id()) == 8
        assert new_trace_id() != new_trace_id()
        assert new_span_id() != new_span_id()

    def test_context_round_trip(self):
        context = TraceContext(new_trace_id(), new_span_id())
        raw = context.to_bytes()
        assert len(raw) == CONTEXT_BYTES
        assert TraceContext.from_bytes(raw) == context

    def test_corrupted_context_is_none_not_error(self):
        good = TraceContext("a" * 16, "b" * 8).to_bytes()
        assert TraceContext.from_bytes(good[:-1]) is None
        assert TraceContext.from_bytes(b"Z" * CONTEXT_BYTES) is None
        assert TraceContext.from_bytes(b"\xff" * CONTEXT_BYTES) is None

    def test_contextvar_activate_restore(self):
        assert trace_mod.current() is None
        context = TraceContext("a" * 16, "b" * 8)
        token = trace_mod.activate(context)
        assert trace_mod.current() == context
        trace_mod.restore(token)
        assert trace_mod.current() is None


class TestTraceBuffer:
    def test_record_and_read_back(self):
        buffer = TraceBuffer()
        buffer.record(_record("t" * 16, "a" * 8))
        assert len(buffer) == 1
        assert buffer.latest_trace_id() == "t" * 16
        assert [r.span_id for r in buffer.spans("t" * 16)] == ["a" * 8]
        assert buffer.find_span(TraceContext("t" * 16, "a" * 8)) is not None
        assert buffer.find_span(TraceContext("t" * 16, "x" * 8)) is None

    def test_ring_evicts_oldest_trace(self):
        buffer = TraceBuffer(max_traces=2)
        for index in range(3):
            buffer.record(_record(f"{index:016x}", f"{index:08x}"))
        assert len(buffer) == 2
        assert buffer.trace_ids() == [f"{1:016x}", f"{2:016x}"]
        assert buffer.spans(f"{0:016x}") == []

    def test_eviction_drops_bindings_and_links(self):
        buffer = TraceBuffer(max_traces=1)
        old = TraceContext("0" * 16, "a" * 8)
        buffer.record(_record(old.trace_id, old.span_id))
        buffer.bind(1, 0, old)
        buffer.record(
            _record("1" * 16, "b" * 8, links=[old])
        )
        # old trace evicted: its binding and reverse links are gone
        assert buffer.bindings(1, 0) == []
        assert buffer.linked_from(old.trace_id) == []

    def test_bindings_keyed_by_cell(self):
        buffer = TraceBuffer()
        context = TraceContext("c" * 16, "d" * 8)
        buffer.record(_record(context.trace_id, context.span_id))
        buffer.bind(7, 3, context, kind="dead_letter")
        [binding] = buffer.bindings(7, 3)
        assert binding.context == context
        assert binding.kind == "dead_letter"
        assert buffer.bindings(7, 4) == []

    def test_linked_from_reverse_index(self):
        buffer = TraceBuffer()
        upload = TraceContext("a" * 16, "1" * 8)
        buffer.record(_record(upload.trace_id, upload.span_id, name="send"))
        buffer.record(
            _record("b" * 16, "2" * 8, name="server.query", links=[upload])
        )
        [(name, source)] = buffer.linked_from(upload.trace_id)
        assert name == "server.query"
        assert source.trace_id == "b" * 16

    def test_to_payloads_newest_first_with_limit(self):
        buffer = TraceBuffer()
        for index in range(3):
            buffer.record(_record(f"{index:016x}", f"{index:08x}"))
        payloads = buffer.to_payloads()
        assert [p["trace_id"] for p in payloads] == [
            f"{2:016x}", f"{1:016x}", f"{0:016x}"
        ]
        assert len(buffer.to_payloads(limit=1)) == 1
        assert payloads[0]["spans"][0]["duration_seconds"] == 0.001

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ObservabilityError):
            TraceBuffer(max_traces=0)


class TestSpanIntegration:
    def test_spans_disabled_costs_nothing(self):
        with obs.span("untraced") as untraced:
            assert untraced.context is None
        assert trace_mod.current() is None

    def test_metrics_without_trace_buffer_records_no_context(self):
        obs.enable(registry=obs.MetricsRegistry())
        with obs.span("metered") as metered:
            pass
        assert metered.context is None

    def test_parent_child_share_trace(self):
        buffer = TraceBuffer()
        obs.enable(registry=obs.MetricsRegistry(), trace=buffer)
        with obs.span("parent") as parent:
            with obs.span("child") as child:
                assert child.context.trace_id == parent.context.trace_id
                assert child.parent_context == parent.context
        [trace_id] = buffer.trace_ids()
        spans = {r.name: r for r in buffer.spans(trace_id)}
        assert spans["child"].parent_id == parent.context.span_id
        assert spans["parent"].parent_id is None

    def test_root_span_counts_a_trace(self):
        registry = obs.enable(
            registry=obs.MetricsRegistry(), trace=TraceBuffer()
        )
        # pre-registered at zero by enable(trace=...)
        assert registry.counter("repro_traces_total").value == 0
        with obs.span("root"):
            with obs.span("child"):
                pass
        with obs.span("another_root"):
            pass
        assert registry.counter("repro_traces_total").value == 2

    def test_add_link_module_helper(self):
        buffer = TraceBuffer()
        obs.enable(registry=obs.MetricsRegistry(), trace=buffer)
        other = TraceContext("e" * 16, "f" * 8)
        with obs.span("linker"):
            assert obs.add_link(other)
        assert obs.add_link(other) is False  # no open span
        [trace_id] = buffer.trace_ids()
        [record] = buffer.spans(trace_id)
        assert record.links == (other,)

    def test_threads_do_not_share_context(self):
        obs.enable(registry=obs.MetricsRegistry(), trace=TraceBuffer())
        seen = {}

        def worker():
            seen["context"] = trace_mod.current()

        with obs.span("main_thread"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert seen["context"] is None


class TestFormatTraceTree:
    def test_empty_buffer(self):
        assert format_trace_tree(TraceBuffer()) == "no traces recorded"

    def test_tree_structure_and_critical_path(self):
        buffer = TraceBuffer()
        trace_id = "9" * 16
        buffer.record(
            _record(trace_id, "a" * 8, name="query", duration=1.5, start=0.0)
        )
        buffer.record(
            _record(
                trace_id, "b" * 8, parent="a" * 8, name="fast",
                duration=0.1, start=0.01,
            )
        )
        buffer.record(
            _record(
                trace_id, "c" * 8, parent="a" * 8, name="slow",
                duration=0.3, start=0.12,
            )
        )
        tree = format_trace_tree(buffer, trace_id)
        assert "query (1.50s) *" in tree
        assert "slow (300.0ms) *" in tree  # critical path picks the slow child
        assert "fast (100.0ms)" in tree
        assert "fast (100.0ms) *" not in tree
        assert tree.index("fast") < tree.index("slow")  # start order

    def test_links_inline_the_linked_subtree(self):
        buffer = TraceBuffer()
        upload = TraceContext("a" * 16, "1" * 8)
        buffer.record(
            _record(upload.trace_id, upload.span_id, name="transport.send")
        )
        buffer.record(
            _record(
                upload.trace_id, "2" * 8, parent=upload.span_id,
                name="transport.retry",
            )
        )
        buffer.record(
            _record("b" * 16, "3" * 8, name="server.query", links=[upload])
        )
        tree = format_trace_tree(buffer, "b" * 16)
        assert "server.query" in tree
        assert f"link: trace {upload.trace_id}" in tree
        assert "transport.send" in tree
        assert "transport.retry" in tree

    def test_touched_later_by_section(self):
        buffer = TraceBuffer()
        upload = TraceContext("a" * 16, "1" * 8)
        buffer.record(_record(upload.trace_id, upload.span_id, name="send"))
        buffer.record(
            _record("b" * 16, "2" * 8, name="server.query", links=[upload])
        )
        tree = format_trace_tree(buffer, upload.trace_id)
        assert "touched later by:" in tree
        assert "server.query" in tree

    def test_unknown_trace(self):
        buffer = TraceBuffer()
        buffer.record(_record("a" * 16, "1" * 8))
        assert "no spans recorded" in format_trace_tree(buffer, "f" * 16)

    def test_siblings_sorted_by_start_regardless_of_insertion(self):
        """Sibling order is start time, not arrival order.

        Cluster telemetry absorbs shard spans long after the front
        door's own spans landed, so insertion order is essentially
        random — the tree must still read chronologically.  Ties on
        start break by span id, so rendering is deterministic.
        """
        import random

        trace_id = "9" * 16
        children = [
            ("aa111111", 0.40),
            ("bb222222", 0.10),
            ("cc333333", 0.30),
            ("dd444444", 0.20),
            # Tie on start: span id decides (ee... before ff...).
            ("ff666666", 0.25),
            ("ee555555", 0.25),
        ]
        expected = [
            span_id
            for span_id, start in sorted(
                children, key=lambda item: (item[1], item[0])
            )
        ]
        rng = random.Random(2017)
        for _ in range(10):
            shuffled = list(children)
            rng.shuffle(shuffled)
            buffer = TraceBuffer()
            buffer.record(
                _record(trace_id, "00000000", name="root", duration=1.0)
            )
            for span_id, start in shuffled:
                buffer.record(
                    _record(
                        trace_id,
                        span_id,
                        parent="00000000",
                        name=f"child-{span_id}",
                        start=start,
                        duration=0.01,
                    )
                )
            tree = format_trace_tree(buffer, trace_id)
            positions = [tree.index(f"child-{sid}") for sid in expected]
            assert positions == sorted(positions), tree


class TestSpanRecordFromDict:
    def test_round_trips_to_dict(self):
        link = TraceContext("c" * 16, "d" * 8)
        original = _record(
            "a" * 16,
            "b" * 8,
            parent="1" * 8,
            name="shard.ingest",
            start=12.5,
            duration=0.25,
            links=[link],
            shard="1",
        )
        rebuilt = SpanRecord.from_dict(original.to_dict())
        assert rebuilt is not None
        assert rebuilt.trace_id == original.trace_id
        assert rebuilt.span_id == original.span_id
        assert rebuilt.parent_id == original.parent_id
        assert rebuilt.name == original.name
        assert rebuilt.start == original.start
        assert rebuilt.duration == original.duration
        assert rebuilt.links == (link,)
        assert rebuilt.attrs == {"shard": "1"}

    def test_error_field_survives(self):
        original = _record("a" * 16, "b" * 8)
        payload = original.to_dict()
        payload["error"] = "ValueError"
        rebuilt = SpanRecord.from_dict(payload)
        assert rebuilt is not None and rebuilt.error == "ValueError"

    @pytest.mark.parametrize(
        "damage",
        [
            None,
            "not-a-dict",
            {},
            {"trace_id": "a" * 16},
            {
                "trace_id": "a" * 16,
                "span_id": "b" * 8,
                "name": "x",
                "ts": "NaN-ish-garbage",
                "duration_seconds": 0.1,
            },
            {
                "trace_id": "a" * 16,
                "span_id": "b" * 8,
                "name": "x",
                "ts": 0.0,
                "duration_seconds": None,
            },
        ],
    )
    def test_damaged_payload_is_none_not_error(self, damage):
        assert SpanRecord.from_dict(damage) is None

    def test_damaged_link_dropped_not_fatal(self):
        payload = _record("a" * 16, "b" * 8).to_dict()
        payload["links"] = [
            {"trace_id": "c" * 16, "span_id": "d" * 8},
            {"trace_id": None},
            "garbage",
        ]
        rebuilt = SpanRecord.from_dict(payload)
        assert rebuilt is not None
        assert rebuilt.links == (TraceContext("c" * 16, "d" * 8),)


class TestEndToEndUploadQueryLink:
    """The acceptance-criterion trace: a degraded query's span links
    back to the transport spans (retries, dead-letters) of the uploads
    that delivered — or lost — the records it touched."""

    @staticmethod
    def _traffic_record(location, period, size=256):
        import numpy as np

        from repro.rsu.record import TrafficRecord
        from repro.sketch.bitmap import Bitmap

        rng = np.random.default_rng((location, period))
        bitmap = Bitmap(size)
        bitmap.set_many(rng.integers(0, size, size=size // 4))
        return TrafficRecord(location=location, period=period, bitmap=bitmap)

    def test_degraded_query_links_to_upload_traces(self):
        from repro.faults.plan import FaultInjector, FaultPlan
        from repro.faults.transport import UploadOutcome, UploadTransport
        from repro.server.central import CentralServer
        from repro.server.degradation import CoveragePolicy
        from repro.server.queries import PointPersistentQuery

        buffer = TraceBuffer()
        obs.enable(registry=obs.MetricsRegistry(), trace=buffer)

        server = CentralServer(s=3)
        # timeout=0.6 with max_attempts=2 makes some uploads exhaust
        # their retries and land in the dead-letter log.
        injector = FaultInjector(FaultPlan(seed=0, timeout=0.6))
        transport = UploadTransport(server, injector=injector, max_attempts=2)
        outcomes = [
            transport.send(self._traffic_record(1, period)).outcome
            for period in range(4)
        ]
        assert UploadOutcome.QUARANTINED in outcomes
        assert UploadOutcome.DELIVERED in outcomes

        # Delivered records bound their upload context; dead-lettered
        # ones bound theirs under kind="dead_letter".
        kinds = {
            binding.kind
            for period in range(4)
            for binding in buffer.bindings(1, period)
        }
        assert kinds == {"record", "dead_letter"}
        for letter in transport.dead_letters.entries:
            assert len(letter.trace_id) == 16

        result = server.point_persistent(
            PointPersistentQuery(location=1, periods=(0, 1, 2, 3)),
            policy=CoveragePolicy(min_coverage=0.1, min_periods=2),
        )
        assert result.degraded

        # The query span links to every upload trace it touched.
        query_trace = buffer.latest_trace_id()
        [query_span] = [
            record
            for record in buffer.spans(query_trace)
            if record.name == "server.query"
        ]
        linked_traces = {link.trace_id for link in query_span.links}
        upload_traces = {
            binding.context.trace_id
            for period in range(4)
            for binding in buffer.bindings(1, period)
        }
        assert linked_traces == upload_traces
        assert query_trace not in linked_traces

        # And the rendered tree inlines the transport subtrees —
        # including the dead-letter that explains the degradation.
        tree = format_trace_tree(buffer, query_trace)
        assert "server.query" in tree
        assert "→ link: trace" in tree
        assert "transport.send" in tree
        assert "transport.retry" in tree
        assert "transport.dead_letter" in tree
        assert "retries_exhausted" in tree

        # The upload traces know who touched them later.
        for trace_id in upload_traces:
            names = [name for name, _ in buffer.linked_from(trace_id)]
            assert "server.query" in names
