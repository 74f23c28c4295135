"""Tests for message types and the MessageStats accounting."""

import numpy as np
import pytest

from repro.net.messages import (
    BordercastQuery,
    ContactSelectionQuery,
    DestinationSearchQuery,
    FloodQuery,
    MessageKind,
    ValidationMessage,
    next_query_id,
)
from repro.net.stats import OVERHEAD_CATEGORIES, MessageStats


class TestMessages:
    def test_query_ids_unique_and_monotone(self):
        a, b, c = next_query_id(), next_query_id(), next_query_id()
        assert a < b < c

    def test_csq_kind(self):
        msg = ContactSelectionQuery(source=1, query_id=next_query_id())
        assert msg.kind is MessageKind.CONTACT_SELECTION

    def test_csq_edge_list_optional(self):
        msg = ContactSelectionQuery(source=1, edge_list=(2, 3))
        assert msg.edge_list == (2, 3)
        assert ContactSelectionQuery(source=1).edge_list is None

    def test_validation_kind(self):
        msg = ValidationMessage(source=0, contact=5, source_path=[0, 2, 5])
        assert msg.kind is MessageKind.VALIDATION

    def test_dsq_depth_validation(self):
        with pytest.raises(ValueError):
            DestinationSearchQuery(source=0, target=1, depth=0)

    def test_flood_and_bordercast_kinds(self):
        assert FloodQuery(source=0, target=1).kind is MessageKind.FLOOD
        assert BordercastQuery(source=0, target=1).kind is MessageKind.BORDERCAST


class TestMessageStats:
    def test_totals_by_category(self):
        s = MessageStats(4)
        s.record(MessageKind.QUERY, 0)
        s.record(MessageKind.QUERY, 1, count=2)
        s.record(MessageKind.FLOOD, 2)
        assert s.total(MessageKind.QUERY) == 3
        assert s.total(MessageKind.FLOOD) == 1
        assert s.total() == 4

    def test_per_node(self):
        s = MessageStats(3)
        s.record(MessageKind.VALIDATION, 1, count=5)
        s.record(MessageKind.BACKTRACK, 1)
        per = s.per_node(MessageKind.VALIDATION)
        assert list(per) == [0, 5, 0]
        assert list(s.per_node()) == [0, 6, 0]

    def test_time_binning(self):
        s = MessageStats(2, time_bin=2.0)
        s.record(MessageKind.VALIDATION, 0, time=0.5)
        s.record(MessageKind.VALIDATION, 0, time=1.9)
        s.record(MessageKind.VALIDATION, 1, time=2.0)
        s.record(MessageKind.VALIDATION, 1, time=5.9)
        series = s.series([MessageKind.VALIDATION], horizon=6.0)
        assert series == [1.0, 0.5, 0.5]  # per-node within each bin

    def test_series_ignores_beyond_horizon(self):
        s = MessageStats(1, time_bin=1.0)
        s.record(MessageKind.QUERY, 0, time=10.0)
        assert s.series([MessageKind.QUERY], horizon=2.0) == [0.0, 0.0]

    def test_overhead_series_aggregates_categories(self):
        s = MessageStats(1, time_bin=1.0)
        s.record(MessageKind.CONTACT_SELECTION, 0, time=0.1)
        s.record(MessageKind.BACKTRACK, 0, time=0.2)
        s.record(MessageKind.VALIDATION, 0, time=0.3)
        s.record(MessageKind.QUERY, 0, time=0.4)  # not overhead
        assert s.series(OVERHEAD_CATEGORIES, 1.0) == [3.0]

    def test_overhead_categories_contents(self):
        assert MessageKind.CONTACT_SELECTION in OVERHEAD_CATEGORIES
        assert MessageKind.BACKTRACK in OVERHEAD_CATEGORIES
        assert MessageKind.VALIDATION in OVERHEAD_CATEGORIES
        assert MessageKind.QUERY not in OVERHEAD_CATEGORIES

    def test_snapshot_and_reset(self):
        s = MessageStats(2)
        s.record(MessageKind.QUERY, 0)
        assert s.snapshot() == {"query": 1}
        s.reset()
        assert s.total() == 0
        assert s.snapshot() == {}

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            MessageStats(0)
        with pytest.raises(ValueError):
            MessageStats(2, time_bin=0.0)

    def test_negative_count_rejected(self):
        s = MessageStats(2)
        with pytest.raises(ValueError):
            s.record(MessageKind.QUERY, 0, count=-1)


class TestWireSizeAndBytes:
    def test_fixed_field_messages_cost_header(self):
        from repro.net.messages import (
            HEADER_BYTES,
            BordercastQuery,
            DestinationSearchQuery,
            FloodQuery,
        )

        assert DestinationSearchQuery(source=0, target=1).wire_size() == HEADER_BYTES
        assert FloodQuery(source=0, target=1).wire_size() == HEADER_BYTES
        assert BordercastQuery(source=0, target=1).wire_size() == HEADER_BYTES

    def test_list_messages_scale_with_payload(self):
        from repro.net.messages import (
            HEADER_BYTES,
            PER_ENTRY_BYTES,
            ContactSelectionQuery,
            QueryReply,
            ValidationMessage,
        )

        csq = ContactSelectionQuery(source=0, contact_list=(1, 2, 3), edge_list=(4, 5))
        assert csq.wire_size() == HEADER_BYTES + 5 * PER_ENTRY_BYTES
        val = ValidationMessage(source=0, contact=3, source_path=[0, 1, 2, 3])
        assert val.wire_size() == HEADER_BYTES + 4 * PER_ENTRY_BYTES
        rep = QueryReply(source=0, target=3, path=[0, 1, 3])
        assert rep.wire_size() == HEADER_BYTES + 3 * PER_ENTRY_BYTES

    def test_query_reply_kind(self):
        from repro.net.messages import MessageKind, QueryReply

        assert QueryReply().kind is MessageKind.REPLY

    def test_stats_byte_totals(self):
        from repro.net.messages import MessageKind
        from repro.net.stats import MessageStats

        st = MessageStats(4)
        st.record(MessageKind.QUERY, 0, nbytes=20)
        st.record(MessageKind.QUERY, 1, count=3, nbytes=10)
        st.record_many(MessageKind.VALIDATION, [0, 1, 2], nbytes=24)
        assert st.total_bytes(MessageKind.QUERY) == 20 + 30
        assert st.total_bytes(MessageKind.VALIDATION) == 72
        assert st.total_bytes() == 122
        assert st.total(MessageKind.QUERY) == 4  # counts unaffected
        st.reset()
        assert st.total_bytes() == 0

    def test_bytes_default_to_zero_when_not_passed(self):
        from repro.net.messages import MessageKind
        from repro.net.stats import MessageStats

        st = MessageStats(2)
        st.record(MessageKind.QUERY, 0)
        assert st.total(MessageKind.QUERY) == 1
        assert st.total_bytes() == 0
