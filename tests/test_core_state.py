"""Tests for Contact and ContactTable."""

import pytest

from repro.core.state import Contact, ContactTable


class TestContact:
    def test_valid_contact(self):
        c = Contact(node=5, path=[0, 2, 5])
        assert c.source == 0
        assert c.path_hops == 2

    def test_path_must_end_at_contact(self):
        with pytest.raises(ValueError):
            Contact(node=5, path=[0, 2, 4])

    def test_path_too_short(self):
        with pytest.raises(ValueError):
            Contact(node=0, path=[0])


class TestContactTable:
    def test_add_and_query(self):
        t = ContactTable(owner=0)
        t.add(Contact(node=5, path=[0, 2, 5]))
        assert t.has(5)
        assert len(t) == 1
        assert t.ids() == (5,)

    def test_add_wrong_owner_rejected(self):
        t = ContactTable(owner=0)
        with pytest.raises(ValueError, match="owner"):
            t.add(Contact(node=5, path=[1, 5]))

    def test_duplicate_rejected(self):
        t = ContactTable(owner=0)
        t.add(Contact(node=5, path=[0, 5]))
        with pytest.raises(ValueError, match="already"):
            t.add(Contact(node=5, path=[0, 3, 5]))

    def test_selection_order_preserved(self):
        t = ContactTable(owner=0)
        for node in (7, 3, 9):
            t.add(Contact(node=node, path=[0, node]))
        assert t.ids() == (7, 3, 9)

    def test_remove(self):
        t = ContactTable(owner=0)
        t.add(Contact(node=5, path=[0, 5]))
        removed = t.remove(5)
        assert removed.node == 5
        assert not t.has(5)
        assert len(t) == 0

    def test_remove_missing_raises(self):
        with pytest.raises(KeyError):
            ContactTable(owner=0).remove(3)

    def test_get(self):
        t = ContactTable(owner=0)
        c = Contact(node=5, path=[0, 5])
        t.add(c)
        assert t.get(5) is c
        assert t.get(6) is None

    def test_lifetime_counters(self):
        t = ContactTable(owner=0)
        t.add(Contact(node=5, path=[0, 5]))
        t.add(Contact(node=6, path=[0, 6]))
        t.remove(5)
        assert t.total_selected == 2
        assert t.total_lost == 1

    def test_iteration(self):
        t = ContactTable(owner=0)
        t.add(Contact(node=5, path=[0, 5]))
        assert [c.node for c in t] == [5]
