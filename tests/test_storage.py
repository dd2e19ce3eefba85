"""Tests for the versioned key-value store."""

import pytest

from repro.exceptions import ProtocolViolation
from repro.lmdbs.storage import VersionedStore


class TestWorkspaces:
    def test_open_twice_rejected(self):
        store = VersionedStore()
        store.open_workspace("T1")
        with pytest.raises(ProtocolViolation):
            store.open_workspace("T1")

    def test_read_without_workspace_rejected(self):
        store = VersionedStore()
        with pytest.raises(ProtocolViolation):
            store.read("T1", "x")

    def test_reads_see_own_writes(self):
        store = VersionedStore({"x": 1})
        store.open_workspace("T1")
        store.write("T1", "x", 42)
        assert store.read("T1", "x") == 42

    def test_reads_do_not_see_others_uncommitted(self):
        store = VersionedStore({"x": 1})
        store.open_workspace("T1")
        store.open_workspace("T2")
        store.write("T1", "x", 42)
        assert store.read("T2", "x") == 1

    def test_missing_item_reads_none(self):
        store = VersionedStore()
        store.open_workspace("T1")
        assert store.read("T1", "ghost") is None


class TestCommitAbort:
    def test_commit_publishes(self):
        store = VersionedStore()
        store.open_workspace("T1")
        store.write("T1", "x", 7)
        version = store.commit("T1")
        assert store.committed_value("x") == 7
        assert store.versions_of("x")[-1].version == version

    def test_abort_discards(self):
        store = VersionedStore({"x": 1})
        store.open_workspace("T1")
        store.write("T1", "x", 99)
        store.abort("T1")
        assert store.committed_value("x") == 1

    def test_commit_closes_workspace(self):
        store = VersionedStore()
        store.open_workspace("T1")
        store.commit("T1")
        with pytest.raises(ProtocolViolation):
            store.read("T1", "x")

    def test_commit_counter_monotone(self):
        store = VersionedStore()
        store.open_workspace("T1")
        store.write("T1", "x", 1)
        first = store.commit("T1")
        store.open_workspace("T2")
        store.write("T2", "x", 2)
        assert store.commit("T2") > first

    def test_last_writer_tracked(self):
        store = VersionedStore()
        store.open_workspace("T1")
        store.write("T1", "x", 1)
        store.commit("T1")
        assert store.snapshot() == {"x": 1}


class TestSets:
    def test_read_write_sets(self):
        store = VersionedStore({"x": 1})
        store.open_workspace("T1")
        store.read("T1", "x")
        store.write("T1", "y", 2)
        assert store.read_set("T1") == {"x"}
        assert store.write_set("T1") == {"y"}

    def test_sets_empty_after_close(self):
        store = VersionedStore()
        store.open_workspace("T1")
        store.write("T1", "y", 2)
        store.abort("T1")
        assert store.write_set("T1") == frozenset()
