"""Unit tests for the non-volatile memory substrate."""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NVMError
from repro.nvm.memory import NonVolatileMemory, namespaced, value_checksum
from repro.nvm.store import NVMStore
from repro.nvm.transaction import Transaction
from repro.sim.batch import SoAImage


class TestAllocation:
    def test_alloc_returns_cell_with_initial(self, nvm):
        cell = nvm.alloc("x", initial=42, size_bytes=4)
        assert cell.get() == 42

    def test_alloc_default_initial_is_none(self, nvm):
        assert nvm.alloc("x").get() is None

    def test_realloc_same_name_preserves_value(self, nvm):
        cell = nvm.alloc("x", initial=1, size_bytes=4)
        cell.set(99)
        again = nvm.alloc("x", initial=1, size_bytes=4)
        assert again.get() == 99

    def test_realloc_is_same_cell_object(self, nvm):
        assert nvm.alloc("x", 0, 4) is nvm.alloc("x", 0, 4)

    def test_realloc_different_size_rejected(self, nvm):
        nvm.alloc("x", 0, 4)
        with pytest.raises(NVMError):
            nvm.alloc("x", 0, 8)

    def test_zero_size_rejected(self, nvm):
        with pytest.raises(NVMError):
            nvm.alloc("x", 0, 0)

    def test_capacity_overflow_rejected(self):
        small = NonVolatileMemory(capacity_bytes=16)
        small.alloc("a", 0, 12)
        with pytest.raises(NVMError):
            small.alloc("b", 0, 8)

    def test_invalid_capacity_rejected(self):
        with pytest.raises(NVMError):
            NonVolatileMemory(capacity_bytes=0)

    def test_used_and_free_bytes_track_allocations(self, nvm):
        nvm.alloc("a", 0, 100)
        nvm.alloc("b", 0, 28)
        assert nvm.used_bytes == 128
        assert nvm.free_bytes == nvm.capacity_bytes - 128

    def test_free_releases_bytes(self, nvm):
        nvm.alloc("a", 0, 100)
        nvm.free("a")
        assert nvm.used_bytes == 0
        assert "a" not in nvm

    def test_free_unknown_cell_rejected(self, nvm):
        with pytest.raises(NVMError):
            nvm.free("ghost")

    def test_cell_lookup_unknown_rejected(self, nvm):
        with pytest.raises(NVMError):
            nvm.cell("ghost")

    def test_len_and_iter(self, nvm):
        nvm.alloc("a")
        nvm.alloc("b")
        assert len(nvm) == 2
        assert sorted(nvm) == ["a", "b"]


class TestCellSemantics:
    def test_set_get_roundtrip(self, nvm):
        cell = nvm.alloc("x")
        cell.set({"k": [1, 2]})
        assert cell.get() == {"k": [1, 2]}

    def test_value_property(self, nvm):
        cell = nvm.alloc("x")
        cell.value = 7
        assert cell.value == 7

    def test_write_count_increments(self, nvm):
        cell = nvm.alloc("x")
        before = nvm.write_count
        cell.set(1)
        cell.set(2)
        assert nvm.write_count == before + 2

    def test_snapshot_is_deep_copy(self, nvm):
        cell = nvm.alloc("x", initial=[1])
        snap = nvm.snapshot()
        cell.get().append(2)
        assert snap["x"] == [1]

    def test_usage_report_sorted_descending(self, nvm):
        nvm.alloc("small", 0, 2)
        nvm.alloc("big", 0, 64)
        report = nvm.usage_report()
        assert list(report) == ["big", "small"]


class TestNamespaced:
    def test_namespaced_prefixes_names(self, nvm):
        alloc = namespaced(nvm, "mon1")
        alloc("state", "Init", 2)
        assert "mon1.state" in nvm

    def test_two_namespaces_do_not_clash(self, nvm):
        namespaced(nvm, "a")("x", 1, 4)
        namespaced(nvm, "b")("x", 2, 4)
        assert nvm.cell("a.x").get() == 1
        assert nvm.cell("b.x").get() == 2


class TestTransaction:
    def test_stage_not_visible_until_commit(self, nvm):
        cell = nvm.alloc("x", initial=0)
        txn = Transaction(nvm)
        txn.stage("x", 5)
        assert cell.get() == 0
        txn.commit()
        assert cell.get() == 5

    def test_read_through_sees_staged_value(self, nvm):
        nvm.alloc("x", initial=0)
        txn = Transaction(nvm)
        txn.stage("x", 5)
        assert txn.read("x") == 5

    def test_read_through_falls_back_to_nvm(self, nvm):
        nvm.alloc("x", initial=3)
        txn = Transaction(nvm)
        assert txn.read("x") == 3

    def test_rollback_discards_stage(self, nvm):
        cell = nvm.alloc("x", initial=0)
        txn = Transaction(nvm)
        txn.stage("x", 5)
        txn.rollback()
        txn.commit()
        assert cell.get() == 0

    def test_stage_unallocated_cell_rejected(self, nvm):
        txn = Transaction(nvm)
        with pytest.raises(NVMError):
            txn.stage("ghost", 1)

    def test_commit_returns_write_count_and_clears(self, nvm):
        nvm.alloc("x", 0)
        nvm.alloc("y", 0)
        txn = Transaction(nvm)
        txn.stage("x", 1)
        txn.stage("y", 2)
        assert txn.pending == 2
        assert txn.commit() == 2
        assert txn.pending == 0

    def test_last_staged_value_wins(self, nvm):
        cell = nvm.alloc("x", 0)
        txn = Transaction(nvm)
        txn.stage("x", 1)
        txn.stage("x", 2)
        txn.commit()
        assert cell.get() == 2

    def test_contains(self, nvm):
        nvm.alloc("x", 0)
        txn = Transaction(nvm)
        assert "x" not in txn
        txn.stage("x", 1)
        assert "x" in txn


class TestNVMStore:
    def test_set_get_roundtrip(self, nvm):
        store = NVMStore(nvm, "m1")
        store["state"] = "Init"
        assert store["state"] == "Init"

    def test_missing_key_raises_keyerror(self, nvm):
        store = NVMStore(nvm, "m1")
        with pytest.raises(KeyError):
            store["nope"]

    def test_contains_and_len(self, nvm):
        store = NVMStore(nvm, "m1")
        assert "state" not in store
        store["state"] = 1
        store["var.i"] = 0
        assert "state" in store
        assert len(store) == 2

    def test_two_stores_isolated(self, nvm):
        a = NVMStore(nvm, "a")
        b = NVMStore(nvm, "b")
        a["state"] = "A"
        b["state"] = "B"
        assert a["state"] == "A"
        assert b["state"] == "B"

    def test_values_survive_reconstruction(self, nvm):
        NVMStore(nvm, "m")["state"] = "Started"
        rebuilt = NVMStore(nvm, "m")
        assert rebuilt["state"] == "Started"

    def test_delete_key(self, nvm):
        store = NVMStore(nvm, "m")
        store["x"] = 1
        del store["x"]
        assert "x" not in store
        with pytest.raises(KeyError):
            del store["x"]

    def test_iter_lists_keys(self, nvm):
        store = NVMStore(nvm, "m")
        store["a"] = 1
        store["b"] = 2
        assert sorted(store) == ["a", "b"]


class TestTransactionEdgeCases:
    def test_commit_with_zero_pending_writes_is_a_noop(self, nvm):
        """An empty commit has nothing to linearize: no journal
        activity, no crash points, count 0."""
        txn = Transaction(nvm)
        spends = []
        assert txn.commit(spend=lambda: spends.append(1)) == 0
        assert spends == []
        assert txn.journal.status == "idle"

    def test_staged_value_overrides_nvm_until_rollback(self, nvm):
        cell = nvm.alloc("x", initial=7)
        txn = Transaction(nvm)
        txn.stage("x", 9)
        assert txn.read("x") == 9
        txn.rollback()
        assert txn.read("x") == 7
        assert cell.get() == 7

    def test_commit_pays_one_spend_per_protocol_step(self, nvm):
        """n staged writes -> n appends + 1 seal + n applies + 1 clear."""
        nvm.alloc("x", 0)
        nvm.alloc("y", 0)
        txn = Transaction(nvm)
        txn.stage("x", 1)
        txn.stage("y", 2)
        spends = []
        txn.commit(spend=lambda: spends.append(1))
        assert len(spends) == 2 * 2 + 2

    def test_interrupted_commit_rolls_back_before_seal(self, nvm):
        """A crash before the seal leaves a pending journal; recover()
        discards it and the target cells keep their old values."""
        cell = nvm.alloc("x", initial=0)
        txn = Transaction(nvm)
        txn.stage("x", 42)

        class Boom(Exception):
            pass

        def die_on_first_step():
            raise Boom

        with pytest.raises(Boom):
            txn.commit(spend=die_on_first_step)
        assert txn.journal.status == "pending"
        assert txn.journal.recover() == "rolled_back"
        assert cell.get() == 0
        assert txn.journal.status == "idle"

    def test_interrupted_commit_rolls_forward_after_seal(self, nvm):
        """A crash after the seal replays the journal to completion."""
        cell = nvm.alloc("x", initial=0)
        txn = Transaction(nvm)
        txn.stage("x", 42)
        steps = []

        class Boom(Exception):
            pass

        def die_on_third_step():
            steps.append(1)
            if len(steps) == 3:  # 1 append, 1 seal, die applying
                raise Boom

        with pytest.raises(Boom):
            txn.commit(spend=die_on_third_step)
        assert txn.journal.status == "committed"
        assert cell.get() == 0  # the apply never happened
        assert txn.journal.recover() == "rolled_forward"
        assert cell.get() == 42
        assert txn.journal.status == "idle"

    def test_journal_refuses_new_commit_while_in_flight(self, nvm):
        from repro.nvm.journal import CommitJournal

        journal = CommitJournal(nvm)
        journal.begin()
        nvm.alloc("x", 0)
        other = Transaction(nvm, journal=journal)
        other.stage("x", 1)
        with pytest.raises(NVMError):
            other.commit()

    def test_corrupt_committed_journal_is_discarded_not_replayed(self, nvm):
        from repro.nvm.journal import CommitJournal

        cell = nvm.alloc("x", initial=0)
        journal = CommitJournal(nvm)
        journal.begin()
        journal.append("x", 99)
        journal.seal()
        nvm.corrupt("txnlog.entries")
        assert journal.recover() == "corrupt"
        assert cell.get() == 0  # garbage entries were not applied

    def test_corrupt_status_cell_classified_as_corrupt(self, nvm):
        from repro.nvm.journal import CommitJournal

        journal = CommitJournal(nvm)
        nvm.cell("txnlog.status").set("garbage")
        assert journal.recover() == "corrupt"
        assert journal.status == "idle"


class TestIntegrity:
    def test_checksum_tracks_legitimate_writes(self, nvm):
        cell = nvm.alloc("x", initial=0)
        cell.set(123)
        assert nvm.verify("x")
        assert nvm.verify_all() == []

    def test_corrupt_is_silent_but_detectable(self, nvm):
        cell = nvm.alloc("x", initial=5)
        garbage = nvm.corrupt("x")
        assert cell.get() == garbage  # reads succeed with garbage
        assert garbage != 5
        assert not nvm.verify("x")
        assert nvm.verify_all() == ["x"]

    def test_restore_initial_repairs(self, nvm):
        cell = nvm.alloc("x", initial=5)
        cell.set(9)
        nvm.corrupt("x")
        assert nvm.restore_initial("x") == 5
        assert cell.get() == 5
        assert nvm.verify("x")

    def test_corrupt_preserves_type_for_common_values(self, nvm):
        for name, value in [("b", True), ("i", 7), ("f", 1.5),
                            ("s", "Init"), ("t", (1, 2)), ("l", [3])]:
            nvm.alloc(name, initial=value)
            corrupted = nvm.corrupt(name)
            assert type(corrupted) is type(value)
            assert corrupted != value

    def test_wear_out_raises_after_limit(self, nvm):
        cell = nvm.alloc("x", initial=0)
        nvm.set_write_limit("x", 2)
        cell.set(1)
        cell.set(2)
        assert nvm.is_worn("x")
        with pytest.raises(NVMError):
            cell.set(3)
        assert cell.get() == 2  # still readable

    def test_limit_set_after_writes_still_binds(self, nvm):
        # The first writes ran with no limit anywhere; the one set
        # later must still be looked up.
        cell = nvm.alloc("x", initial=0)
        cell.set(1)
        nvm.alloc("y", initial=0).set(1)
        nvm.set_write_limit("x", 2)
        cell.set(2)
        with pytest.raises(NVMError):
            cell.set(3)
        assert cell.get() == 2

    def test_silent_wear_drops_writes(self, nvm):
        cell = nvm.alloc("x", initial=0)
        nvm.set_write_limit("x", 1, silent=True)
        cell.set(1)
        cell.set(2)  # dropped
        assert cell.get() == 1
        assert nvm.wear_dropped == 1


class EagerChecksums:
    """Reference integrity model: a CRC-32 of every cell's value,
    rewritten on every legitimate write and left alone by corruption.
    ``NonVolatileMemory.verify`` must agree with it at every step."""

    def __init__(self):
        self.values, self.checksums, self.initials = {}, {}, {}
        self.limits, self.writes = {}, {}

    def alloc(self, name, initial):
        self.values[name] = initial
        self.checksums[name] = value_checksum(initial)
        self.initials[name] = copy.deepcopy(initial)

    def free(self, name):
        for table in (self.values, self.checksums, self.initials,
                      self.limits):
            table.pop(name, None)

    def write(self, name, value):
        """``"ok"``, ``"dropped"`` (silent wear) or ``"raises"``."""
        limit = self.limits.get(name)
        if limit is not None and self.writes.get(name, 0) >= limit[0]:
            return "dropped" if limit[1] else "raises"
        self.values[name] = value
        self.checksums[name] = value_checksum(value)
        self.writes[name] = self.writes.get(name, 0) + 1
        return "ok"

    def failing(self):
        return [name for name, value in self.values.items()
                if value_checksum(value) != self.checksums[name]]


_CELLS = ("a", "b", "c")
_values = st.one_of(
    st.none(), st.booleans(), st.integers(-1000, 1000),
    st.floats(allow_nan=False), st.text(max_size=4),
    st.tuples(st.integers(0, 9), st.text(max_size=2)),
    st.lists(st.integers(0, 9), max_size=3))
_names = st.sampled_from(_CELLS)
_ops = st.one_of(
    st.tuples(st.just("set"), _names, _values),
    st.tuples(st.just("corrupt"), _names, st.integers(0, 15)),
    st.tuples(st.just("restore"), _names),
    st.tuples(st.just("limit"), _names, st.integers(0, 3), st.booleans()),
    st.tuples(st.just("realloc"), _names, _values),
)


class TestCorruptionRecords:
    @given(initial=_values, ops=st.lists(_ops, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_verify_agrees_with_eager_checksums(self, initial, ops):
        """Random writes, repeated flips, repairs, worn-out writes and
        re-allocations: the corruption records give the eager model's
        verdict after every step, and survive an SoA image round trip."""
        nvm, ref = NonVolatileMemory(), EagerChecksums()
        for name in _CELLS:
            nvm.alloc(name, initial=initial)
            ref.alloc(name, initial)
        for op, name, *args in ops:
            if op in ("set", "restore"):
                value = (args[0] if op == "set"
                         else copy.deepcopy(ref.initials[name]))
                expected = ref.write(name, value)
                try:
                    if op == "set":
                        nvm.cell(name).set(value)
                    else:
                        nvm.restore_initial(name)
                except NVMError:
                    assert expected == "raises"
                else:
                    assert expected != "raises"
            elif op == "corrupt":
                ref.values[name] = nvm.corrupt(name, args[0])
            elif op == "limit":
                nvm.set_write_limit(name, *args)
                ref.limits[name] = tuple(args)
            else:
                nvm.free(name)
                ref.free(name)
                nvm.alloc(name, initial=args[0])
                ref.alloc(name, args[0])
            assert dict(nvm.raw_items()) == ref.values
            assert nvm.verify_all() == ref.failing()
            assert [nvm.verify(n) for n in _CELLS] == [
                n not in ref.failing() for n in _CELLS]
        restored = SoAImage.from_nvm(nvm).restore()
        assert restored.verify_all() == sorted(ref.failing())

    def test_image_round_trip_keeps_corruption_records(self, nvm):
        for name in _CELLS:
            nvm.alloc(name, initial=7)
        nvm.corrupt("a", 3)
        nvm.corrupt("b", 1)
        nvm.cell("b").set(9)  # rewritten after corruption: trusted again
        restored = SoAImage.from_nvm(nvm).restore()
        assert restored.verify_all() == ["a"]
        restored.cell("a").set(1)
        assert restored.verify_all() == []
