"""A run of a choose-free program memoizes its whole step: the next state
of each (state, inputs, resolved sites) is merged and checked once, and
the state dicts it yields are shared between steps.  These tests hold
the aliasing contract: a yielded dict never changes after it is yielded,
and ``run`` gives every entry its own copies."""
import gc
import tracemalloc

import pytest

import casmkit.interp as cinterp
from casmkit.interp import (
    ConstantOracle, RandomOracle, TraceEntry, collect, compiled, iter_run,
    run,
)
from casmkit.parser import parse_or_raise
from casmkit.protect import ProtectedRunner, protect, run_protected
from casmkit.puf import make_device

from rings import ring_source

STEPS = 2000
NOISE = 0.05


def protected_runs(traffic):
    """(name, protected program, device) for the traffic light and
    ring-3, on the enrolled device and on a clone, both noisy."""
    for name, program in (("traffic", traffic),
                          ("ring3", parse_or_raise(ring_source(3)))):
        protected, _ = protect(program, make_device(42, 16, 16, 0.0))
        for device_seed in (42, 999):
            yield (f"{name}/{device_seed}", protected,
                   make_device(device_seed, 16, 16, NOISE))


def snapshot(entry):
    return (dict(entry.state), dict(entry.monitored), list(entry.fired),
            list(entry.events))


class TestAliasing:
    def test_yielded_entries_never_change_later(self, traffic):
        for name, protected, device in protected_runs(traffic):
            runner = ProtectedRunner(protected, device, 5)
            kept = [(entry, snapshot(entry)) for entry in
                    runner.iter_entries(STEPS, RandomOracle(3))]
            assert len(kept) == STEPS + 1
            for entry, before in kept:
                assert snapshot(entry) == before, (name, entry.step)
            # the memo serves the run: most steps reuse a yielded dict
            distinct = len({id(entry.state) for entry, _ in kept})
            assert distinct < STEPS // 2, name
            trace = run_protected(protected, device, STEPS, RandomOracle(3),
                                  5)
            assert [snapshot(e) for e in trace.entries] == \
                [before for _, before in kept], name

    def test_run_entries_are_independent_copies(self, traffic):
        for name, protected, device in protected_runs(traffic):
            trace = run_protected(protected, device, STEPS, RandomOracle(3),
                                  5)
            entries = trace.entries
            for field in ("state", "monitored", "fired", "events"):
                objects = {id(getattr(e, field)) for e in entries}
                assert len(objects) == len(entries), (name, field)
            expected = [snapshot(e) for e in entries]
            for entry in entries:
                entry.state.clear()
                entry.fired.append("mutated")
            again = run_protected(protected, device, STEPS, RandomOracle(3),
                                  5)
            assert [snapshot(e) for e in again.entries] == expected, name


def held_bytes(make):
    """The bytes that what ``make`` returns holds, under tracemalloc."""
    gc.collect()
    tracemalloc.start()
    try:
        kept = make()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    del kept
    return held


def run_entries(traffic):
    """(name, the entries of a run, as it yields them): the traffic
    light under varying inputs, and each protected run."""
    yield "traffic", list(iter_run(traffic, STEPS, RandomOracle(3), 5))
    for name, protected, device in protected_runs(traffic):
        yield name, list(ProtectedRunner(protected, device, 5).iter_entries(
            STEPS, RandomOracle(3)))


class TestCollectedEntries:
    """A collected entry holds the run's objects and copies a field only
    when it is read."""

    def test_held_memory_near_the_runs_own(self, traffic):
        always = ConstantOracle.always_true(traffic)
        run(traffic, 10, always, 1)  # compile outside the measurement
        shared = held_bytes(
            lambda: list(iter_run(traffic, 10_000, always, 1)))
        collected = held_bytes(lambda: run(traffic, 10_000, always, 1))
        assert collected <= 1.5 * shared, (collected, shared)

    def test_serialising_and_comparing_copy_no_field(self, traffic):
        for name, entries in run_entries(traffic):
            trace = collect(STEPS, entries)
            assert trace.to_jsonl() == \
                "".join(e.to_json() + "\n" for e in entries), name
            for entry, yielded in zip(trace.entries, entries, strict=True):
                assert entry == yielded, (name, entry.step)
                held = entry.held()
                for field in ("state", "monitored", "fired", "events"):
                    assert getattr(held, field) is getattr(yielded, field), \
                        (name, entry.step, field)

    def test_run_serialises_as_its_entries(self, traffic):
        always = ConstantOracle.always_true(traffic)
        for oracle in (always, RandomOracle(3)):
            assert run(traffic, STEPS, oracle, 5).to_jsonl() == "".join(
                e.to_json() + "\n"
                for e in iter_run(traffic, STEPS, oracle, 5))

    def test_equal_to_an_entry_of_copies(self, traffic):
        for name, entries in run_entries(traffic):
            trace = collect(STEPS, entries)
            for entry in trace.entries:
                plain = TraceEntry(entry.step, dict(entry.state),
                                   dict(entry.monitored), list(entry.fired),
                                   list(entry.events))
                assert entry == plain and plain == entry, (name, entry.step)
                assert not entry != plain
                assert repr(entry) == repr(plain)
                plain.fired.append("other")
                assert entry != plain and plain != entry
            assert trace.entries == collect(STEPS, entries).entries, name


class TestWholeStepMemo:
    @pytest.mark.parametrize("noise", [0.0, NOISE])
    def test_each_next_state_is_checked_once(self, traffic, monkeypatch,
                                             noise):
        """``check_updates`` runs once per (state, inputs, next state),
        not once per step."""
        calls = []
        check = cinterp.check_updates

        def counting(updates):
            calls.append(None)
            return check(updates)
        monkeypatch.setattr(cinterp, "check_updates", counting)
        protected, _ = protect(traffic, make_device(42, 16, 16, 0.0))
        program = protected.program
        cp = compiled(program)
        for device_seed in (42, 999):
            calls.clear()
            trace = run_protected(
                protected, make_device(device_seed, 16, 16, noise), STEPS,
                RandomOracle(device_seed), 5)
            entries = trace.entries
            distinct = {(cp.state_key(before.state),
                         cp.inputs_key(after.monitored),
                         cp.state_key(after.state))
                        for before, after in zip(entries, entries[1:])}
            assert len(calls) == len(distinct), device_seed
            assert len(calls) < STEPS // 4
