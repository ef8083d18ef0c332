"""A trace keeps a run's steps in columns, and readers of a trace or a
pair of runs do only the work a step needs.

``run``, ``run_protected`` and ``decoded_target_run`` have the run build
one row of the trace's columns per step, so no entry is made until one
is read (:class:`casmkit.interp.Trace`); ``clone_divergence_report``
reads the reference trace's state column without copying it; and
``compare_target_traces`` decodes and compares each distinct pair of
interned states once.  The column traces are held against the
list-backed reference trace (``reference_runtime.collect``).
"""
import gc
import tracemalloc

import pytest

from casmkit.interp import (
    ConstantOracle, RandomOracle, ScriptedOracle, TraceEntry,
    _CollectedEntry, iter_run, run,
)
from casmkit.parser import parse_or_raise
from casmkit.programs import traffic_light_source
from casmkit.protect import ProtectedRunner, protect, run_protected
from casmkit.puf import make_device
from casmkit.verify import (
    clone_divergence_report, compare_target_traces, decoded_target_run,
)

import reference_runtime
from reference_runtime import collect
from reference_symexec import remove_checks
from rings import ring_source
from test_one_step import OVERAPPROX
from test_run_memo import CALLED_CHOOSE

STEPS = 400

HEAD = """\
asm {name}
enum Mode = {{ Idle, Busy }}
enum Col = {{ Red, Green, Blue }}
controlled mode : Mode init Idle
controlled col : Col init Red
ctlstate mode
unsafe false
"""

AFTER = HEAD.format(name="after") + """
rule main:
  if mode = Idle then
    mode := Idle
    choose c in Col do
      col := c
    endchoose
  endif
"""
"""A ``choose`` drawn after a control write."""

INLINED = HEAD.format(name="inlined") + """
rule paint():
  choose c in Col do
    col := c
  endchoose
  mode := Idle

rule main:
  if mode = Idle then
    paint()
  endif
"""
"""A helper that draws and writes the control state, so it is inlined."""

STALLING = OVERAPPROX.replace("unsafe flag and phase = C",
                              "unsafe flag and phase = B")
"""A safe program whose ``condx`` stalls its enrolled device."""


def counted_init(monkeypatch, cls):
    """The instances of ``cls`` built from now on, counted at
    construction."""
    calls = []
    init = cls.__init__

    def counted(self, *args):
        calls.append(None)
        init(self, *args)
    monkeypatch.setattr(cls, "__init__", counted)
    return calls


@pytest.fixture()
def built(monkeypatch):
    """The plain entries built from now on."""
    return counted_init(monkeypatch, TraceEntry)


@pytest.fixture()
def read(monkeypatch):
    """The trace entries built from now on, as indices are read."""
    return counted_init(monkeypatch, _CollectedEntry)


def protected_runs(traffic):
    """(name, protected traffic light, device): the enrolled device and a
    clone, each noise-free and at 5% noise."""
    protected, _ = protect(traffic, make_device(42, 16, 16))
    for seed in (42, 999):
        for noise in (0.0, 0.05):
            yield (f"device{seed}@{noise}", protected,
                   make_device(seed, 16, 16, noise))


def scripted(program, steps):
    locs = program.monitored_locations()
    return ScriptedOracle([{loc: (k + i) % 3 != 0
                            for i, loc in enumerate(locs)}
                           for k in range(steps)])


def oracles(program):
    """The three input policies of a run, by name."""
    return {"always-true": ConstantOracle.always_true(program),
            "random:3": RandomOracle(3),
            "scripted": scripted(program, STEPS)}


class TestOneEntryPerStep:
    def test_run_builds_no_plain_entry(self, traffic, built):
        trace = run(traffic, 10_000, ConstantOracle.always_true(traffic), 7)
        assert len(trace.entries) == 10_001
        assert built == []

    def test_run_protected_builds_no_plain_entry(self, traffic, built):
        for name, protected, device in protected_runs(traffic):
            trace = run_protected(protected, device, STEPS,
                                  RandomOracle(3), 5)
            assert len(trace.entries) == STEPS + 1, name
        assert built == []

    def test_run_equals_its_entries_collected(self, traffic):
        painter = parse_or_raise(CALLED_CHOOSE)
        cases = [*((name, traffic, oracle)
                   for name, oracle in oracles(traffic).items()),
                 ("painter", painter, ConstantOracle.always_true(painter))]
        for name, program, oracle in cases:
            got = run(program, STEPS, oracle, 7)
            want = collect(STEPS, iter_run(program, STEPS, oracle, 7))
            assert got.entries == want.entries, name
            assert got.to_jsonl() == want.to_jsonl(), name

    def test_run_protected_equals_its_entries_collected(self, traffic):
        for name, protected, device in protected_runs(traffic):
            for oracle in (RandomOracle(3),
                           ConstantOracle.always_true(protected.program)):
                got = run_protected(protected, device, STEPS, oracle, 7)
                want = collect(STEPS, ProtectedRunner(
                    protected, device, 7).iter_entries(STEPS, oracle))
                assert got.entries == want.entries, name
                assert got.to_jsonl() == want.to_jsonl(), name


def view_cases():
    """Each column trace under test, by name: ``run`` under each input
    policy, ``run_protected`` on the enrolled device 42 and on clone 999,
    noise-free and at 5% noise, under each, and ``decoded_target_run``
    on both devices."""
    names = [f"run/{policy}" for policy in ("always-true", "random:3",
                                            "scripted")]
    for seed in (42, 999):
        for noise in (0.0, 0.05):
            names += [f"run_protected/device{seed}@{noise}/{policy}"
                      for policy in ("always-true", "random:3",
                                     "scripted")]
    return names + ["decoded_target_run/device42",
                    "decoded_target_run/device999"]


@pytest.fixture(scope="module")
def protected_traffic():
    program = parse_or_raise(traffic_light_source())
    return program, protect(program, make_device(42, 16, 16))[0]


def view_case(protected_traffic, name):
    """(a function giving the case's column trace afresh, its list-backed
    reference trace)."""
    program, protected = protected_traffic
    kind, *rest = name.split("/")
    if kind == "run":
        oracle = oracles(program)[rest[0]]
        return (lambda: run(program, STEPS, oracle, 7),
                collect(STEPS, iter_run(program, STEPS, oracle, 7)))
    if kind == "run_protected":
        seed, noise = rest[0].removeprefix("device").split("@")
        device = make_device(int(seed), 16, 16, float(noise))
        oracle = oracles(protected.program)[rest[1]]
        return (lambda: run_protected(protected, device, STEPS, oracle, 7),
                collect(STEPS, ProtectedRunner(protected, device, 7)
                        .iter_entries(STEPS, oracle)))
    device = make_device(int(rest[0].removeprefix("device")), 16, 16)
    oracle = RandomOracle(3)
    reference = collect(STEPS, ProtectedRunner(protected, device, 7)
                        .iter_entries(STEPS, oracle))
    for entry in reference.entries:
        entry.state = protected.decoded_values(entry.state)
    return (lambda: decoded_target_run(protected, device, STEPS, oracle,
                                       7)[0],
            reference)


READS = [0, 1, 5, STEPS // 2, STEPS, -1, -2, -STEPS - 1]
SLICES = [slice(None), slice(1, None), slice(None, None, 7),
          slice(-3, None), slice(5, 2), slice(None, None, -1),
          slice(10, 40, 3)]


@pytest.mark.parametrize("name", view_cases())
class TestEntriesView:
    """A trace's entries read as a list of entries of copies would."""

    def test_reads_match_the_reference(self, protected_traffic, name):
        make, reference = view_case(protected_traffic, name)
        want = reference.entries
        entries = make().entries
        assert len(entries) == len(want) == STEPS + 1
        for i in READS:
            assert entries[i] == want[i], i
            assert entries[i].step == want[i].step, i
        for part in SLICES:
            assert entries[part] == want[part], part
        assert list(entries) == want
        assert entries == want and want == entries
        assert entries == make().entries
        assert not entries != want
        with pytest.raises(IndexError):
            entries[STEPS + 1]
        with pytest.raises(IndexError):
            entries[-STEPS - 2]
        other = collect(STEPS, want)
        other.entries[3].events.append("other")
        assert entries != other.entries and other.entries != entries
        assert entries != want[:-1]

    def test_an_index_reads_one_entry(self, protected_traffic, name):
        entries = view_case(protected_traffic, name)[0]().entries
        for i in READS:
            assert entries[i] is entries[i], i
        assert entries[-1] is entries[STEPS]
        assert all(a is b for a, b in zip(entries[1:], entries[1:],
                                          strict=True))
        assert all(a is b for a, b in zip(entries, entries[:],
                                          strict=True))

    def test_a_write_changes_its_entry_alone(self, protected_traffic,
                                              name):
        make, reference = view_case(protected_traffic, name)
        trace = make()
        entries = trace.entries
        jsonl = trace.to_jsonl()
        assert jsonl == reference.to_jsonl()
        for k in (1, 5, STEPS):
            entry = entries[k]
            entry.state.clear()
            entry.events.append("written")
            entry.fired.append("written")
            entry.monitored.clear()
            assert entries[k] is entry and entry.state == {}
            for other, want in zip(entries, reference.entries, strict=True):
                if other.step not in (1, 5, STEPS):
                    assert other == want, (k, other.step)
        assert trace.to_jsonl() == jsonl
        assert make().entries == reference.entries
        assert make().to_jsonl() == jsonl


class TestAllocation:
    """A run kept as a trace builds no entry until one is read, and
    holds its steps as columns of the objects its run yields."""

    def test_no_entry_until_one_is_read(self, traffic, read):
        always = ConstantOracle.always_true(traffic)
        trace = run(traffic, 10_000, always, 7)
        assert len(trace.entries) == 10_001
        trace.to_jsonl()
        assert read == []
        entry = trace.entries[3]
        assert len(read) == 1
        assert trace.entries[3] is entry and len(read) == 1

    def test_held_trace_under_500_kb(self, traffic):
        always = ConstantOracle.always_true(traffic)
        run(traffic, 10, always, 7)  # compile outside the measurement
        gc.collect()
        tracemalloc.start()
        try:
            trace = run(traffic, 10_000, always, 7)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(trace.entries) == 10_001
        assert held < 500 * 1024, held


class TestReferenceRead:
    """The clone report reads the reference run's control values from
    its trace's state column, and builds no entry."""

    def test_the_reference_trace_is_not_copied(self, traffic, read):
        protected, _ = protect(traffic, make_device(42, 16, 16))
        always = ConstantOracle.always_true(traffic)
        reference = run(traffic, 10_000, always, 7)
        # clone 42 is the enrolled device: it never diverges, so every
        # step reads the reference
        report = clone_divergence_report(protected, reference, [42],
                                         10_000, 0.0, always, 7)
        assert report.flagged_control_trials == [0]
        assert report.trials_diverged == 0
        assert read == []
        distinct = {id(e.state)
                    for e in iter_run(traffic, 10_000, always, 7)}
        held = {id(state) for state in reference.states}
        assert len(held) == len(distinct) < 10

    def test_a_plain_reference_gives_the_same_report(self, traffic):
        protected, _ = protect(traffic, make_device(42, 16, 16))
        oracle = RandomOracle(3)
        collected = run(traffic, 2000, oracle, 7)
        plain = collect(2000, iter_run(traffic, 2000, oracle, 7))
        for noise in (0.0, 0.05):
            args = ([42, 999, 1000, 1001], 2000, noise, oracle, 7)
            assert clone_divergence_report(protected, plain, *args) \
                == clone_divergence_report(protected, collected, *args)


TARGETS = {
    "traffic": (traffic_light_source(), 42),
    **{f"ring{n}": (ring_source(n), 42) for n in range(2, 6)},
    "after": (AFTER, 42),
    "inlined": (INLINED, 42),
    "overapprox": (STALLING, 7),
}
UNFAITHFUL = ("after", "inlined", "overapprox")


@pytest.mark.parametrize("name", sorted(TARGETS))
def test_target_comparison_equals_a_per_step_one(monkeypatch, name):
    """Verdicts, mismatch steps and locations, and fallback counts equal
    those of a comparison that decodes and compares every step, on the
    enrolled device and on a clone.  The runs are under test, not the
    analysis: its oracle checks would make protecting ring-5 take half
    a minute."""
    remove_checks(monkeypatch)
    source, enrolled = TARGETS[name]
    program = parse_or_raise(source)
    protected, _ = protect(program, make_device(enrolled, 16, 16))
    verdicts = set()
    for device_seed in (enrolled, 999):
        for oracle_seed in range(4):
            for run_seed in range(3):
                got = compare_target_traces(
                    program, protected, device_seed, STEPS,
                    RandomOracle(oracle_seed), run_seed)
                want = reference_runtime.compare_target_traces(
                    program, protected, device_seed, STEPS,
                    lambda: RandomOracle(oracle_seed), run_seed)
                assert got == want, (name, device_seed, oracle_seed,
                                     run_seed)
                verdicts.add(got.verdict)
    # the enrolled device of a faithful program gives EQUAL, a clone
    # MISMATCH; a draw after a control write, an inlined draw and a
    # stalling condx are unfaithful on the enrolled device too
    assert "MISMATCH" in verdicts
    assert ("EQUAL" in verdicts) == (name not in UNFAITHFUL), name
