"""A collected run builds one entry per step, and readers of a trace or
a pair of runs do only the work a step needs.

``run`` and ``run_protected`` have the run build each entry collected
(:class:`casmkit.interp._CollectedEntry`), so no plain entry is made and
wrapped per step; ``clone_divergence_report`` reads the reference trace's
held states without copying them; and ``compare_target_traces`` decodes
and compares each distinct pair of interned states once.
"""
import pytest

from casmkit.interp import (
    ConstantOracle, RandomOracle, ScriptedOracle, Trace, TraceEntry,
    collect, iter_run, run,
)
from casmkit.parser import parse_or_raise
from casmkit.programs import traffic_light_source
from casmkit.protect import ProtectedRunner, protect, run_protected
from casmkit.puf import make_device
from casmkit.verify import clone_divergence_report, compare_target_traces

import reference_runtime
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


@pytest.fixture()
def built(monkeypatch):
    """The plain entries built from now on, counted at construction."""
    calls = []
    init = TraceEntry.__init__

    def counted(self, *args):
        calls.append(None)
        init(self, *args)
    monkeypatch.setattr(TraceEntry, "__init__", counted)
    return calls


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
        cases = [("always-true", traffic,
                  ConstantOracle.always_true(traffic)),
                 ("random:3", traffic, RandomOracle(3)),
                 ("scripted", traffic, scripted(traffic, STEPS)),
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

    def test_collect_keeps_collected_entries(self, traffic):
        trace = run(traffic, STEPS, RandomOracle(3), 7)
        again = collect(STEPS, trace.entries)
        assert all(a is b for a, b in zip(again.entries, trace.entries,
                                          strict=True))


class TestReferenceRead:
    """The clone report reads the reference run's control values from
    the states its entries hold, and copies none of them."""

    def test_the_reference_trace_is_not_copied(self, traffic):
        protected, _ = protect(traffic, make_device(42, 16, 16))
        always = ConstantOracle.always_true(traffic)
        reference = run(traffic, 10_000, always, 7)
        # clone 42 is the enrolled device: it never diverges, so every
        # step reads the reference
        report = clone_divergence_report(protected, reference, [42],
                                         10_000, 0.0, always, 7)
        assert report.flagged_control_trials == [0]
        assert report.trials_diverged == 0
        distinct = {id(e.state)
                    for e in iter_run(traffic, 10_000, always, 7)}
        held = {id(e.held().state) for e in reference.entries}
        assert len(held) == len(distinct) < 10

    def test_a_plain_reference_gives_the_same_report(self, traffic):
        protected, _ = protect(traffic, make_device(42, 16, 16))
        oracle = RandomOracle(3)
        collected = run(traffic, 2000, oracle, 7)
        plain = Trace(list(iter_run(traffic, 2000, oracle, 7)))
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
