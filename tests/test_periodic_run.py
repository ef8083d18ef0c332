"""A run kept as a trace under constant inputs fills its periodic tail.

Under a ``ConstantOracle`` a ``choose``-free program is a finite-state
machine, so its run is periodic from the first state it revisits.
``run`` and ``run_protected`` keep their run as a trace
(``Trace.of_run``), and while every step is fixed, with no site that can
give another result at another step, the run hands the cycle to the
trace on its first revisit instead of stepping it.  The filled traces
are held against the list-backed reference trace of the stepped run
(``reference_runtime.collect``), and their columns against the columns
of the same run stepped to its end.
"""
import pytest

import casmkit.interp as cinterp
from casmkit.interp import (
    ConstantOracle, RandomOracle, ScriptedOracle, Trace, TraceEntry,
    iter_run, run,
)
from casmkit.parser import parse_or_raise
from casmkit.protect import ProtectedRunner, protect, run_protected
from casmkit.puf import make_device
from casmkit.verify import compare_target_traces, decoded_target_run

from reference_runtime import collect
from rings import ring_source
from test_run_memo import CALLED_CHOOSE

STILL = """\
asm still
enum Mode = { Idle, Busy }
controlled mode : Mode init Idle
ctlstate mode
unsafe false

rule main:
  if mode = Busy then
    mode := Idle
  endif
"""
"""No rule ever fires: the run stalls at once, with period 1."""

WARMUP = """\
asm warmup
enum Phase = { Boot, Check, Run1, Run2, Run3 }
controlled phase : Phase init Boot
controlled count : Phase init Boot
monitored go : Bool
ctlstate phase
unsafe false

rule boot:
  if phase in { Boot, Check } and go then
    if phase = Boot then
      phase := Check
    else
      phase := Run1
    endif
  endif

rule cycle:
  if phase in { Run1, Run2, Run3 } and go then
    count := phase
    if phase = Run1 then
      phase := Run2
    else
      if phase = Run2 then
        phase := Run3
      else
        phase := Run1
      endif
    endif
  endif
"""
"""The states after steps 3 to 5 repeat with period 3; the first three
states are a transient prefix, never revisited."""

# program name -> (prefix, period) of its always-true run: the states
# yielded before the cycle, and the cycle's length
SHAPES = {"traffic_light": (0, 4), "ring3": (0, 6), "still": (0, 1),
          "warmup": (3, 3)}


@pytest.fixture(scope="module")
def programs(traffic):
    return {"traffic_light": traffic,
            "ring3": parse_or_raise(ring_source(3)),
            "still": parse_or_raise(STILL),
            "warmup": parse_or_raise(WARMUP)}


@pytest.fixture(scope="module")
def protected_traffic(traffic):
    return protect(traffic, make_device(42, 16, 16))[0]


@pytest.fixture()
def step_calls(monkeypatch):
    """The calls of ``CompiledProgram.step_values`` from now on."""
    calls = []
    step_values = cinterp.CompiledProgram.step_values

    def counted(self, *args):
        calls.append(None)
        return step_values(self, *args)
    monkeypatch.setattr(cinterp.CompiledProgram, "step_values", counted)
    return calls


def stepped(start):
    """The trace of the run ``start(row)`` begins, stepped to its end:
    its entry factory wraps the trace's row, so the run gets no tail."""
    return Trace.of_run(lambda row: start(lambda *fields: row(*fields)))


def sharing(column):
    """Each row's object, named by the first row that holds it."""
    first: dict[int, int] = {}
    return [first.setdefault(id(obj), i) for i, obj in enumerate(column)]


def columns(trace):
    return trace.states, trace.monitored, trace.fired, trace.events


def step_counts(name):
    """0, 1, a count shorter than the prefix where there is one, a count
    that is not a multiple of the period, and a long run."""
    prefix, period = SHAPES[name]
    counts = {0, 1, prefix + 5 * period + 1, 1000}
    if prefix > 1:
        counts.add(prefix - 1)
    return sorted(counts)


def plain_case(program, steps, oracle=None):
    """The case of ``program`` run under ``oracle``, by default
    always-true inputs: (its trace, its list-backed reference trace, the
    trace of the run stepped to its end)."""
    if oracle is None:
        oracle = ConstantOracle.always_true(program)
    return (lambda: run(program, steps, oracle, 7),
            lambda: collect(steps, iter_run(program, steps, oracle, 7)),
            lambda: stepped(lambda entry: iter_run(
                program, steps, oracle, 7, None, entry)))


def protected_case(protected, device, steps, followers=None):
    """The case of ``protected`` run on ``device`` under always-true
    inputs; a run that leads ``followers`` is kept as a trace directly,
    as ``run_protected`` keeps its own run."""
    oracle = ConstantOracle.always_true(protected.program)

    def entries(entry=TraceEntry):
        return ProtectedRunner(protected, device, 7).iter_entries(
            steps, oracle, None if followers is None else dict(followers),
            entry)
    if followers is None:
        filled = lambda: run_protected(protected, device, steps, oracle, 7)
    else:
        filled = lambda: Trace.of_run(entries)
    return (filled, lambda: collect(steps, entries()),
            lambda: stepped(entries))


def check_case(case, label):
    filled, reference, full = case
    trace = filled()
    want = reference()
    assert trace.entries == want.entries, label
    assert trace.to_jsonl() == want.to_jsonl(), label
    assert list(map(sharing, columns(trace))) == \
        list(map(sharing, columns(full()))), label


class TestFilledTraceIsTheSteppedOne:
    @pytest.mark.parametrize("name", sorted(SHAPES))
    def test_run(self, programs, name):
        for steps in step_counts(name):
            check_case(plain_case(programs[name], steps), f"{name}/{steps}")

    @pytest.mark.parametrize("name", sorted(SHAPES))
    def test_run_steps_only_up_to_the_first_revisit(self, programs, name,
                                                    step_calls):
        prefix, period = SHAPES[name]
        for steps in step_counts(name):
            step_calls.clear()
            run(programs[name], steps,
                ConstantOracle.always_true(programs[name]), 7)
            assert len(step_calls) == min(steps, prefix + period), steps

    def test_tail_rows_are_the_cycles_objects(self, programs):
        # the state first yielded at row 3 comes back at row 6, and rows
        # 7 on repeat rows 4 to 6; row 6's step is not row 3's
        prefix, period = SHAPES["warmup"]
        trace = run(programs["warmup"], 100,
                    ConstantOracle.always_true(programs["warmup"]), 7)
        assert trace.states[prefix + period] is trace.states[prefix]
        assert trace.fired[prefix + period] is not trace.fired[prefix]
        for column in columns(trace):
            for k in range(prefix + period + 1, 101):
                assert column[k] is column[k - period]

    def test_run_protected_on_the_enrolled_device(self, protected_traffic,
                                                  step_calls):
        device = make_device(42, 16, 16)
        for steps in (0, 1, 3, 4, 5, 23, 1000):
            check_case(protected_case(protected_traffic, device, steps),
                       f"device42/{steps}")
        # the initial token is a transient of one state, then period 4
        step_calls.clear()
        run_protected(protected_traffic, device, 1000, ConstantOracle
                      .always_true(protected_traffic.program), 7)
        assert len(step_calls) == 5

    @pytest.mark.parametrize("name", ["still", "warmup"])
    def test_run_protected_with_a_transient(self, programs, name):
        protected = protect(programs[name], make_device(42, 16, 16))[0]
        device = make_device(42, 16, 16)
        for steps in step_counts(name):
            check_case(protected_case(protected, device, steps),
                       f"{name}/{steps}")


class TestNoFill:
    """Where a run cannot tell that its steps repeat, it steps them all,
    and its trace is still the stepped one."""

    STEPS = 300

    def check_stepped(self, case, step_calls, label):
        step_calls.clear()
        case[0]()
        assert len(step_calls) == self.STEPS, label
        check_case(case, label)

    def test_inputs_that_may_vary(self, traffic, step_calls):
        program = traffic

        class Constant(ConstantOracle):
            pass

        locs = program.monitored_locations()
        oracles = {
            "random": RandomOracle(3),
            "scripted": ScriptedOracle([dict.fromkeys(locs, True)]
                                       * self.STEPS),
            "subclass": Constant(ConstantOracle.always_true(program).values),
        }
        for name, oracle in oracles.items():
            self.check_stepped(plain_case(program, self.STEPS, oracle),
                               step_calls, name)

    def test_a_program_that_draws(self, step_calls):
        painter = parse_or_raise(CALLED_CHOOSE)
        self.check_stepped(plain_case(painter, self.STEPS), step_calls,
                           "painter")

    def test_sites_that_draw(self, protected_traffic, step_calls):
        cases = {
            "clone999": protected_case(protected_traffic,
                                       make_device(999, 16, 16),
                                       self.STEPS),
            "device42@0.05": protected_case(
                protected_traffic, make_device(42, 16, 16, 0.05),
                self.STEPS),
            "led": protected_case(
                protected_traffic, make_device(42, 16, 16), self.STEPS,
                followers={0: make_device(42, 16, 16, 0.05)}),
        }
        for name, case in cases.items():
            self.check_stepped(case, step_calls, name)

    def test_other_consumers_get_one_entry_per_step(
            self, traffic, protected_traffic, step_calls):
        oracle = ConstantOracle.always_true(traffic)
        entries = list(iter_run(traffic, self.STEPS, oracle, 7))
        assert len(entries) == self.STEPS + 1
        assert len(step_calls) == self.STEPS
        step_calls.clear()
        trace, _, _ = decoded_target_run(protected_traffic,
                                         make_device(42, 16, 16),
                                         self.STEPS, oracle, 7)
        assert len(trace.entries) == self.STEPS + 1
        assert len(step_calls) == self.STEPS
        step_calls.clear()
        cmp = compare_target_traces(traffic, protected_traffic, 42,
                                    self.STEPS, oracle, 7)
        assert cmp.verdict == "EQUAL"
        assert len(step_calls) == 2 * self.STEPS


def test_long_always_true_run_steps_one_cycle(traffic, step_calls):
    prefix, period = SHAPES["traffic_light"]
    trace = run(traffic, 10_000,
                ConstantOracle.always_true(traffic), 7)
    assert len(trace.entries) == 10_001
    assert len(step_calls) <= prefix + period + 1
