"""The run loop interns the states of choose-free programs, so a rule
pass fires once per state and inputs, and the site decider memoizes its
safe states; these tests hold both against step-by-step
``unmemoized_step`` chains that use neither."""
import json
import random

import pytest
from click.testing import CliRunner

from casmkit.ast import CasmError, InconsistentUpdate, format_location
from casmkit.cli import main as cli_main
from casmkit.interp import (
    CompiledProgram, ConstantOracle, RandomOracle, ScriptedOracle, StepError,
    compiled, iter_run, rng_picker, run,
)
from casmkit.parser import parse_or_raise
from casmkit.protect import (
    ProtectedRunner, SiteDecider, protect, run_protected,
)
from casmkit.puf import make_device
from casmkit.verify import compare_target_traces

from fuzzing import random_program
from reference_runtime import make_ctl_resolver, query_at, unmemoized_step
from rings import ring_source

FUZZ_SEED = 4242
FUZZ_PROGRAMS = 200
FUZZ_STEPS = 40
PROTECTED_STEPS = 300

CALLED_CHOOSE = """\
asm painter
enum Mode = { Idle, Busy }
enum Col = { Red, Green, Blue }
controlled mode : Mode init Idle
controlled col : Col init Red
ctlstate mode
unsafe false

rule paint():
  choose c in Col do
    col := c
  endchoose

rule main:
  if mode = Idle then
    paint()
  endif
"""
"""The only ``choose`` sits in a named rule reached by a call, so the
rule pass of one state differs from step to step."""


def entry_tuple(entry):
    return (entry.step, dict(entry.state), dict(entry.monitored),
            list(entry.fired), list(entry.events))


def collected(entries):
    """The entries of a run, copied, and the error that stopped it."""
    out = []
    try:
        for entry in entries:
            out.append(entry_tuple(entry))
    except CasmError as exc:
        return out, f"{type(exc).__name__}: {exc}"
    return out, None


def stepwise(program, steps, oracle, seed, resolver_at=None):
    """The run as a chain of ``unmemoized_step`` calls, with the
    error the run loop would report; step ``k`` stages its sites with
    ``resolver_at(k)``."""
    cp = compiled(program)
    values = program.initial_values()
    out = [(0, dict(values), {}, [], [])]
    for k in range(steps):
        monitored = oracle.valuation(program, k)
        resolver = None if resolver_at is None else resolver_at(k)
        try:
            values, fired, events = unmemoized_step(
                cp, values, monitored, rng_picker(seed, k), resolver, k)
        except InconsistentUpdate as exc:
            return out, f"StepError: {StepError(str(exc), k)}"
        except CasmError as exc:
            return out, f"{type(exc).__name__}: {exc}"
        out.append((k + 1, dict(values), dict(monitored), list(fired),
                    list(events)))
    return out, None


def fuzz_corpus():
    rng = random.Random(FUZZ_SEED)
    return [random_program(rng) for _ in range(FUZZ_PROGRAMS)]


@pytest.fixture()
def rule_passes(monkeypatch):
    """Counts the rule passes fired, per program."""
    counts: dict[str, int] = {}
    fire = CompiledProgram.fire_rules

    def counting(self, values, monitored, pick):
        counts[self.program.name] = counts.get(self.program.name, 0) + 1
        return fire(self, values, monitored, pick)
    monkeypatch.setattr(CompiledProgram, "fire_rules", counting)
    return counts


def distinct_keys(program, entries):
    """(state, inputs) pairs the rule pass ran on, each once."""
    monitored_locs = program.monitored_locations()
    return {(tuple(before[1].values()),
             tuple(after[2][loc] for loc in monitored_locs))
            for before, after in zip(entries, entries[1:])}


class TestRuleMemo:
    def test_fuzz_runs_equal_unmemoized_chains(self, rule_passes):
        with_choose = without = 0
        for i, program in enumerate(fuzz_corpus()):
            oracle = RandomOracle(i)
            got = collected(iter_run(program, FUZZ_STEPS, oracle, i))
            expected = stepwise(program, FUZZ_STEPS, oracle, i)
            assert got == expected, program.name
            if expected[1] is None:
                trace = run(program, FUZZ_STEPS, oracle, i)
                assert [entry_tuple(e) for e in trace.entries] == \
                    expected[0]
            # one rule pass per step, or one per distinct (state, inputs)
            rule_passes.clear()
            collected(iter_run(program, FUZZ_STEPS, oracle, i))
            passes = rule_passes.get(program.name, 0)
            entries, error = expected
            if compiled(program).choose_free:
                without += 1
                if error is None:
                    assert passes == len(distinct_keys(program, entries))
            else:
                with_choose += 1
                assert passes == len(entries) - 1 + (error is not None)
        assert with_choose >= 20 and without >= 20

    def test_choose_in_a_called_rule_turns_the_memo_off(self, rule_passes):
        program = parse_or_raise(CALLED_CHOOSE)
        assert not compiled(program).choose_free
        oracle = ConstantOracle({})
        steps = 60
        got = collected(iter_run(program, steps, oracle, 3))
        expected = stepwise(program, steps, oracle, 3)
        assert got == expected
        assert rule_passes[program.name] == 2 * steps
        # one state, different draws: a memoized pass would repeat one
        assert len({e[1][("col", ())] for e in got[0]}) == 3

    def test_choose_free_is_decided_over_main_and_named_rules(self, traffic):
        assert compiled(traffic).choose_free
        program = parse_or_raise(CALLED_CHOOSE.replace(
            "  if mode = Idle then\n    paint()\n  endif",
            "  if mode = Idle then\n    col := Red\n  endif"))
        # the rule is never called, yet it keeps the memo off
        assert not compiled(program).choose_free


class TestInternedGraph:
    """A run of a choose-free program interns each state once: the rule
    pass fires once per distinct (state, inputs) pair, and the state key
    runs once for the initial state and once per distinct edge, the
    first time the edge is taken, not once per step."""

    STEPS = 10_000

    def runs(self, traffic):
        """(name, program, oracle, seed, make_resolver): a clone run of
        the protected traffic light at each noise rate, under the clone
        experiment's inputs, and a plain run under random inputs;
        ``make_resolver()`` gives a new resolver for the run's sites."""
        protected, _ = protect(traffic, make_device(42, 16, 16, 0.0))
        always = ConstantOracle.always_true(traffic)
        for noise in (0.0, 0.05):
            device = make_device(999, 16, 16, noise)
            yield (f"clone/{noise}", protected.program, always, 5,
                   lambda device=device:
                   ProtectedRunner(protected, device, 5)._stage)
        yield "plain/random:3", traffic, RandomOracle(3), 7, lambda: None

    def test_work_is_done_once_per_state_and_edge(self, traffic,
                                                  rule_passes,
                                                  monkeypatch):
        keys: list = []

        def counting(state_key):
            def count(values):
                keys.append(None)
                return state_key(values)
            count.counting = True
            return count
        for name, program, oracle, seed, make_resolver in self.runs(traffic):
            cp = compiled(program)
            if not hasattr(cp.state_key, "counting"):
                monkeypatch.setattr(cp, "state_key", counting(cp.state_key))
            keys.clear()
            rule_passes.clear()
            got = collected(iter_run(program, self.STEPS, oracle, seed,
                                     make_resolver()))
            passes, state_keys = rule_passes[program.name], len(keys)

            resolver = make_resolver()
            assert got == stepwise(program, self.STEPS, oracle, seed,
                                   lambda k: resolver), name
            entries, error = got
            assert error is None and len(entries) == self.STEPS + 1
            assert passes == len(distinct_keys(program, entries)), name
            edges = {(cp.state_key(before[1]), cp.inputs_key(after[2]),
                      cp.state_key(after[1]))
                     for before, after in zip(entries, entries[1:])}
            assert state_keys == len(edges) + 1, name
            assert state_keys < self.STEPS // 100, name


def protected_subjects(traffic):
    yield "traffic", traffic
    for n in (2, 3):
        yield f"ring{n}", parse_or_raise(ring_source(n))


class Unmemoized:
    """A site decider whose safe-state memo is emptied before each call."""

    def __init__(self, protected):
        self.decider = SiteDecider(protected.program, protected.enrollment,
                                   protected.safe_condition)

    def decide(self, *args):
        self.decider._safe_memo.clear()
        return self.decider.decide(*args)

    def outcomes(self, *args):
        self.decider._safe_memo.clear()
        return self.decider.outcomes(*args)


def checked_resolver(protected, device, seed, k, fresh, sites):
    """The reference resolver of step ``k``; at each site the program's
    decider, warm, must decide and enumerate as an unmemoized one."""
    reference = make_ctl_resolver(protected, device, seed)
    decider = protected.decider

    def resolve(site, challenge, post, current):
        response = query_at(device, challenge, seed, k, site)
        for i in range(3):
            def draw(n, i=i):
                return i % n
            assert decider.decide(response, post, current, draw) == \
                fresh.decide(response, post, current, draw)
        for responses in (decider.responses, (response,)):
            assert decider.outcomes(responses, post, current) == \
                fresh.outcomes(responses, post, current)
        sites.append(site)
        return reference(site, challenge, post, current)
    return resolve


class TestProtectedRuns:
    @pytest.mark.parametrize("noise", [0.0, 0.05])
    def test_runs_equal_unmemoized_chains(self, traffic, noise):
        for name, program in protected_subjects(traffic):
            protected, _ = protect(program, make_device(42, 16, 16, 0.0))
            fresh = Unmemoized(protected)
            for device_seed in (42, 999):
                device = make_device(device_seed, 16, 16, noise)
                oracle = RandomOracle(device_seed)
                trace = run_protected(protected, device, PROTECTED_STEPS,
                                      oracle, 5)
                sites: list[str] = []
                expected, error = stepwise(
                    protected.program, PROTECTED_STEPS, oracle, 5,
                    lambda k: checked_resolver(protected, device, 5, k,
                                               fresh, sites))
                assert error is None
                assert [entry_tuple(e) for e in trace.entries] == expected, \
                    (name, device_seed, noise)
                assert len(sites) >= PROTECTED_STEPS // 4
            assert protected.decider._safe_memo


class TestTotality:
    """A valuation that misses a monitored location stops the run with the
    same error wherever the run loop runs, memo or not."""

    MISSING_AT = 12  # the traffic light's cycle has been memoized by then

    def script(self, traffic):
        always = ConstantOracle.always_true(traffic).values
        steps = [dict(always) for _ in range(self.MISSING_AT + 5)]
        del steps[self.MISSING_AT][("Passed", ("Go1Stop2",))]
        return steps

    def expected(self):
        return (f"step {self.MISSING_AT}: monitored valuation misses "
                f"{format_location(('Passed', ('Go1Stop2',)))}")

    def test_run_run_protected_and_compare(self, traffic, rule_passes):
        oracle = ScriptedOracle(self.script(traffic))
        protected, _ = protect(traffic, make_device(42, 16, 16, 0.0))
        calls = [
            lambda: run(traffic, 20, oracle, 1),
            lambda: run_protected(protected, make_device(42, 16, 16, 0.0),
                                  20, oracle, 1),
            lambda: run_protected(protected, make_device(7, 16, 16, 0.05),
                                  20, oracle, 1),
            lambda: compare_target_traces(traffic, protected, 42, 20,
                                          oracle, 1),
        ]
        for call in calls:
            rule_passes.clear()
            with pytest.raises(StepError) as info:
                call()
            assert str(info.value) == self.expected()
            assert info.value.step_index == self.MISSING_AT
            # the memo was serving the steps before the missing input
            assert all(n < self.MISSING_AT for n in rule_passes.values())

    def test_constant_inputs_that_miss_one_stop_at_step_0(self, traffic):
        """A ConstantOracle is read once per run, at step 0, so a
        location its dict lacks stops the run there."""
        values = dict(ConstantOracle.always_true(traffic).values)
        del values[("Passed", ("Go1Stop2",))]
        oracle = ConstantOracle(values)
        protected, _ = protect(traffic, make_device(42, 16, 16, 0.0))
        calls = [
            lambda: run(traffic, 20, oracle, 1),
            lambda: run_protected(protected, make_device(7, 16, 16, 0.05),
                                  20, oracle, 1),
            lambda: compare_target_traces(traffic, protected, 42, 20,
                                          oracle, 1),
        ]
        for call in calls:
            with pytest.raises(StepError) as info:
                call()
            assert str(info.value) == self.expected().replace(
                f"step {self.MISSING_AT}", "step 0")
            assert info.value.step_index == 0
        # a run of no steps reads no inputs
        assert len(run(traffic, 0, oracle, 1).entries) == 1

    def test_runner_entries_stop_at_the_missing_step(self, traffic):
        protected, _ = protect(traffic, make_device(42, 16, 16, 0.0))
        runner = ProtectedRunner(protected, make_device(42, 16, 16, 0.0), 1)
        entries, error = collected(runner.iter_entries(
            20, ScriptedOracle(self.script(traffic))))
        assert len(entries) == self.MISSING_AT + 1
        assert error == f"StepError: {self.expected()}"

    def test_cli_run_protected_exits_2_with_one_line(self, traffic,
                                                     tmp_path,
                                                     monkeypatch):
        from casmkit.programs import traffic_light_source
        monkeypatch.chdir(tmp_path)
        (tmp_path / "traffic.casm").write_text(traffic_light_source())
        runner = CliRunner()
        runner.invoke(cli_main, [
            "protect", "traffic.casm", "--device-seed", "42",
            "--challenge-bits", "16", "--response-bits", "16", "--out", "p"],
            catch_exceptions=False)
        script = [{format_location(loc): value for loc, value in step.items()}
                  for step in self.script(traffic)]
        (tmp_path / "inputs.json").write_text(json.dumps(script))
        result = runner.invoke(cli_main, [
            "run-protected", "p", "--device-seed", "42", "--steps", "20",
            "--seed", "1", "--monitored", "file:inputs.json"],
            catch_exceptions=False)
        assert result.exit_code == 2, result.output
        assert result.output.splitlines() == [self.expected()]
        assert "Traceback" not in result.output
