import dataclasses
import json
import random
from collections import Counter

import pytest

from casmkit.ast import Choose, NamedRule, ProgramError, SetExpr
from casmkit.interp import (
    ConstantOracle, EmptyChooseSet, RandomOracle, ScriptedOracle, STALL,
    compiled, iter_run, run,
)
from casmkit.parser import parse_or_raise

from fuzzing import random_program
from reference_runtime import step
from reference_walker import enumerate_step_outcomes, initial_state

PHASE = ("phase", ())


def all_passed(traffic, value=True):
    return {loc: value for loc in traffic.monitored_locations()}


class TestStep:
    def test_first_transition_with_lights(self, traffic):
        result = step(traffic, initial_state(traffic), all_passed(traffic))
        values = result.state.values
        assert values[PHASE] == "Go1Stop2"
        assert values[("GoLight", (1,))] is True
        assert values[("StopLight", (1,))] is False
        assert values[("GoLight", (2,))] is False
        assert values[("StopLight", (2,))] is True
        assert result.fired == ["lane1"]

    def test_stall_when_nothing_passes(self, traffic):
        state = initial_state(traffic)
        result = step(traffic, state, all_passed(traffic, False))
        assert result.state.values == state.values
        assert result.events == [STALL]
        assert result.fired == []

    def test_eight_step_cycle(self, traffic):
        # hand-executed: the phase cycles with period 4
        trace = run(traffic, 8, ConstantOracle.always_true(traffic), seed=7)
        phases = [e.state[PHASE] for e in trace.entries]
        assert phases == ["Stop1Stop2", "Go1Stop2", "Stop2Stop1", "Go2Stop1",
                          "Stop1Stop2", "Go1Stop2", "Stop2Stop1", "Go2Stop1",
                          "Stop1Stop2"]

    def test_frame_property(self, traffic):
        before = initial_state(traffic)
        result = step(traffic, before, all_passed(traffic))
        touched = {PHASE, ("GoLight", (1,)), ("StopLight", (1,))}
        for loc, value in before.values.items():
            if loc not in touched:
                assert result.state.values[loc] == value


class TestRun:
    def test_zero_steps(self, traffic):
        trace = run(traffic, 0, ConstantOracle.always_true(traffic), seed=3)
        assert len(trace.entries) == 1
        assert trace.entries[0].step == 0
        assert trace.entries[0].state == traffic.initial_values()

    def test_determinism_under_fixed_seed(self, traffic):
        oracle = ConstantOracle.always_true(traffic)
        a = run(traffic, 1000, oracle, seed=7)
        b = run(traffic, 1000, oracle, seed=7)
        assert a.to_jsonl() == b.to_jsonl()

    def test_random_oracle_never_reaches_unsafe(self, traffic):
        # cross-checked by the exhaustive reachability oracle elsewhere
        trace = run(traffic, 1000, RandomOracle(3), seed=7)
        for entry in trace.entries:
            assert not (entry.state[("GoLight", (1,))]
                        and entry.state[("GoLight", (2,))])

    def test_random_oracle_is_pure_per_step(self, traffic):
        o = RandomOracle(5)
        assert o.valuation(traffic, 12) == o.valuation(traffic, 12)
        assert any(o.valuation(traffic, 0) != o.valuation(traffic, k)
                   for k in range(1, 8))

    def test_scripted_oracle_exhaustion(self, traffic):
        oracle = ScriptedOracle([all_passed(traffic)])
        with pytest.raises(Exception):
            run(traffic, 2, oracle, seed=1)

    def test_trace_jsonl_is_bit_stable(self, traffic):
        trace = run(traffic, 2, ConstantOracle.always_true(traffic), seed=1)
        lines = trace.to_jsonl().splitlines()
        assert json.loads(lines[0]) == {
            "step": 0,
            "state": {"GoLight(1)": False, "GoLight(2)": False,
                      "StopLight(1)": True, "StopLight(2)": True,
                      "phase": "Stop1Stop2"},
            "monitored": {}, "fired": [], "events": [],
        }
        # key order is sorted, separators fixed
        assert lines[0].startswith('{"events":[],"fired":[],"monitored":{}')


CHOOSER_SRC = """\
asm chooser
enum Mode = { On }
enum Pick = { A, B, C, D }
controlled mode : Mode init On
controlled last : Pick init A
ctlstate mode
unsafe false

rule pick:
  if mode = On then
    choose c in Pick do
      last := c
    endchoose
  endif
"""


class TestChoose:
    def test_fairness(self):
        program = parse_or_raise(CHOOSER_SRC)
        oracle = ConstantOracle({})
        counts = Counter()
        for entry in iter_run(program, 10000, oracle, seed=11):
            if entry.step == 0:
                continue
            counts[entry.state[("last", ())]] += 1
        for value in "ABCD":
            assert abs(counts[value] / 10000 - 0.25) <= 0.05, counts

    def test_draws_are_site_and_step_split(self):
        program = parse_or_raise(CHOOSER_SRC)
        oracle = ConstantOracle({})
        a = run(program, 50, oracle, seed=1)
        b = run(program, 50, oracle, seed=2)
        assert a.to_jsonl() != b.to_jsonl()
        assert a.to_jsonl() == run(program, 50, oracle, seed=1).to_jsonl()

    def test_adding_a_rule_leaves_other_draw_sites_unchanged(self):
        # draw streams are split per (step, rule, site ordinal), so an
        # unrelated extra rule never perturbs an existing site's draws
        extended = CHOOSER_SRC.replace(
            "controlled last : Pick init A",
            "controlled last : Pick init A\ncontrolled tick : Bool init false"
        ) + """
rule beat:
  if mode = On then
    tick := not tick
  endif
"""
        base = parse_or_raise(CHOOSER_SRC)
        plus = parse_or_raise(extended)
        oracle = ConstantOracle({})
        a = [e.state[("last", ())]
             for e in iter_run(base, 64, oracle, seed=5)]
        b = [e.state[("last", ())]
             for e in iter_run(plus, 64, oracle, seed=5)]
        assert a == b

    def test_empty_candidate_set_aborts(self):
        program = parse_or_raise(CHOOSER_SRC)
        rule = program.main_rules[0].body[0]
        empty = Choose("c", SetExpr(values=()), rule.then_rules[0].body)
        from dataclasses import replace
        from casmkit.ast import Cond, NamedRule
        bad = replace(program, main_rules=(
            NamedRule("pick", (), (Cond(rule.guard, (empty,)),)),),
            named_rules=())
        with pytest.raises(EmptyChooseSet):
            step(bad, initial_state(bad), {})


class TestEngineAgreement:
    def test_compiled_matches_reference_walker(self):
        # the deterministic engine's result is always among the walker's
        # outcomes, and is the only one for choose-free programs
        from casmkit.ast import iter_rules
        rng = random.Random(777)
        for _ in range(40):
            program = random_program(rng)
            has_choice = any(isinstance(r, Choose)
                             for nr in program.main_rules
                             for r, _ in iter_rules(nr.body))
            oracle = RandomOracle(rng.randrange(1 << 30))
            state = initial_state(program)
            for k in range(5):
                monitored = oracle.valuation(program, k)
                try:
                    result = step(program, state, monitored, seed=9,
                                  step_index=k)
                    outcomes = enumerate_step_outcomes(program, state.values,
                                                       monitored)
                except Exception:
                    # conflicting parallel writes abort the step in both
                    # engines; such fuzz programs carry no signal here
                    break
                produced = []
                for outcome in outcomes:
                    values = dict(state.values)
                    values.update(outcome.updates)
                    produced.append(values)
                assert result.state.values in produced
                if not has_choice:
                    assert len(produced) == 1
                state = result.state


class TestMainRuleShape:
    def test_compiling_a_main_rule_of_another_shape_is_refused(self,
                                                               traffic):
        # an unvalidated program whose main rule is not one guarded
        # conditional: its rules, bare, or nothing at all
        lane1 = traffic.main_rules[0]
        (cond,) = lane1.body
        for body in (cond.then_rules, (cond, cond), ()):
            program = dataclasses.replace(traffic, main_rules=(
                NamedRule(lane1.name, (), body), *traffic.main_rules[1:]))
            with pytest.raises(ProgramError) as caught:
                compiled(program)
            assert str(caught.value) == \
                "rule lane1 must be a single guarded conditional"
