"""Monitored inputs: a random oracle's valuation is the first pick of
each input's named stream, and a target comparison draws each step's
inputs once and gives them to both runs (a constant oracle is read once
per run), with the verdict of runs that each ask an oracle of their
own."""
import random
from collections import Counter

import pytest

import reference_runtime
from casmkit.ast import CasmError
from casmkit.interp import (
    ConstantOracle, MonitoredOracle, RandomOracle, ScriptedOracle, run,
)
from casmkit.parser import parse_or_raise
from casmkit.programs import traffic_light_source
from casmkit.protect import protect
from casmkit.puf import make_device
from casmkit.verify import clone_divergence_report, compare_target_traces

INPUTS_SRC = """\
asm inputs
enum Mode = { Idle, Busy, Done }
int Level = -2..6
int Lane = 1..3
controlled mode : Mode init Idle
controlled seen : Mode init Idle
monitored Go : Bool
monitored Next : Mode
monitored Reading : Lane -> Level
monitored Pick : Mode -> Lane
ctlstate mode
unsafe false

rule step:
  if mode = Idle and Go and Reading(1) = 3 then
    mode := Busy
    seen := Next
  endif
"""
"""Bool, enum and int inputs, two of them functions with arguments."""

SPARE_TRAFFIC = traffic_light_source().replace(
    "monitored Passed", "monitored Spare : Bool\nmonitored Passed")
"""The traffic light with one more input, which no rule reads: its
monitored locations differ from those of the protected traffic light."""

STEPS = 300


@pytest.fixture(scope="module")
def inputs_program():
    return parse_or_raise(INPUTS_SRC)


@pytest.fixture(scope="module")
def protected_traffic(traffic):
    return protect(traffic, make_device(42, 16, 16, 0.0))[0]


class TestRandomOracleStream:
    @pytest.mark.parametrize("seed", [0, 3, -1, -(1 << 40), 1 << 63,
                                      (1 << 64) + 5])
    def test_each_input_is_the_first_pick_of_its_stream(
            self, inputs_program, seed):
        oracle = RandomOracle(seed)
        for step in range(201):
            got = oracle.valuation(inputs_program, step)
            want = reference_runtime.random_valuation(
                inputs_program, seed, step)
            assert list(got.items()) == list(want.items()), step

    def test_every_value_of_each_sort_is_drawn(self, inputs_program):
        oracle = RandomOracle(8)
        drawn = Counter((loc, value) for step in range(200)
                        for loc, value in
                        oracle.valuation(inputs_program, step).items())
        for loc in inputs_program.monitored_locations():
            for value in inputs_program.function(loc[0]).result.values():
                assert drawn[loc, value] > 0, (loc, value)

    def test_one_oracle_serves_two_programs_in_alternation(
            self, traffic, inputs_program):
        oracle = RandomOracle(-9)
        for step in range(201):
            for program in (traffic, inputs_program):
                assert oracle.valuation(program, step) == \
                    reference_runtime.random_valuation(program, -9, step)


class CountingOracle(MonitoredOracle):
    """Records each ``(program, step)`` it is asked for."""

    def __init__(self, inner: MonitoredOracle):
        self.inner = inner
        self.calls: list = []

    def valuation(self, program, step_index):
        self.calls.append((program, step_index))
        return self.inner.valuation(program, step_index)


def oracle_maker(policy: str, program):
    """A function giving a fresh oracle of ``policy`` on each call."""
    if policy == "always-true":
        return lambda: ConstantOracle.always_true(program)
    if policy == "random":
        return lambda: RandomOracle(5)
    rnd = random.Random(17)
    locs = program.monitored_locations()
    script = [{loc: rnd.random() < 0.75 for loc in locs}
              for _ in range(STEPS)]
    return lambda: ScriptedOracle(script)


def steps_drawn(comparison) -> int:
    # a mismatch at entry k stops the comparison after step k - 1
    return STEPS if comparison.equal else comparison.mismatch_step


POLICIES = ["always-true", "random", "scripted"]


class TestOneDrawPerStep:
    @pytest.mark.parametrize("noise", [0.0, 0.05])
    @pytest.mark.parametrize("device_seed", [42, 999])
    @pytest.mark.parametrize("policy", POLICIES)
    def test_shared_inputs_give_the_verdict_of_separate_oracles(
            self, traffic, protected_traffic, policy, device_seed, noise):
        make = oracle_maker(policy, traffic)
        counted = CountingOracle(make())
        got = compare_target_traces(traffic, protected_traffic, device_seed,
                                    STEPS, counted, 7, noise)
        assert got == reference_runtime.compare_target_traces(
            traffic, protected_traffic, device_seed, STEPS, make, 7, noise)
        if noise == 0.0:
            assert got.equal == (device_seed == 42)
        assert [step for _, step in counted.calls] == \
            list(range(steps_drawn(got)))
        assert all(program is traffic for program, _ in counted.calls)

    @pytest.mark.parametrize("noise", [0.0, 0.05])
    @pytest.mark.parametrize("device_seed", [42, 999])
    def test_constant_inputs_are_read_once_per_run(
            self, traffic, protected_traffic, monkeypatch, device_seed,
            noise):
        """An always-true oracle goes to both runs as it is, and each run
        reads it once, at step 0, with the verdict and fallback count of
        runs that each ask an oracle of their own at every step."""
        make = oracle_maker("always-true", traffic)
        want = reference_runtime.compare_target_traces(
            traffic, protected_traffic, device_seed, STEPS, make, 7, noise)
        calls = []
        valuation = ConstantOracle.valuation

        def counted(oracle, program, step_index):
            calls.append((program, step_index))
            return valuation(oracle, program, step_index)

        monkeypatch.setattr(ConstantOracle, "valuation", counted)
        got = compare_target_traces(traffic, protected_traffic, device_seed,
                                    STEPS, make(), 7, noise)
        assert got == want
        if noise == 0.0:
            assert got.equal == (device_seed == 42)
        assert calls == [(traffic, 0), (protected_traffic.program, 0)]

    @pytest.mark.parametrize("device_seed", [42, 999])
    @pytest.mark.parametrize("policy", POLICIES)
    def test_programs_with_other_inputs_each_draw_their_own(
            self, protected_traffic, policy, device_seed):
        spare = parse_or_raise(SPARE_TRAFFIC)
        make = oracle_maker(policy, spare)
        counted = CountingOracle(make())
        got = compare_target_traces(spare, protected_traffic, device_seed,
                                    STEPS, counted, 7)
        assert got == reference_runtime.compare_target_traces(
            spare, protected_traffic, device_seed, STEPS, make, 7)
        assert got.equal == (device_seed == 42)
        drawn = steps_drawn(got)
        assert Counter(counted.calls) == Counter(
            {(program, step): 1 for step in range(drawn)
             for program in (spare, protected_traffic.program)})


class TestConstantInputs:
    def test_a_constant_oracle_is_read_once_per_run(self, traffic,
                                                    monkeypatch):
        """Every step of a run is given the ConstantOracle's one dict, so
        the run reads it at step 0 alone; a subclass, which may vary, is
        read at every step.  Both give the same trace."""
        calls = []
        valuation = ConstantOracle.valuation

        def counted(oracle, program, step_index):
            calls.append(step_index)
            return valuation(oracle, program, step_index)

        class Subclass(ConstantOracle):
            pass

        monkeypatch.setattr(ConstantOracle, "valuation", counted)
        values = ConstantOracle.always_true(traffic).values
        traces = []
        for oracle in (ConstantOracle(values), Subclass(values)):
            calls.clear()
            traces.append(run(traffic, 50, oracle, 7).to_jsonl())
            traces.append(calls[:])
        assert traces[0] == traces[2]
        assert traces[1] == [0] and traces[3] == list(range(50))
        calls.clear()
        run(traffic, 0, ConstantOracle(values), 7)
        assert calls == []


class TestNegativeStepCounts:
    def test_comparison_refuses_them(self, traffic, protected_traffic):
        # seed 7 is a clone: a comparison that ran would not be EQUAL
        with pytest.raises(CasmError, match="step count must be "
                                            "non-negative"):
            compare_target_traces(traffic, protected_traffic, 7, -5,
                                  RandomOracle(3), 1)

    def test_clone_report_refuses_them(self, traffic, protected_traffic):
        oracle = ConstantOracle.always_true(traffic)
        original = run(traffic, 10, oracle, 1)
        with pytest.raises(CasmError, match="step count must be "
                                            "non-negative"):
            clone_divergence_report(protected_traffic, original, [201], -3,
                                    0.0, oracle, 1)
