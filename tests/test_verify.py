import dataclasses
import random

import pytest

from casmkit.ast import CasmError
from casmkit.interp import ConstantOracle, RandomOracle, run
from casmkit.parser import parse_or_raise
from casmkit.protect import protect
from casmkit.puf import make_device
from casmkit.verify import (
    StateSpaceTooLarge, clone_divergence_report, compare_target_traces,
    exhaustive_safety_check, random_safety_search, replay_witness,
)

from fuzzing import random_program

PHASE = ("phase", ())
MODE, COL = ("mode", ()), ("col", ())


@pytest.fixture(scope="module")
def protected_traffic(traffic):
    device = make_device(42, 16, 16, 0.0)
    protected, enrollment = protect(traffic, device)
    return protected


class TestExhaustive:
    def test_original_traffic_light_is_safe(self, traffic):
        report = exhaustive_safety_check(traffic)
        assert report.unsafe_reachable is False
        assert report.witness is None
        assert report.explored_states <= 4 * 2 ** 4 * 2 ** 4
        assert report.transition_count > 0

    def test_agreement_with_random_runs(self, traffic):
        # where the exhaustive oracle says safe, no randomized run may
        # find a violation
        assert exhaustive_safety_check(traffic).unsafe_reachable is False
        for seed in (1, 2, 3):
            trace = run(traffic, 2000, RandomOracle(seed), seed=seed)
            for entry in trace.entries:
                assert not (entry.state[("GoLight", (1,))]
                            and entry.state[("GoLight", (2,))])

    def test_faulty_variant_found_with_short_witness(self, faulty_traffic):
        report = exhaustive_safety_check(faulty_traffic)
        assert report.unsafe_reachable is True
        assert report.witness is not None
        assert len(report.witness) <= 3
        assert replay_witness(faulty_traffic, report.witness)

    def test_witness_is_minimal(self, faulty_traffic):
        # breadth-first search finds a shortest run: no strictly shorter
        # prefix already violates
        report = exhaustive_safety_check(faulty_traffic)
        from reference_walker import eval_term, initial_state
        state = initial_state(faulty_traffic)
        from reference_runtime import step
        for w in report.witness[:-1]:
            state = step(faulty_traffic, state, w.monitored).state
            assert not eval_term(faulty_traffic.unsafe, state)

    def test_protected_with_adversarial_responses_is_safe(
            self, protected_traffic):
        report = exhaustive_safety_check(protected_traffic,
                                         adversarial_puf=True)
        assert report.unsafe_reachable is False
        # stored control values: enrolled responses plus the token
        assert report.explored_states <= 5 * 2 ** 4

    def test_protected_with_target_device_is_safe(self, traffic,
                                                  protected_traffic):
        device = make_device(42, 16, 16, 0.0)
        report = exhaustive_safety_check(protected_traffic,
                                         adversarial_puf=False,
                                         device=device)
        assert report.unsafe_reachable is False

    def test_state_space_cap(self, traffic):
        # the bound counts visited states: the traffic light reaches 4
        with pytest.raises(StateSpaceTooLarge):
            exhaustive_safety_check(traffic, max_states=3)
        assert exhaustive_safety_check(
            traffic, max_states=4).explored_states == 4

    def test_unsafe_that_cannot_be_evaluated_is_an_eval_error(self, traffic):
        # the compiled predicate's KeyError surfaces as an EvalError
        # naming the unbound variable, once a state reaches it
        from casmkit.ast import And, App, Const, EvalError, Var
        program = dataclasses.replace(
            traffic, unsafe=And(App("GoLight", (Const(1),)), Var("zz")))
        with pytest.raises(EvalError, match="^unbound variable zz$"):
            exhaustive_safety_check(program)

    def test_report_serialization(self, faulty_traffic):
        report = exhaustive_safety_check(faulty_traffic)
        import json
        payload = json.loads(report.to_json())
        assert payload["unsafeReachable"] is True
        assert len(payload["witness"]) == len(report.witness)


GATED = """asm gated
enum Phase = {{ A, B }}
controlled phase : Phase init A
monitored go : Bool
ctlstate phase
unsafe {unsafe}

rule main:
  if phase = A and not go then
    phase := B
  endif
"""
"""Reaches B only when ``go`` is false; ``unsafe`` is filled in."""


PAINTER = """asm painter
enum Mode = { Idle, Busy }
enum Col = { Red, Green, Blue }
controlled mode : Mode init Idle
controlled col : Col init Red
ctlstate mode
unsafe col = Blue

rule main:
  if mode = Idle then
    choose c in Col do
      col := c
    endchoose
    mode := Busy
  endif
"""
"""Draws its colour once; the draw ``Blue`` is the violation."""


class TestReplayWitness:
    """A witness replays when the checker's verdict marks its last state
    unsafe: the violation predicate holds under some valuation of the
    inputs it reads, not only under the last step's inputs."""

    def test_unsafe_under_other_inputs_than_the_last_step(self):
        program = parse_or_raise(GATED.format(unsafe="phase = B and go"))
        report = exhaustive_safety_check(program)
        assert report.unsafe_reachable is True
        assert [(w.monitored, w.state) for w in report.witness] == \
            [({("go", ()): False}, {PHASE: "B"})]
        assert replay_witness(program, report.witness) is True

    def test_initial_state_unsafe_under_some_input(self):
        program = parse_or_raise(GATED.format(unsafe="go"))
        report = exhaustive_safety_check(program)
        assert report.unsafe_reachable is True
        assert report.witness == []
        assert replay_witness(program, report.witness) is True

    def test_a_safe_or_unreproduced_end_does_not_replay(self,
                                                        faulty_traffic):
        witness = exhaustive_safety_check(faulty_traffic).witness
        assert replay_witness(faulty_traffic, witness) is True
        assert replay_witness(faulty_traffic, witness[:-1]) is False
        last = witness[-1]
        wrong = dataclasses.replace(
            last, state={**last.state, ("GoLight", (2,)): False})
        assert replay_witness(faulty_traffic, witness[:-1] + [wrong]) is False

    def test_a_witness_of_a_choose_program_replays(self):
        # the witness records the state a draw led to, not the draw:
        # replay accepts any draw of the step that gives that state
        program = parse_or_raise(PAINTER)
        witness = exhaustive_safety_check(program).witness
        assert [(w.monitored, w.state) for w in witness] == \
            [({}, {MODE: "Busy", COL: "Blue"})]
        assert replay_witness(program, witness) is True
        undrawn = dataclasses.replace(
            witness[0], state={MODE: "Idle", COL: "Blue"})
        assert replay_witness(program, [undrawn]) is False

    def test_every_fuzz_witness_replays(self):
        rng = random.Random(4242)
        programs = [random_program(rng) for _ in range(200)]
        replayed = 0
        for program in programs:
            try:
                report = exhaustive_safety_check(program)
            except CasmError:
                continue
            if report.unsafe_reachable:
                assert replay_witness(program, report.witness) is True
                replayed += 1
        assert replayed >= 50
        # program 128 draws with choose, and its witness is one step
        witness = exhaustive_safety_check(programs[128]).witness
        assert len(witness) == 1
        assert replay_witness(programs[128], witness) is True


class TestCompareTargetTraces:
    def test_equal_on_enrollment_device(self, traffic, protected_traffic):
        oracle = ConstantOracle.always_true(traffic)
        cmp = compare_target_traces(traffic, protected_traffic, 42, 1000,
                                    oracle, run_seed=7)
        assert cmp.verdict == "EQUAL"
        assert cmp.fallback_count == 0

    def test_other_device_mismatches_quickly(self, traffic,
                                             protected_traffic):
        oracle = ConstantOracle.always_true(traffic)
        mismatched = 0
        for seed in range(100, 110):
            cmp = compare_target_traces(traffic, protected_traffic, seed,
                                        64, oracle, run_seed=7)
            if cmp.verdict == "MISMATCH":
                mismatched += 1
                assert cmp.mismatch_step <= 32
        assert mismatched == 10

    def test_mismatch_step_is_minimal(self, traffic, protected_traffic):
        oracle = ConstantOracle.always_true(traffic)
        cmp = compare_target_traces(traffic, protected_traffic, 100, 64,
                                    oracle, run_seed=7)
        assert cmp.verdict == "MISMATCH"
        # the prefix before the reported step replays equal
        again = compare_target_traces(traffic, protected_traffic, 100,
                                      cmp.mismatch_step - 1, oracle,
                                      run_seed=7)
        assert again.verdict == "EQUAL"

    def test_zero_steps_equal(self, traffic, protected_traffic):
        oracle = ConstantOracle.always_true(traffic)
        cmp = compare_target_traces(traffic, protected_traffic, 999, 0,
                                    oracle, run_seed=7)
        assert cmp.verdict == "EQUAL"


class TestCloneDivergence:
    def test_small_experiment(self, traffic, protected_traffic):
        oracle = ConstantOracle.always_true(traffic)
        original = run(traffic, 600, oracle, seed=7)
        report = clone_divergence_report(
            protected_traffic, original, [201, 202, 203, 204, 205], 600,
            0.0, oracle, run_seed=7)
        assert report.safety_violations == 0
        assert report.trials_diverged == 5
        assert report.fallback_rate > 0.9
        assert sum(report.first_divergence_hist.values()) == 5
        assert min(report.first_divergence_hist) >= 1

    def test_enrollment_device_is_flagged_as_control(self, traffic,
                                                     protected_traffic):
        oracle = ConstantOracle.always_true(traffic)
        original = run(traffic, 200, oracle, seed=7)
        report = clone_divergence_report(
            protected_traffic, original, [301, 42], 200, 0.0, oracle,
            run_seed=7)
        assert report.flagged_control_trials == [1]
        # the control trial neither falls back nor diverges
        assert report.trials_diverged == 1

    def test_json_fields(self, traffic, protected_traffic):
        import json
        oracle = ConstantOracle.always_true(traffic)
        original = run(traffic, 50, oracle, seed=7)
        report = clone_divergence_report(protected_traffic, original, [88],
                                         50, 0.0, oracle, run_seed=7)
        payload = json.loads(report.to_json())
        assert set(payload) == {"trials", "stepsPerTrial", "noise",
                                "safetyViolations", "trialsDiverged",
                                "firstDivergenceStep", "fallbackRate",
                                "flaggedControlTrials"}


class TestRandomizedSearch:
    def test_safe_program_finds_nothing(self, traffic):
        assert random_safety_search(traffic, 10, 200, 1) is None

    def test_faulty_program_is_caught(self, faulty_traffic):
        hit = random_safety_search(faulty_traffic, 10, 200, 1)
        assert hit is not None

    def test_a_predicate_on_inputs_is_not_hit_before_the_first_step(self):
        # the initial entry has no inputs, so ``unsafe go`` cannot be
        # evaluated there and does not count as a hit
        program = parse_or_raise(GATED.format(unsafe="go"))
        hit = random_safety_search(program, 5, 10, 1)
        assert hit == (1, 1)
