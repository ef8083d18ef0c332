"""The model checker branches a state only on the monitored inputs its
step reads; these tests hold its reports against the eager checker,
which steps every state under the whole product of the inputs."""
import math
import random
from dataclasses import replace

import pytest
from click.testing import CliRunner

from casmkit.ast import CasmError, SetExpr
from casmkit.cli import main
from casmkit.parser import parse_or_raise
from casmkit.protect import ProtectedProgram, protect
from casmkit.puf import make_device
from casmkit.verify import exhaustive_safety_check

import reference_checker
from fuzzing import random_program
from rings import ring_source

FUZZ_SEED = 4242
FUZZ_PROGRAMS = 200

# In state St0 a step reads Gate, and Deep only when Gate holds; in St1 it
# reads Early, then Mid or Late by Early's value.  The unsafe successor is
# found at the fourth read combination of St1, after combinations that
# differ from it on Mid (Gate and Deep unread after it) and on Late.
NESTED = """\
asm nested
enum Mode = { St0, St1, St2 }
controlled mode : Mode init St0
controlled x : Bool init false
monitored Early : Bool
monitored Gate : Bool
monitored Mid : Bool
monitored Deep : Bool
monitored Late : Bool
ctlstate mode
unsafe x

rule r:
  if mode = St0 and Gate then
    if Deep then
      mode := St1
    endif
  endif

rule s:
  if mode = St1 then
    if Early then
      mode := St2
    else
      if Mid then
        if Late then
          x := true
        endif
      endif
    endif
  endif
"""

# Which sensor a step reads is the choose draw's.
DRAWN = """\
asm drawn
enum Mode = { Idle, Busy }
int Lane = 1..3
controlled mode : Mode init Idle
controlled hit : Lane -> Bool init { _: false }
monitored Spare : Bool
monitored Sensor : Lane -> Bool
ctlstate mode
unsafe hit(1) and hit(3)

rule pick:
  if mode = Idle then
    choose i in Lane do
      if Sensor(i) then
        hit(i) := true
      endif
    endchoose
  endif

rule busy:
  if mode = Idle and hit(2) then
    mode := Busy
  endif

rule idle:
  if mode = Busy and Spare then
    mode := Idle
  endif
"""

# ``unsafe`` reads an input no rule reads: Alarm by a constant location,
# Flag through the control state.
ALARMED = """\
asm alarmed
enum Mode = { Calm, Armed, Loud }
controlled mode : Mode init Calm
monitored Noise : Bool
monitored Trip : Bool
monitored Alarm : Bool
monitored Flag : Mode -> Bool
ctlstate mode
unsafe (mode = Armed and Alarm) or (mode = Loud and Flag(mode))

rule arm:
  if mode = Calm and Trip then
    mode := Armed
  endif

rule shout:
  if mode = Armed and Noise then
    mode := Loud
  endif
"""

UNSAFE_READS_FLAG = ALARMED.replace(
    "unsafe (mode = Armed and Alarm) or", "unsafe false or")


# Trigger leads to a choose whose candidate set is emptied below (the
# parser rejects an empty set), so the step fails under Trigger only.
EMPTY_CHOICE = """\
asm empty
enum Mode = { A, B }
enum Pick = { P1, P2 }
controlled mode : Mode init A
controlled last : Pick init P1
monitored Other : Bool
monitored Trigger : Bool
ctlstate mode
unsafe false

rule r:
  if mode = A and Trigger then
    choose c in { P1 } do
      last := c
    endchoose
  endif

rule s:
  if mode = A and Other then
    mode := B
  endif
"""

# Under Go the two rules write flag apart, so the step fails; without Go
# it reaches the unsafe state, and Go's first value is false.
FAILS_AFTER_UNSAFE = """\
asm late
enum Mode = { A, B }
controlled mode : Mode init A
controlled flag : Bool init false
monitored Go : Bool
ctlstate mode
unsafe flag

rule r:
  if mode = A then
    flag := true
  endif

rule s:
  if mode = A and Go then
    flag := false
  endif
"""

def report_or_error(check, subject, **kwargs):
    try:
        return check(subject, **kwargs).to_json()
    except CasmError as exc:
        return f"{type(exc).__name__}: {exc}"


def both_reports(subject, **kwargs):
    """This checker's report and the eager one's, or their errors.  The
    eager bound counts states times input valuations, so it is widened by
    the size of the input product to bound the same states."""
    program = subject.program if isinstance(subject, ProtectedProgram) \
        else subject
    inputs = math.prod(program.function(l[0]).result.size
                       for l in program.monitored_locations())
    return (report_or_error(exhaustive_safety_check, subject, **kwargs),
            report_or_error(reference_checker.exhaustive_safety_check,
                            subject, max_states=(1 << 20) * inputs,
                            **kwargs))


def test_fuzz_corpus_reports_equal_eager():
    rng = random.Random(FUZZ_SEED)
    checked = unsafe = 0
    for _ in range(FUZZ_PROGRAMS):
        got, want = both_reports(random_program(rng))
        assert got == want
        if got.startswith("{"):
            checked += 1
            unsafe += '"unsafeReachable": true' in got
    assert checked >= FUZZ_PROGRAMS // 2
    assert 0 < unsafe < checked


@pytest.mark.parametrize("source", [NESTED, DRAWN, ALARMED,
                                    UNSAFE_READS_FLAG],
                         ids=["nested", "drawn", "alarmed", "flag"])
def test_hand_written_reports_equal_eager(source):
    got, want = both_reports(parse_or_raise(source))
    assert got == want
    assert '"unsafeReachable": true' in got


def test_step_failing_under_some_inputs_fails_alike():
    program = parse_or_raise(EMPTY_CHOICE)
    rule = program.main_rules[0]
    cond = rule.body[0]
    choose = replace(cond.then_rules[0], candidates=SetExpr(values=()))
    rule = replace(rule, body=(replace(cond, then_rules=(choose,)),))
    program = replace(program, main_rules=(rule, *program.main_rules[1:]))
    got, want = both_reports(program)
    assert got == want == "EmptyChooseSet: empty candidate set at r#0"


def test_step_failing_after_an_unsafe_successor_reports_unsafe():
    # the failing input combination comes after the one that reaches the
    # unsafe state, so the search stops before it, as the eager one does
    got, want = both_reports(parse_or_raise(FAILS_AFTER_UNSAFE))
    assert got == want
    assert '"unsafeReachable": true' in got


def test_traffic_reports_equal_eager(traffic, faulty_traffic):
    for program in (traffic, faulty_traffic):
        got, want = both_reports(program)
        assert got == want


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("faulty", [False, True])
def test_ring_reports_equal_eager(n, faulty):
    got, want = both_reports(parse_or_raise(ring_source(n, faulty)))
    assert got == want


@pytest.fixture(scope="module")
def protected_rings(traffic):
    # module scope: set up before the oracle cross-check is switched on,
    # which would make protecting ring-5 and ring-6 take minutes
    out = {"traffic": protect(traffic, make_device(42, 16, 16))[0]}
    for n in (2, 3, 4, 5, 6):
        out[f"ring{n}"] = protect(parse_or_raise(ring_source(n)),
                                  make_device(42, 16, 16))[0]
    return out


@pytest.mark.parametrize("name", ["traffic", "ring2", "ring3", "ring4"])
@pytest.mark.parametrize("device_seed", [None, 42, 7, 999])
def test_protected_reports_equal_eager(protected_rings, name, device_seed):
    # None: the adversarial model; 42: the enrolled device; 7, 999: clones
    device = None if device_seed is None else make_device(device_seed, 16, 16)
    got, want = both_reports(protected_rings[name],
                             adversarial_puf=device is None, device=device)
    assert got == want
    assert '"unsafeReachable": false' in got


@pytest.mark.parametrize("n, states, transitions",
                         [(5, 21, 135680), (6, 25, 747520)])
def test_protected_ring5_and_ring6_counts(protected_rings, n, states,
                                          transitions):
    # the eager checker's figures, taken with its space bound lifted
    report = exhaustive_safety_check(protected_rings[f"ring{n}"],
                                     adversarial_puf=True)
    assert (report.explored_states, report.transition_count,
            report.unsafe_reachable) == (states, transitions, False)


@pytest.mark.parametrize("device_seed", [42, 7, 999])
def test_protected_ring5_device_reports_equal_eager(protected_rings,
                                                    device_seed):
    got, want = both_reports(protected_rings["ring5"],
                             device=make_device(device_seed, 16, 16))
    assert got == want


@pytest.mark.parametrize("n, device_seed, states, transitions", [
    (5, 42, 11, 11264), (5, 7, 21, 73216), (5, 999, 21, 73216),
    (6, 42, 13, 53248), (6, 7, 25, 399360), (6, 999, 25, 399360)])
def test_protected_ring5_and_ring6_device_counts(protected_rings, n,
                                                 device_seed, states,
                                                 transitions):
    # the eager checker's figures, taken with its space bound lifted; a
    # clone reaches every state of the adversarial model
    report = exhaustive_safety_check(protected_rings[f"ring{n}"],
                                     device=make_device(device_seed, 16, 16))
    assert (report.explored_states, report.transition_count,
            report.unsafe_reachable) == (states, transitions, False)


def test_state_bound_counts_states_not_input_valuations(traffic):
    # the traffic light has 64 states and 256 input valuations
    assert exhaustive_safety_check(traffic, max_states=64).explored_states \
        == exhaustive_safety_check(traffic).explored_states


class TestVerifyRing5Command:
    """Ring-5 was refused by a bound on states times input valuations."""

    def test_protected(self, protected_rings, tmp_path):
        protected_rings["ring5"].save(str(tmp_path / "p"))
        result = CliRunner().invoke(main, ["verify", str(tmp_path / "p")],
                                    catch_exceptions=False)
        assert result.exit_code == 0, result.output
        assert result.output == \
            "explored 21 states, 135680 transitions: safe\n"

    def test_exhaustive(self, tmp_path):
        (tmp_path / "ring5.casm").write_text(ring_source(5))
        result = CliRunner().invoke(
            main, ["verify", str(tmp_path / "ring5.casm"), "--exhaustive"],
            catch_exceptions=False)
        assert result.exit_code == 0, result.output
        assert result.output.endswith(": safe\n")
