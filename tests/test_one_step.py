"""One symbolic step decides the transitions, the sites and ``condx``.

The transition set is read off the paths of the step that ``condx``
comes from, so its pairs are exact: each is taken by a step from some
state the step ranges over, and every such step's pair is in it.
``reference_symexec.transitions_by_enumeration`` finds the pairs by
running one step from every such state, under every input and draw.
"""
import random

import pytest
from click.testing import CliRunner

import casmkit.cli as ccli
import casmkit.protect as cprotect
from casmkit.ast import CasmError
from casmkit.interp import RandomOracle
from casmkit.parser import parse_or_raise
from casmkit.programs import traffic_light_source
from casmkit.protect import compute_transition_set, protect
from casmkit.puf import make_device
from casmkit.verify import compare_target_traces, exhaustive_safety_check

from fuzzing import random_program
from reference_symexec import remove_checks, transitions_by_enumeration
from rings import ring_source
from test_site_agreement import FUZZ_PROGRAMS, FUZZ_SEED, SOURCES

PROGRAMS = {
    "traffic": traffic_light_source(),
    **{f"ring{n}": ring_source(n) for n in range(2, 7)},
    **{f"ring{n}_faulty": ring_source(n, faulty=True) for n in range(2, 7)},
    **SOURCES,
}

OVERAPPROX = """\
asm overapprox
enum Phase = { A, B, C }
controlled phase : Phase init A
controlled flag : Bool init false
monitored go : Bool
ctlstate phase
unsafe flag and phase = C

rule main:
  if phase in { A, B } and flag then
    if phase = A or not flag then
      phase := C
    endif
  endif

rule back:
  if phase = C then
    phase := A
  endif

rule setf:
  if phase in { A, B, C } and go then
    flag := not flag
  endif
"""
"""Each guard of ``main`` holds in B on its own, but not both at once:
no step writes C from B."""


@pytest.fixture()
def unchecked(monkeypatch):
    """The enumeration is the check here: the installed oracle checks
    would make extracting ring-5 and ring-6 take minutes."""
    remove_checks(monkeypatch)


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_pairs_are_the_enumerated_transitions(unchecked, name):
    program = parse_or_raise(PROGRAMS[name])
    assert set(compute_transition_set(program).pairs) \
        == transitions_by_enumeration(program)


def test_pairs_are_the_enumerated_transitions_on_fuzz_programs(unchecked):
    rng = random.Random(FUZZ_SEED)
    checked = 0
    for _ in range(FUZZ_PROGRAMS):
        program = random_program(rng)
        try:
            protect(program, make_device(42, 16, 16))
        except CasmError:
            continue
        assert set(compute_transition_set(program).pairs) \
            == transitions_by_enumeration(program), program.name
        checked += 1
    assert checked >= 5


def test_a_pair_no_step_takes_is_not_enrolled():
    program = parse_or_raise(OVERAPPROX)
    assert compute_transition_set(program).pairs == (("A", "C"), ("C", "A"))
    protected, enrollment = protect(program, make_device(7, 16, 16))
    assert {(t.source, t.target) for t in enrollment.transitions} \
        == {("A", "C"), ("C", "A")}
    report = exhaustive_safety_check(protected, adversarial_puf=True)
    assert report.unsafe_reachable is False


def test_the_enrolled_device_runs_without_the_pair():
    # OVERAPPROX itself reaches ``flag and phase = C`` (A -> C with go
    # false keeps the flag), and its condx marks C dangerous after every
    # step of ``main``, so that site falls back on every device.  With no
    # violation, every site must bind on the enrolled device.
    program = parse_or_raise(OVERAPPROX.replace(
        "unsafe flag and phase = C", "unsafe false"))
    protected, _ = protect(program, make_device(7, 16, 16))
    comparison = compare_target_traces(program, protected, 7, 60,
                                       RandomOracle(5), 1)
    assert comparison.equal, comparison
    assert comparison.fallback_count == 0


@pytest.fixture()
def step_calls(monkeypatch):
    """Calls of the symbolic step, through the name ``protect`` and the
    CLI each call it by."""
    calls = []
    for module in (cprotect, ccli):
        original = module.symbolic_step

        def counted(*args, _original=original, **kwargs):
            calls.append(args[0].name)
            return _original(*args, **kwargs)
        monkeypatch.setattr(module, "symbolic_step", counted)
    return calls


def test_protect_steps_once(step_calls, traffic):
    protect(traffic, make_device(42, 16, 16))
    assert step_calls == [traffic.name]


def test_symexec_steps_once(step_calls, tmp_path):
    path = tmp_path / "traffic.casm"
    path.write_text(traffic_light_source())
    result = CliRunner().invoke(ccli.main, ["symexec", str(path)],
                                catch_exceptions=False)
    assert result.exit_code == 0, result.output
    assert step_calls == ["traffic_light"]
