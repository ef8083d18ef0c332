"""The model checker's successor enumeration re-runs the compiled step;
these tests hold it against the reference walker, call by call and over
whole reachability reports."""
import random

import pytest

import casmkit.interp as cinterp
import casmkit.verify as cverify
from casmkit.ast import CasmError, Choose, InconsistentUpdate, iter_rules
from casmkit.interp import enumerate_step_outcomes
from casmkit.parser import parse_or_raise
from casmkit.protect import protect
from casmkit.puf import make_device
from casmkit.verify import exhaustive_safety_check

import reference_walker
from fuzzing import random_program, with_second_challenge
from rings import ring_source

FUZZ_SEED = 4242
FUZZ_PROGRAMS = 200


def walker_updates(cp, values, monitored, ctl_enum=None):
    return [o.updates for o in reference_walker.enumerate_step_outcomes(
        cp.program, values, monitored, ctl_enum)]


def checked_updates(cp, values, monitored, ctl_enum=None):
    """The engine's outcomes, asserted equal to the walker's in order;
    a step one of them rejects must be rejected alike by the other."""
    try:
        expected = walker_updates(cp, values, monitored, ctl_enum)
    except CasmError as exc:
        with pytest.raises(type(exc)):
            enumerate_step_outcomes(cp, values, monitored, ctl_enum)
        raise
    try:
        got = enumerate_step_outcomes(cp, values, monitored, ctl_enum)
    except CasmError as exc:
        pytest.fail(f"the engine rejects a step the walker takes: {exc}")
    assert got == expected
    return got


def has_choose(program):
    return any(isinstance(r, Choose) for nr in program.main_rules
               for r, _ in iter_rules(nr.body))


def fuzz_corpus():
    rng = random.Random(FUZZ_SEED)
    return [random_program(rng) for _ in range(FUZZ_PROGRAMS)]


def report_or_error(subject):
    try:
        return exhaustive_safety_check(subject).to_json()
    except CasmError as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.fixture(scope="module")
def protected_programs(traffic):
    out = {"traffic": protect(traffic, make_device(42, 16, 16))[0]}
    for n in (2, 3):
        out[f"ring{n}"] = protect(parse_or_raise(ring_source(n)),
                                  make_device(42, 16, 16))[0]
    return out


def test_corpus_has_programs_with_and_without_choose():
    kinds = {has_choose(p) for p in fuzz_corpus()}
    assert kinds == {False, True}


def test_fuzz_outcomes_match_walker(monkeypatch):
    monkeypatch.setattr(cverify, "enumerate_step_outcomes", checked_updates)
    checked = 0
    for program in fuzz_corpus():
        try:
            exhaustive_safety_check(program)
        except CasmError:
            continue
        checked += 1
    assert checked >= FUZZ_PROGRAMS // 2


@pytest.mark.parametrize("name", ["traffic", "ring2", "ring3"])
@pytest.mark.parametrize("device_seed", [None, 42])
def test_protected_outcomes_match_walker(monkeypatch, protected_programs,
                                         name, device_seed):
    # None: every response and fallback draw; 42: the enrolled device.
    # A clone's fallback draw is keyed by the site id, which the walker
    # numbers its own way, so clones are covered by the first case.
    protected = protected_programs[name]
    device = None if device_seed is None else make_device(device_seed, 16, 16)
    monkeypatch.setattr(cverify, "enumerate_step_outcomes", checked_updates)
    report = exhaustive_safety_check(protected,
                                     adversarial_puf=device is None,
                                     device=device)
    assert report.unsafe_reachable is False


def test_reports_equal_walker_reports(monkeypatch, traffic, faulty_traffic):
    subjects = [traffic, faulty_traffic, *fuzz_corpus()]
    subjects += [parse_or_raise(ring_source(n, faulty))
                 for n in (2, 3) for faulty in (False, True)]
    engine = [report_or_error(s) for s in subjects]
    monkeypatch.setattr(cverify, "enumerate_step_outcomes", walker_updates)
    walker = [report_or_error(s) for s in subjects]
    assert engine == walker
    assert any('"unsafeReachable": true' in r for r in engine)


def test_two_staged_sites_match_walker(monkeypatch, protected_programs):
    # traffic, ring-2 and ring-3 resolve one site a step; beside a second
    # challenge each step that reaches a site stages two, and the checker
    # takes the product of their outcome lists.  Two challenges write
    # the control state apart, so both engines stop at the same conflict.
    subject = with_second_challenge(protected_programs["traffic"])
    staged = []
    stage = cinterp._Step._stage

    def counting(self, ctl_enum):
        staged.append(len(self.sites))
        return stage(self, ctl_enum)
    monkeypatch.setattr(cinterp._Step, "_stage", counting)

    def stop(enumerate_outcomes):
        monkeypatch.setattr(cverify, "enumerate_step_outcomes",
                            enumerate_outcomes)
        with pytest.raises(InconsistentUpdate) as caught:
            exhaustive_safety_check(subject, adversarial_puf=True)
        return str(caught.value)

    stop(checked_updates)
    assert 2 in staged
    assert stop(enumerate_step_outcomes) == stop(walker_updates)
