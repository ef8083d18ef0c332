"""Noise-free clone trials whose devices decode the program's challenges
alike share one run; these tests hold the shared reports against the
reference that steps every trial, and count the runs."""
import pytest

from casmkit import protect as cprotect
from casmkit.interp import ConstantOracle, RandomOracle, run
from casmkit.parser import parse_or_raise
from casmkit.programs import traffic_light_source
from casmkit.protect import protect
from casmkit.puf import make_device
from casmkit.verify import clone_divergence_report

import reference_runtime
from rings import ring_source

STEPS = 200
ENROLLED = 42
# the enrolled device, a duplicated seed, and clones
SEEDS = [ENROLLED, 1000, 1001, 1000] + [2000 + i for i in range(26)]
SOURCES = {"traffic": traffic_light_source(), "ring3": ring_source(3)}


@pytest.fixture(scope="module")
def subjects():
    """(protected program, plain program) per source and response width;
    set up once, before the oracle cross-check is switched on."""
    out = {}
    for name, source in SOURCES.items():
        program = parse_or_raise(source)
        for bits in (3, 4, 16):
            protected, _ = protect(program, make_device(ENROLLED, 16, bits))
            out[name, bits] = protected, program
    return out


def both_reports(protected, program, seeds, steps, noise):
    oracle = RandomOracle(5)
    original = run(program, steps, oracle, 7)
    args = (protected, original, seeds, steps, noise, oracle, 7)
    return (clone_divergence_report(*args),
            reference_runtime.clone_divergence_report(*args))


def device_keys(protected, seeds, noise=0.0):
    bits = protected.enrollment.response_bits
    return {protected.decider.device_key(make_device(s, 16, bits, noise),
                                         protected.challenges)
            for s in seeds}


@pytest.mark.parametrize("noise", [0.0, 0.05])
@pytest.mark.parametrize("bits", [3, 4, 16])
@pytest.mark.parametrize("name", sorted(SOURCES))
def test_shared_report_equals_the_unshared_one(subjects, name, bits, noise):
    protected, program = subjects[name, bits]
    got, want = both_reports(protected, program, SEEDS, STEPS, noise)
    assert got.to_json() == want.to_json()
    assert got.flagged_control_trials == [0]
    if bits < 16:
        # clones decode some enrolled responses, so keys differ by device
        assert len(device_keys(protected, SEEDS)) > 2
    if bits == 3:
        # and the trials of different keys diverge at different steps
        assert len(got.first_divergence_hist) > 1


@pytest.mark.parametrize("noise", [0.0, 0.05])
def test_zero_steps(subjects, noise):
    protected, program = subjects["traffic", 16]
    got, want = both_reports(protected, program, SEEDS, 0, noise)
    assert got.to_json() == want.to_json()
    assert got.fallback_rate == 0.0


def test_challenges_are_the_sites_of_the_enrollment(subjects):
    for protected, _ in subjects.values():
        assert protected.challenges == tuple(sorted(
            t.challenge for t in protected.enrollment.transitions))


def test_noisy_device_has_no_key(subjects):
    protected, _ = subjects["traffic", 16]
    assert device_keys(protected, [1000], noise=0.05) == {None}
    assert device_keys(protected, [1000, 1001]) == {(None,) * 4}


@pytest.mark.parametrize("noise", [0.0, 0.05])
def test_one_run_per_key(subjects, traffic, monkeypatch, noise):
    protected, _ = subjects["traffic", 16]
    runs = []
    iter_run = cprotect.iter_run

    def counted(*args):
        runs.append(args)
        return iter_run(*args)

    monkeypatch.setattr(cprotect, "iter_run", counted)
    seeds = [ENROLLED] + [1000 + i for i in range(99)]
    oracle = ConstantOracle.always_true(traffic)
    report = clone_divergence_report(
        protected, run(traffic, 50, oracle, 7), seeds, 50, noise, oracle, 7)
    assert report.trials == 100
    if noise:
        assert len(runs) == 100
    else:
        # the enrolled device, and every clone alike
        assert len(runs) == len(device_keys(protected, seeds)) == 2
