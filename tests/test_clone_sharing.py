"""Noise-free clone trials whose devices decode the program's challenges
alike share one run, a noisy trial follows the run of its noise-free
twin unless a flip changes a site's result, and a noise-free run under
constant inputs, a noisy report's twin included, stops counting once it
has settled; these tests hold the shared reports against the reference
that steps every trial, count the runs and their steps, and check the
rule by which a noisy trial follows its twin."""
from dataclasses import replace

import pytest

from casmkit import protect as cprotect
from casmkit import verify as cverify
from casmkit.ast import Const
from casmkit.interp import (
    ConstantOracle, RandomOracle, ScriptedOracle, drive, run,
)
from casmkit.parser import parse_or_raise
from casmkit.programs import traffic_light_source
from casmkit.protect import ProtectedRunner, protect, run_protected
from casmkit.puf import make_device
from casmkit.verify import clone_divergence_report

import reference_runtime
from rings import ring_source

STEPS = 200
ENROLLED = 42
# the enrolled device, a duplicated seed, and clones
SEEDS = [ENROLLED, 1000, 1001, 1000] + [2000 + i for i in range(26)]

WANDER = """\
asm wander
enum Phase = { Shut, Open1, Open2 }
int Lane = 1..2
controlled phase : Phase init Shut
controlled GoLight : Lane -> Bool init { _: false }
monitored Passed : Phase -> Bool
ctlstate phase
unsafe GoLight(1) and GoLight(2)

rule open:
  if phase = Shut and Passed(phase) then
    choose l in Lane do
      if l = 1 then
        GoLight(1) := true
        phase := Open1
      else
        GoLight(2) := true
        phase := Open2
      endif
    endchoose
  endif

rule close:
  if phase in { Open1, Open2 } and Passed(phase) then
    GoLight(1) := false
    GoLight(2) := false
    phase := Shut
  endif
"""
"""A program that draws which lane opens: its runs are not interned."""

SOURCES = {"traffic": traffic_light_source(), "ring3": ring_source(3),
           "wander": WANDER}


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


def counted_runs(monkeypatch) -> list:
    """The arguments of each run the protected runtime starts from now
    on."""
    runs = []
    iter_run = cprotect.iter_run

    def counted(*args):
        runs.append(args)
        return iter_run(*args)

    monkeypatch.setattr(cprotect, "iter_run", counted)
    return runs


INPUTS = {"random:5": lambda program: RandomOracle(5),
          "always-true": ConstantOracle.always_true}


def run_lengths(monkeypatch) -> list:
    """The number of entries each run the protected runtime starts from
    now on yields.  A run its consumer drives on without entries
    (:func:`~casmkit.interp.drive`) is driven on, and yields no more."""
    lengths = []
    iter_run = cprotect.iter_run

    def measured(*args):
        lengths.append(0)
        run_index = len(lengths) - 1
        entries = iter_run(*args)
        for entry in entries:
            lengths[run_index] += 1
            watched = yield entry
            if watched is not None:
                drive(entries, watched)
                return

    monkeypatch.setattr(cprotect, "iter_run", measured)
    return lengths


def drives(monkeypatch) -> list:
    """The trials that follow as each drive of a settled twin's run
    starts, and as it ends, from now on."""
    calls = []
    driven = cverify.drive

    def recorded(entries, watched):
        before = set(watched)
        driven(entries, watched)
        calls.append((before, set(watched)))

    monkeypatch.setattr(cverify, "drive", recorded)
    return calls


def settle_calls(monkeypatch) -> list:
    """The steps left and the result of each settle check from now on."""
    calls = []
    settled = cverify._settled_fallbacks

    def recorded(*args):
        result = settled(*args)
        calls.append((args[-1], result))
        return result

    monkeypatch.setattr(cverify, "_settled_fallbacks", recorded)
    return calls


def both_reports(protected, program, seeds, steps, noise, runs=(),
                 inputs="random:5"):
    """The shared and the reference report under ``inputs``, and how
    many of ``runs`` the shared one started."""
    oracle = INPUTS[inputs](program)
    original = run(program, steps, oracle, 7)
    args = (protected, original, seeds, steps, noise, oracle, 7)
    got = clone_divergence_report(*args)
    started = len(runs)
    return got, reference_runtime.clone_divergence_report(*args), started


def device_keys(protected, seeds, noise=0.0):
    bits = protected.enrollment.response_bits
    return {protected.decider.device_key(make_device(s, 16, bits, noise),
                                         protected.challenges)
            for s in seeds}


@pytest.mark.parametrize("inputs", sorted(INPUTS))
@pytest.mark.parametrize("noise", [0.0, 0.05, 0.3])
@pytest.mark.parametrize("bits", [3, 4, 16])
@pytest.mark.parametrize("name", sorted(SOURCES))
def test_shared_report_equals_the_unshared_one(subjects, monkeypatch, name,
                                               bits, noise, inputs):
    protected, program = subjects[name, bits]
    runs = counted_runs(monkeypatch)
    got, want, started = both_reports(protected, program, SEEDS, STEPS,
                                      noise, runs, inputs)
    assert got.to_json() == want.to_json()
    # at 30% noise majority voting misreads some fingerprint probe of the
    # enrolled device
    assert got.flagged_control_trials == ([] if noise == 0.3 else [0])
    twins = len(device_keys(protected, SEEDS))
    if bits < 16:
        # clones decode some enrolled responses, so keys differ by device
        assert twins > 2
    if bits == 3:
        # and the trials of different keys diverge at different steps
        assert len(got.first_divergence_hist) > 1
    if not noise:
        assert started == twins
    else:
        # one run per twin, and one per trial that departs from its twin
        assert twins <= started <= twins + len(SEEDS)
    if (bits, noise) == (3, 0.3):
        # flipped responses often decode: some trial departs
        assert started > twins
    if (bits, noise) == (16, 0.05):
        # flipped responses almost never decode: some trial follows
        assert started < twins + len(SEEDS)


@pytest.mark.parametrize("noise", [0.0, 0.05])
def test_zero_steps(subjects, noise):
    protected, program = subjects["traffic", 16]
    got, want, _ = both_reports(protected, program, SEEDS, 0, noise)
    assert got.to_json() == want.to_json()
    assert got.fallback_rate == 0.0


def test_challenges_are_the_sites_of_the_enrollment(subjects):
    for protected, _ in subjects.values():
        assert protected.challenges == tuple(sorted(
            t.challenge for t in protected.enrollment.transitions))


def test_noisy_device_has_its_twins_key(subjects):
    protected, _ = subjects["traffic", 16]
    assert device_keys(protected, [1000], noise=0.05) == \
        device_keys(protected, [1000]) == {(None,) * 4}
    protected, _ = subjects["traffic", 3]
    for seed in SEEDS:
        assert device_keys(protected, [seed], noise=0.3) == \
            device_keys(protected, [seed])


def trace_of(protected, seed, noise, oracle, steps=50):
    bits = protected.enrollment.response_bits
    return [(e.state, e.events) for e in run_protected(
        protected, make_device(seed, 16, bits, noise), steps, oracle,
        7).entries]


def test_a_twin_steps_only_as_far_as_its_trials_follow(subjects,
                                                      monkeypatch):
    """At 3-bit responses and 30% noise every trial soon departs from its
    twin, so each twin's run stops at the entry where its last trial
    departs, and each trial runs in full."""
    protected, program = subjects["traffic", 3]
    lengths = run_lengths(monkeypatch)
    oracle = RandomOracle(5)
    clone_divergence_report(protected, run(program, 1000, oracle, 7), SEEDS,
                            1000, 0.3, oracle, 7)
    monkeypatch.undo()
    full = [n for n in lengths if n == 1001]
    assert len(full) == len(SEEDS)
    assert len(lengths) - len(full) == len(device_keys(protected, SEEDS))
    assert max(n for n in lengths if n != 1001) < 200
    # a trial departs at the first entry where its run differs from its
    # twin's; the twins run in the order their keys first appear
    departures: dict = {}
    for seed in SEEDS:
        pairs = zip(trace_of(protected, seed, 0.3, oracle, 1000),
                    trace_of(protected, seed, 0.0, oracle, 1000))
        step = next(k for k, (a, b) in enumerate(pairs) if a != b)
        key = protected.decider.device_key(make_device(seed, 16, 3),
                                           protected.challenges)
        departures.setdefault(key, []).append(step)
    assert [n for n in lengths if n != 1001] == \
        [1 + max(steps) for steps in departures.values()]


@pytest.mark.parametrize("noise", [0.0, 0.05])
def test_one_run_per_key(subjects, traffic, monkeypatch, noise):
    protected, _ = subjects["traffic", 16]
    seeds = [ENROLLED] + [1000 + i for i in range(99)]
    oracle = ConstantOracle.always_true(traffic)
    # a noisy trial departs from its twin where a flip changes a site's
    # result, so where its trace differs from the noise-free one
    departing = sum(trace_of(protected, s, noise, oracle)
                    != trace_of(protected, s, 0.0, oracle) for s in seeds)
    runs = counted_runs(monkeypatch)
    report = clone_divergence_report(
        protected, run(traffic, 50, oracle, 7), seeds, 50, noise, oracle, 7)
    assert report.trials == 100
    # the enrolled device, and every clone alike
    assert len(device_keys(protected, seeds)) == 2
    assert len(runs) == 2 + departing
    if noise:
        # the enrolled device binds, so a flip at any site departs
        assert 0 < departing < 100
    else:
        assert departing == 0


@pytest.mark.parametrize("noise", [0.05, 0.3])
@pytest.mark.parametrize("bits", [3, 16])
@pytest.mark.parametrize("name", ["ring3", "traffic"])
def test_noise_changes_a_site_only_where_its_rule_changes(subjects, name,
                                                          bits, noise):
    """Each site a run stages gives on a noisy device what it gives on
    the noise-free device of the same seed where the noise coin does not
    fire; where it fires, the two differ exactly when the flipped
    response changes the site's rule.  The enrolled device binds, so its
    flips change the rule; a clone's mostly fall back either way."""
    protected, _ = subjects[name, bits]
    decider = protected.decider
    fired = changed = 0
    for seed in (ENROLLED, 1000):
        twin = ProtectedRunner(protected, make_device(seed, 16, bits), 7)
        noisy = ProtectedRunner(
            protected, make_device(seed, 16, bits, noise), 7)
        sites = []
        stage = twin._stage

        def collecting(*site):
            sites.append(site)
            return stage(*site)

        twin._stage = collecting
        for _ in twin.iter_entries(STEPS, RandomOracle(5)):
            pass
        del twin._stage
        assert sites
        for site, challenge, post, current in sites:
            staged_twin = twin._stage(site, challenge, post, current)
            staged_noisy = noisy._stage(site, challenge, post, current)
            site_noise = noisy.device.flips_at(challenge, 7, site)
            safe = decider._safe(post)
            rule = decider._rule(twin.device.stable(challenge), safe, current)
            for k in range(501):
                flipped = reference_runtime.flip_at(site_noise, k)
                same = staged_noisy(k) == staged_twin(k)
                if flipped is None:
                    assert same
                else:
                    fired += 1
                    same_rule = decider._rule(flipped, safe, current) == rule
                    changed += not same_rule
                    assert same == same_rule
    assert 0 < changed < fired


CLONES = [1000 + i for i in range(10)]


def test_a_settled_trial_stops_stepping(subjects, traffic, monkeypatch):
    """Under always-true inputs the 16-bit clones share one noise-free
    run, which diverges at once and from then on walks safe states,
    falling back once a step.  The settle check, made once the run has
    diverged, stops it after a handful of entries, and the report is
    the reference's, which steps every trial in full."""
    protected, _ = subjects["traffic", 16]
    steps = 10_000
    oracle = ConstantOracle.always_true(traffic)
    original = run(traffic, steps, oracle, 7)
    args = (protected, original, CLONES, steps, 0.0, oracle, 7)
    want = reference_runtime.clone_divergence_report(*args)
    lengths = run_lengths(monkeypatch)
    calls = settle_calls(monkeypatch)
    got = clone_divergence_report(*args)
    assert got.to_json() == want.to_json()
    assert got.fallback_rate == 1.0 and got.safety_violations == 0
    (first_div,) = got.first_divergence_hist
    # one run, one check at its first divergence, and no step after it
    assert calls == [(steps - first_div, 1)]
    assert lengths == [first_div + 1] and first_div <= 3


def test_a_fault_in_the_settle_walk_propagates(subjects, traffic,
                                               monkeypatch):
    """The settle walk treats only what a step raises as a step it
    cannot take; any other error, here the site enumerator's, ends the
    report instead of letting the trial step on."""
    protected, _ = subjects["traffic", 16]
    oracle = ConstantOracle.always_true(traffic)
    original = run(traffic, STEPS, oracle, 7)

    def broken(self, device):
        def enumerate_site(*args):
            raise RuntimeError("broken enumerator")
        return enumerate_site

    monkeypatch.setattr(cprotect.SiteDecider, "enumerator", broken)
    with pytest.raises(RuntimeError, match="broken enumerator"):
        clone_divergence_report(protected, original, CLONES, STEPS, 0.0,
                                oracle, 7)


def refused_case(subjects, case):
    """The protected and plain program, trial seeds, noise and inputs of
    a report whose trials must not settle."""
    protected, program = subjects["wander" if case == "choose" else
                                  "traffic", 16]
    always = ConstantOracle.always_true(program)
    seeds, noise, oracle = CLONES, 0.0, always
    if case == "random inputs":
        oracle = RandomOracle(5)
    elif case == "scripted inputs":
        # constant values, but not a ConstantOracle
        oracle = ScriptedOracle([always.values] * (STEPS + 1))
    elif case == "undiverged":
        seeds = [ENROLLED, ENROLLED]
    return protected, program, seeds, noise, oracle


@pytest.mark.parametrize("case", ["random inputs", "scripted inputs",
                                  "choose", "undiverged"])
def test_the_settle_check_refuses(subjects, monkeypatch, case):
    """No settle check under inputs that are not a ConstantOracle, for a
    program that draws, or before a trial has diverged (the enrolled
    device never does): every run walks all its steps, and the report is
    the reference's."""
    protected, program, seeds, noise, oracle = refused_case(subjects, case)
    original = run(program, STEPS, oracle, 7)
    args = (protected, original, seeds, STEPS, noise, oracle, 7)
    want = reference_runtime.clone_divergence_report(*args)
    lengths = run_lengths(monkeypatch)
    calls = settle_calls(monkeypatch)
    got = clone_divergence_report(*args)
    assert got.to_json() == want.to_json()
    assert calls == []
    assert lengths and set(lengths) == {STEPS + 1}
    assert (got.trials_diverged == 0) == (case == "undiverged")


@pytest.mark.parametrize("noise", [0.05, 0.3])
@pytest.mark.parametrize("name", ["ring3", "traffic"])
def test_a_led_twin_settles_while_its_trials_follow(subjects, monkeypatch,
                                                    name, noise):
    """A noisy report's shared run is its noise-free twin's, so under
    always-true inputs it settles as a noise-free trial does: the 16-bit
    clones share one run, which makes one settle check, at its first
    divergence, and settles.  Its counts are then fixed: it yields no
    entry after its first divergence, and steps on without entries
    while a trial follows, drawing the trials' coins; the report is the
    reference's."""
    protected, program = subjects[name, 16]
    oracle = ConstantOracle.always_true(program)
    original = run(program, STEPS, oracle, 7)
    args = (protected, original, CLONES, STEPS, noise, oracle, 7)
    want = reference_runtime.clone_divergence_report(*args)
    (first_div,) = clone_divergence_report(
        protected, original, CLONES, STEPS, 0.0, oracle,
        7).first_divergence_hist
    lengths = run_lengths(monkeypatch)
    calls = settle_calls(monkeypatch)
    got = clone_divergence_report(*args)
    assert got.to_json() == want.to_json()
    assert len(device_keys(protected, CLONES)) == 1
    (left, rate), = calls
    assert left == STEPS - first_div and rate is not None
    # the led run yields entries only up to its first divergence, each
    # departed trial walks every entry, and some trial follows to the end
    assert lengths[0] == first_div + 1
    assert set(lengths[1:]) <= {STEPS + 1}
    assert 1 <= len(lengths) < 1 + len(CLONES)
    assert got.trials_diverged == len(CLONES)


@pytest.mark.parametrize("name", ["ring3", "traffic"])
def test_a_trial_departs_from_a_settled_twin(subjects, monkeypatch, name):
    """At 3-bit responses and 30% noise a trial may follow its twin past
    the twin's first divergence, where the twin settles, and depart while
    the twin's run is driven on without entries; the report is the
    reference's."""
    protected, program = subjects[name, 3]
    calls = drives(monkeypatch)
    got, want, _ = both_reports(protected, program, SEEDS, STEPS, 0.3,
                                inputs="always-true")
    assert got.to_json() == want.to_json()
    assert calls and all(before for before, _ in calls)
    assert any(after < before for before, after in calls)


class Departures(dict):
    """Following trials that note the order in which they depart."""

    def __init__(self, *args):
        super().__init__(*args)
        self.order = []

    def __delitem__(self, trial):
        self.order.append(trial)
        super().__delitem__(trial)


@pytest.mark.parametrize("inputs", sorted(INPUTS))
@pytest.mark.parametrize("bits", [3, 16])
@pytest.mark.parametrize("name", ["traffic", "wander"])
def test_a_driven_run_draws_as_its_entries_do(subjects, name, bits,
                                              inputs):
    """A run driven on without entries, from any entry, draws its
    followers' coins as the run that yields every entry does: the same
    trials depart, in the same order.  Its inputs may vary and its
    program may draw, which a settled twin's may not."""
    protected, program = subjects[name, bits]
    devices = {t: make_device(s, 16, bits, 0.05)
               for t, s in enumerate(SEEDS)}
    runner = ProtectedRunner(protected, make_device(1000, 16, bits), 7)
    walked = Departures(devices)
    for _ in runner.iter_entries(STEPS, INPUTS[inputs](program), walked):
        pass
    # some trial departs; at 16 bits most clones follow to the end
    assert walked.order and (bits == 3 or walked)
    for start in (0, 1, 17):
        driven = Departures(devices)
        entries = runner.iter_entries(STEPS, INPUTS[inputs](program), driven)
        for entry in entries:
            if entry.step == start:
                break
        drive(entries, driven)
        assert driven.order == walked.order, start


@pytest.mark.parametrize("inputs", sorted(INPUTS))
@pytest.mark.parametrize("bits", [3, 16])
@pytest.mark.parametrize("name", ["ring3", "traffic"])
def test_every_coin_fires(subjects, name, bits, inputs):
    """At noise 1.0 every coin fires at every step: a trial follows its
    twin only while its flips leave each site's rule alone."""
    protected, program = subjects[name, bits]
    got, want, _ = both_reports(protected, program, SEEDS, STEPS, 1.0,
                                inputs=inputs)
    assert got.to_json() == want.to_json()


@pytest.mark.parametrize("name", ["ring3", "traffic"])
def test_twenty_trials_follow_one_twin(subjects, monkeypatch, name):
    """The 16-bit clones share one twin, which settles and is driven on
    for all twenty of its trials; the report is the reference's."""
    protected, program = subjects[name, 16]
    seeds = [1000 + i for i in range(20)]
    assert len(device_keys(protected, seeds)) == 1
    calls = drives(monkeypatch)
    got, want, _ = both_reports(protected, program, seeds, STEPS, 0.05,
                                inputs="always-true")
    assert got.to_json() == want.to_json()
    ((before, after),) = calls
    assert len(before) == 20 and after


@pytest.mark.parametrize("inputs", sorted(INPUTS))
@pytest.mark.parametrize("noise", [0.0, 0.05])
def test_a_tampered_artifact_reaches_unsafe_states(subjects, monkeypatch,
                                                   noise, inputs):
    """With ``condx false`` no state is dangerous, so clones fall back
    into unsafe states: a settle check finds one and refuses, and the
    report counts every violation as the reference does."""
    protected, program = subjects["traffic", 16]
    tampered = replace(protected, safe_condition=replace(
        protected.safe_condition, cond_x=Const(False)))
    calls = settle_calls(monkeypatch)
    got, want, _ = both_reports(tampered, program, SEEDS, STEPS, noise,
                                inputs=inputs)
    assert got.to_json() == want.to_json()
    assert got.safety_violations > 0
    if inputs == "always-true":
        # noise-free trials, and a noisy report's twins, check and refuse
        assert calls and all(rate is None for _, rate in calls)
    else:
        assert calls == []
