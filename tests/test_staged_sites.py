"""A step stages each challenge site once; a memoized step then repeats
only the staged site's draws: the fallback word and, on a noisy device,
the noise coin.  These tests hold staged runs byte for byte to the
per-step reference chain (``reference_runtime.protected_run``), which
decides every site term by term at its step."""
import json
import random

import pytest

from casmkit import protect as cprotect
from casmkit.ast import CasmError
from casmkit.interp import ConstantOracle, RandomOracle, ScriptedOracle
from casmkit.parser import parse_or_raise
from casmkit.programs import traffic_light_source
from casmkit.protect import (
    BOUND_OK, FALLBACK_TAKEN, SAFE_STALL, ProtectedRunner, protect,
    run_protected,
)
from casmkit.puf import PufDevice, make_device

import reference_runtime
from fuzzing import random_program, with_second_challenge
from rings import ring_source

STEPS = 120
# the reference decides a ring-4 or ring-5 site in milliseconds: these
# run shorter, and ring-5 on random inputs only
SHORT = {"ring4": 24, "ring5": 24}
SEED = 5
ENROLLED, CLONE = 42, 999
NOISES = (0.0, 0.05, 0.3, 1.0)
INPUTS = ("always-true", "random", "scripted")
SITE_TAGS = (BOUND_OK, FALLBACK_TAKEN, SAFE_STALL)
FUZZ_SEED = 1717
FUZZ_PROGRAMS = 5


@pytest.fixture(scope="module")
def subjects():
    """Protected programs by name; set up once, before the oracle
    cross-check is switched on."""
    out = {}
    traffic = parse_or_raise(traffic_light_source())
    for bits in (3, 16):
        out[f"traffic/{bits}"] = protect(
            traffic, make_device(ENROLLED, 16, bits))[0]
    for n in range(2, 6):
        out[f"ring{n}"] = protect(parse_or_raise(ring_source(n)),
                                  make_device(ENROLLED, 16, 16))[0]
    rng = random.Random(FUZZ_SEED)
    fuzz = 0
    while fuzz < FUZZ_PROGRAMS:
        try:
            protected, _ = protect(random_program(rng),
                                   make_device(ENROLLED, 16, 16))
        except CasmError:
            continue
        if len(protected.challenges) > 1:
            out[f"fuzz{fuzz}"] = with_second_challenge(protected)
            fuzz += 1
    return out


def make_inputs(kind, program, seed):
    if kind == "always-true":
        return ConstantOracle.always_true(program)
    if kind == "random":
        return RandomOracle(seed)
    rnd = random.Random(seed)
    domains = [(loc, program.function(loc[0]).result.values())
               for loc in program.monitored_locations()]
    return ScriptedOracle([{loc: rnd.choice(values) for loc, values in domains}
                           for _ in range(STEPS)])


def jsonl(entries):
    """A run's entries as JSONL, then the error that stopped it, if any."""
    lines = []
    try:
        for entry in entries:
            lines.append(entry.to_json())
    except CasmError as exc:
        lines.append(f"{type(exc).__name__}: {exc}")
    return "\n".join(lines) + "\n"


def device(protected, seed, noise):
    enrollment = protected.enrollment
    return make_device(seed, enrollment.challenge_bits,
                       enrollment.response_bits, noise)


def site_tags(text):
    """The site tags of each step of a JSONL run."""
    return [[t for t in json.loads(line)["events"] if t in SITE_TAGS]
            for line in text.splitlines() if line.startswith("{")]


@pytest.mark.parametrize("kind", INPUTS)
@pytest.mark.parametrize("noise", NOISES)
def test_staged_runs_equal_the_reference_chain(subjects, noise, kind):
    runs = {}
    for name, protected in subjects.items():
        if name == "ring5" and kind != "random":
            continue
        steps = SHORT.get(name, STEPS)
        for seed in (ENROLLED, CLONE):
            oracle = make_inputs(kind, protected.program, seed)
            want = jsonl(reference_runtime.protected_run(
                protected, device(protected, seed, noise), steps, oracle,
                SEED))
            runner = ProtectedRunner(protected, device(protected, seed, noise),
                                     SEED)
            got = jsonl(runner.iter_entries(steps, oracle))
            assert got == want, (name, seed)
            if want.count("\n") == steps + 1:
                assert run_protected(
                    protected, device(protected, seed, noise), steps, oracle,
                    SEED).to_jsonl() == want, (name, seed)
            runs[name, seed] = want

    # what the runs exercise
    clone_tags = [t for tags in site_tags(runs["traffic/16", CLONE])
                  for t in tags]
    assert clone_tags and set(clone_tags) == {FALLBACK_TAKEN}
    narrow = {t for tags in site_tags(runs["traffic/3", CLONE])
              for t in tags}
    if noise >= 0.3:
        # at 3 bits a flipped response often decodes
        assert BOUND_OK in narrow
    two = [tags for (name, _), text in runs.items() if name.startswith("fuzz")
           for tags in site_tags(text) if len(tags) == 2]
    assert two, "no step resolved two challenges"


def test_one_site_at_one_step_is_the_reference_decision(subjects):
    """``ProtectedRunner._resolver`` stages one site and resolves it at
    one step, as the reference decides it there."""
    rnd = random.Random(3)
    protected = subjects["traffic/3"]
    program = protected.program
    states = [e.state for e in run_protected(
        protected, device(protected, CLONE, 0.3), 60,
        RandomOracle(1), SEED).entries]
    ctl_loc = (program.ctl_name, ())
    for noise in NOISES:
        runner = ProtectedRunner(protected, device(protected, CLONE, noise),
                                 SEED)
        reference = reference_runtime.make_ctl_resolver(
            protected, device(protected, CLONE, noise), SEED)
        for _ in range(200):
            post = rnd.choice(states)
            challenge = rnd.choice(protected.challenges)
            step = rnd.randrange(10_000)
            site = rnd.choice(["main#0", "r1#2"])
            args = (site, challenge, post, post[ctl_loc])
            assert runner._resolver(step, *args) == \
                reference(*args)(step), (noise, step, site)


@pytest.mark.parametrize("kind", ["always-true", "random"])
def test_a_site_draws_are_made_once_per_run(subjects, monkeypatch, kind):
    """A noisy run stages some sites at many steps; the fallback word and
    the noise of a site are made once per (site, challenge) and serve
    every step staged there."""
    protected = subjects["traffic/16"]
    words, flips = [], []
    step_words = cprotect.step_words
    flips_at = PufDevice.flips_at

    def counted_words(prefix, site, *rest):
        words.append(site)
        return step_words(prefix, site, *rest)

    def counted_flips(self, challenge, seed, site):
        flips.append((site, challenge))
        return flips_at(self, challenge, seed, site)

    monkeypatch.setattr(cprotect, "step_words", counted_words)
    monkeypatch.setattr(PufDevice, "flips_at", counted_flips)
    runner = ProtectedRunner(protected, device(protected, CLONE, 0.05), SEED)
    staged = []
    stage = runner._stage

    def collecting(site, challenge, *rest):
        staged.append((site, challenge))
        return stage(site, challenge, *rest)

    runner._stage = collecting
    for _ in runner.iter_entries(2000, make_inputs(kind, protected.program,
                                                   3)):
        pass
    sites = set(staged)
    assert len(staged) > len(sites)
    assert sorted(flips) == sorted(sites)
    assert sorted(words) == sorted(site for site, _ in sites)
