"""The transition set decides every challenge site of the rewrite.

Extraction walks each control write once and records its sources; the
rewrite binds the same writes to those recorded sites.  Named rules that
write the control state are inlined by both in the same way, and a
violation predicate that reads the control state is checked at the plain
sort it is evaluated at.
"""
import random

import pytest
from click.testing import CliRunner

from casmkit.ast import CasmError, ChooseCtl, iter_rules
from casmkit.cli import main
from casmkit.parser import parse_or_raise
from casmkit.programs import traffic_light_source
from casmkit.interp import RandomOracle
from casmkit.protect import compute_transition_set, load_protected, protect
from casmkit.puf import make_device
from casmkit.verify import compare_target_traces
from fuzzing import random_program
from rings import ring_source

HEADER = """\
enum Phase = { A, B, C }
controlled phase : Phase init A
controlled flag : Bool init false
monitored go : Bool
ctlstate phase
unsafe flag
"""

BACK = """
rule back:
  if phase = C then
    phase := A
  endif
"""

CALL_CHOOSE = "asm callchoose\n" + HEADER + """
rule step(q: Phase):
  if phase = q then
    phase := C
  endif
rule main:
  if phase in { A, B } and go then
    choose p in { A, B } do
      step(p)
    endchoose
  endif
""" + BACK
"""A helper called with a ``choose``-bound argument: its guard holds in
A and in B, so the write has both as sources."""

CALL_LET = "asm calllet\n" + HEADER + """
rule step(q: Phase):
  if phase = q then
    phase := C
  endif
rule main:
  if phase in { A, B } and go then
    choose p in { A, B } do
      let t = p in
        step(t)
      endlet
    endchoose
  endif
""" + BACK
"""The same call through a ``let`` that binds the drawn value."""

CALL_TWICE = "asm calltwice\n" + HEADER + """
rule move(q: Phase, r: Phase):
  if phase = q then
    phase := r
  endif
rule main:
  if phase in { A, B } then
    if go then
      move(A, B)
    else
      move(B, C)
    endif
  endif
""" + BACK
"""Two constant-argument calls of one helper: A -> B and B -> C."""

TO_B = """
rule tob:
  if phase = A then
    phase := B
  endif
"""

CALL_CAPTURE = "asm callcapture\n" + HEADER + """
rule step(q: Phase):
  choose p in { A } do
    if phase = q then
      phase := C
    endif
  endchoose
rule main:
  if phase in { A, B } and go then
    choose p in { B } do
      step(p)
    endchoose
  endif
""" + TO_B + BACK
"""The argument ``p`` names the caller's draw, B; inlining must not let
the helper's own ``p`` capture it."""

LET_SHADOW = "asm letshadow\n" + HEADER + """
rule main:
  if phase in { A, B } and go then
    choose p in { B } do
      let t = p in
        choose p in { A } do
          if phase = t then
            phase := C
          endif
        endchoose
      endlet
    endchoose
  endif
""" + TO_B + BACK
"""``t`` is the outer draw, B, inside an inner ``choose`` of the same
name."""

NAMED = {"callchoose": CALL_CHOOSE, "calllet": CALL_LET,
         "calltwice": CALL_TWICE, "callcapture": CALL_CAPTURE}
PAIRS = {
    "callchoose": {("A", "C"), ("B", "C"), ("C", "A")},
    "calllet": {("A", "C"), ("B", "C"), ("C", "A")},
    "calltwice": {("A", "B"), ("B", "C"), ("C", "A")},
    "callcapture": {("A", "B"), ("B", "C"), ("C", "A")},
    "letshadow": {("A", "B"), ("B", "C"), ("C", "A")},
}

CTL_UNSAFE = traffic_light_source().replace(
    "unsafe GoLight(1) and GoLight(2)",
    "unsafe GoLight(1) and GoLight(2) and phase = Go2Stop1")
"""The traffic light with a violation predicate that reads the control
state."""

SOURCES = {**NAMED, "letshadow": LET_SHADOW, "ctl_unsafe": CTL_UNSAFE}

FUZZ_SEED = 4242
FUZZ_PROGRAMS = 80


def invoke(*args):
    return CliRunner().invoke(main, list(args), catch_exceptions=False)


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_writes_under_binders_extract_their_sources(name):
    tset = compute_transition_set(parse_or_raise(SOURCES[name]))
    assert set(tset.pairs) == PAIRS[name]


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_protect_load_verify_compare(tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "prog.casm").write_text(SOURCES[name])
    result = invoke("protect", "prog.casm", "--device-seed", "7",
                    "--challenge-bits", "16", "--response-bits", "16",
                    "--out", "p")
    assert result.exit_code == 0, result.output
    # verify loads the artifact and checks it under the adversarial model
    result = invoke("verify", "p")
    assert result.exit_code == 0, result.output
    assert result.output.rstrip().endswith(": safe")
    result = invoke("compare", "p", "--target-seed", "7", "--trials", "3",
                    "--steps", "60", "--monitored", "random:5")
    assert result.exit_code == 0, result.output
    assert "target fallbacks: 0;" in result.output
    assert "0 safety violations" in result.output
    # decoded, the enrolled device's run is the original run
    comparison = compare_target_traces(
        parse_or_raise(SOURCES[name]), load_protected("p"), 7, 60,
        RandomOracle(5), 1)
    assert comparison.equal, comparison


@pytest.fixture(scope="module")
def corpus():
    """Programs with their transition sets and protect results.  Module
    scope: set up before the simplification cross-check is switched on,
    which would make protecting ring-5 and ring-6 take minutes."""
    programs = [("traffic", parse_or_raise(traffic_light_source()))]
    programs += [(f"ring{n}", parse_or_raise(ring_source(n)))
                 for n in range(2, 7)]
    programs += [(name, parse_or_raise(src)) for name, src in SOURCES.items()]
    rng = random.Random(FUZZ_SEED)
    fuzz = [(f"fuzz{i}", random_program(rng)) for i in range(FUZZ_PROGRAMS)]
    out = []
    for name, program in programs + fuzz:
        try:
            protected, enrollment = protect(program, make_device(42, 16, 16))
        except CasmError:
            assert name.startswith("fuzz"), name
            continue
        out.append((name, compute_transition_set(program), protected,
                    enrollment))
    return out


def test_corpus_covers_fuzz_programs(corpus):
    assert sum(name.startswith("fuzz") for name, *_ in corpus) >= 5


def test_rewritten_challenges_are_the_enrolled_ones(corpus):
    for name, tset, protected, enrollment in corpus:
        program = protected.program
        sites = {rule.challenge
                 for nr in program.main_rules + program.named_rules
                 for rule, _ in iter_rules(nr.body)
                 if isinstance(rule, ChooseCtl)}
        enrolled = {enrollment.challenge_for(i, j) for i, j in tset.pairs}
        assert sites == enrolled, name
