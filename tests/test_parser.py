import gc
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from casmkit.ast import App, Member, validate_program
from casmkit.parser import (
    ParseFailure, parse_or_raise, parse_program, pretty_print, tokenize,
)
from casmkit.programs import traffic_light_source
from casmkit.protect import protect
from casmkit.puf import make_device

from conftest import CONSTRAINED
from fuzzing import random_program
from reference_parser import reference_tokenize
from rings import ring_source


class TestParseTrafficLight:
    def test_bundled_source(self):
        result = parse_program(traffic_light_source(), "traffic_light.casm")
        assert result.ok, [d.render() for d in result.diagnostics]
        program = result.program
        assert len(program.main_rules) == 2
        assert program.ctl.result.literals == (
            "Stop1Stop2", "Go1Stop2", "Stop2Stop1", "Go2Stop1")
        assert program.ctl_name == "phase"
        assert len(program.init_constraints) == 2

    def test_empty_input(self):
        result = parse_program("")
        assert not result.ok
        d = result.diagnostics[0]
        assert d.code == "E-EMPTY"
        assert (d.span.line, d.span.column) == (1, 1)
        assert d.render("x.casm") == "x.casm:1:1: error[E-EMPTY]: empty input"

    def test_unknown_literal_in_update(self):
        src = traffic_light_source().replace("phase := Go1Stop2",
                                             "phase := Go1Go2")
        result = parse_program(src)
        assert not result.ok
        hits = [d for d in result.diagnostics if d.code == "E-UNKNOWN-LITERAL"]
        assert hits and "Go1Go2" in hits[0].message

    def test_missing_ctlstate(self):
        src = traffic_light_source().replace("ctlstate phase\n", "")
        result = parse_program(src)
        assert not result.ok
        assert any(d.code == "E-NO-CTL" for d in result.diagnostics)

    def test_missing_unsafe(self):
        src = traffic_light_source().replace(
            "unsafe GoLight(1) and GoLight(2)\n", "")
        result = parse_program(src)
        assert not result.ok
        assert any(d.code == "E-NO-UNSAFE" for d in result.diagnostics)

    def test_duplicate_rule_name(self):
        src = traffic_light_source().replace("rule lane2:", "rule lane1:")
        result = parse_program(src)
        assert not result.ok
        assert any(d.code == "E-DUP-DECL" for d in result.diagnostics)

    def test_repeated_enum_literal_is_reported_where_it_repeats(self):
        src = traffic_light_source().replace(
            "enum Phase = { Stop1Stop2,", "enum Phase = { Go1Stop2,", 1)
        assert src != traffic_light_source()
        result = parse_program(src)
        assert not result.ok
        hits = [d for d in result.diagnostics if d.code == "E-DUP-LITERAL"]
        assert [d.message for d in hits] == \
            ["literal Go1Stop2 repeated in enum Phase"]
        # at the second Go1Stop2 of the enum
        assert (hits[0].span.line, hits[0].span.column) == \
            _position(src, "Go1Stop2, Stop2Stop1")

    def test_uninitialized_controlled_function(self):
        src = traffic_light_source().replace(
            "controlled phase : Phase init Stop1Stop2",
            "controlled phase : Phase")
        result = parse_program(src)
        assert not result.ok
        assert any(d.code == "E-NOINIT" for d in result.diagnostics)


class TestInitialConstraints:
    def test_a_constraint_that_holds_initially_is_accepted(self):
        result = parse_program(
            CONSTRAINED.format(constraints="constraint phase = A\n"))
        assert result.ok, [d.render() for d in result.diagnostics]
        assert len(result.program.init_constraints) == 1

    def test_a_constraint_that_fails_initially_is_refused(self):
        result = parse_program(CONSTRAINED.format(
            constraints="constraint phase = A\nconstraint phase = B\n"))
        assert not result.ok
        assert [(d.code, d.message) for d in result.diagnostics] == [
            ("E-CONSTRAINT", "initial constraint does not hold initially")]


class TestRoundTrip:
    def test_traffic_light(self, traffic):
        printed = pretty_print(traffic)
        again = parse_or_raise(printed)
        assert again == traffic

    def test_nested_let_choose(self):
        src = """\
asm nesting
enum Mode = { Busy, Idle }
enum Col = { Red, Green }
controlled mode : Mode init Idle
controlled col : Col init Red
controlled lit : Bool init false
ctlstate mode
unsafe false

rule spin:
  if mode = Idle then
    let seen = (col in { Green }) in
      choose c in Col do
        col := c
        if seen then
          lit := not lit
        endif
      endchoose
    endlet
    mode := Busy
  endif
"""
        program = parse_or_raise(src)
        printed = pretty_print(program)
        assert parse_or_raise(printed) == program
        # indentation-normalized output is a fixpoint
        assert pretty_print(parse_or_raise(printed)) == printed

    def test_empty_membership(self):
        # the rewrite tests the control state against the encodings of
        # states that have none as membership in an empty set
        src = """\
asm empty
enum Mode = { St0, St1 }
controlled mode : Mode init St0
ctlstate mode
unsafe mode in { }

rule r0:
  if mode in { } then
    mode := St1
  endif
"""
        program = parse_or_raise(src)
        assert program.unsafe == Member(App("mode", ()), ())
        printed = pretty_print(program)
        assert "mode in {}" in printed
        assert parse_or_raise(printed) == program
        assert pretty_print(parse_or_raise(printed)) == printed

    def test_equal_programs_print_identically(self):
        # structural-equality oracle: field-by-field dataclass equality
        a = parse_or_raise(traffic_light_source())
        b = parse_or_raise(pretty_print(a))
        assert a == b
        assert pretty_print(a) == pretty_print(b)

    def test_rejection_is_stable(self):
        bad = "asm x\nenum E = { A }\nrule r:\n  borked := ???\n"
        first = parse_program(bad)
        second = parse_program(bad)
        assert not first.ok and not second.ok
        assert [d.code for d in first.diagnostics] == \
            [d.code for d in second.diagnostics]

    def test_parse_or_raise_reports_diagnostics(self):
        with pytest.raises(ParseFailure) as exc:
            parse_or_raise("asm x\n")
        assert exc.value.diagnostics


def _position(text, needle):
    """1-based line and column of the first occurrence of ``needle``."""
    at = text.index(needle)
    return text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at)


class TestSourceSpans:
    @pytest.mark.parametrize("old, new, name, code", [
        ("phase := Go1Stop2", "phase := Go1Go2", "Go1Go2",
         "E-UNKNOWN-LITERAL"),
        ("Passed(phase) then", "Pased(phase) then", "Pased",
         "E-UNKNOWN-IDENT"),
    ])
    def test_unknown_identifier_keeps_its_position(self, old, new, name,
                                                   code):
        src = traffic_light_source().replace(old, new, 1)
        hits = [d for d in parse_program(src).diagnostics if d.code == code]
        assert len(hits) == 1
        assert (hits[0].span.line, hits[0].span.column) == \
            _position(src, name)

    @pytest.mark.parametrize("old, new, code, message", [
        ("GoLight(1) := not GoLight(1)", "GoLite(1) := not GoLight(1)",
         "E-UNKNOWN-IDENT", "update to unknown function GoLite"),
        ("phase := Go2Stop1", "Passed(Go2Stop1)", "E-SYNTAX",
         "Passed is a function, not a rule"),
    ])
    def test_a_statement_diagnostic_points_at_the_statement(
            self, old, new, code, message):
        src = traffic_light_source().replace(old, new, 1)
        hits = [d for d in parse_program(src).diagnostics if d.code == code]
        assert [d.message for d in hits] == [message]
        assert (hits[0].span.line, hits[0].span.column) == \
            _position(src, new) != (1, 1)

    def test_repeated_parses_keep_memory_flat(self):
        text = ("asm tiny\n"
                "enum Mode = { A, B }\n"
                "controlled mode : Mode init A\n"
                "monitored go : Bool\n"
                "ctlstate mode\n"
                "unsafe mode = B and go and not go\n"
                "rule r:\n"
                "  if mode = A and go and (go or mode = B) then\n"
                "    mode := B\n"
                "  endif\n")
        assert parse_program(text).ok
        tracemalloc.start()
        try:
            parse_program(text)
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(500):
                parse_program(text)
            gc.collect()
            growth = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert growth < 64 * 1024


class TestFuzz:
    def test_seeded_program_round_trip(self):
        rng = random.Random(20240801)
        for i in range(150):
            program = random_program(rng)
            assert validate_program(program) == [], (i, program.name)
            printed = pretty_print(program)
            result = parse_program(printed)
            assert result.ok, (i, printed,
                               [d.render() for d in result.diagnostics])
            assert result.program == program, (i, printed)

    def test_random_token_streams_never_crash(self):
        vocabulary = [
            "asm", "enum", "rule", "if", "then", "else", "endif", "par",
            "endpar", "choose", "let", "in", "do", "not", "and", "or",
            "ctlstate", "unsafe", "init", "controlled", "monitored",
            "{", "}", "(", ")", ",", ":", "=", ":=", "->", "..", "x", "A",
            "Mode", "true", "false", "0", "7", "->", "!=",
        ]
        rng = random.Random(99)
        for _ in range(400):
            text = " ".join(rng.choice(vocabulary)
                            for _ in range(rng.randint(1, 40)))
            result = parse_program(text)
            # acceptance implies validation
            if result.ok:
                assert validate_program(result.program) == []


def _only_diagnostic(text):
    result = parse_program(text)
    assert not result.ok
    assert len(result.diagnostics) == 1, \
        [d.render() for d in result.diagnostics]
    return result.diagnostics[0].render("p.casm")


class TestNumberLiterals:
    @pytest.mark.parametrize("digit", ["\u00b2", "\u0663"],
                             ids=["superscript-two", "arabic-indic-three"])
    def test_non_ascii_digit_is_an_unexpected_character(self, digit):
        # U+00B2 once reached int() and raised; U+0663 was read as 3
        assert _only_diagnostic(f"asm p\nint N = 0 .. {digit}\n") == \
            f"p.casm:2:14: error[E-SYNTAX]: unexpected character {digit!r}"

    @pytest.mark.parametrize("template, position", [
        ("asm p\nint N = 0..{}\n", "2:12"),
        ("asm p\nint N = -{}..0\n", "2:9"),
        ("asm p\nenum S = {{ A }}\nenc S {{ A: [{}] }}\n", "3:13"),
        ("asm p\nrule r:\n  challenge {}\n", "3:13"),
        ("asm p\nrule r:\n  x := {}\n", "3:8"),
    ], ids=["upper-bound", "lower-bound", "response", "challenge", "term"])
    def test_over_long_number_is_a_syntax_error(self, template, position):
        text = template.format("9" * 5000)
        assert _only_diagnostic(text) == (
            f"p.casm:{position}: error[E-SYNTAX]: "
            "number literal too long (5000 digits)")

    def test_longest_convertible_number_still_parses(self):
        # the bound converts, so parsing goes on to the missing rules
        text = "asm p\nint N = 0..{}\n".format("9" * 4300)
        assert _only_diagnostic(text) == \
            "p.casm:3:1: error[E-SYNTAX]: expected at least one rule"


class TestEndOfInput:
    def test_after_one_character_punctuation(self):
        assert _only_diagnostic("asm p\nenum S = {") == \
            "p.casm:2:11: error[E-SYNTAX]: expected literal, found end of input"

    def test_before_a_trailing_comment(self):
        assert _only_diagnostic("asm p\nenum S = { // open") == \
            "p.casm:2:12: error[E-SYNTAX]: expected literal, found end of input"


# pieces that exercise every scanner rule, its two-character punctuation,
# whitespace it skips or refuses, and characters outside ASCII
_PIECES = [
    "//", "->", "..", "!=", ":=", "-", "=", ":", "{", "}", "(", ")", "[",
    "]", ",", ".", "!", "/", " ", "\t", "\r", "\n", "\x0c", "\u00e9",
    "\u00b2", "\u0663", "\uff17", "0", "7", "42", "x", "Q_1", "_", "asm",
    "rule", "in", "enc", "challenge", "endif",
]
_texts = st.one_of(st.lists(st.sampled_from(_PIECES), max_size=60).map("".join),
                   st.text(max_size=60))


class TestScannerAgainstReference:
    @settings(max_examples=400)
    @given(_texts)
    def test_tokens_and_diagnostics_match_the_reference(self, text):
        tokens, diags = tokenize(text)
        ref_tokens, ref_diags = reference_tokenize(text)
        assert [(t.type, t.value, t.line, t.column) for t in tokens] == \
            [(t.type, t.value, t.line, t.column) for t in ref_tokens]
        assert [d.render() for d in diags] == [d.render() for d in ref_diags]

    def test_protected_artifact_matches_the_reference(self):
        protected, _ = protect(parse_or_raise(traffic_light_source()),
                               make_device(42, 16, 16))
        text = protected.source_text()
        assert tokenize(text) == reference_tokenize(text)

    @settings(max_examples=400)
    @given(_texts)
    def test_parse_never_raises(self, text):
        result = parse_program(text)
        assert result.ok == (result.program is not None)


def _ring2(*edits, tail=""):
    """Ring-2 with each ``(old, new)`` edit made once, and ``tail``
    appended."""
    text = ring_source(2)
    for old, new in edits:
        assert old in text, old
        text = text.replace(old, new, 1)
    return text + tail


_RING2_UNSAFE = "unsafe (GoLight(1) and GoLight(2))\n"
_RING2_CONSTRAINTS = ("constraint GoLight(1) = not StopLight(1)\n"
                      "constraint GoLight(2) = not StopLight(2)\n")


class TestResolutionOrder:
    """Which diagnostic a file with several faults reports: a syntax
    error wins; otherwise the first unresolved name in the order
    ``unsafe``, constraints, ``condx``, helper rules, main rules, each in
    token order, with an update's target before its arguments."""

    def test_a_syntax_error_wins_over_an_earlier_unknown_identifier(self):
        text = _ring2(("phase := G1", "phase := Nope"),
                      ("phase := G2", "phase := := G2"))
        assert [d.render("p.casm") for d in parse_program(text).diagnostics] \
            == ["p.casm:30:16: error[E-SYNTAX]: expected a term, found :="]

    def test_a_helper_rule_is_resolved_before_the_main_rules(self):
        text = _ring2(("phase := G1", "phase := Nope"),
                      tail="\nrule reset():\n  GoLight(1) := Bad\n")
        assert _only_diagnostic(text) == (
            "p.casm:37:17: error[E-UNKNOWN-LITERAL]: "
            "unknown literal or identifier Bad")

    def test_unsafe_is_resolved_before_an_earlier_constraint(self):
        text = _ring2(
            (_RING2_UNSAFE, ""),
            (_RING2_CONSTRAINTS,
             "constraint GoLight(1) = not StopLite(1)\n"
             "unsafe (GoLite(1) and GoLight(2))\n"))
        assert _only_diagnostic(text) == \
            "p.casm:11:9: error[E-UNKNOWN-IDENT]: unknown function GoLite"

    def test_an_update_target_is_resolved_before_its_value(self):
        text = _ring2(("StopLight(1) := not StopLight(1)",
                       "StopLite(1) := Nope"))
        assert _only_diagnostic(text) == (
            "p.casm:16:5: error[E-UNKNOWN-IDENT]: "
            "update to unknown function StopLite")

    def test_formulas_may_read_functions_declared_after_them(self):
        first = "asm ring2\n"
        moved = _ring2((_RING2_UNSAFE, ""), (_RING2_CONSTRAINTS, ""),
                       (first, first + _RING2_UNSAFE + _RING2_CONSTRAINTS))
        assert moved.index("unsafe") < moved.index("enum")
        assert parse_or_raise(moved) == parse_or_raise(ring_source(2))

    def test_condx_may_read_functions_and_literals_declared_after_it(self):
        protected, _ = protect(parse_or_raise(ring_source(2)),
                               make_device(42, 16, 16))
        text = protected.source_text()
        lines = text.splitlines(keepends=True)
        formulas = [ln for ln in lines
                    if ln.startswith(("unsafe ", "constraint ", "condx "))]
        assert len(formulas) == 4
        at = next(i for i, ln in enumerate(lines) if ln.startswith("asm "))
        rest = [ln for ln in lines if ln not in formulas]
        moved = "".join(rest[:at + 1] + formulas + rest[at + 1:])
        assert moved.index("condx") < moved.index("enum")
        want, got = parse_program(text), parse_program(moved)
        assert got.ok, [d.render() for d in got.diagnostics]
        assert (got.program, got.extras) == (want.program, want.extras)

    def test_a_literal_declared_later_outranks_a_function(self):
        text = _ring2((_RING2_UNSAFE, ""),
                      ("enum Phase", "controlled a : Bool init false\n"
                       "unsafe a\nenum Q = { a }\nenum Phase"))
        assert _only_diagnostic(text) == \
            "p.casm:1:1: error[E-SORT]: violation predicate must be boolean"

    def test_a_call_may_name_a_rule_defined_after_it(self):
        call = ("    StopLight(1) := not StopLight(1)\n", "    Passed(phase)\n")
        assert _only_diagnostic(_ring2(call)) == \
            "p.casm:16:5: error[E-SYNTAX]: Passed is a function, not a rule"
        helper = "\nrule Passed(p : Phase):\n  GoLight(1) := false\n"
        result = parse_program(_ring2(call, tail=helper))
        assert result.ok and result.program.name == "ring2"
