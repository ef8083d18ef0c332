import dataclasses
import importlib
import itertools
import pkgutil

import pytest
from hypothesis import given, strategies as st

import casmkit
from casmkit.ast import (
    And, App, Call, CasmError, Choose, ChooseCtl, Const, Eq, EvalError,
    InconsistentUpdate, Ite, Let, Member, NamedRule, Not, Or, Par, Program,
    Rule, SetExpr, Sort, Term, Update, Var, check_updates, children, compile_term,
    format_location, locations_of_interest, rebuild, rebuild_rule,
    rule_parts, validate_program, Cond, FunctionDecl, make_init, BOOL,
)
from casmkit.parser import _RawIdent, parse_or_raise
from casmkit.symexec import SymRef, Symbol, s_rebuild

from reference_walker import State, eval_term, initial_state


def phase_app():
    return App("phase", ())


class TestEvalTerm:
    def test_guard_equality_on_phase(self, traffic):
        state = initial_state(traffic)
        assert eval_term(Eq(phase_app(), Const("Stop1Stop2")), state) is True

    def test_not_false(self, traffic):
        assert eval_term(Not(Const(False)), initial_state(traffic)) is True

    def test_membership_against_truth_table_oracle(self, traffic):
        # every phase value against both guard sets, cross-checked with
        # plain Python set membership
        guard_sets = [("Stop1Stop2", "Go1Stop2"), ("Stop2Stop1", "Go2Stop1")]
        for value in traffic.ctl_values():
            state = initial_state(traffic)
            state.values[("phase", ())] = value
            for guard in guard_sets:
                expected = value in set(guard)
                got = eval_term(Member(phase_app(), tuple(guard)), state)
                assert got == expected
        state = initial_state(traffic)
        state.values[("phase", ())] = "Go1Stop2"
        assert eval_term(Member(phase_app(), ("Stop2Stop1", "Go2Stop1")),
                         state) is False

    def test_monitored_read(self, traffic):
        state = State(values=traffic.initial_values(), monitored={
            loc: True for loc in traffic.monitored_locations()})
        assert eval_term(App("Passed", (Const("Stop1Stop2"),)), state) is True

    def test_repeated_evaluation_is_stable(self, traffic):
        state = initial_state(traffic)
        term = And(Not(App("GoLight", (Const(1),))),
                   App("StopLight", (Const(2),)))
        assert eval_term(term, state) == eval_term(term, state)


def _concrete_kinds(base: type) -> set[type]:
    """Every subclass of ``base`` the package defines, all modules
    imported."""
    for info in pkgutil.walk_packages(casmkit.__path__, "casmkit."):
        importlib.import_module(info.name)
    kinds, stack = set(), [base]
    while stack:
        for sub in stack.pop().__subclasses__():
            if sub not in kinds and sub.__module__.startswith("casmkit."):
                kinds.add(sub)
                stack.append(sub)
    return kinds


def _concrete_term_kinds() -> set[type]:
    """Every ``Term`` subclass the package defines, all modules imported."""
    return _concrete_kinds(Term)


# one node of every kind, its children distinct variables; none of them
# folds under the smart constructors of ``symexec``
_A, _B, _C = Var("a"), Var("b"), Var("c")
TERM_SAMPLES = {
    Const: Const(1),
    Var: Var("v"),
    App: App("f", (_A, _B)),
    Not: Not(_A),
    And: And(_A, _B),
    Or: Or(_A, _B),
    Eq: Eq(_A, _B),
    Member: Member(_A, ("X", "Y")),
    Ite: Ite(_A, _B, _C),
    SymRef: SymRef(Symbol("alpha", BOOL)),
    _RawIdent: _RawIdent("name"),
}


def _term_fields(term: Term) -> list[Term]:
    """The terms held in ``term``'s fields, directly or in a tuple."""
    out = []
    for f in dataclasses.fields(term):
        value = getattr(term, f.name)
        values = value if isinstance(value, tuple) else (value,)
        out.extend(v for v in values if isinstance(v, Term))
    return out


class TestTermMap:
    """``children`` and ``rebuild`` are the one place that knows a node's
    children, so every node kind must be covered here."""

    def test_every_term_kind_has_a_sample(self):
        assert _concrete_term_kinds() == set(TERM_SAMPLES)

    @pytest.mark.parametrize("term", TERM_SAMPLES.values(),
                             ids=[k.__name__ for k in TERM_SAMPLES])
    def test_children_and_rebuild_cover_every_field(self, term):
        kids = children(term)
        assert [id(k) for k in kids] == [id(k) for k in _term_fields(term)]
        assert rebuild(term, kids) == term
        assert s_rebuild(term, kids) == term
        fresh = tuple(Var(f"k{i}") for i in range(len(kids)))
        assert children(rebuild(term, fresh)) == fresh


TERM_PROGRAM = """asm terms
enum E = {{ X, Y }}
{mode} f : E, E -> E{init}
controlled phase : E init X
ctlstate phase
unsafe false

rule main:
  if phase = X then
    phase := Y
  endif
"""
"""Declares the ``f`` of ``TERM_SAMPLES``; its mode is filled in."""

# node kinds of the symbolic engine and the parser: neither evaluator
# takes them
UNEVALUATED = {SymRef, _RawIdent}


class TestCompileTerm:
    """``compile_term`` against the reference ``eval_term`` on every term
    kind, with each variable unbound or bound to each of a few values."""

    @pytest.mark.parametrize("mode", ["controlled", "monitored"])
    @pytest.mark.parametrize("term", TERM_SAMPLES.values(),
                             ids=[k.__name__ for k in TERM_SAMPLES])
    def test_agrees_with_the_reference(self, term, mode):
        program = parse_or_raise(TERM_PROGRAM.format(
            mode=mode, init=" init { _: X }" if mode == "controlled" else ""))
        table = {("f", (a, b)): "X" if a == b else "Y"
                 for a in ("X", "Y") for b in ("X", "Y")}
        values, monitored = program.initial_values(), table
        if mode == "controlled":
            values, monitored = {**values, **table}, {}
        state = State(values=values, monitored=monitored)
        if type(term) in UNEVALUATED:
            with pytest.raises(CasmError, match="^cannot compile"):
                compile_term(program, term)
            with pytest.raises(EvalError, match="^cannot evaluate"):
                eval_term(term, state, {})
            return
        fn = compile_term(program, term)
        checked = 0
        for combo in itertools.product((None, True, False, "X", "Y", 1),
                                       repeat=4):
            env = {n: v for n, v in zip("abcv", combo) if v is not None}
            try:
                want = eval_term(term, state, env)
            except EvalError:
                with pytest.raises(KeyError):
                    fn(values, monitored, env)
                continue
            got = fn(values, monitored, env)
            assert (got, type(got)) == (want, type(want)), (term, env)
            checked += 1
        assert checked

    @pytest.mark.parametrize("mode", ["controlled", "monitored"])
    def test_ground_reads_agree_with_the_reference(self, mode):
        program = parse_or_raise(TERM_PROGRAM.format(
            mode=mode, init=" init { _: Y }" if mode == "controlled" else ""))
        values = program.initial_values()
        monitored = {loc: "Y" for loc in program.monitored_locations()}
        state = State(values=values, monitored=monitored)
        read = App("f", (Const("X"), Const("Y")))
        assert compile_term(program, read)(values, monitored, {}) == \
            eval_term(read, state) == "Y"
        outside = App("f", (Const("X"), Const(True)))
        with pytest.raises(EvalError):
            eval_term(outside, state)
        with pytest.raises(KeyError):
            compile_term(program, outside)(values, monitored, {})


# one rule of every kind, its terms distinct variables and every body
# non-empty, so each part is told apart by identity
_U, _W = Update("u", (), _A), Update("w", (), _B)
RULE_SAMPLES = {
    Update: Update("f", (_A, _B), _C),
    Cond: Cond(_A, (_U,), (_W,)),
    Par: Par((_U, _W)),
    Choose: Choose("v", SetExpr(("X", "Y")), (_U, _W)),
    Let: Let("v", _A, (_U,)),
    Call: Call("r", (_A, _B)),
    ChooseCtl: ChooseCtl(7),
}


def _rule_bodies(rule: Rule) -> list[tuple[Rule, ...]]:
    """The rule tuples held in ``rule``'s fields."""
    values = (getattr(rule, f.name) for f in dataclasses.fields(rule))
    return [v for v in values if isinstance(v, tuple) and v
            and all(isinstance(r, Rule) for r in v)]


class TestRuleMap:
    """``rule_parts`` and ``rebuild_rule`` are the one place that knows a
    rule's terms and bodies, so every rule kind must be covered here."""

    def test_every_rule_kind_has_a_sample(self):
        assert _concrete_kinds(Rule) == set(RULE_SAMPLES)

    @pytest.mark.parametrize("rule", RULE_SAMPLES.values(),
                             ids=[k.__name__ for k in RULE_SAMPLES])
    def test_parts_and_rebuild_cover_every_field(self, rule):
        terms, bodies = rule_parts(rule)
        assert [id(t) for t in terms] == [id(t) for t in _term_fields(rule)]
        assert [id(b) for b in bodies] == [id(b) for b in _rule_bodies(rule)]
        assert rebuild_rule(rule, terms, bodies) == rule
        fresh_terms = tuple(Var(f"k{i}") for i in range(len(terms)))
        fresh_bodies = tuple((Update(f"g{i}", (), _C),)
                             for i in range(len(bodies)))
        rebuilt = rebuild_rule(rule, list(fresh_terms),
                               [list(b) for b in fresh_bodies])
        assert rule_parts(rebuilt) == (fresh_terms, fresh_bodies)


class TestCheckUpdates:
    def test_conflicting_writes_rejected(self):
        updates = [(("phase", ()), "Go1Stop2"), (("phase", ()), "Stop2Stop1")]
        with pytest.raises(InconsistentUpdate) as exc:
            check_updates(updates)
        assert exc.value.location == ("phase", ())
        assert {exc.value.first, exc.value.second} == \
            {"Go1Stop2", "Stop2Stop1"}

    @given(st.lists(st.tuples(st.sampled_from(["a", "b", "c"]),
                              st.booleans()), max_size=8),
           st.randoms(use_true_random=False))
    def test_consistency_is_permutation_invariant(self, pairs, rnd):
        updates = [((name, ()), value) for name, value in pairs]
        shuffled = list(updates)
        rnd.shuffle(shuffled)

        def verdict(ups):
            try:
                check_updates(ups)
                return True
            except InconsistentUpdate:
                return False

        assert verdict(updates) == verdict(shuffled)


class TestLocationsOfInterest:
    def test_traffic_light_exact_set(self, traffic):
        got = {format_location(l) for l in locations_of_interest(traffic)}
        assert got == {
            "phase",
            "Passed(Stop1Stop2)", "Passed(Go1Stop2)",
            "Passed(Stop2Stop1)", "Passed(Go2Stop1)",
            "GoLight(1)", "GoLight(2)", "StopLight(1)", "StopLight(2)",
        }

    def test_no_reads_and_false_predicate(self):
        mode = Sort("Mode", "enum", ("Off",))
        program = Program(
            name="inert",
            sorts=(mode,),
            functions=(FunctionDecl("mode", (), mode, "controlled",
                                    make_init({(): "Off"})),),
            named_rules=(), main_rules=(),
            ctl_name="mode", unsafe=Const(False))
        assert locations_of_interest(program) == ()

    def test_duplicate_guards_listed_once(self, traffic):
        locs = locations_of_interest(traffic)
        assert len(locs) == len(set(locs))

    def test_deterministic_order(self, traffic):
        assert locations_of_interest(traffic) == \
            locations_of_interest(traffic)

    def test_ctl_location_first(self, traffic):
        assert locations_of_interest(traffic)[0] == ("phase", ())

    def test_parametric_read_is_rejected(self):
        from casmkit.ast import NonGroundGuardLocation, Update
        mode = Sort("Mode", "enum", ("A", "B"))
        col = Sort("Col", "enum", ("Red", "Green"))
        program = Program(
            name="parametric",
            sorts=(mode, col),
            functions=(
                FunctionDecl("mode", (), mode, "controlled",
                             make_init({(): "A"})),
                FunctionDecl("pick", (), col, "controlled",
                             make_init({(): "Red"})),
                FunctionDecl("seen", (col,), BOOL, "controlled",
                             make_init({(v,): False for v in col.values()})),
            ),
            named_rules=(),
            main_rules=(NamedRule("r", (), (
                # the argument is another location, not a constant or the
                # control state: no enclosing binder fixes it
                Cond(And(Eq(App("mode", ()), Const("A")),
                         App("seen", (App("pick", ()),))),
                     (Update("mode", (), Const("B")),)),)),),
            ctl_name="mode", unsafe=Const(False))
        import pytest as _pytest
        with _pytest.raises(NonGroundGuardLocation):
            locations_of_interest(program)


class TestValidation:
    def test_bundled_program_is_clean(self, traffic):
        assert validate_program(traffic) == []

    def test_ctl_update_must_be_constant(self, traffic):
        mode = Sort("Mode", "enum", ("A", "B"))
        program = Program(
            name="bad",
            sorts=(mode,),
            functions=(FunctionDecl("mode", (), mode, "controlled",
                                    make_init({(): "A"})),
                       FunctionDecl("pick", (), mode, "controlled",
                                    make_init({(): "B"})),),
            named_rules=(),
            main_rules=(NamedRule("r0", (), (
                Cond(Eq(App("mode", ()), Const("A")),
                     (Update("mode", (), App("pick", ())),)),)),),
            ctl_name="mode", unsafe=Const(False))
        codes = {c for c, _ in validate_program(program)}
        assert "E-CTL-CONST" in codes

    def test_guard_must_constrain_ctl(self):
        mode = Sort("Mode", "enum", ("A", "B"))
        program = Program(
            name="bad",
            sorts=(mode,),
            functions=(FunctionDecl("mode", (), mode, "controlled",
                                    make_init({(): "A"})),
                       FunctionDecl("go", (), BOOL, "controlled",
                                    make_init({(): False})),),
            named_rules=(),
            main_rules=(NamedRule("r0", (), (
                Cond(App("go", ()), (Update("mode", (), Const("B")),)),)),),
            ctl_name="mode", unsafe=Const(False))
        codes = {c for c, _ in validate_program(program)}
        assert "E-CTLSHAPE" in codes

    def test_accepted_shape_property(self, traffic):
        # every accepted top-level rule is one guarded conditional whose
        # guard pins the control state, and control updates are constants
        from casmkit.ast import iter_rules
        for nr in traffic.main_rules:
            assert len(nr.body) == 1 and isinstance(nr.body[0], Cond)
            for rule, _ in iter_rules(nr.body):
                if isinstance(rule, Update) and rule.fn == traffic.ctl_name:
                    assert isinstance(rule.rhs, Const)
