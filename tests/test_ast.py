import dataclasses
import importlib
import pkgutil

import pytest
from hypothesis import given, strategies as st

import casmkit
from casmkit.ast import (
    And, App, Call, Choose, ChooseCtl, Const, Eq, InconsistentUpdate, Ite,
    Let, Member, NamedRule, Not, Or, Par, Program, Rule, SetExpr, Sort,
    State, Term, Update, Var, check_updates, children, eval_term,
    format_location, locations_of_interest, rebuild, rebuild_rule,
    rule_parts, validate_program, Cond, FunctionDecl, make_init, BOOL,
)
from casmkit.parser import _RawIdent
from casmkit.symexec import SymRef, Symbol, s_rebuild


def phase_app():
    return App("phase", ())


class TestEvalTerm:
    def test_guard_equality_on_phase(self, traffic):
        state = traffic.initial_state()
        assert eval_term(Eq(phase_app(), Const("Stop1Stop2")), state) is True

    def test_not_false(self, traffic):
        assert eval_term(Not(Const(False)), traffic.initial_state()) is True

    def test_membership_against_truth_table_oracle(self, traffic):
        # every phase value against both guard sets, cross-checked with
        # plain Python set membership
        guard_sets = [("Stop1Stop2", "Go1Stop2"), ("Stop2Stop1", "Go2Stop1")]
        for value in traffic.ctl_values():
            state = traffic.initial_state()
            state.values[("phase", ())] = value
            for guard in guard_sets:
                expected = value in set(guard)
                got = eval_term(Member(phase_app(), tuple(guard)), state)
                assert got == expected
        state = traffic.initial_state()
        state.values[("phase", ())] = "Go1Stop2"
        assert eval_term(Member(phase_app(), ("Stop2Stop1", "Go2Stop1")),
                         state) is False

    def test_monitored_read(self, traffic):
        state = State(values=traffic.initial_state().values, monitored={
            loc: True for loc in traffic.monitored_locations()})
        assert eval_term(App("Passed", (Const("Stop1Stop2"),)), state) is True

    def test_repeated_evaluation_is_stable(self, traffic):
        state = traffic.initial_state()
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
