import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from casmkit.ast import (
    BOOL, And, App, Const, Eq, Ite, Member, Not, Or, Sort, TRUE, FALSE,
    and_all, or_all, term_size,
)
from casmkit.symexec import (
    DomainTooLarge, SymInit, SymRef, Symbol, UnhousedSymbol, elim_symbol,
    free_symbols_in, merge_successors, simplify_formula, subst_term,
    substitute_initial_terms, symbolic_step,
)

from fuzzing import formula_symbols, random_formula
from reference_runtime import step
from reference_symexec import (
    equivalent_on_finite_domains, eval_fd, subst_eager,
)
from reference_walker import initial_state

PHASE = ("phase", ())
PHASES = ("Stop1Stop2", "Go1Stop2", "Stop2Stop1", "Go2Stop1")


@pytest.fixture(scope="module")
def analysis(traffic):
    init = SymInit.for_program(traffic)
    paths = symbolic_step(traffic, init, ctl_abstraction=True)
    return init, paths


def sym(init, loc):
    return init.sym_val[loc]


def passed_at_phase(init):
    """Ground transcription of reading the passage sensor at the current
    (symbolic) phase: a conditional cascade over the four phase values."""
    alpha = sym(init, PHASE)
    expr = sym(init, ("Passed", (PHASES[3],)))
    for p in reversed(PHASES[:-1]):
        expr = Ite(Eq(alpha, Const(p)), sym(init, ("Passed", (p,))), expr)
    return expr


def published_path_conditions(init):
    """The four path conditions of the worked example, transcribed over
    this analysis' symbols (the passage-sensor read is ground-expanded)."""
    alpha = sym(init, PHASE)
    beta = passed_at_phase(init)
    g1 = And(Or(Eq(alpha, Const("Stop1Stop2")), Eq(alpha, Const("Go1Stop2"))),
             beta)
    g2 = And(Or(Eq(alpha, Const("Stop2Stop1")), Eq(alpha, Const("Go2Stop1"))),
             beta)
    return [
        And(g1, Eq(alpha, Const("Stop1Stop2"))),
        And(g1, Not(Eq(alpha, Const("Stop1Stop2")))),
        And(g2, Eq(alpha, Const("Stop2Stop1"))),
        And(g2, Not(Eq(alpha, Const("Stop2Stop1")))),
    ]


def published_successor_maps(init):
    zeta = sym(init, ("StopLight", (1,)))
    eta = sym(init, ("StopLight", (2,)))
    base = dict(init.sym_val)
    first = dict(base)
    first[("StopLight", (1,))] = Not(zeta)
    first[("GoLight", (1,))] = zeta
    second = dict(base)
    second[("StopLight", (2,))] = Not(eta)
    second[("GoLight", (2,))] = eta
    return [first, first, second, second]


class TestSymbolicStep:
    def test_exactly_four_transition_paths(self, analysis):
        _, paths = analysis
        non_stutter = [p for p in paths if not p.stutter]
        stutter = [p for p in paths if p.stutter]
        assert len(non_stutter) == 4
        assert len(stutter) == 1

    def test_path_conditions_match_published_ones(self, traffic, analysis):
        init, paths = analysis
        expected = published_path_conditions(init)
        got = [p.path_cond for p in paths if not p.stutter]
        for mine, ref in zip(got, expected):
            ok, witness = equivalent_on_finite_domains(mine, ref, traffic)
            assert ok, (witness, mine, ref)

    def test_successor_maps_match_published_ones(self, traffic, analysis):
        init, paths = analysis
        non_stutter = [p for p in paths if not p.stutter]
        expected = published_successor_maps(init)
        next_symbols = {p.loc_map[PHASE] for p in non_stutter}
        assert len(next_symbols) == 1  # one shared fresh control symbol
        for p, ref in zip(non_stutter, expected):
            for loc, ref_expr in ref.items():
                if loc == PHASE:
                    continue
                ok, witness = equivalent_on_finite_domains(
                    p.loc_map[loc], ref_expr, traffic)
                assert ok, (loc, witness)

    def test_monitored_and_untouched_locations_stay_symbolic(self, analysis):
        init, paths = analysis
        for p in paths:
            for phase_value in PHASES:
                loc = ("Passed", (phase_value,))
                assert p.loc_map[loc] == init.sym_val[loc]

    def test_false_guard_gives_single_stutter_path(self):
        from casmkit.parser import parse_or_raise
        program = parse_or_raise("""\
asm inert
enum Mode = { Off, On }
controlled mode : Mode init Off
ctlstate mode
unsafe false

rule never:
  if mode = Off and mode = On then
    mode := On
  endif
""")
        paths = symbolic_step(program)
        assert len(paths) == 1
        assert paths[0].stutter
        assert paths[0].path_cond == TRUE

    def test_mutually_exclusive_guards_prune_joint_branch(self, analysis):
        # feasibility oracle: both lane guards cannot hold at once, so
        # 5 paths remain out of the 9 naive combinations
        _, paths = analysis
        assert len(paths) == 5

    def test_path_exhaustiveness(self, traffic, analysis):
        _, paths = analysis
        total = or_all([p.path_cond for p in paths])
        ok, witness = equivalent_on_finite_domains(total, TRUE, traffic)
        assert ok, witness

    def test_path_disjointness(self, traffic, analysis):
        from casmkit.symexec import satisfiable
        _, paths = analysis
        for a, b in itertools.combinations(paths, 2):
            assert not satisfiable(And(a.path_cond, b.path_cond), traffic)

    def test_concretization_soundness(self, traffic):
        # every concrete state takes exactly one path, and that path's
        # successor map evaluates to the concrete step's result
        init = SymInit.for_program(traffic, constraints=())
        paths = symbolic_step(traffic, init, ctl_abstraction=False)
        interest = list(init.sym_val)
        controlled = [l for l in interest
                      if traffic.function(l[0]).mode != "monitored"]
        monitored = [l for l in interest
                     if traffic.function(l[0]).mode == "monitored"]
        domains = [traffic.function(l[0]).result.values() for l in interest]
        checked = 0
        for combo in itertools.product(*domains):
            concrete = dict(zip(interest, combo))
            valuation = {init.sym_val[l]: v for l, v in concrete.items()}
            taken = [p for p in paths if eval_fd(p.path_cond, valuation)]
            assert len(taken) == 1
            state = initial_state(traffic)
            state.values.update({l: concrete[l] for l in controlled})
            result = step(traffic, state,
                          {l: concrete[l] for l in monitored})
            for loc in controlled:
                assert eval_fd(taken[0].loc_map[loc], valuation) == \
                    result.state.values[loc]
            checked += 1
        assert checked == 4 * 16 * 16


class TestMergeSuccessors:
    def test_grouping_of_transition_paths(self, traffic, analysis):
        init, paths = analysis
        merged = merge_successors(paths)
        groups = [m for m in merged if not m.stutter]
        assert len(groups) == 2
        assert groups[0].merged_from == (0, 1)
        assert groups[1].merged_from == (2, 3)
        alpha = sym(init, PHASE)
        beta = passed_at_phase(init)
        expected = [
            And(Or(Eq(alpha, Const("Stop1Stop2")),
                   Eq(alpha, Const("Go1Stop2"))), beta),
            And(Or(Eq(alpha, Const("Stop2Stop1")),
                   Eq(alpha, Const("Go2Stop1"))), beta),
        ]
        for group, ref in zip(groups, expected):
            ok, witness = equivalent_on_finite_domains(group.path_cond, ref,
                                                       traffic)
            assert ok, witness

    def test_merge_preserves_union_of_behaviors(self, traffic, analysis):
        _, paths = analysis
        merged = merge_successors(paths)
        before = or_all([p.path_cond for p in paths])
        after = or_all([m.path_cond for m in merged])
        ok, witness = equivalent_on_finite_domains(before, after, traffic)
        assert ok, witness
        keys = [frozenset(m.loc_map.items()) for m in merged]
        assert len(keys) == len(set(keys))

    def test_singleton_unchanged(self, analysis):
        _, paths = analysis
        one = [paths[0]]
        merged = merge_successors(one)
        assert len(merged) == 1
        assert merged[0].loc_map == paths[0].loc_map

    def test_tautology_merge(self):
        from casmkit.symexec import PathedSymState
        phi = SymRef(Symbol("b", BOOL))
        locmap = {("f", ()): Const(True)}
        merged = merge_successors([
            PathedSymState(phi, dict(locmap), frozenset([("f", ())])),
            PathedSymState(Not(phi), dict(locmap), frozenset([("f", ())])),
        ])
        assert len(merged) == 1
        assert merged[0].path_cond == TRUE


class TestSimplify:
    def test_published_grouping_simplification(self):
        enum = Sort("Phase", "enum", PHASES)
        alpha = SymRef(Symbol("alpha", enum))
        beta = SymRef(Symbol("beta", BOOL))
        f = Or(And(And(Eq(alpha, Const("Stop1Stop2")), beta),
                   Eq(alpha, Const("Stop1Stop2"))),
               And(Eq(alpha, Const("Go1Stop2")), beta))
        g = simplify_formula(f)
        expected = And(Member(alpha, ("Stop1Stop2", "Go1Stop2")), beta)
        ok, witness = equivalent_on_finite_domains(g, expected)
        assert ok, witness
        assert term_size(g) <= term_size(f)

    def test_conjunction_with_true(self):
        b = SymRef(Symbol("b", BOOL))
        assert simplify_formula(And(b, TRUE)) == b

    def test_sort_exhaustive_membership(self):
        enum = Sort("Phase", "enum", PHASES)
        alpha = SymRef(Symbol("alpha", enum))
        assert simplify_formula(Member(alpha, PHASES)) == TRUE

    def test_complement_laws(self):
        b = SymRef(Symbol("b", BOOL))
        assert simplify_formula(And(b, Not(b))) == FALSE
        assert simplify_formula(Or(b, Not(b))) == TRUE

    def test_fuzzed_equivalence_and_size(self):
        rng = random.Random(424242)
        for i in range(250):
            symbols = formula_symbols(rng)
            f = random_formula(rng, symbols)
            g = simplify_formula(f)
            ok, witness = equivalent_on_finite_domains(f, g)
            assert ok, (i, witness)
            assert term_size(g) <= term_size(f)


class TestSubstitution:
    @settings(max_examples=400, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_short_circuit_equals_eager(self, rng):
        # symbols mapped to constants, to other symbols, or left alone,
        # and now and then a whole subformula mapped to a constant
        symbols = formula_symbols(rng)
        f = random_formula(rng, symbols)
        refs = [SymRef(s) for s in symbols]
        mapping = {}
        for s in symbols:
            roll = rng.random()
            if roll < 0.6:
                mapping[SymRef(s)] = Const(rng.choice(s.sort.values()))
            elif roll < 0.8:
                mapping[SymRef(s)] = rng.choice(
                    [r for r in refs if r.symbol.sort == s.sort])
        if rng.random() < 0.3:
            inner = random_formula(rng, symbols, depth=2)
            mapping[inner] = Const(rng.random() < 0.5)
        want = subst_eager(f, mapping)
        assert repr(subst_term(f, mapping)) == repr(want)


class TestElimination:
    def test_monitored_symbol_vanishes_from_grouped_condition(self):
        enum = Sort("Phase", "enum", PHASES)
        alpha = SymRef(Symbol("alpha", enum))
        beta_sym = Symbol("beta", BOOL)
        f = And(Or(Eq(alpha, Const("Stop1Stop2")),
                   Eq(alpha, Const("Go1Stop2"))), SymRef(beta_sym))
        g = elim_symbol(f, beta_sym)
        expected = Member(alpha, ("Stop1Stop2", "Go1Stop2"))
        ok, witness = equivalent_on_finite_domains(g, expected)
        assert ok, witness
        assert beta_sym not in free_symbols_in(g)

    def test_formula_without_symbol(self):
        b = Symbol("b", BOOL)
        other = SymRef(Symbol("c", BOOL))
        assert elim_symbol(And(other, TRUE), b) == other

    def test_contradiction_eliminates_to_false(self):
        b = Symbol("b", BOOL)
        assert elim_symbol(And(SymRef(b), Not(SymRef(b))), b) == FALSE

    def test_existential_semantics(self):
        rng = random.Random(7)
        for _ in range(60):
            symbols = formula_symbols(rng)
            f = random_formula(rng, symbols, depth=4)
            target = rng.choice(symbols)
            g = elim_symbol(f, target)
            assert target not in free_symbols_in(g)
            from casmkit.symexec import subst_symbol
            witnessed = or_all([subst_symbol(f, target, Const(v))
                                for v in target.sort.values()])
            ok, witness = equivalent_on_finite_domains(g, witnessed)
            assert ok, witness


class TestSubstituteInitialTerms:
    def test_control_symbol_becomes_location(self, traffic, analysis):
        init, _ = analysis
        alpha = init.sym_val[PHASE]
        f = Or(Eq(alpha, Const("Stop1Stop2")), Eq(alpha, Const("Go1Stop2")))
        out = substitute_initial_terms(f, init)
        expected = Or(Eq(App("phase", ()), Const("Stop1Stop2")),
                      Eq(App("phase", ()), Const("Go1Stop2")))
        assert out == expected

    def test_direct_inversion(self, analysis):
        init, _ = analysis
        zeta = init.sym_val[("StopLight", (1,))]
        assert substitute_initial_terms(zeta, init) == \
            App("StopLight", (Const(1),))

    def test_negated_image_prefers_exact_match(self, traffic, analysis):
        init, _ = analysis
        zeta = init.sym_val[("StopLight", (1,))]
        out = substitute_initial_terms(Not(zeta), init)
        assert out == App("GoLight", (Const(1),))
        # both readings agree wherever the declared constraints hold
        alt = Not(App("StopLight", (Const(1),)))
        constraint = and_all(traffic.init_constraints)
        ok, witness = equivalent_on_finite_domains(out, alt, traffic,
                                                   assume=constraint)
        assert ok, witness

    def test_unhoused_symbol(self, analysis):
        init, _ = analysis
        stray = Symbol("stray", BOOL)
        with pytest.raises(UnhousedSymbol):
            substitute_initial_terms(SymRef(stray), init)


class TestEquivalenceOracle:
    def test_published_equivalence(self, traffic, analysis):
        init, paths = analysis
        non_stutter = [p.path_cond for p in paths if not p.stutter]
        expected = published_path_conditions(init)
        merged_ab = Or(non_stutter[0], non_stutter[1])
        ref = Or(expected[0], expected[1])
        ok, _ = equivalent_on_finite_domains(merged_ab, ref, traffic)
        assert ok

    def test_witness_on_inequivalence(self):
        enum = Sort("Phase", "enum", PHASES)
        alpha = SymRef(Symbol("alpha", enum))
        ok, witness = equivalent_on_finite_domains(
            Eq(alpha, Const("Stop1Stop2")), Eq(alpha, Const("Go1Stop2")))
        assert not ok
        assert witness[alpha] in ("Stop1Stop2", "Go1Stop2")
        # the witness valuation indeed distinguishes them
        assert eval_fd(Eq(alpha, Const("Stop1Stop2")), witness) != \
            eval_fd(Eq(alpha, Const("Go1Stop2")), witness)

    def test_domain_cap(self):
        syms = [SymRef(Symbol(f"b{i}", BOOL)) for i in range(25)]
        f = and_all(syms)
        with pytest.raises(DomainTooLarge):
            equivalent_on_finite_domains(f, f)
