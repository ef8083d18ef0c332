"""``FormulaCache.leaves`` is the one walk over a formula's leaves: it
serves feasibility, symbol elimination and ``free_symbols_in``.  These
tests hold it to the recursive reference walk ``free_symbols``, also on
terms that feasibility refuses (a free variable, a non-ground location),
and pin the two refusals and an elimination over a free variable."""
import random

import pytest

from casmkit.ast import (
    BOOL, And, App, CasmError, Const, Eq, Ite, Not, TRUE, Var, children,
)
from casmkit.symexec import (
    SymRef, Symbol, _cache, _elim, analysis, elim_symbol, free_symbols_in,
    satisfiable,
)

from fuzzing import formula_symbols, random_formula
from reference_symexec import free_symbols


def subterms(term):
    yield term
    for c in children(term):
        yield from subterms(c)


def with_var(rng, f):
    """``f`` with a conjunct, disjunct or condition that reads ``x``."""
    x = Eq(Var("x"), Const(rng.random() < 0.5))
    return rng.choice([And(f, x), And(x, f), Ite(x, f, Not(f)), Var("x")])


def with_location(rng, f, symbols):
    """``f`` next to a location whose argument reads a symbol."""
    a = SymRef(rng.choice(symbols))
    loc = App("f", (a,) if rng.random() < 0.5 else (Ite(f, a, a),))
    return And(Eq(loc, Const(True)), f)


def fuzz_terms(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        symbols = formula_symbols(rng)
        f = random_formula(rng, symbols, depth=4)
        yield f, symbols
        yield with_var(rng, f), symbols
        yield with_location(rng, f, symbols), symbols


def test_free_symbols_in_agrees_with_the_reference_walk():
    for f, _ in fuzz_terms(11, 300):
        assert free_symbols_in(f) == free_symbols(f), f


def test_mention_test_agrees_with_the_reference_walk():
    with analysis():
        leaves = _cache().leaves
        for f, symbols in fuzz_terms(12, 150):
            for t in subterms(f):
                for s in symbols:
                    assert (SymRef(s) in leaves(t)) == (s in free_symbols(t))


def test_elimination_keeps_a_formula_that_does_not_mention_the_symbol():
    for f, symbols in fuzz_terms(13, 200):
        for s in symbols:
            if s not in free_symbols(f):
                assert _elim(f, s) is f


def test_non_ground_location_mentions_its_argument_symbols():
    a, b = Symbol("a", BOOL), Symbol("b", BOOL)
    loc = App("f", (SymRef(a),))
    assert free_symbols_in(loc) == {a}
    assert free_symbols_in(Eq(loc, SymRef(b))) == {a, b}
    # the location reads a: eliminating a expands the formula
    assert _elim(Eq(loc, TRUE), a) != Eq(loc, TRUE)


def test_free_variable_is_refused_by_feasibility():
    with pytest.raises(CasmError) as info:
        satisfiable(Eq(Var("x"), Const(True)))
    assert str(info.value) == "free variable x; substitute it first"


def test_non_ground_location_is_refused_by_feasibility():
    a = Symbol("a", BOOL)
    with pytest.raises(CasmError) as info:
        satisfiable(Eq(App("f", (SymRef(a),)), Const(True)))
    assert str(info.value) == "formula reads a non-ground location"


def test_elimination_over_a_free_variable():
    a = Symbol("a", BOOL)
    f = And(Eq(SymRef(a), TRUE), Eq(Var("x"), TRUE))
    assert elim_symbol(f, a) == Var("x")
