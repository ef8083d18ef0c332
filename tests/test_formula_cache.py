"""One ``FormulaCache`` per analysis: ``protect`` shares its memos among
every simplification and feasibility query it makes, gives the answers a
fresh cache would, and keeps nothing once it returns."""
import gc
import random
import re
import tracemalloc

import pytest

import casmkit.symexec as csymexec
from casmkit.ast import BOOL, CasmError, Const, Eq, Ite
from casmkit.parser import parse_or_raise
from casmkit.protect import (
    compute_transition_set, derive_safe_condition, protect,
)
from casmkit.puf import make_device
from casmkit.symexec import FormulaCache, Symbol, SymRef, simplify_formula

from fuzzing import random_program
from reference_symexec import remove_checks
from rings import ring_source


def device():
    return make_device(42, 16, 16, 0.0)


class TestConstEquality:
    def test_int_and_bool_literals_differ(self):
        assert Const(1) != Const(True)
        assert Const(0) != Const(False)
        assert Const(1) == Const(1) and Const(True) == Const(True)
        assert hash(Const(1)) == hash(Const(True))
        assert Eq(Const(1), Const(2)) != Eq(Const(True), Const(2))

    def test_int_valued_conditional_stays_int_valued(self):
        b = SymRef(Symbol("b", BOOL))
        f = Ite(b, Const(1), Const(0))
        assert simplify_formula(f) == f
        with csymexec.analysis():
            # a memo shared with a boolean twin keeps both apart
            assert simplify_formula(Ite(b, Const(True), Const(False))) == b
            assert simplify_formula(f) == f


class TestNotCarriedOver:
    @pytest.fixture(autouse=True)
    def no_oracle(self, monkeypatch):
        # the enumeration oracle has no bearing on what a cache keeps
        remove_checks(monkeypatch)

    @pytest.fixture()
    def node_evaluations(self, monkeypatch):
        calls = []
        simp_node = csymexec._simp_node

        def counted(*args):
            calls.append(None)
            return simp_node(*args)

        monkeypatch.setattr(csymexec, "_simp_node", counted)
        return calls

    def test_consecutive_protects_do_the_same_work(self, node_evaluations):
        program = parse_or_raise(ring_source(4))
        counts = []
        for _ in range(2):
            before = len(node_evaluations)
            protect(program, device())
            counts.append(len(node_evaluations) - before)
        assert counts[0] == counts[1] > 0
        assert csymexec._ACTIVE.get() is None

    def test_one_protect_shares_its_memos(self, node_evaluations):
        program = parse_or_raise(ring_source(4))
        protect(program, device())
        shared = len(node_evaluations)
        # outside an analysis each call simplifies with its own cache
        del node_evaluations[:]
        compute_transition_set(program)
        derive_safe_condition(program)
        assert shared < len(node_evaluations)

    def test_repeated_protects_keep_memory_flat(self):
        # ring-4 with its phases renamed per run, so that no formula of
        # one run equals a formula of another: a cache that outlived its
        # run would grow with every run (one ring-4 cache holds over
        # 200 KB) where a dropped one does not
        programs = [parse_or_raise(re.sub(r"\b([SG]\d)\b", rf"\1v{k}",
                                          ring_source(4)))
                    for k in range(11)]
        protect(programs[0], device())
        tracemalloc.start()
        try:
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            for program in programs[1:]:
                protect(program, device())
            gc.collect()
            growth = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert growth < 64 * 1024


@pytest.fixture()
def checked_against_fresh(monkeypatch):
    """Every cached simplification and feasibility answer, checked as it
    is made against a call with a fresh cache of its own.  The installed
    oracle checks are off: this check replaces them."""
    remove_checks(monkeypatch)
    simplify, satisfiable = FormulaCache.simplify, FormulaCache.satisfiable
    caches = []

    def checked_simplify(self, f, program=None):
        out = simplify(self, f, program)
        assert repr(out) == repr(simplify(FormulaCache(), f, program)), f
        caches.append(self)
        return out

    def checked_satisfiable(self, f, program=None, cap=csymexec.DOMAIN_CAP):
        answer = satisfiable(self, f, program, cap)
        assert answer == satisfiable(FormulaCache(), f, program, cap), f
        caches.append(self)
        return answer

    monkeypatch.setattr(FormulaCache, "simplify", checked_simplify)
    monkeypatch.setattr(FormulaCache, "satisfiable", checked_satisfiable)
    return caches


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_cached_answers_match_fresh_ones_protecting_rings(
        n, checked_against_fresh):
    protect(parse_or_raise(ring_source(n)), device())
    # the whole analysis ran on one cache (ring-2 makes 49 calls: 28
    # feasibility queries and 21 simplifications)
    assert len(checked_against_fresh) > 40
    assert len(set(map(id, checked_against_fresh))) == 1


def test_cached_answers_match_fresh_ones_on_fuzz_programs(
        checked_against_fresh):
    rng = random.Random(4242)
    protected = 0
    for _ in range(80):
        try:
            protect(random_program(rng), device())
            protected += 1
        except CasmError:
            pass  # rejected by the analysis; its answers still count
    assert protected > 0 and len(checked_against_fresh) > 1000
