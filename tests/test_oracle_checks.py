"""The enumeration checks ``conftest.py`` installs are live: a broken
simplifier or feasibility search makes ``protect`` raise, where the
unchecked analysis does not notice the break, and a broken symbol
elimination raises also where a module imported ``elim_symbol`` by
name."""
import pytest

import casmkit.symexec as csymexec
from casmkit.ast import BOOL, FALSE, And, CasmError
from casmkit.parser import parse_or_raise
from casmkit.protect import protect
from casmkit.puf import make_device
from casmkit.symexec import Symbol, SymRef, elim_symbol

from reference_symexec import remove_checks
from rings import ring_source


def protect_ring3():
    protect(parse_or_raise(ring_source(3)), make_device(42, 16, 16, 0.0))


@pytest.fixture()
def dropped_conjunct(monkeypatch):
    """A simplifier that keeps only the left side of every conjunction."""
    simp_node = csymexec._simp_node

    def broken(term, program, memo):
        out = simp_node(term, program, memo)
        return out.left if isinstance(out, And) else out

    monkeypatch.setattr(csymexec, "_simp_node", broken)


@pytest.fixture()
def nothing_feasible(monkeypatch):
    """A feasibility search that answers every query ``False``."""
    monkeypatch.setattr(csymexec, "_search", lambda *args: False)


def test_a_dropped_conjunct_is_caught(dropped_conjunct):
    with pytest.raises(CasmError, match="simplification changed meaning"):
        protect_ring3()


def test_an_infeasible_answer_is_caught(nothing_feasible):
    with pytest.raises(CasmError, match="against the enumeration oracle"):
        protect_ring3()


def test_elimination_imported_by_name_is_checked(monkeypatch):
    # every formula eliminates to false
    monkeypatch.setattr(csymexec, "_elim", lambda *args: FALSE)
    b, c = (SymRef(Symbol(name, BOOL)) for name in "bc")
    with pytest.raises(CasmError, match="simplification changed meaning"):
        elim_symbol(And(b, c), b.symbol)


@pytest.mark.parametrize("broken", ["dropped_conjunct", "nothing_feasible"])
def test_unchecked_analysis_misses_the_break(broken, request, monkeypatch):
    request.getfixturevalue(broken)
    remove_checks(monkeypatch)
    protect_ring3()  # completes, with a wrong condx
