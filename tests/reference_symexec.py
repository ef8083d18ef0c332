"""Reference for the symbolic step: brute-force enumeration of every
valuation of a formula's finite-sorted leaves.

``equivalent_on_finite_domains`` is a complete equivalence check, and
``eval_fd`` evaluates a formula under one full valuation.
``install_checks`` (``conftest.py`` calls it for every test) wraps the
three steps whose answers decide ``condx``, so that every
simplification, feasibility answer and symbol elimination is checked
against enumeration as it is made.  A check is skipped where enumeration
cannot decide it: a feasibility query over more than ``_ORACLE_SKIP``
valuations, and a simplification or elimination whose formulas hold
placeholder variables or leaves the program cannot type.
"""
from __future__ import annotations

import itertools
import math
import sys
from typing import Optional

from casmkit import symexec
from casmkit.ast import (
    And, App, CasmError, Const, Eq, FALSE, Ite, Member, Not, Or, Program,
    Term, Value, or_all,
)
from casmkit.symexec import (
    DOMAIN_CAP, FormulaCache, SymRef, _cache, _domains, subst_symbol,
)

_ORACLE_SKIP = 1 << 16


def free_leaves(*terms: Term) -> list[Term]:
    """Symbols and ground locations, in first-occurrence order."""
    cache = _cache()
    return list(dict.fromkeys(leaf for t in terms
                              for leaf in cache.leaves(t)))


def eval_fd(term: Term, valuation: dict[Term, Value]) -> Value:
    if isinstance(term, Const):
        return term.value
    if isinstance(term, (SymRef, App)):
        return valuation[term]
    if isinstance(term, Not):
        return not eval_fd(term.operand, valuation)
    if isinstance(term, And):
        return bool(eval_fd(term.left, valuation)
                    and eval_fd(term.right, valuation))
    if isinstance(term, Or):
        return bool(eval_fd(term.left, valuation)
                    or eval_fd(term.right, valuation))
    if isinstance(term, Eq):
        return eval_fd(term.left, valuation) == eval_fd(term.right, valuation)
    if isinstance(term, Member):
        return eval_fd(term.item, valuation) in term.values
    if isinstance(term, Ite):
        if eval_fd(term.cond, valuation):
            return eval_fd(term.then, valuation)
        return eval_fd(term.other, valuation)
    raise CasmError(f"cannot evaluate {type(term).__name__}")


def _valuations(leaves: list[Term], program: Optional[Program],
                cap: int = DOMAIN_CAP):
    domains = _domains(leaves, program, cap)
    for combo in itertools.product(*domains):
        yield dict(zip(leaves, combo))


def equivalent_on_finite_domains(
        f: Term, g: Term, program: Optional[Program] = None,
        assume: Optional[Term] = None,
        cap: int = DOMAIN_CAP) -> tuple[bool, Optional[dict[Term, Value]]]:
    """Complete equivalence check by exhaustive valuation; on failure the
    witness valuation is returned."""
    extra = (assume,) if assume is not None else ()
    leaves = free_leaves(f, g, *extra)
    for valuation in _valuations(leaves, program, cap):
        if assume is not None and not eval_fd(assume, valuation):
            continue
        if eval_fd(f, valuation) != eval_fd(g, valuation):
            return False, valuation
    return True, None


def _oracle_check(f: Term, g: Term, program: Optional[Program]) -> None:
    try:
        ok, witness = equivalent_on_finite_domains(f, g, program,
                                                   cap=_ORACLE_SKIP)
    except CasmError:
        return  # placeholder variables or untypable leaves: not checkable
    if not ok:
        raise CasmError(
            f"simplification changed meaning under {witness!r}")


# ---------------------------------------------------------------------------
# The checks the suite installs
# ---------------------------------------------------------------------------

# the unchecked steps; not named ``elim_symbol``, which ``_rebind`` swaps
_simplify = FormulaCache.simplify
_satisfiable = FormulaCache.satisfiable
_elim_symbol = symexec.elim_symbol


def checked_simplify(self, f: Term, program: Optional[Program] = None
                     ) -> Term:
    out = _simplify(self, f, program)
    _oracle_check(f, out, program)
    return out


def checked_satisfiable(self, f: Term, program: Optional[Program] = None,
                        cap: int = DOMAIN_CAP) -> bool:
    answer = _satisfiable(self, f, program, cap)
    domains = _domains(self.leaves(f), program, cap)
    if math.prod(map(len, domains)) <= _ORACLE_SKIP:
        brute = not equivalent_on_finite_domains(f, FALSE, program)[0]
        if brute != answer:
            raise CasmError(f"pruned search says satisfiable={answer} "
                            "against the enumeration oracle")
    return answer


def checked_elim_symbol(f: Term, symbol: symexec.Symbol,
                        program: Optional[Program] = None) -> Term:
    out = _elim_symbol(f, symbol, program)
    witnessed = or_all([subst_symbol(f, symbol, Const(v))
                        for v in symbol.sort.values()])
    _oracle_check(witnessed, out, program)
    return out


def install_checks(monkeypatch) -> None:
    """Check every simplification, feasibility answer and symbol
    elimination against enumeration for the rest of the test."""
    monkeypatch.setattr(FormulaCache, "simplify", checked_simplify)
    monkeypatch.setattr(FormulaCache, "satisfiable", checked_satisfiable)
    _rebind(monkeypatch, "elim_symbol", _elim_symbol, checked_elim_symbol)


def remove_checks(monkeypatch) -> None:
    """Undo :func:`install_checks` for the rest of the test, for tests
    that check the analysis some other way or count its work."""
    monkeypatch.setattr(FormulaCache, "simplify", _simplify)
    monkeypatch.setattr(FormulaCache, "satisfiable", _satisfiable)
    _rebind(monkeypatch, "elim_symbol", checked_elim_symbol, _elim_symbol)


def _rebind(monkeypatch, name: str, old, new) -> None:
    """Point ``name`` at ``new`` in every loaded module where it holds
    ``old``: ``casmkit.protect`` and test modules import ``elim_symbol``
    by name, so patching ``casmkit.symexec`` alone would miss them."""
    for module in list(sys.modules.values()):
        if getattr(module, "__dict__", {}).get(name) is old:
            monkeypatch.setattr(module, name, new)
