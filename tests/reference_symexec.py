"""Reference for the symbolic step: brute-force enumeration of every
valuation of a formula's finite-sorted leaves.

``equivalent_on_finite_domains`` is a complete equivalence check,
``eval_fd`` evaluates a formula under one full valuation, and
``free_symbols`` lists the symbols a term reads.
``transitions_by_enumeration`` finds a program's control-state
transitions by running one step from every state the symbolic step
ranges over, under the inputs ``monitored_reads`` finds the step reads.
``install_checks`` (``conftest.py`` calls it for every test) wraps the
three steps whose answers decide ``condx``, so that every
simplification, feasibility answer and symbol elimination is checked
against enumeration as it is made.  A formula over the placeholder
``x`` of ``condx`` is checked once for each plain control value.  A
check is skipped where enumeration cannot decide it: a feasibility query
over more than ``_ORACLE_SKIP`` valuations, and a simplification or
elimination whose formulas hold other variables or leaves the program
cannot type.
"""
from __future__ import annotations

import itertools
import math
import sys
from typing import Optional

from casmkit import symexec
from casmkit.ast import (
    And, App, CasmError, Const, Eq, FALSE, Ite, Location, Member, Not, Or,
    Program, Term, Value, Var, children, free_vars, locations_of_interest,
    or_all, rebuild,
)
from casmkit.interp import CompiledProgram, _backtrack, _picker, compiled
from casmkit.symexec import (
    DOMAIN_CAP, FormulaCache, SymRef, _cache, _domains, subst_symbol,
)

from reference_walker import State, enumerate_step_outcomes, eval_term

_ORACLE_SKIP = 1 << 16


def free_leaves(*terms: Term) -> list[Term]:
    """Symbols, locations and free variables, in first-occurrence order;
    enumeration refuses any but symbols and ground locations."""
    cache = _cache()
    return list(dict.fromkeys(leaf for t in terms
                              for leaf in cache.leaves(t)))


def free_symbols(term: Term) -> set[symexec.Symbol]:
    """The symbols ``term`` reads, by a plain recursive walk: the
    reference for ``free_symbols_in`` and for the mention test of symbol
    elimination, which read the analysis's ``FormulaCache.leaves``."""
    if isinstance(term, SymRef):
        return {term.symbol}
    out: set[symexec.Symbol] = set()
    for c in children(term):
        out |= free_symbols(c)
    return out


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
    pairs = [(f, g)]
    if program is not None and free_vars(f) | free_vars(g) == {"x"}:
        # the placeholder of ``condx`` ranges over the plain control values
        pairs = [(_bind_x(f, v), _bind_x(g, v))
                 for v in program.ctl_values()]
    for a, b in pairs:
        try:
            ok, witness = equivalent_on_finite_domains(a, b, program,
                                                       cap=_ORACLE_SKIP)
        except CasmError:
            return  # other variables or untypable leaves: not checkable
        if not ok:
            raise CasmError(
                f"simplification changed meaning under {witness!r}")


def _bind_x(term: Term, value: Value) -> Term:
    # plain ``rebuild``, not ``subst_term``, whose folding constructors
    # are part of the simplification being checked
    if term == Var("x"):
        return Const(value)
    return rebuild(term, [_bind_x(c, value) for c in children(term)])


class _LazyInputs(dict):
    """Inputs of one discovery run: reading a location that has no value
    yet is a choice point over its domain."""

    __slots__ = ("domains", "choose", "read")

    def __missing__(self, loc):
        domain = self.domains[loc]
        value = self[loc] = domain[self.choose(len(domain))]
        self.read[loc] = None
        return value


def monitored_reads(cp: CompiledProgram, values: dict[Location, Value],
                    fixed: dict[Location, Value],
                    domains: dict[Location, tuple[Value, ...]]
                    ) -> Optional[set[Location]]:
    """The locations of ``domains`` that one step from ``values`` reads
    under some valuation of them and some choose draw, the inputs of
    ``fixed`` held at their values; ``None`` when a run raises.

    The rule pass runs once per path: each read of an unset input and
    each draw is a choice point of one backtracking search."""
    read: dict[Location, None] = {}

    def run(choose):
        inputs = _LazyInputs(fixed)
        inputs.domains, inputs.choose, inputs.read = domains, choose, read
        cp.fire_rules(values, inputs, _picker(choose))

    try:
        _backtrack(run)
    except (CasmError, KeyError):
        # a valuation that fails here fails the full enumeration alike
        return None
    return set(read)


def transitions_by_enumeration(program: Program) -> set[tuple[Value, Value]]:
    """The pairs (v, t) such that one step from a state with control
    value v writes t to the control state, under some input and some
    ``choose`` draw.  The states are those the symbolic step ranges over:
    every valuation of the controlled locations of interest that meets
    the initial constraints.  The inputs are those the step can read
    (``monitored_reads``), the others at their first value."""
    interest = locations_of_interest(program)
    controlled = [l for l in interest
                  if program.function(l[0]).mode != "monitored"]
    domains = {l: program.function(l[0]).result.values()
               for l in program.monitored_locations() if l in interest}
    fixed = {l: program.function(l[0]).result.values()[0]
             for l in program.monitored_locations() if l not in interest}
    first = {**fixed, **{l: d[0] for l, d in domains.items()}}
    cp = compiled(program)
    ctl_loc = program.ctl_loc
    initial = program.initial_values()
    pairs = set()
    for combo in itertools.product(
            *(program.function(l[0]).result.values() for l in controlled)):
        values = dict(initial)
        values.update(zip(controlled, combo))
        if not all(eval_term(c, State(values=values, monitored={}))
                   for c in program.init_constraints):
            continue
        read = monitored_reads(cp, values, fixed, domains)
        inputs = [l for l in domains if read is None or l in read]
        for given in itertools.product(*(domains[l] for l in inputs)):
            monitored = {**first, **dict(zip(inputs, given))}
            for outcome in enumerate_step_outcomes(program, values,
                                                   monitored):
                if ctl_loc in outcome.updates:
                    pairs.add((values[ctl_loc], outcome.updates[ctl_loc]))
    return pairs


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
