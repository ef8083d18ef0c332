"""Symbolic execution of one machine step.

Runs a program on a state whose locations hold symbols instead of values,
enumerating every guard-branch combination across the parallel top-level
rules.  Each feasible combination yields a path condition and a symbolic
successor map; infeasible combinations are pruned by ``satisfiable``, a
backtracking search that assigns the finite-sorted leaves one at a time
and cuts a branch off as soon as the partial assignment decides the
formula.  The test suite checks every simplification, feasibility
answer and symbol elimination against a brute-force enumeration of every
valuation (``tests/reference_symexec.py``).

The simplifier treats ``And`` and ``Or`` as n-ary: it lists a nest's
operands with :func:`~casmkit.ast.flatten`, and both connectives share
one operand collection (units and repeats dropped, a zero or a
complementary pair deciding the whole) before each fuses its literals
over one leaf, and one absorption rule after; results fold back to the
left through ``and_all``/``or_all``.

Simplification, feasibility and elimination keep their work in a
:class:`FormulaCache`; inside an :func:`analysis` block (``protect``
opens one) every call shares the block's cache, so each distinct
subterm is simplified, sized, listed by its leaves and compiled once per
analysis.  Within one symbolic step the paths through a rule share its
work as well: each guard, update and binding is evaluated, and each
guard and update value simplified, once per environment, and each
rule's control writes are counted once.  Substitution
(:func:`subst_term`) skips the sides that its folding decides, such as
the dead branches of a conditional whose condition it makes constant.

Reads through a location whose argument is itself symbolic are grounded
by expansion: ``f(x)`` with symbolic ``x`` becomes a conditional cascade
over all values of the argument sort, one ground location per value.
"""
from __future__ import annotations

import functools
import itertools
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from .ast import (
    And, App, Call, CasmError, Choose, ChooseCtl, Cond, Const, Eq, FALSE, Ite,
    Let, Location, Member, Not, Or, Par, Program, Rule, Sort, TRUE, Term,
    Update, Value, Var, and_all, cached_hash, canonical_values, children,
    ctl_writes, flatten, location_term, locations_of_interest, or_all,
    reads_location, rebuild,
)

DOMAIN_CAP = 1 << 24

# Read only by benchmarks/run.py, which refuses to run with it on.
ORACLE_CHECK = False


class DomainTooLarge(CasmError):
    pass


class SymbolicInconsistency(CasmError):
    def __init__(self, loc: Location):
        from .ast import format_location
        super().__init__(f"conflicting parallel writes to {format_location(loc)}")
        self.location = loc


class UnsupportedConstruct(CasmError):
    pass


class UnhousedSymbol(CasmError):
    def __init__(self, symbol: "Symbol"):
        super().__init__(f"symbol {symbol.name} has no initial-state location")
        self.symbol = symbol


# ---------------------------------------------------------------------------
# Symbols
# ---------------------------------------------------------------------------

@cached_hash
@dataclass(frozen=True)
class Symbol:
    name: str
    sort: Sort


@cached_hash
@dataclass(frozen=True)
class SymRef(Term):
    symbol: Symbol


_GREEK = ("alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta",
          "theta", "iota", "kappa", "lambda", "mu", "nu", "xi", "omicron",
          "pi", "rho", "sigma", "tau", "upsilon", "phi", "chi", "psi",
          "omega")


class SymbolNamer:
    """Hands out fresh symbol names, unique within one analysis."""

    def __init__(self):
        self.count = 0
        self.used: set[str] = set()

    def fresh(self, sort: Sort) -> Symbol:
        while True:
            base = _GREEK[self.count % len(_GREEK)]
            round_ = self.count // len(_GREEK)
            name = base if round_ == 0 else f"{base}{round_ + 1}"
            self.count += 1
            if name not in self.used:
                self.used.add(name)
                return Symbol(name, sort)

    def named(self, name: str, sort: Sort) -> Symbol:
        if name in self.used:
            raise CasmError(f"symbol name {name} already in use")
        self.used.add(name)
        return Symbol(name, sort)


# ---------------------------------------------------------------------------
# Symbolic initial state
# ---------------------------------------------------------------------------

@dataclass
class SymInit:
    """Symbolic seed state: one entry per location of interest.

    By default every location gets its own fresh symbol.  Declared
    initial constraints of the shape ``loc = expr-over-locations``
    correlate entries instead (the constrained location maps to the
    translated expression rather than a fresh symbol).
    """

    sym_val: dict[Location, Term]
    base_symbols: dict[Location, Symbol]
    namer: SymbolNamer = field(default_factory=SymbolNamer)

    @classmethod
    def for_program(cls, program: Program,
                    constraints: Optional[Iterable[Term]] = None) -> "SymInit":
        if constraints is None:
            constraints = program.init_constraints
        interest = _cache().interest(program)
        constrained: dict[Location, Term] = {}
        order: list[Location] = []
        for c in constraints:
            if not (isinstance(c, Eq) and isinstance(c.left, App)
                    and all(isinstance(a, Const) for a in c.left.args)):
                raise CasmError(
                    "initial constraint must equate a ground location with a term")
            loc = (c.left.fn, tuple(a.value for a in c.left.args))
            if loc == program.ctl_loc:
                raise CasmError(
                    "the control-state location must keep a fresh symbol")
            if loc in constrained:
                raise CasmError(
                    f"location {loc[0]} constrained twice")
            constrained[loc] = c.right
            order.append(loc)

        namer = SymbolNamer()
        sym_val: dict[Location, Term] = {}
        base: dict[Location, Symbol] = {}

        def fresh_for(loc: Location) -> None:
            sort = program.function(loc[0]).result
            sym = namer.fresh(sort)
            sym_val[loc] = SymRef(sym)
            base[loc] = sym

        for loc in interest:
            if loc not in constrained:
                fresh_for(loc)

        def translate(term: Term) -> Term:
            if isinstance(term, App):
                loc = (term.fn, tuple(a.value for a in term.args))
                if loc not in sym_val:
                    fresh_for(loc)
                return sym_val[loc]
            if isinstance(term, Const):
                return term
            kids = children(term)
            if not kids:
                raise CasmError("unsupported construct in initial constraint")
            return rebuild(term, [translate(c) for c in kids])

        for loc in order:
            sym_val[loc] = translate(constrained[loc])

        return cls(sym_val=sym_val, base_symbols=base, namer=namer)

    def symbol_of(self, loc: Location) -> Symbol:
        return self.base_symbols[loc]


# ---------------------------------------------------------------------------
# One formula cache per analysis
# ---------------------------------------------------------------------------

class FormulaCache:
    """Memos shared by the formula work of one analysis.

    Each memo is a pure function of its key:
      * the one-pass simplification of a term, one memo per ``program``
        argument;
      * the node count of a term (``term_size``), for the simplifier's
        size guard;
      * the leaves of a term in first-occurrence order (``leaves``): its
        symbols, locations and free variables, a non-ground location
        ahead of its arguments' leaves.  Feasibility, elimination and
        ``free_symbols_in`` all read them;
      * the three-valued closure of a term (``_partial``).  Closures read
        one slot per leaf, numbered in the order the cache first met the
        leaves rather than per query, so a query compiles only the
        subterms no earlier query has seen;
      * a program's locations of interest (``interest``), which seed
        the symbolic step and check its seed.

    A cache keeps every formula its analysis met, so it lives exactly as
    long as the analysis: :func:`analysis` installs one for a block, and
    outside any block each call builds and drops a cache of its own.
    """

    def __init__(self):
        self._simplified: dict[Optional[Program], dict[Term, Term]] = {}
        self._interest: dict[Program, tuple[Location, ...]] = {}
        self._sizes: dict[Term, int] = {}
        self._leaves: dict[Term, tuple[Term, ...]] = {}
        self._slot_of: dict[Term, int] = {}
        self._slots: list = []
        self._closures: dict[Term, Callable] = {}

    def interest(self, program: Program) -> tuple[Location, ...]:
        out = self._interest.get(program)
        if out is None:
            out = self._interest[program] = locations_of_interest(program)
        return out

    def size(self, term: Term) -> int:
        n = self._sizes.get(term)
        if n is None:
            n = self._sizes[term] = 1 + sum(map(self.size, children(term)))
        return n

    def leaves(self, term: Term) -> tuple[Term, ...]:
        out = self._leaves.get(term)
        if out is not None:
            return out
        if _is_leaf(term) or isinstance(term, Var):
            out = (term,)
        else:
            parts = [p for p in map(self.leaves, children(term)) if p]
            if isinstance(term, App):
                # listed so that feasibility refuses it; its arguments'
                # symbols still count as mentioned and free
                parts.insert(0, (term,))
            if len(parts) == 1:
                out = parts[0]
            else:
                out = tuple(dict.fromkeys(itertools.chain(*parts)))
        self._leaves[term] = out
        return out

    def simplify(self, f: Term, program: Optional[Program] = None) -> Term:
        """``simplify_formula`` with this cache's memos."""
        memo = self._simplified.get(program)
        if memo is None:
            memo = self._simplified[program] = {}
        out = f
        for _ in range(8):
            nxt = _simp(out, program, memo)
            if nxt == out:
                break
            out = nxt
        if out is not f and self.size(out) > self.size(f):
            out = f
        return out

    def satisfiable(self, f: Term, program: Optional[Program] = None,
                    cap: int = DOMAIN_CAP) -> bool:
        """``satisfiable`` with this cache's memos."""
        leaves = self.leaves(f)
        domains = _domains(leaves, program, cap)
        slot_of, slots = self._slot_of, self._slots
        for leaf in leaves:
            if leaf not in slot_of:
                slot_of[leaf] = len(slots)
                slots.append(None)
        order = [slot_of[leaf] for leaf in leaves]
        for i in order:
            slots[i] = None
        root = _partial(f, slot_of, slots, self._closures)
        return _search(root, slots, order, domains, 0)


_ACTIVE: ContextVar[Optional[FormulaCache]] = ContextVar(
    "casmkit_formula_cache", default=None)


def _cache() -> FormulaCache:
    cache = _ACTIVE.get()
    return cache if cache is not None else FormulaCache()


@contextmanager
def analysis() -> Iterator[None]:
    """Share one fresh :class:`FormulaCache` among all formula work done
    inside the block, and drop it on exit."""
    token = _ACTIVE.set(FormulaCache())
    try:
        yield
    finally:
        _ACTIVE.reset(token)


# ---------------------------------------------------------------------------
# Leaf domains
# ---------------------------------------------------------------------------

def _leaf_sort(leaf: Term, program: Optional[Program]) -> Sort:
    """The sort feasibility ranges a leaf over; refuses the rest."""
    if isinstance(leaf, SymRef):
        return leaf.symbol.sort
    if isinstance(leaf, Var):
        raise CasmError(f"free variable {leaf.name}; substitute it first")
    if isinstance(leaf, App):
        if not _is_leaf(leaf):
            raise CasmError("formula reads a non-ground location")
        if program is None:
            raise CasmError(
                f"need the program signature to type location {leaf.fn}")
        return program.function(leaf.fn).result
    raise CasmError(f"not a leaf: {type(leaf).__name__}")


def _domains(leaves: list[Term], program: Optional[Program],
             cap: int) -> list[tuple[Value, ...]]:
    domains = []
    total = 1
    for leaf in leaves:
        values = _leaf_sort(leaf, program).values()
        domains.append(values)
        total *= len(values)
        if total > cap:
            raise DomainTooLarge(
                f"combined valuation space exceeds {cap}")
    return domains


# ---------------------------------------------------------------------------
# Feasibility
# ---------------------------------------------------------------------------

def satisfiable(f: Term, program: Optional[Program] = None,
                cap: int = DOMAIN_CAP) -> bool:
    """Whether some valuation of the leaves makes ``f`` true.

    Assigns the leaves one at a time in first-occurrence order and
    evaluates ``f`` three-valued after each assignment, so a branch ends
    as soon as the partial assignment decides the formula.  The
    evaluation is compiled once per distinct subterm and analysis (see
    :class:`FormulaCache`)."""
    return _cache().satisfiable(f, program, cap)


def _search(root, slots: list, order: list[int], domains: list,
            k: int) -> bool:
    """Assign ``slots[order[k]]``, ``slots[order[k + 1]]``, ... in turn
    until ``root`` reads true (``True``) or every branch reads false."""
    value = root()
    if value is not None:
        return bool(value)
    i = order[k]
    for v in domains[k]:
        slots[i] = v
        if _search(root, slots, order, domains, k + 1):
            return True
    slots[i] = None
    return False


def _partial(term: Term, index: dict[Term, int], slots: list,
             memo: dict[Term, Callable]):
    """Closure evaluating ``term`` over the leaf values in ``slots`` (leaf
    ``l`` in ``slots[index[l]]``), as ``eval_fd`` in
    ``tests/reference_symexec.py`` does over a full valuation; it returns
    ``None`` while the unassigned leaves (slots holding ``None``) can
    still change the result.  ``memo`` keeps the closure of each subterm
    built over the same ``index`` and ``slots``."""
    fn = memo.get(term)
    if fn is None:
        fn = memo[term] = _partial_node(term, index, slots, memo)
    return fn


def _partial_node(term: Term, index: dict[Term, int], slots: list,
                  memo: dict[Term, Callable]):
    if isinstance(term, Const):
        value = term.value
        return lambda: value
    if isinstance(term, (SymRef, App)):
        i = index[term]
        return lambda: slots[i]
    if isinstance(term, Not):
        inner = _partial(term.operand, index, slots, memo)

        def not_():
            v = inner()
            return None if v is None else not v
        return not_
    if isinstance(term, And):
        left = _partial(term.left, index, slots, memo)
        right = _partial(term.right, index, slots, memo)

        def and_():
            a = left()
            if a is not None and not a:
                return False
            b = right()
            if b is not None and not b:
                return False
            return None if a is None or b is None else True
        return and_
    if isinstance(term, Or):
        left = _partial(term.left, index, slots, memo)
        right = _partial(term.right, index, slots, memo)

        def or_():
            a = left()
            if a:
                return True
            b = right()
            if b:
                return True
            return None if a is None or b is None else False
        return or_
    if isinstance(term, Eq):
        left = _partial(term.left, index, slots, memo)
        right = _partial(term.right, index, slots, memo)

        def eq():
            a = left()
            if a is None:
                return None
            b = right()
            return None if b is None else a == b
        return eq
    if isinstance(term, Member):
        item = _partial(term.item, index, slots, memo)
        values = term.values

        def member():
            v = item()
            return None if v is None else v in values
        return member
    if isinstance(term, Ite):
        cond = _partial(term.cond, index, slots, memo)
        then = _partial(term.then, index, slots, memo)
        other = _partial(term.other, index, slots, memo)

        def ite():
            c = cond()
            if c is None:
                t = then()
                return t if t is not None and t == other() else None
            return then() if c else other()
        return ite
    raise CasmError(f"cannot evaluate {type(term).__name__}")


# ---------------------------------------------------------------------------
# Smart constructors (local constant folding)
# ---------------------------------------------------------------------------

def s_not(t: Term) -> Term:
    if isinstance(t, Const):
        return Const(not t.value)
    if isinstance(t, Not):
        return t.operand
    return Not(t)


def s_and(a: Term, b: Term) -> Term:
    if a == TRUE:
        return b
    if b == TRUE:
        return a
    if a == FALSE or b == FALSE:
        return FALSE
    return And(a, b)


def s_or(a: Term, b: Term) -> Term:
    if a == FALSE:
        return b
    if b == FALSE:
        return a
    if a == TRUE or b == TRUE:
        return TRUE
    return Or(a, b)


def s_eq(a: Term, b: Term) -> Term:
    if a == b:
        return TRUE
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value == b.value)
    return Eq(a, b)


def s_member(item: Term, values: Iterable[Value]) -> Term:
    values = canonical_values(values)
    if isinstance(item, Const):
        return Const(item.value in values)
    if not values:
        return FALSE
    if len(values) == 1:
        return Eq(item, Const(values[0]))
    return Member(item, values)


def s_ite(c: Term, t: Term, o: Term) -> Term:
    if isinstance(c, Const):
        return t if c.value else o
    if t == o:
        return t
    return Ite(c, t, o)


_S_REBUILD = {
    Not: lambda t, k: s_not(k[0]),
    And: lambda t, k: s_and(k[0], k[1]),
    Or: lambda t, k: s_or(k[0], k[1]),
    Eq: lambda t, k: s_eq(k[0], k[1]),
    Member: lambda t, k: s_member(k[0], t.values),
    Ite: lambda t, k: s_ite(k[0], k[1], k[2]),
}


def s_rebuild(term: Term, kids) -> Term:
    """:func:`~casmkit.ast.rebuild` through the smart constructors above;
    an ``App`` is rebuilt plain and a leaf is returned as it is."""
    make = _S_REBUILD.get(type(term))
    return rebuild(term, kids) if make is None else make(term, kids)


# ---------------------------------------------------------------------------
# Substitution
# ---------------------------------------------------------------------------

def subst_term(term: Term, mapping: dict[Term, Term]) -> Term:
    """Replace whole subterms (top-down, outermost match wins) and
    rebuild through the smart constructors (:func:`s_rebuild`).

    A side the folding decides is not substituted: an ``And`` whose left
    side becomes ``FALSE`` is ``FALSE`` and an ``Or`` whose left side
    becomes ``TRUE`` is ``TRUE``, and an ``Ite`` whose condition becomes
    a constant is its chosen branch, substituted.  These are the cases
    the constructors fold whatever the other sides become, so the result
    is the one an eager children-first rebuild gives."""
    hit = mapping.get(term)
    if hit is not None:
        return hit
    kind = type(term)
    if kind is And:
        left = subst_term(term.left, mapping)
        if left == FALSE:
            return FALSE
        return s_and(left, subst_term(term.right, mapping))
    if kind is Or:
        left = subst_term(term.left, mapping)
        if left == TRUE:
            return TRUE
        return s_or(left, subst_term(term.right, mapping))
    if kind is Ite:
        cond = subst_term(term.cond, mapping)
        if isinstance(cond, Const):
            return subst_term(term.then if cond.value else term.other,
                              mapping)
        return s_ite(cond, subst_term(term.then, mapping),
                     subst_term(term.other, mapping))
    kids = children(term)
    if not kids:
        return term
    return s_rebuild(term, [subst_term(c, mapping) for c in kids])


def subst_symbol(term: Term, symbol: Symbol, replacement: Term) -> Term:
    return subst_term(term, {SymRef(symbol): replacement})


# ---------------------------------------------------------------------------
# Simplifier
# ---------------------------------------------------------------------------

def simplify_formula(f: Term, program: Optional[Program] = None) -> Term:
    """Equivalent formula that is no larger (node count).

    Applies constant folding, idempotence, absorption, complement laws,
    fusion of equality literals into membership sets, pruning of
    sort-exhaustive memberships, and propagation of equalities decided by
    a conjunction into its other conjuncts.

    One analysis simplifies each distinct subterm once per ``program``
    argument: ``_simp`` is a pure function of the term and the program,
    so its results are kept in the analysis's :class:`FormulaCache`, and
    a pass, a later call or a later stage reuses them for every subterm
    already seen.  Outside an analysis the cache is the call's own.
    """
    return _cache().simplify(f, program)


def _sort_of(leaf: Term, program: Optional[Program]) -> Optional[Sort]:
    try:
        return _leaf_sort(leaf, program)
    except CasmError:
        return None


def _is_leaf(t: Term) -> bool:
    return isinstance(t, SymRef) or (
        isinstance(t, App) and all(isinstance(a, Const) for a in t.args))


def _simp(term: Term, program: Optional[Program],
          memo: dict[Term, Term]) -> Term:
    if isinstance(term, (Const, Var, SymRef)):
        return term
    out = memo.get(term)
    if out is None:
        out = memo[term] = _simp_node(term, program, memo)
    return out


def _simp_node(term: Term, program: Optional[Program],
               memo: dict[Term, Term]) -> Term:
    if isinstance(term, App):
        return App(term.fn, tuple(_simp(a, program, memo) for a in term.args))
    if isinstance(term, Not):
        inner = _simp(term.operand, program, memo)
        if isinstance(inner, Const):
            return Const(not inner.value)
        if isinstance(inner, Not):
            return inner.operand
        if isinstance(inner, Member) and _is_leaf(inner.item):
            sort = _sort_of(inner.item, program)
            if sort is not None:
                rest = [v for v in sort.values() if v not in inner.values]
                return s_member(inner.item, rest)
        if isinstance(inner, Eq) and _is_leaf(inner.left) \
                and isinstance(inner.right, Const):
            sort = _sort_of(inner.left, program)
            if sort is not None and sort.kind != "bool":
                rest = [v for v in sort.values() if v != inner.right.value]
                return s_member(inner.left, rest)
        return Not(inner)
    if isinstance(term, And):
        return _simp_and([_simp(t, program, memo)
                          for t in flatten(term, And)], program, memo)
    if isinstance(term, Or):
        return _simp_or([_simp(t, program, memo)
                         for t in flatten(term, Or)], program, memo)
    if isinstance(term, Eq):
        left = _simp(term.left, program, memo)
        right = _simp(term.right, program, memo)
        if isinstance(left, Const) and not isinstance(right, Const):
            left, right = right, left
        if isinstance(right, Const) and isinstance(right.value, bool) \
                and not isinstance(left, Const):
            return left if right.value else _simp(Not(left), program, memo)
        if isinstance(left, Ite) and isinstance(right, Const):
            return _simp(Ite(left.cond, Eq(left.then, right),
                             Eq(left.other, right)), program, memo)
        if isinstance(right, Ite) and isinstance(left, Const):
            return _simp(Ite(right.cond, Eq(right.then, left),
                             Eq(right.other, left)), program, memo)
        return s_eq(left, right)
    if isinstance(term, Member):
        item = _simp(term.item, program, memo)
        if isinstance(item, Ite):
            return _simp(Ite(item.cond, Member(item.then, term.values),
                             Member(item.other, term.values)), program, memo)
        if _is_leaf(item):
            sort = _sort_of(item, program)
            if sort is not None:
                values = [v for v in term.values if sort.contains(v)]
                if len(values) == sort.size:
                    return TRUE
                return s_member(item, values)
        return s_member(item, term.values)
    if isinstance(term, Ite):
        cond = _simp(term.cond, program, memo)
        then = _simp(term.then, program, memo)
        other = _simp(term.other, program, memo)
        if isinstance(cond, Const):
            return then if cond.value else other
        if then == other:
            return then
        if then == TRUE:
            return _simp_or([cond, other], program, memo)
        if other == FALSE:
            return _simp_and([cond, then], program, memo)
        if then == FALSE:
            return _simp_and([_simp(Not(cond), program, memo), other],
                             program, memo)
        if other == TRUE:
            return _simp_or([_simp(Not(cond), program, memo), then],
                            program, memo)
        return Ite(cond, then, other)
    raise CasmError(f"cannot simplify {type(term).__name__}")


def _literal_domain(t: Term, program) -> Optional[tuple[Term, frozenset]]:
    """Leaf and allowed-value set asserted by a positive literal."""
    if isinstance(t, Eq) and _is_leaf(t.left) and isinstance(t.right, Const):
        return t.left, frozenset([t.right.value])
    if isinstance(t, Eq) and _is_leaf(t.right) and isinstance(t.left, Const):
        return t.right, frozenset([t.left.value])
    if isinstance(t, Member) and _is_leaf(t.item):
        return t.item, frozenset(t.values)
    if _is_leaf(t):
        sort = _sort_of(t, program)
        if sort is not None and sort.kind == "bool":
            return t, frozenset([True])
    if isinstance(t, Not) and _is_leaf(t.operand):
        sort = _sort_of(t.operand, program)
        if sort is not None and sort.kind == "bool":
            return t.operand, frozenset([False])
    return None


def _domain_literal(leaf: Term, allowed: frozenset, program) -> Term:
    sort = _sort_of(leaf, program)
    if sort is not None and sort.kind == "bool":
        if allowed == frozenset([True]):
            return leaf
        if allowed == frozenset([False]):
            return Not(leaf)
        return TRUE
    if sort is not None and len(allowed) == sort.size:
        return TRUE
    if len(allowed) == 1:
        return Eq(leaf, Const(next(iter(allowed))))
    return Member(leaf, tuple(allowed))


def _operands(parts: list[Term], cls) -> Optional[list[Term]]:
    """The operands of ``parts`` joined by ``cls`` (``And`` or ``Or``):
    flattened, without units (``TRUE`` for ``And``) and repeats, in
    first-seen order; ``None`` where they hold the zero (``FALSE`` for
    ``And``) or a term and its complement, so the whole is the zero."""
    unit, zero = (TRUE, FALSE) if cls is And else (FALSE, TRUE)
    items: list[Term] = []
    for p in parts:
        if p == unit:
            continue
        if p == zero:
            return None
        items.extend(flatten(p, cls))
    uniq = dict.fromkeys(items)
    for p in uniq:
        if s_not(p) in uniq or (isinstance(p, Not) and p.operand in uniq):
            return None
    return list(uniq)


def _absorb(terms: list[Term], dual) -> list[Term]:
    """``terms`` without each ``dual`` term (an ``Or`` among conjuncts,
    an ``And`` among disjuncts) that has another of them as an operand:
    ``a and (a or b)`` is ``a``, ``a or (a and b)`` is ``a``."""
    present = set(terms)
    return [p for p in terms if not (
        isinstance(p, dual) and any(d in present for d in flatten(p, dual)))]


def _simp_and(parts: list[Term], program, memo: dict[Term, Term]) -> Term:
    operands = _operands(parts, And)
    if operands is None:
        return FALSE
    # intersect per-leaf domains
    domains: dict[Term, frozenset] = {}
    rest: list[Term] = []
    for p in operands:
        lit = _literal_domain(p, program)
        if lit is not None:
            leaf, allowed = lit
            domains[leaf] = domains.get(leaf, allowed) & allowed
        else:
            rest.append(p)
    decided: dict[Term, Term] = {}
    for leaf, allowed in domains.items():
        if not allowed:
            return FALSE
        if len(allowed) == 1:
            decided[leaf] = Const(next(iter(allowed)))
    if decided:
        new_rest = []
        for p in rest:
            q = subst_term(p, decided)
            if q != p:
                q = _simp(q, program, memo)
            if q == FALSE:
                return FALSE
            if q != TRUE:
                new_rest.append(q)
        rest = new_rest
    out: list[Term] = []
    for leaf, allowed in domains.items():
        lit = _domain_literal(leaf, allowed, program)
        if lit == FALSE:
            return FALSE
        if lit != TRUE:
            out.append(lit)
    return and_all(_absorb(out + rest, Or))


def _simp_or(parts: list[Term], program, memo: dict[Term, Term]) -> Term:
    operands = _operands(parts, Or)
    if operands is None:
        return TRUE
    # fuse equality/membership literals over one leaf
    domains: dict[Term, frozenset] = {}
    rest: list[Term] = []
    for p in operands:
        lit = _literal_domain(p, program)
        if lit is not None:
            leaf, allowed = lit
            domains[leaf] = domains.get(leaf, allowed) | allowed
        else:
            rest.append(p)
    out: list[Term] = []
    for leaf, allowed in domains.items():
        sort = _sort_of(leaf, program)
        if sort is not None and len(allowed) == sort.size:
            return TRUE
        lit = _domain_literal(leaf, allowed, program)
        if lit == TRUE:
            return TRUE
        out.append(lit)
    kept = _absorb(out + rest, And)
    # factor out conjuncts common to every disjunct
    if len(kept) > 1:
        lists = [flatten(p, And) for p in kept]
        common = [c for c in lists[0]
                  if all(c in other for other in lists[1:])]
        if common and any(len(l) > 1 for l in lists):
            remainders = [and_all([c for c in l if c not in common])
                          for l in lists]
            inner = _simp_or(remainders, program, memo)
            return _simp_and(common + [inner], program, memo)
    return or_all(kept)


# ---------------------------------------------------------------------------
# Symbolic evaluation and stepping
# ---------------------------------------------------------------------------

def sym_eval(term: Term, program: Program, locmap: dict[Location, Term],
             env: dict[str, Term]) -> Term:
    if isinstance(term, Const):
        return term
    if isinstance(term, Var):
        if term.name not in env:
            raise CasmError(f"unbound variable {term.name}")
        return env[term.name]
    if isinstance(term, App):
        decl = program.function(term.fn)
        argexprs = [sym_eval(a, program, locmap, env) for a in term.args]

        def read(args: tuple[Value, ...]) -> Term:
            if decl.mode == "static":
                return Const(decl.init_map()[args])
            loc = (term.fn, args)
            if loc not in locmap:
                raise CasmError(
                    f"read of untracked location {term.fn}{args!r}")
            return locmap[loc]

        if all(isinstance(e, Const) for e in argexprs):
            return read(tuple(e.value for e in argexprs))
        # ground expansion over the symbolic argument positions
        dims: list[tuple[int, tuple[Value, ...]]] = []
        fixed: dict[int, Value] = {}
        for i, e in enumerate(argexprs):
            if isinstance(e, Const):
                fixed[i] = e.value
            else:
                dims.append((i, decl.arg_sorts[i].values()))
        combos = list(itertools.product(*(vals for _, vals in dims)))

        def args_for(combo) -> tuple[Value, ...]:
            chosen = dict(fixed)
            for (i, _), v in zip(dims, combo):
                chosen[i] = v
            return tuple(chosen[i] for i in range(len(argexprs)))

        expr = read(args_for(combos[-1]))
        for combo in reversed(combos[:-1]):
            cond = and_all([
                s_eq(argexprs[i], Const(v))
                for (i, _), v in zip(dims, combo)])
            expr = s_ite(cond, read(args_for(combo)), expr)
        return expr
    kids = children(term)
    if not kids:
        raise CasmError(f"cannot evaluate {type(term).__name__} symbolically")
    return s_rebuild(term, [sym_eval(c, program, locmap, env) for c in kids])


class CtlWrite(NamedTuple):
    """A control-state write on a path: its site (the ``ordinal``-th
    control write of main rule ``rule``), its value, and whether a guard
    that reads the control state encloses it."""

    rule: str
    ordinal: int
    target: Term
    guarded: bool


@dataclass
class PathedSymState:
    """One symbolic execution path: its condition and successor map, and
    the control writes it makes."""

    path_cond: Term
    loc_map: dict[Location, Term]
    updated: frozenset[Location]
    merged_from: tuple[int, ...] = ()
    ctl_writes: tuple[CtlWrite, ...] = ()

    @property
    def stutter(self) -> bool:
        return not self.updated


def symbolic_step(program: Program, init: Optional[SymInit] = None,
                  ctl_abstraction: bool = True) -> list[PathedSymState]:
    """All feasible one-step paths from the symbolic initial state.

    With ``ctl_abstraction`` on, every write to the control-state
    function stores one shared fresh symbol instead of its right-hand
    side, so the analysis is independent of how the next control state
    is actually produced; two writes of different values on one path
    still raise :class:`SymbolicInconsistency`.  Combinations where no
    rule fires appear as stutter paths whose successor map is the
    initial one.

    Each path records its control writes (:class:`CtlWrite`), numbered
    by :func:`~casmkit.ast.ctl_writes`: a pruned branch keeps its numbers.
    """
    if init is None:
        init = SymInit.for_program(program)
    locmap0 = dict(init.sym_val)
    for loc in _cache().interest(program):
        if loc not in locmap0:
            raise CasmError(f"symbolic seed misses location {loc[0]}{loc[1]!r}")

    ctl_loc = program.ctl_loc
    next_sym_holder: list[Optional[Symbol]] = [None]

    def next_ctl_symbol() -> Term:
        if next_sym_holder[0] is None:
            base = init.base_symbols.get(ctl_loc)
            name = f"{base.name}_next" if base is not None else "ctl_next"
            next_sym_holder[0] = init.namer.named(name, program.ctl.result)
        return SymRef(next_sym_holder[0])

    paths: list[PathedSymState] = []
    # per-step memos of pure functions, so that the paths through a rule
    # share its work: the value of a term under an environment
    # (``sym_eval`` reads only ``locmap0``), that value simplified, and
    # the control writes of a rule
    evaluated: dict[tuple, Term] = {}
    simplified: dict[tuple, Term] = {}

    def evaluate(term: Term, env: dict[str, Term]) -> Term:
        key = (term, tuple(env.items()))
        out = evaluated.get(key)
        if out is None:
            out = evaluated[key] = sym_eval(term, program, locmap0, env)
        return out

    def value_of(term: Term, env: dict[str, Term]) -> Term:
        key = (term, tuple(env.items()))
        out = simplified.get(key)
        if out is None:
            out = simplified[key] = simplify_formula(evaluate(term, env),
                                                     program)
        return out

    @functools.cache
    def writes_in(rule: Rule) -> int:
        return ctl_writes(program, rule)

    def items_of(rules, env: dict[str, Term], site: tuple[str, int],
                 guarded: bool) -> list:
        """Work items for ``rules``, each with the site of its first
        control write."""
        rule, ordinal = site
        items = []
        for r in rules:
            items.append((r, env, (rule, ordinal), guarded))
            ordinal += writes_in(r)
        return items

    def finalize(conds: list[Term], updates: list) -> None:
        cond = simplify_formula(and_all(conds), program)
        merged: dict[Location, Term] = {}
        for loc, expr, _ in updates:
            if loc in merged and merged[loc] != expr:
                disagree = s_and(and_all(conds),
                                 s_not(s_eq(merged[loc], expr)))
                if satisfiable(disagree, program):
                    raise SymbolicInconsistency(loc)
            else:
                merged[loc] = expr
        if ctl_abstraction and ctl_loc in merged:
            merged[ctl_loc] = next_ctl_symbol()
        locmap = dict(locmap0)
        locmap.update(merged)
        writes = tuple(w for _, _, w in updates if w is not None)
        paths.append(PathedSymState(cond, locmap, frozenset(merged),
                                    ctl_writes=writes))

    def walk(items: list, conds: list[Term], updates: list) -> None:
        """``updates``: (location, value, :class:`CtlWrite` or None)."""
        if not items:
            finalize(conds, updates)
            return
        (node, env, site, guarded), rest = items[0], items[1:]
        if isinstance(node, Update):
            argexprs = [evaluate(a, env) for a in node.args]
            if not all(isinstance(e, Const) for e in argexprs):
                raise UnsupportedConstruct(
                    f"update to {node.fn} with a symbolic argument")
            loc = (node.fn, tuple(e.value for e in argexprs))
            if loc == ctl_loc and ctl_abstraction:
                # the target stays concrete until finalize compares writes;
                # the symbol is made here so fresh names keep their order
                next_ctl_symbol()
                rhs = evaluate(node.rhs, env)
            else:
                rhs = value_of(node.rhs, env)
            write = CtlWrite(*site, rhs, guarded) if loc == ctl_loc else None
            walk(rest, conds, updates + [(loc, rhs, write)])
        elif isinstance(node, Cond):
            guarded = guarded or reads_location(node.guard, ctl_loc)
            guard = value_of(node.guard, env)
            then = items_of(node.then_rules, env, site, guarded)
            other = items_of(node.else_rules, env, (site[0], site[1] + sum(
                map(writes_in, node.then_rules))), guarded)
            if guard == TRUE:
                walk(then + rest, conds, updates)
                return
            if guard == FALSE:
                walk(other + rest, conds, updates)
                return
            pos = conds + [guard]
            if satisfiable(and_all(pos), program):
                walk(then + rest, pos, updates)
            neg = conds + [s_not(guard)]
            if satisfiable(and_all(neg), program):
                walk(other + rest, neg, updates)
        elif isinstance(node, Par):
            walk(items_of(node.rules, env, site, guarded) + rest, conds,
                 updates)
        elif isinstance(node, Choose):
            if node.candidates.sort_name is None and not node.candidates.values:
                raise UnsupportedConstruct("empty candidate set in choose")
            values = node.candidates.resolve(program)
            sorts = {program.value_sort(v) for v in values}
            sorts.discard(None)
            sort = sorts.pop() if len(sorts) == 1 else program.ctl.result
            sym = init.namer.fresh(sort)
            inner = dict(env)
            inner[node.var] = SymRef(sym)
            constraint = s_member(SymRef(sym), values)
            new_conds = conds if constraint == TRUE else conds + [constraint]
            walk(items_of(node.body, inner, site, guarded) + rest,
                 new_conds, updates)
        elif isinstance(node, Let):
            inner = dict(env)
            inner[node.var] = evaluate(node.binding, env)
            walk(items_of(node.body, inner, site, guarded) + rest, conds,
                 updates)
        elif isinstance(node, Call):
            target = program.named_rule(node.name)
            inner = {p: evaluate(a, env)
                     for (p, _), a in zip(target.params, node.args)}
            walk(items_of(target.body, inner, site, guarded) + rest, conds,
                 updates)
        elif isinstance(node, ChooseCtl):
            walk(rest, conds, updates + [(ctl_loc, next_ctl_symbol(), None)])
        else:
            raise CasmError(f"cannot execute {type(node).__name__}")

    items = [item for nr in program.main_rules
             for item in items_of(nr.body, {}, (nr.name, 0), False)]
    walk(items, [], [])
    return paths


def group_successors(paths: list[PathedSymState]) -> list[list[int]]:
    """The indices of ``paths`` grouped by structurally equal successor
    maps, groups in the order of their first paths."""
    groups: dict[frozenset, list[int]] = {}
    for i, p in enumerate(paths):
        groups.setdefault(frozenset(p.loc_map.items()), []).append(i)
    return list(groups.values())


def merge_successors(paths: list[PathedSymState],
                     groups: Optional[list[list[int]]] = None
                     ) -> list[PathedSymState]:
    """Merge each of ``groups`` of ``paths``, by default every group of
    :func:`group_successors`; the merged condition is the simplified
    disjunction of the group's conditions."""
    if groups is None:
        groups = group_successors(paths)
    out: list[PathedSymState] = []
    for idxs in groups:
        members = [paths[i] for i in idxs]
        cond = simplify_formula(or_all([m.path_cond for m in members]))
        updated = frozenset().union(*(m.updated for m in members))
        out.append(PathedSymState(cond, dict(members[0].loc_map), updated,
                                  tuple(idxs)))
    return out


# ---------------------------------------------------------------------------
# Symbol elimination and back-substitution
# ---------------------------------------------------------------------------

def elim_symbol(f: Term, symbol: Symbol,
                program: Optional[Program] = None) -> Term:
    return simplify_formula(_elim(f, symbol), program)


def _elim(f: Term, symbol: Symbol) -> Term:
    """Existential elimination, distributed over the formula structure:
    disjuncts are eliminated independently and conjuncts not mentioning
    the symbol are kept outside the expansion."""
    ref, leaves = SymRef(symbol), _cache().leaves

    def elim(f: Term) -> Term:
        if ref not in leaves(f):
            return f
        if isinstance(f, Or):
            return or_all([elim(d) for d in flatten(f, Or)])
        if isinstance(f, And):
            parts = flatten(f, And)
            inside = [p for p in parts if ref in leaves(p)]
            outside = [p for p in parts if ref not in leaves(p)]
            if outside:
                return and_all(outside + [elim(and_all(inside))])
        return or_all([subst_symbol(f, symbol, Const(v))
                       for v in symbol.sort.values()])

    return elim(f)


def substitute_initial_terms(f: Term, init: SymInit,
                             include: Optional[set[Location]] = None) -> Term:
    """Replace symbolic values by the location terms that held them
    initially.  Whole correlated images (for example a negated symbol)
    are matched before bare symbols, so a location that was seeded with
    ``not s`` wins over negating the location that was seeded with ``s``.
    """
    images: dict[Term, Term] = {}
    direct: dict[Symbol, Location] = {}
    negated: dict[Symbol, Location] = {}
    for loc, expr in init.sym_val.items():
        if include is not None and loc not in include:
            continue
        if not free_symbols_in(expr):
            continue
        images.setdefault(expr, location_term(loc))
        if isinstance(expr, SymRef):
            direct.setdefault(expr.symbol, loc)
        elif isinstance(expr, Not) and isinstance(expr.operand, SymRef):
            negated.setdefault(expr.operand.symbol, loc)

    def walk(t: Term) -> Term:
        hit = images.get(t)
        if hit is not None:
            return hit
        if isinstance(t, SymRef):
            if t.symbol in direct:
                return location_term(direct[t.symbol])
            if t.symbol in negated:
                return Not(location_term(negated[t.symbol]))
            raise UnhousedSymbol(t.symbol)
        if isinstance(t, App):
            return t
        return s_rebuild(t, [walk(c) for c in children(t)])

    return walk(f)


def free_symbols_in(term: Term) -> set[Symbol]:
    return {leaf.symbol for leaf in _cache().leaves(term)
            if isinstance(leaf, SymRef)}


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def format_symexpr(term: Term) -> str:
    from .parser import format_term

    def devar(t: Term) -> Term:
        if isinstance(t, SymRef):
            return Var(t.symbol.name)
        return rebuild(t, [devar(c) for c in children(t)])

    return format_term(devar(term))
