"""Core data model for control-state ASM programs.

Defines sorts, function declarations, terms, rules, programs and update
sets, together with the term compiler (the one term evaluator), the
consistency check of an update set and the locations-of-interest
analysis that the symbolic engine builds on.

All values are plain Python scalars: enumeration literals are strings,
booleans are bools, bounded integers are ints.  A location is a
``(function name, argument tuple)`` pair.  Every AST node is an immutable
dataclass, so programs, states-as-values and terms can be shared freely.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Optional, Union

Value = Union[bool, int, str]
Location = tuple[str, tuple[Value, ...]]


class CasmError(Exception):
    """Base class for all toolchain errors."""


class ProgramError(CasmError):
    """A program object violates a structural invariant."""


class EvalError(CasmError):
    """Term evaluation hit an unbound variable or unknown location."""


class NonGroundGuardLocation(CasmError):
    """A rule reads a location whose argument cannot be grounded."""


class InconsistentUpdate(CasmError):
    """Two updates assign different values to the same location."""

    def __init__(self, location: Location, first: Value, second: Value):
        super().__init__(
            f"inconsistent update to {format_location(location)}: "
            f"{format_value(first)} vs {format_value(second)}"
        )
        self.location = location
        self.first = first
        self.second = second


# ---------------------------------------------------------------------------
# Hashing
# ---------------------------------------------------------------------------

def cached_hash(cls):
    """Make the dataclass hash of ``cls`` a once-per-node cost.

    Terms, rules and programs are nested frozen dataclasses, so the
    generated ``__hash__`` re-hashes the whole subtree on every dict or
    set lookup.  The wrapped hash stores the generated value on the
    instance the first time it is asked for; the value, and with it the
    iteration order of every set and dict of nodes, is unchanged.  The
    stored value is left out of pickles: string hashes differ between
    processes.
    """
    field_hash = cls.__hash__

    def __hash__(self):
        h = self._hash
        if h is None:
            h = field_hash(self)
            object.__setattr__(self, "_hash", h)
        return h

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    cls._hash = None
    cls.__hash__ = __hash__
    cls.__getstate__ = __getstate__
    return cls


# ---------------------------------------------------------------------------
# Sorts and function declarations
# ---------------------------------------------------------------------------

@cached_hash
@dataclass(frozen=True)
class Sort:
    """A finite base set: an enumeration, the booleans, or an int range."""

    name: str
    kind: str  # "enum" | "bool" | "int"
    literals: tuple[str, ...] = ()
    lo: int = 0
    hi: int = 0

    def __post_init__(self):
        if self.kind not in ("enum", "bool", "int"):
            raise ProgramError(f"unknown sort kind {self.kind!r}")
        if self.kind == "enum":
            if not self.literals:
                raise ProgramError(f"enum sort {self.name} has no literals")
            if len(set(self.literals)) != len(self.literals):
                raise ProgramError(f"enum sort {self.name} repeats a literal")
        if self.kind == "int" and self.lo > self.hi:
            raise ProgramError(f"int sort {self.name} has empty range")

    def values(self) -> tuple[Value, ...]:
        if self.kind == "enum":
            return self.literals
        if self.kind == "bool":
            return (False, True)
        return tuple(range(self.lo, self.hi + 1))

    @property
    def size(self) -> int:
        if self.kind == "enum":
            return len(self.literals)
        if self.kind == "bool":
            return 2
        return self.hi - self.lo + 1

    def contains(self, value: Value) -> bool:
        if self.kind == "enum":
            return isinstance(value, str) and value in self.literals
        if self.kind == "bool":
            return isinstance(value, bool)
        return isinstance(value, int) and not isinstance(value, bool) \
            and self.lo <= value <= self.hi

    def index(self, value: Value) -> int:
        """Position of a value in declaration order; used for stable sorting."""
        if self.kind == "enum":
            return self.literals.index(value)
        if self.kind == "bool":
            return int(value)
        return value - self.lo


BOOL = Sort("Bool", "bool")


@cached_hash
@dataclass(frozen=True)
class FunctionDecl:
    """A dynamic or static function of the program signature.

    ``init`` holds the total initializer for controlled and static
    functions as a canonically sorted tuple of (args, value) pairs;
    monitored functions carry none.
    """

    name: str
    arg_sorts: tuple[Sort, ...]
    result: Sort
    mode: str  # "controlled" | "monitored" | "static"
    init: tuple[tuple[tuple[Value, ...], Value], ...] = ()

    def __post_init__(self):
        if self.mode not in ("controlled", "monitored", "static"):
            raise ProgramError(f"unknown function mode {self.mode!r}")

    @property
    def arity(self) -> int:
        return len(self.arg_sorts)

    def init_map(self) -> dict[tuple[Value, ...], Value]:
        return dict(self.init)

    def arg_tuples(self) -> Iterable[tuple[Value, ...]]:
        return itertools.product(*(s.values() for s in self.arg_sorts))


def make_init(entries: Mapping[tuple[Value, ...], Value]) -> tuple:
    """Canonical initializer tuple (sorted by argument tuple repr)."""
    return tuple(sorted(entries.items(), key=lambda kv: _value_key_raw(kv[0])))


def _value_key_raw(values: tuple[Value, ...]) -> tuple:
    return tuple((type(v).__name__, v) for v in values)


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------

class Term:
    """Base class for term/formula nodes."""

    __slots__ = ()


@cached_hash
@dataclass(frozen=True)
class Const(Term):
    """A literal.  Equal only to a literal of the same value type, so
    ``Const(1) != Const(True)``; the hash stays the dataclass one (and
    ``hash(1) == hash(True)``), so sets and dicts iterate as before."""

    value: Value

    def __eq__(self, other):
        if other.__class__ is not Const:
            return NotImplemented
        return (type(self.value) is type(other.value)
                and self.value == other.value)


@cached_hash
@dataclass(frozen=True)
class Var(Term):
    name: str


@cached_hash
@dataclass(frozen=True)
class App(Term):
    fn: str
    args: tuple[Term, ...] = ()


@cached_hash
@dataclass(frozen=True)
class Not(Term):
    operand: Term


@cached_hash
@dataclass(frozen=True)
class And(Term):
    left: Term
    right: Term


@cached_hash
@dataclass(frozen=True)
class Or(Term):
    left: Term
    right: Term


@cached_hash
@dataclass(frozen=True)
class Eq(Term):
    left: Term
    right: Term


@cached_hash
@dataclass(frozen=True)
class Member(Term):
    """Membership of a term in a finite set of constants."""

    item: Term
    values: tuple[Value, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", canonical_values(self.values))


@cached_hash
@dataclass(frozen=True)
class Ite(Term):
    cond: Term
    then: Term
    other: Term


TRUE = Const(True)
FALSE = Const(False)


def canonical_values(values: Iterable[Value]) -> tuple[Value, ...]:
    return tuple(sorted(set(values), key=lambda v: (type(v).__name__, v)))


def _fold(cls, unit: Term, terms: Iterable[Term]) -> Term:
    """``terms`` joined by ``cls`` (``And`` or ``Or``), folded to the
    left; ``unit`` for the empty sequence."""
    terms = iter(terms)
    return functools.reduce(cls, terms, next(terms, unit))


def and_all(terms: Iterable[Term]) -> Term:
    """Left-folded conjunction; TRUE for the empty sequence."""
    return _fold(And, TRUE, terms)


def or_all(terms: Iterable[Term]) -> Term:
    """Left-folded disjunction; FALSE for the empty sequence."""
    return _fold(Or, FALSE, terms)


def flatten(term: Term, cls) -> list[Term]:
    """The operands of the nest of ``cls`` (``And`` or ``Or``) nodes at
    the top of ``term``, left to right: the inverse of a fold."""
    if isinstance(term, cls):
        return flatten(term.left, cls) + flatten(term.right, cls)
    return [term]


def term_size(term: Term) -> int:
    """Node count; Member counts as a single node."""
    return 1 + sum(map(term_size, children(term)))


# Dispatch is on the exact node type; a kind missing here is a leaf.
_CHILDREN = {
    App: lambda t: t.args,
    Not: lambda t: (t.operand,),
    And: lambda t: (t.left, t.right),
    Or: lambda t: (t.left, t.right),
    Eq: lambda t: (t.left, t.right),
    Member: lambda t: (t.item,),
    Ite: lambda t: (t.cond, t.then, t.other),
}

_REBUILD = {
    App: lambda t, k: App(t.fn, tuple(k)),
    Not: lambda t, k: Not(k[0]),
    And: lambda t, k: And(k[0], k[1]),
    Or: lambda t, k: Or(k[0], k[1]),
    Eq: lambda t, k: Eq(k[0], k[1]),
    Member: lambda t, k: Member(k[0], t.values),
    Ite: lambda t, k: Ite(k[0], k[1], k[2]),
}


def children(term: Term) -> tuple[Term, ...]:
    """The node's direct subterms in field order, ``()`` for a leaf.  With
    :func:`rebuild`, the one place that knows a node's children: a term
    walker maps these and rebuilds instead of listing node kinds."""
    get = _CHILDREN.get(type(term))
    return () if get is None else get(term)


def rebuild(term: Term, kids) -> Term:
    """``term`` with its children replaced by ``kids``, given in
    :func:`children` order; a leaf comes back as it is.  With
    :func:`children`, the one place that knows a node's children."""
    make = _REBUILD.get(type(term))
    return term if make is None else make(term, kids)


def reads_location(term: Term, loc: Location) -> bool:
    """Whether ``term`` reads ``loc`` through an application whose
    arguments are the location's constants."""
    if isinstance(term, App) and term.fn == loc[0] \
            and len(term.args) == len(loc[1]) \
            and all(isinstance(a, Const) and a.value == v
                    for a, v in zip(term.args, loc[1])):
        return True
    return any(reads_location(c, loc) for c in children(term))


def locations_read(program: Program, term: Term) -> tuple[Location, ...]:
    """Locations ``term`` can read, in first-read order; a read with a
    non-constant argument counts every location of its function."""
    found: dict[Location, None] = {}
    stack = [term]
    while stack:
        t = stack.pop()
        if isinstance(t, App):
            if all(isinstance(a, Const) for a in t.args):
                found[(t.fn, tuple(a.value for a in t.args))] = None
            else:
                found.update(dict.fromkeys(program.locations(t.fn)))
        stack.extend(reversed(children(t)))
    return tuple(found)


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------

class Rule:
    __slots__ = ()


@cached_hash
@dataclass(frozen=True)
class SetExpr:
    """Candidate set of a choose rule: explicit constants or a whole sort."""

    values: tuple[Value, ...] = ()
    sort_name: Optional[str] = None

    def __post_init__(self):
        if self.sort_name is None:
            object.__setattr__(self, "values", canonical_values(self.values))

    def resolve(self, program: "Program") -> tuple[Value, ...]:
        if self.sort_name is not None:
            return program.sort(self.sort_name).values()
        return self.values


@cached_hash
@dataclass(frozen=True)
class Update(Rule):
    fn: str
    args: tuple[Term, ...]
    rhs: Term


@cached_hash
@dataclass(frozen=True)
class Cond(Rule):
    guard: Term
    then_rules: tuple[Rule, ...]
    else_rules: tuple[Rule, ...] = ()


@cached_hash
@dataclass(frozen=True)
class Par(Rule):
    rules: tuple[Rule, ...]


@cached_hash
@dataclass(frozen=True)
class Choose(Rule):
    var: str
    candidates: SetExpr
    body: tuple[Rule, ...]


@cached_hash
@dataclass(frozen=True)
class Let(Rule):
    var: str
    binding: Term
    body: tuple[Rule, ...]


@cached_hash
@dataclass(frozen=True)
class Call(Rule):
    name: str
    args: tuple[Term, ...] = ()


@cached_hash
@dataclass(frozen=True)
class ChooseCtl(Rule):
    """Hardware-bound control-state choice site carrying its challenge."""

    challenge: int


@cached_hash
@dataclass(frozen=True)
class NamedRule:
    name: str
    params: tuple[tuple[str, Sort], ...]
    body: tuple[Rule, ...]


# Dispatch is on the exact rule type; a kind missing here has no parts.
_RULE_PARTS = {
    Update: lambda r: ((*r.args, r.rhs), ()),
    Cond: lambda r: ((r.guard,), (r.then_rules, r.else_rules)),
    Par: lambda r: ((), (r.rules,)),
    Choose: lambda r: ((), (r.body,)),
    Let: lambda r: ((r.binding,), (r.body,)),
    Call: lambda r: (r.args, ()),
}

_REBUILD_RULE = {
    Update: lambda r, t, b: Update(r.fn, tuple(t[:-1]), t[-1]),
    Cond: lambda r, t, b: Cond(t[0], tuple(b[0]), tuple(b[1])),
    Par: lambda r, t, b: Par(tuple(b[0])),
    Choose: lambda r, t, b: Choose(r.var, r.candidates, tuple(b[0])),
    Let: lambda r, t, b: Let(r.var, t[0], tuple(b[0])),
    Call: lambda r, t, b: Call(r.name, tuple(t)),
}


def rule_parts(rule: Rule) -> tuple[tuple[Term, ...], tuple[tuple[Rule, ...], ...]]:
    """The rule's terms and its bodies (rule tuples), each in field order;
    ``((), ())`` for a rule with neither.  A ``Choose``/``Let`` variable
    is in scope in the bodies only.  With :func:`rebuild_rule`, the one
    place that knows a rule's parts: a rule walker maps these and
    rebuilds instead of listing rule kinds."""
    get = _RULE_PARTS.get(type(rule))
    return ((), ()) if get is None else get(rule)


def rebuild_rule(rule: Rule, terms, bodies) -> Rule:
    """``rule`` with its terms and bodies replaced, given in
    :func:`rule_parts` order; a rule without parts comes back as it is."""
    make = _REBUILD_RULE.get(type(rule))
    return rule if make is None else make(rule, terms, bodies)


# ---------------------------------------------------------------------------
# Program and state
# ---------------------------------------------------------------------------

@cached_hash
@dataclass(frozen=True)
class Program:
    name: str
    sorts: tuple[Sort, ...]
    functions: tuple[FunctionDecl, ...]
    named_rules: tuple[NamedRule, ...]
    main_rules: tuple[NamedRule, ...]
    ctl_name: str
    unsafe: Term
    init_constraints: tuple[Term, ...] = ()
    # built by each instance for itself: ``dataclasses.replace`` makes
    # new ones for the copy instead of handing it the original's
    _sort_index: dict = field(default_factory=dict, init=False,
                              compare=False, repr=False)
    _fn_index: dict = field(default_factory=dict, init=False,
                            compare=False, repr=False)
    _literal_sorts: dict = field(default_factory=dict, init=False,
                                 compare=False, repr=False)
    _named_index: dict = field(default_factory=dict, init=False,
                               compare=False, repr=False)
    # validate_program's problems, by its (protected, plain_sort)
    _problems: dict = field(default_factory=dict, init=False,
                            compare=False, repr=False)

    def __post_init__(self):
        self._sort_index.update({s.name: s for s in self.sorts})
        self._fn_index.update({f.name: f for f in self.functions})
        for s in self.sorts:
            for lit in s.literals:
                self._literal_sorts[lit] = s
        self._named_index.update({r.name: r for r in self.named_rules})

    def sort(self, name: str) -> Sort:
        if name == "Bool":
            return BOOL
        try:
            return self._sort_index[name]
        except KeyError:
            raise ProgramError(f"unknown sort {name}") from None

    def function(self, name: str) -> FunctionDecl:
        try:
            return self._fn_index[name]
        except KeyError:
            raise ProgramError(f"unknown function {name}") from None

    def has_function(self, name: str) -> bool:
        return name in self._fn_index

    def named_rule(self, name: str) -> NamedRule:
        try:
            return self._named_index[name]
        except KeyError:
            raise ProgramError(f"unknown rule {name}") from None

    def literal_sort(self, literal: str) -> Optional[Sort]:
        return self._literal_sorts.get(literal)

    @property
    def ctl(self) -> FunctionDecl:
        return self.function(self.ctl_name)

    @property
    def ctl_loc(self) -> Location:
        return (self.ctl_name, ())

    def ctl_values(self) -> tuple[Value, ...]:
        return self.ctl.result.values()

    def value_sort(self, value: Value) -> Optional[Sort]:
        """Sort of a scalar value; int values may inhabit several sorts."""
        if isinstance(value, bool):
            return BOOL
        if isinstance(value, str):
            return self.literal_sort(value)
        for s in self.sorts:
            if s.kind == "int" and s.contains(value):
                return s
        return None

    def locations(self, fn_name: str) -> tuple[Location, ...]:
        decl = self.function(fn_name)
        return tuple((fn_name, args) for args in decl.arg_tuples())

    def monitored_locations(self) -> tuple[Location, ...]:
        out: list[Location] = []
        for f in self.functions:
            if f.mode == "monitored":
                out.extend(self.locations(f.name))
        return tuple(out)

    def initial_values(self) -> dict[Location, Value]:
        """The initial value of every controlled and static location."""
        values: dict[Location, Value] = {}
        for f in self.functions:
            if f.mode in ("controlled", "static"):
                init = f.init_map()
                for args in f.arg_tuples():
                    values[(f.name, args)] = init[args]
        return values

    def initial_ctl(self) -> Value:
        return self.initial_values()[self.ctl_loc]


UpdateSet = Iterable[tuple[Location, Value]]


# ---------------------------------------------------------------------------
# Evaluation and update consistency
# ---------------------------------------------------------------------------

def compile_term(program: Program, term: Term) -> Callable:
    """``term`` lowered to a closure over (values, monitored, env) dicts:
    the one term evaluator.  Static and controlled locations are read
    from ``values``, monitored ones from ``monitored``, variables from
    ``env``; a location or variable the dicts lack raises ``KeyError``."""
    if isinstance(term, Const):
        v = term.value
        return lambda vals, mon, env: v
    if isinstance(term, Var):
        name = term.name
        return lambda vals, mon, env: env[name]
    if isinstance(term, App):
        monitored = program.function(term.fn).mode == "monitored"
        if all(isinstance(a, Const) for a in term.args):
            loc = (term.fn, tuple(a.value for a in term.args))
            if monitored:
                return lambda vals, mon, env: mon[loc]
            return lambda vals, mon, env: vals[loc]
        fn = term.fn
        argfns = tuple(compile_term(program, a) for a in term.args)
        if monitored:
            return lambda vals, mon, env: mon[
                (fn, tuple(f(vals, mon, env) for f in argfns))]
        return lambda vals, mon, env: vals[
            (fn, tuple(f(vals, mon, env) for f in argfns))]
    if isinstance(term, Not):
        f = compile_term(program, term.operand)
        return lambda vals, mon, env: not f(vals, mon, env)
    if isinstance(term, And):
        l, r = compile_term(program, term.left), compile_term(program, term.right)
        return lambda vals, mon, env: bool(l(vals, mon, env)
                                           and r(vals, mon, env))
    if isinstance(term, Or):
        l, r = compile_term(program, term.left), compile_term(program, term.right)
        return lambda vals, mon, env: bool(l(vals, mon, env)
                                           or r(vals, mon, env))
    if isinstance(term, Eq):
        l, r = compile_term(program, term.left), compile_term(program, term.right)
        return lambda vals, mon, env: l(vals, mon, env) == r(vals, mon, env)
    if isinstance(term, Member):
        f = compile_term(program, term.item)
        values = frozenset(term.values)
        return lambda vals, mon, env: f(vals, mon, env) in values
    if isinstance(term, Ite):
        c = compile_term(program, term.cond)
        t = compile_term(program, term.then)
        o = compile_term(program, term.other)
        return lambda vals, mon, env: (t(vals, mon, env)
                                       if c(vals, mon, env)
                                       else o(vals, mon, env))
    raise CasmError(f"cannot compile {type(term).__name__}")


def check_updates(updates: UpdateSet) -> dict[Location, Value]:
    """Consistency scan; the accept/reject answer is order-independent."""
    merged: dict[Location, Value] = {}
    for loc, value in updates:
        if loc in merged and merged[loc] != value:
            raise InconsistentUpdate(loc, merged[loc], value)
        merged[loc] = value
    return merged


# ---------------------------------------------------------------------------
# Locations of interest
# ---------------------------------------------------------------------------

def locations_of_interest(program: Program) -> tuple[Location, ...]:
    """Ground locations the program can read, plus those of the
    violation predicate and the declared initial-state constraints.

    Non-constant arguments are grounded by expansion: reads through the
    control-state function or through binder-fixed variables fan out over
    their finite ranges.  Any other parametric read raises
    ``NonGroundGuardLocation``.
    """
    found: dict[Location, None] = {}

    def arg_candidates(arg: Term, ranges: dict[str, tuple[Value, ...]]) -> tuple[Value, ...]:
        if isinstance(arg, Const):
            return (arg.value,)
        if isinstance(arg, Var):
            if arg.name in ranges:
                return ranges[arg.name]
            raise NonGroundGuardLocation(
                f"argument variable {arg.name} is not fixed by a binder")
        if isinstance(arg, App) and arg.fn == program.ctl_name and not arg.args:
            return program.ctl_values()
        if isinstance(arg, Ite):
            then = arg_candidates(arg.then, ranges)
            other = arg_candidates(arg.other, ranges)
            return tuple(dict.fromkeys(then + other))
        raise NonGroundGuardLocation(
            f"cannot ground argument {type(arg).__name__} of a location read")

    def collect_term(term: Term, ranges: dict[str, tuple[Value, ...]]) -> None:
        if isinstance(term, App):
            for a in term.args:
                collect_term(a, ranges)
            decl = program.function(term.fn)
            if decl.mode == "static":
                return
            combos = [arg_candidates(a, ranges) for a in term.args]
            for args in itertools.product(*combos):
                found.setdefault((term.fn, args))
            return
        for c in children(term):
            collect_term(c, ranges)

    def collect_rule(rule: Rule, ranges: dict[str, tuple[Value, ...]],
                     seen_calls: frozenset) -> None:
        terms, bodies = rule_parts(rule)
        for t in terms:
            collect_term(t, ranges)
        sub = ranges
        if isinstance(rule, Choose):
            sub = {**ranges, rule.var: rule.candidates.resolve(program)}
        elif isinstance(rule, Let):
            sub = dict(ranges)
            if isinstance(rule.binding, Const):
                sub[rule.var] = (rule.binding.value,)
            else:
                sub.pop(rule.var, None)
        elif isinstance(rule, Call):
            if rule.name in seen_calls:
                return
            target = program.named_rule(rule.name)
            sub = {pname: (arg.value,) if isinstance(arg, Const)
                   else psort.values()
                   for (pname, psort), arg in zip(target.params, rule.args)}
            bodies, seen_calls = (target.body,), seen_calls | {rule.name}
        elif isinstance(rule, ChooseCtl):
            found.setdefault(program.ctl_loc)
        for body in bodies:
            for r in body:
                collect_rule(r, sub, seen_calls)

    for main in program.main_rules:
        for r in main.body:
            collect_rule(r, {}, frozenset())
    collect_term(program.unsafe, {})
    for c in program.init_constraints:
        collect_term(c, {})

    return tuple(sorted(found, key=lambda loc: _loc_key(program, loc)))


def _loc_key(program: Program, loc: Location) -> tuple:
    ctl_first = 0 if loc == program.ctl_loc else 1
    arg_keys = []
    for v in loc[1]:
        s = program.value_sort(v)
        arg_keys.append(s.index(v) if s is not None else v)
    return (ctl_first, loc[0], tuple(arg_keys))


def location_term(loc: Location) -> App:
    return App(loc[0], tuple(Const(v) for v in loc[1]))


# ---------------------------------------------------------------------------
# Formatting helpers shared by traces, reports and diagnostics
# ---------------------------------------------------------------------------

def format_value(value: Value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def format_location(loc: Location) -> str:
    name, args = loc
    if not args:
        return name
    return f"{name}({','.join(format_value(a) for a in args)})"


def parse_location_key(program: Program, text: str) -> Location:
    """Inverse of :func:`format_location` for a program's signature."""
    text = text.strip()
    if "(" not in text:
        return (text, ())
    if not text.endswith(")"):
        raise CasmError(f"malformed location {text!r}")
    name, _, rest = text.partition("(")
    parts = rest[:-1].split(",")
    decl = program.function(name)
    if len(parts) != decl.arity:
        raise CasmError(f"wrong arity in location {text!r}")
    args: list[Value] = []
    for raw, sort in zip(parts, decl.arg_sorts):
        args.append(parse_value(raw.strip(), sort))
    return (name, tuple(args))


def parse_value(raw: str, sort: Sort) -> Value:
    if sort.kind == "bool":
        if raw == "true":
            return True
        if raw == "false":
            return False
        raise CasmError(f"not a boolean: {raw!r}")
    if sort.kind == "int":
        try:
            v = int(raw)
        except ValueError:
            raise CasmError(f"not an integer: {raw!r}") from None
        if not sort.contains(v):
            raise CasmError(f"{v} outside {sort.name}")
        return v
    if raw not in sort.literals:
        raise CasmError(f"{raw!r} is not a literal of {sort.name}")
    return raw


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def validate_program(program: Program, protected: bool = False,
                     plain_sort: Optional[Sort] = None) -> list[tuple[str, str]]:
    """Structural validation; returns (code, message) problems.

    ``protected`` relaxes the plain-update shape rule: hardware-bound
    programs must have no plain control-state updates at all, and their
    control-state guards test membership in encoded value sets.  The
    violation predicate is only evaluated on decoded states, so it is
    checked with the control function at ``plain_sort`` when given.

    A program is validated once per ``protected`` and ``plain_sort``:
    the answer is kept on the program, so ``protect`` of a parsed
    program reuses the parser's.
    """
    key = (protected, plain_sort)
    problems = program._problems.get(key)
    if problems is None:
        problems = program._problems[key] = _validate(
            program, protected, plain_sort)
    return list(problems)


def _validate(program: Program, protected: bool,
              plain_sort: Optional[Sort]) -> list[tuple[str, str]]:
    problems: list[tuple[str, str]] = []

    names = [s.name for s in program.sorts]
    if len(set(names)) != len(names):
        problems.append(("E-DUP-DECL", "duplicate sort name"))
    all_literals: dict[str, str] = {}
    for s in program.sorts:
        for lit in s.literals:
            if lit in all_literals:
                problems.append(
                    ("E-DUP-LITERAL",
                     f"literal {lit} declared in both {all_literals[lit]} and {s.name}"))
            all_literals[lit] = s.name

    fn_names = [f.name for f in program.functions]
    if len(set(fn_names)) != len(fn_names):
        problems.append(("E-DUP-DECL", "duplicate function name"))

    for f in program.functions:
        if f.mode == "monitored":
            if f.init:
                problems.append(
                    ("E-INIT", f"monitored function {f.name} has an initializer"))
            continue
        init = f.init_map()
        for args in f.arg_tuples():
            if args not in init:
                problems.append(
                    ("E-NOINIT",
                     f"{f.name}{args!r} has no initial value"))
                break
        for args, value in f.init:
            if not f.result.contains(value):
                problems.append(
                    ("E-SORT",
                     f"initializer of {f.name} assigns {format_value(value)} "
                     f"outside {f.result.name}"))
                break

    if not program.has_function(program.ctl_name):
        problems.append(("E-NO-CTL", f"control function {program.ctl_name} not declared"))
        return problems
    ctl = program.ctl
    if ctl.mode != "controlled" or ctl.arity != 0:
        problems.append(
            ("E-CTLSHAPE", f"{ctl.name} must be a nullary controlled function"))
    if ctl.result.kind == "bool":
        problems.append(
            ("E-CTLSHAPE", f"{ctl.name} must range over an enumeration or int sort"))

    checker = _SortChecker(program, problems)
    for nr in program.named_rules:
        env = {p: s for p, s in nr.params}
        for r in nr.body:
            checker.check_rule(r, env, protected)
    for nr in program.main_rules:
        if nr.params:
            problems.append(("E-CTLSHAPE", f"top-level rule {nr.name} has parameters"))
        for r in nr.body:
            checker.check_rule(r, {}, protected)
        _check_main_shape(program, nr, problems)
    _check_ctl_writes(program, problems, protected)

    if free_vars(program.unsafe):
        problems.append(("E-UNBOUND", "violation predicate must be variable-free"))
    else:
        _SortChecker(program, problems, plain_sort).check_formula(
            program.unsafe, {}, "violation predicate")

    # built at most once, for the first constraint that is evaluated
    initial = functools.cache(program.initial_values)
    for c in program.init_constraints:
        _check_constraint(program, c, checker, problems, initial)

    return problems


def _check_main_shape(program: Program, nr: NamedRule,
                      problems: list) -> None:
    if len(nr.body) != 1 or not isinstance(nr.body[0], Cond):
        problems.append(
            ("E-CTLSHAPE",
             f"rule {nr.name} must be a single guarded conditional"))
        return
    guard = nr.body[0].guard
    if not any(_constrains_ctl(g, program.ctl_name)
               for g in flatten(guard, And)):
        problems.append(
            ("E-CTLSHAPE",
             f"guard of rule {nr.name} does not constrain {program.ctl_name}"))


def _check_ctl_writes(program: Program, problems: list,
                      protected: bool) -> None:
    """A protected program writes the control state only at challenge
    sites, in every rule; a plain program's main rules assign it
    constants of its sort."""
    for nr, rule in program_rules(program):
        if not (isinstance(rule, Update) and rule.fn == program.ctl_name):
            continue
        if protected:
            problems.append(
                ("E-CTLSHAPE",
                 f"plain control-state update in protected rule {nr.name}"))
        elif nr not in program.main_rules:
            continue  # a plain helper's writes are checked as protect inlines it
        elif not isinstance(rule.rhs, Const):
            problems.append(
                ("E-CTL-CONST",
                 f"update to {program.ctl_name} in rule {nr.name} "
                 "must assign a constant"))
        elif not program.ctl.result.contains(rule.rhs.value):
            problems.append(
                ("E-SORT",
                 f"update assigns {format_value(rule.rhs.value)} outside "
                 f"{program.ctl.result.name}"))


def _constrains_ctl(literal: Term, ctl_name: str) -> bool:
    def is_ctl(t: Term) -> bool:
        return isinstance(t, App) and t.fn == ctl_name and not t.args

    if isinstance(literal, Eq):
        return (is_ctl(literal.left) and isinstance(literal.right, Const)) or \
               (is_ctl(literal.right) and isinstance(literal.left, Const))
    if isinstance(literal, Member):
        return is_ctl(literal.item)
    return False


def _check_constraint(program: Program, c: Term, checker: "_SortChecker",
                      problems: list,
                      initial: Callable[[], dict[Location, Value]]) -> None:
    ok_shape = (isinstance(c, Eq) and isinstance(c.left, App)
                and all(isinstance(a, Const) for a in c.left.args))
    if not ok_shape:
        problems.append(
            ("E-CONSTRAINT",
             "initial constraint must equate a ground location with a term"))
        return
    if free_vars(c):
        problems.append(("E-CONSTRAINT", "initial constraint must be variable-free"))
        return
    for node in _walk_terms(c):
        if isinstance(node, App):
            decl = program.function(node.fn)
            if decl.mode == "monitored":
                problems.append(
                    ("E-CONSTRAINT",
                     f"initial constraint reads monitored {node.fn}"))
                return
            if not all(isinstance(a, Const) for a in node.args):
                problems.append(
                    ("E-CONSTRAINT", "initial constraint reads a parametric location"))
                return
    checker.check_formula(c, {}, "initial constraint")
    try:
        if compile_term(program, c)(initial(), {}, {}) is not True:
            problems.append(
                ("E-CONSTRAINT", "initial constraint does not hold initially"))
    except (CasmError, KeyError):
        pass  # already reported by the sort checker


def free_vars(term: Term) -> set[str]:
    """Names of the variables ``term`` reads; terms bind none."""
    if isinstance(term, Var):
        return {term.name}
    return set().union(*(free_vars(c) for c in children(term)))


def _walk_terms(term: Term):
    yield term
    for c in children(term):
        yield from _walk_terms(c)


def iter_rules(rules: Iterable[Rule], env: Optional[dict] = None):
    """Depth-first traversal yielding (rule, binder env) pairs."""
    env = env or {}
    for rule in rules:
        yield rule, env
        sub = {**env, rule.var: rule} \
            if isinstance(rule, (Choose, Let)) else env
        for body in rule_parts(rule)[1]:
            yield from iter_rules(body, sub)


def program_rules(program: Program) -> Iterator[tuple[NamedRule, Rule]]:
    """Every rule of the program, depth first, with the main or helper
    rule whose body holds it: main rules first, then helpers."""
    for nr in (*program.main_rules, *program.named_rules):
        for rule, _ in iter_rules(nr.body):
            yield nr, rule


def ctl_writes(program: Program, rule: Rule,
               calling: frozenset = frozenset()) -> int:
    """The control-state writes in ``rule``, a call holding those of the
    rule it calls: in rule order, then branch first, the rewrite's sites.
    A recursive call, which would hold endlessly many, is refused."""
    if isinstance(rule, Call):
        if rule.name in calling:
            raise CasmError(f"recursive rule {rule.name} in analysis")
        return sum(ctl_writes(program, r, calling | {rule.name})
                   for r in program.named_rule(rule.name).body)
    return int(isinstance(rule, Update) and rule.fn == program.ctl_name) \
        + sum(ctl_writes(program, r, calling)
              for body in rule_parts(rule)[1] for r in body)


class _SortChecker:
    """Bidirectional sort checking of terms and rules."""

    def __init__(self, program: Program, problems: list,
                 ctl_sort: Optional[Sort] = None):
        self.program = program
        self.problems = problems
        self.ctl_sort = ctl_sort  # read the control function at this sort

    def error(self, code: str, msg: str) -> None:
        self.problems.append((code, msg))

    def infer(self, term: Term, env: dict[str, Sort]) -> Optional[Sort]:
        p = self.program
        if isinstance(term, Const):
            if isinstance(term.value, bool):
                return BOOL
            if isinstance(term.value, str):
                s = p.literal_sort(term.value)
                if s is None:
                    self.error("E-UNKNOWN-LITERAL",
                               f"unknown literal {term.value}")
                return s
            return None  # bare integer: sort decided by context
        if isinstance(term, Var):
            if term.name not in env:
                self.error("E-UNBOUND", f"unbound variable {term.name}")
                return None
            return env[term.name]
        if isinstance(term, App):
            if not p.has_function(term.fn):
                self.error("E-UNKNOWN-IDENT", f"unknown function {term.fn}")
                return None
            decl = p.function(term.fn)
            if len(term.args) != decl.arity:
                self.error("E-ARITY",
                           f"{term.fn} expects {decl.arity} arguments, "
                           f"got {len(term.args)}")
                return decl.result
            for a, s in zip(term.args, decl.arg_sorts):
                self.check(a, s, env)
            if self.ctl_sort is not None and term.fn == p.ctl_name:
                return self.ctl_sort
            return decl.result
        if isinstance(term, Not):
            self.check(term.operand, BOOL, env)
            return BOOL
        if isinstance(term, (And, Or)):
            self.check(term.left, BOOL, env)
            self.check(term.right, BOOL, env)
            return BOOL
        if isinstance(term, Eq):
            ls = self.infer(term.left, env)
            rs = self.infer(term.right, env)
            if ls is not None and rs is not None and not _compatible(ls, rs):
                self.error("E-SORT",
                           f"equality compares {ls.name} with {rs.name}")
            elif ls is not None and rs is None:
                self.check(term.right, ls, env)
            elif rs is not None and ls is None:
                self.check(term.left, rs, env)
            return BOOL
        if isinstance(term, Member):
            s = self.infer(term.item, env)
            if s is not None:
                for v in term.values:
                    if not s.contains(v):
                        self.error("E-SORT",
                                   f"{format_value(v)} is not in {s.name}")
            return BOOL
        if isinstance(term, Ite):
            self.check(term.cond, BOOL, env)
            ts = self.infer(term.then, env)
            os = self.infer(term.other, env)
            if ts is not None and os is not None and not _compatible(ts, os):
                self.error("E-SORT", "conditional branches have different sorts")
            return ts or os
        self.error("E-SORT", f"unexpected node {type(term).__name__}")
        return None

    def check(self, term: Term, expected: Sort, env: dict[str, Sort]) -> None:
        if isinstance(term, Const) and not isinstance(term.value, (bool, str)):
            if not expected.contains(term.value):
                self.error("E-SORT",
                           f"{term.value} is outside {expected.name}")
            return
        got = self.infer(term, env)
        if got is not None and not _compatible(got, expected):
            self.error("E-SORT",
                       f"expected {expected.name}, found {got.name}")

    def check_formula(self, term: Term, env: dict[str, Sort], what: str) -> None:
        got = self.infer(term, env)
        if got is not None and got.kind != "bool":
            self.error("E-SORT", f"{what} must be boolean")

    def check_rule(self, rule: Rule, env: dict[str, Sort], protected: bool) -> None:
        p = self.program
        if isinstance(rule, Update):
            if not p.has_function(rule.fn):
                self.error("E-UNKNOWN-IDENT", f"unknown function {rule.fn}")
                return
            decl = p.function(rule.fn)
            if decl.mode != "controlled":
                self.error("E-UPDATE",
                           f"cannot update {decl.mode} function {rule.fn}")
            if len(rule.args) != decl.arity:
                self.error("E-ARITY", f"wrong arity updating {rule.fn}")
                return
            for a, s in zip(rule.args, decl.arg_sorts):
                self.check(a, s, env)
            self.check(rule.rhs, decl.result, env)
        elif isinstance(rule, Cond):
            self.check_formula(rule.guard, env, "guard")
            for r in rule.then_rules + rule.else_rules:
                self.check_rule(r, env, protected)
        elif isinstance(rule, Par):
            for r in rule.rules:
                self.check_rule(r, env, protected)
        elif isinstance(rule, Choose):
            if rule.candidates.sort_name is not None:
                try:
                    elem = p.sort(rule.candidates.sort_name)
                except ProgramError:
                    self.error("E-UNKNOWN-IDENT",
                               f"unknown sort {rule.candidates.sort_name}")
                    return
            else:
                sorts = {p.value_sort(v) for v in rule.candidates.values}
                sorts.discard(None)
                if len(sorts) != 1:
                    self.error("E-SORT", "mixed-sort candidate set in choose")
                    return
                elem = sorts.pop()
            sub = dict(env)
            sub[rule.var] = elem
            for r in rule.body:
                self.check_rule(r, sub, protected)
        elif isinstance(rule, Let):
            bound = self.infer(rule.binding, env)
            if bound is None:
                self.error("E-SORT", f"cannot type let binding of {rule.var}")
                return
            sub = dict(env)
            sub[rule.var] = bound
            for r in rule.body:
                self.check_rule(r, sub, protected)
        elif isinstance(rule, Call):
            try:
                target = self.program.named_rule(rule.name)
            except ProgramError:
                self.error("E-UNKNOWN-IDENT", f"call to unknown rule {rule.name}")
                return
            if len(rule.args) != len(target.params):
                self.error("E-ARITY", f"call to {rule.name} has wrong arity")
                return
            for a, (_, s) in zip(rule.args, target.params):
                self.check(a, s, env)
        elif isinstance(rule, ChooseCtl):
            if not protected:
                self.error("E-CTLSHAPE",
                           "challenge sites are only valid in protected programs")


def _compatible(a: Sort, b: Sort) -> bool:
    if a.kind == "int" and b.kind == "int":
        return True  # int sorts overlap; range membership checked at init/update
    return a == b
