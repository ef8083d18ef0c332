"""Core data model for control-state ASM programs.

Defines sorts, function declarations, terms, rules, programs, states and
update sets, together with term evaluation, update application and the
locations-of-interest analysis that the symbolic engine builds on.

All values are plain Python scalars: enumeration literals are strings,
booleans are bools, bounded integers are ints.  A location is a
``(function name, argument tuple)`` pair.  Every AST node is an immutable
dataclass, so programs, states-as-values and terms can be shared freely.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Union

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
# Sorts and function declarations
# ---------------------------------------------------------------------------

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


@dataclass(frozen=True)
class Const(Term):
    value: Value


@dataclass(frozen=True)
class Var(Term):
    name: str


@dataclass(frozen=True)
class App(Term):
    fn: str
    args: tuple[Term, ...] = ()


@dataclass(frozen=True)
class Not(Term):
    operand: Term


@dataclass(frozen=True)
class And(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Or(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Eq(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Member(Term):
    """Membership of a term in a finite set of constants."""

    item: Term
    values: tuple[Value, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", canonical_values(self.values))


@dataclass(frozen=True)
class Ite(Term):
    cond: Term
    then: Term
    other: Term


TRUE = Const(True)
FALSE = Const(False)


def canonical_values(values: Iterable[Value]) -> tuple[Value, ...]:
    return tuple(sorted(set(values), key=lambda v: (type(v).__name__, v)))


def and_all(terms: Iterable[Term]) -> Term:
    """Left-folded conjunction; TRUE for the empty sequence."""
    terms = list(terms)
    if not terms:
        return TRUE
    out = terms[0]
    for t in terms[1:]:
        out = And(out, t)
    return out


def or_all(terms: Iterable[Term]) -> Term:
    """Left-folded disjunction; FALSE for the empty sequence."""
    terms = list(terms)
    if not terms:
        return FALSE
    out = terms[0]
    for t in terms[1:]:
        out = Or(out, t)
    return out


def term_size(term: Term) -> int:
    """Node count; Member counts as a single node."""
    if isinstance(term, (Const, Var, Member)) and not isinstance(term, App):
        if isinstance(term, Member):
            return 1 + term_size(term.item)
        return 1
    if isinstance(term, App):
        return 1 + sum(term_size(a) for a in term.args)
    if isinstance(term, Not):
        return 1 + term_size(term.operand)
    if isinstance(term, (And, Or, Eq)):
        return 1 + term_size(term.left) + term_size(term.right)
    if isinstance(term, Ite):
        return 1 + term_size(term.cond) + term_size(term.then) + term_size(term.other)
    return 1


def children(term: Term) -> tuple[Term, ...]:
    if isinstance(term, App):
        return term.args
    if isinstance(term, Not):
        return (term.operand,)
    if isinstance(term, (And, Or, Eq)):
        return (term.left, term.right)
    if isinstance(term, Member):
        return (term.item,)
    if isinstance(term, Ite):
        return (term.cond, term.then, term.other)
    return ()


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------

class Rule:
    __slots__ = ()


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


@dataclass(frozen=True)
class Update(Rule):
    fn: str
    args: tuple[Term, ...]
    rhs: Term


@dataclass(frozen=True)
class Cond(Rule):
    guard: Term
    then_rules: tuple[Rule, ...]
    else_rules: tuple[Rule, ...] = ()


@dataclass(frozen=True)
class Par(Rule):
    rules: tuple[Rule, ...]


@dataclass(frozen=True)
class Choose(Rule):
    var: str
    candidates: SetExpr
    body: tuple[Rule, ...]


@dataclass(frozen=True)
class Let(Rule):
    var: str
    binding: Term
    body: tuple[Rule, ...]


@dataclass(frozen=True)
class Call(Rule):
    name: str
    args: tuple[Term, ...] = ()


@dataclass(frozen=True)
class ChooseCtl(Rule):
    """Hardware-bound control-state choice site carrying its challenge."""

    challenge: int


@dataclass(frozen=True)
class NamedRule:
    name: str
    params: tuple[tuple[str, Sort], ...]
    body: tuple[Rule, ...]


# ---------------------------------------------------------------------------
# Program and state
# ---------------------------------------------------------------------------

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
    _sort_index: dict = field(default_factory=dict, compare=False, repr=False)
    _fn_index: dict = field(default_factory=dict, compare=False, repr=False)
    _literal_sorts: dict = field(default_factory=dict, compare=False, repr=False)
    _named_index: dict = field(default_factory=dict, compare=False, repr=False)

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

    def initial_state(self) -> "State":
        values: dict[Location, Value] = {}
        for f in self.functions:
            if f.mode in ("controlled", "static"):
                init = f.init_map()
                for args in f.arg_tuples():
                    values[(f.name, args)] = init[args]
        return State(values=values, monitored={})

    def initial_ctl(self) -> Value:
        return self.initial_state().values[self.ctl_loc]


@dataclass
class State:
    """Valuation of controlled/static locations plus this step's inputs."""

    values: dict[Location, Value]
    monitored: dict[Location, Value]

    def read(self, loc: Location) -> Value:
        if loc in self.values:
            return self.values[loc]
        if loc in self.monitored:
            return self.monitored[loc]
        raise EvalError(f"unknown location {format_location(loc)}")

    def with_monitored(self, monitored: dict[Location, Value]) -> "State":
        return State(values=self.values, monitored=monitored)


UpdateSet = Iterable[tuple[Location, Value]]


# ---------------------------------------------------------------------------
# Evaluation and update application
# ---------------------------------------------------------------------------

def eval_term(term: Term, state: State,
              env: Optional[Mapping[str, Value]] = None) -> Value:
    """Value of a closed (or env-bound) term in the given state.

    Pure: never mutates the state.  Static and controlled locations are
    read from ``state.values``, monitored ones from ``state.monitored``.
    """
    if isinstance(term, Const):
        return term.value
    if isinstance(term, Var):
        if env is None or term.name not in env:
            raise EvalError(f"unbound variable {term.name}")
        return env[term.name]
    if isinstance(term, App):
        args = tuple(eval_term(a, state, env) for a in term.args)
        return state.read((term.fn, args))
    if isinstance(term, Not):
        return not eval_term(term.operand, state, env)
    if isinstance(term, And):
        return bool(eval_term(term.left, state, env)
                    and eval_term(term.right, state, env))
    if isinstance(term, Or):
        return bool(eval_term(term.left, state, env)
                    or eval_term(term.right, state, env))
    if isinstance(term, Eq):
        return eval_term(term.left, state, env) == eval_term(term.right, state, env)
    if isinstance(term, Member):
        return eval_term(term.item, state, env) in term.values
    if isinstance(term, Ite):
        if eval_term(term.cond, state, env):
            return eval_term(term.then, state, env)
        return eval_term(term.other, state, env)
    raise EvalError(f"cannot evaluate node {type(term).__name__}")


def check_updates(updates: UpdateSet) -> dict[Location, Value]:
    """Consistency scan; the accept/reject answer is order-independent."""
    merged: dict[Location, Value] = {}
    for loc, value in updates:
        if loc in merged and merged[loc] != value:
            raise InconsistentUpdate(loc, merged[loc], value)
        merged[loc] = value
    return merged


def apply_updates(state: State, updates: UpdateSet) -> State:
    """New state agreeing with ``state`` except exactly at the updates."""
    merged = check_updates(updates)
    if not merged:
        return State(values=state.values, monitored=state.monitored)
    values = dict(state.values)
    for loc, value in merged.items():
        if loc not in values:
            raise EvalError(f"update to unknown location {format_location(loc)}")
        values[loc] = value
    return State(values=values, monitored=state.monitored)


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
        if isinstance(rule, Update):
            for a in rule.args:
                collect_term(a, ranges)
            collect_term(rule.rhs, ranges)
        elif isinstance(rule, Cond):
            collect_term(rule.guard, ranges)
            for r in rule.then_rules + rule.else_rules:
                collect_rule(r, ranges, seen_calls)
        elif isinstance(rule, Par):
            for r in rule.rules:
                collect_rule(r, ranges, seen_calls)
        elif isinstance(rule, Choose):
            sub = dict(ranges)
            sub[rule.var] = rule.candidates.resolve(program)
            for r in rule.body:
                collect_rule(r, sub, seen_calls)
        elif isinstance(rule, Let):
            collect_term(rule.binding, ranges)
            sub = dict(ranges)
            if isinstance(rule.binding, Const):
                sub[rule.var] = (rule.binding.value,)
            else:
                sub.pop(rule.var, None)
            for r in rule.body:
                collect_rule(r, sub, seen_calls)
        elif isinstance(rule, Call):
            for a in rule.args:
                collect_term(a, ranges)
            if rule.name in seen_calls:
                return
            target = program.named_rule(rule.name)
            sub: dict[str, tuple[Value, ...]] = {}
            for (pname, psort), arg in zip(target.params, rule.args):
                if isinstance(arg, Const):
                    sub[pname] = (arg.value,)
                else:
                    sub[pname] = psort.values()
            for r in target.body:
                collect_rule(r, sub, seen_calls | {rule.name})
        elif isinstance(rule, ChooseCtl):
            found.setdefault(program.ctl_loc)

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

def validate_program(program: Program, protected: bool = False) -> list[tuple[str, str]]:
    """Structural validation; returns (code, message) problems.

    ``protected`` relaxes the plain-update shape rule: hardware-bound
    programs must have no plain control-state updates at all, and their
    control-state guards test membership in encoded value sets.
    """
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
        _check_main_shape(program, nr, problems, protected)

    if _free_vars(program.unsafe):
        problems.append(("E-UNBOUND", "violation predicate must be variable-free"))
    else:
        checker.check_formula(program.unsafe, {}, "violation predicate")

    for c in program.init_constraints:
        _check_constraint(program, c, checker, problems)

    return problems


def _check_main_shape(program: Program, nr: NamedRule,
                      problems: list, protected: bool) -> None:
    if len(nr.body) != 1 or not isinstance(nr.body[0], Cond):
        problems.append(
            ("E-CTLSHAPE",
             f"rule {nr.name} must be a single guarded conditional"))
        return
    guard = nr.body[0].guard
    if not any(_constrains_ctl(g, program.ctl_name) for g in _conjuncts(guard)):
        problems.append(
            ("E-CTLSHAPE",
             f"guard of rule {nr.name} does not constrain {program.ctl_name}"))
    for rule, _ in iter_rules(nr.body):
        if isinstance(rule, Update) and rule.fn == program.ctl_name:
            if protected:
                problems.append(
                    ("E-CTLSHAPE",
                     f"plain control-state update in protected rule {nr.name}"))
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


def _conjuncts(term: Term) -> list[Term]:
    if isinstance(term, And):
        return _conjuncts(term.left) + _conjuncts(term.right)
    return [term]


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
                      problems: list) -> None:
    ok_shape = (isinstance(c, Eq) and isinstance(c.left, App)
                and all(isinstance(a, Const) for a in c.left.args))
    if not ok_shape:
        problems.append(
            ("E-CONSTRAINT",
             "initial constraint must equate a ground location with a term"))
        return
    if _free_vars(c):
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
        if eval_term(c, program.initial_state()) is not True:
            problems.append(
                ("E-CONSTRAINT", "initial constraint does not hold initially"))
    except CasmError:
        pass  # already reported by the sort checker


def _free_vars(term: Term, bound: frozenset = frozenset()) -> set[str]:
    if isinstance(term, Var):
        return set() if term.name in bound else {term.name}
    out: set[str] = set()
    for c in children(term):
        out |= _free_vars(c, bound)
    return out


def _walk_terms(term: Term):
    yield term
    for c in children(term):
        yield from _walk_terms(c)


def iter_rules(rules: Iterable[Rule], env: Optional[dict] = None):
    """Depth-first traversal yielding (rule, binder env) pairs."""
    env = env or {}
    for rule in rules:
        yield rule, env
        if isinstance(rule, Cond):
            yield from iter_rules(rule.then_rules, env)
            yield from iter_rules(rule.else_rules, env)
        elif isinstance(rule, Par):
            yield from iter_rules(rule.rules, env)
        elif isinstance(rule, (Choose, Let)):
            sub = dict(env)
            sub[rule.var] = rule
            yield from iter_rules(rule.body, sub)


class _SortChecker:
    """Bidirectional sort checking of terms and rules."""

    def __init__(self, program: Program, problems: list):
        self.program = program
        self.problems = problems

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
