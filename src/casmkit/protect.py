"""Hardware-binding transformation pipeline.

Protecting a program means: extract its control-state transition set,
enroll one PUF challenge per transition, derive (by one symbolic step)
the predicate that marks dangerous next control states, then rewrite the
program so that

  * every plain control-state update becomes a challenge site that
    queries the device at run time, with the challenges of the sources
    extraction recorded for that update (the rewrite decides none),
  * every guard on the control state tests membership in the enrolled
    response encodings (the stored control value IS a raw response), and
  * the control state's runtime sort is the response space, initialized
    to a reserved token standing for the initial plain state.

At run time a challenge site decodes the response and accepts it only if
the decoded state passes the safety predicate, evaluated against the
values the current step is about to commit; otherwise it falls back to a
uniformly chosen safe encodable state, or keeps the current value when
nothing is safe.  On any device other than the enrolled one, responses
almost never decode, so the program keeps running but wanders the safe
states nondeterministically.
"""
from __future__ import annotations

import errno
import hashlib
import itertools
import os
import tempfile
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Iterator, Optional

from .ast import (
    And, App, Call, CasmError, Choose, ChooseCtl, Cond, Const, Eq,
    FunctionDecl, Ite, Let, Location, Member, NamedRule, Not, Or, Par,
    Program, ProgramError, Rule, Sort, Term, Update, Value, Var,
    eval_term, format_value, free_vars, iter_rules,
    location_term, locations_read, make_init, or_all, reads_location,
    validate_program, State,
)
from .interp import (
    CtlEnumerator, MonitoredOracle, StagedSite, Trace, TraceEntry, collect,
    compiled, iter_run, location_key,
    _check_total,  # noqa: F401 -- the traced benchmark run wraps it here
)
from .parser import ProtectedExtras, parse_program, pretty_print
from .puf import Enrollment, enroll
from .rng import derive_rng, first_words
from . import symexec
from .symexec import (
    SymInit, elim_symbol, free_symbols_in, merge_successors,
    simplify_formula, subst_symbol, subst_term, substitute_initial_terms,
    symbolic_step,
)

BOUND_OK = "BOUND_OK"
FALLBACK_TAKEN = "FALLBACK_TAKEN"
SAFE_STALL = "SAFE_STALL"

PROTECTED_FILE = "protected.casm"
ENROLLMENT_FILE = "enrollment.json"


class AmbiguousSource(CasmError):
    pass


class MissingEnrollment(CasmError):
    def __init__(self, source: Value, target: Value):
        super().__init__(
            f"no enrolled challenge for transition "
            f"{format_value(source)} -> {format_value(target)}")


# ---------------------------------------------------------------------------
# Transition set
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SiteInfo:
    rule: str
    ordinal: int
    sources: tuple[Value, ...]
    target: Value


@dataclass
class TransitionSet:
    pairs: tuple[tuple[Value, Value], ...]
    sites: tuple[SiteInfo, ...]


def _guard_source_split(program: Program, guard: Term,
                        possible: frozenset,
                        ranges: dict[str, tuple[Value, ...]]
                        ) -> tuple[frozenset, frozenset]:
    """Control values in ``possible`` under which the guard can be true
    (respectively false), with every other location left free.  The
    guard's choose-bound variables are expanded existentially."""
    closed = guard
    for var, values in ranges.items():
        closed = or_all([subst_term(closed, {Var(var): Const(v)})
                         for v in values])
    ctl_term = App(program.ctl_name, ())
    sat_true = set()
    sat_false = set()
    for v in possible:
        fixed = subst_term(closed, {ctl_term: Const(v)})
        if symexec.satisfiable(fixed, program):
            sat_true.add(v)
        if symexec.satisfiable(symexec.s_not(fixed), program):
            sat_false.add(v)
    return frozenset(sat_true), frozenset(sat_false)


def compute_transition_set(program: Program) -> TransitionSet:
    """Pairs (i, j) licensed by syntactic containment of a control-state
    update inside the rule(s) guarding state i.

    The source set of an update is tracked along the branch path: at each
    conditional the set narrows to the control values under which that
    branch is reachable, other locations left free.  A guard testing a
    set of states therefore contributes one pair per member that still
    dominates the update.  A ``let`` body is walked with its variable
    replaced by the binding, and a call as the called body with its
    parameters replaced by the arguments, under the caller's binders.

    This is the only place that decides an update's sources: the n-th
    control update reached from main rule ``r`` is recorded as the site
    ``(r, n)``, and :func:`rewrite_program` binds that update to it.
    """
    sort = program.ctl.result
    all_values = frozenset(sort.values())
    pairs: dict[tuple[Value, Value], None] = {}
    sites: list[SiteInfo] = []

    # the main rule being walked and the ordinals of its control updates
    rule_name, counter = "", itertools.count()

    def walk(rule: Rule, possible: frozenset, constrained: bool,
             ranges: dict, stack: frozenset) -> None:
        if isinstance(rule, Update):
            if rule.fn != program.ctl_name:
                return
            if not isinstance(rule.rhs, Const):
                raise AmbiguousSource(
                    f"control-state update in {rule_name} has a "
                    "non-constant target")
            if not constrained:
                raise AmbiguousSource(
                    f"control-state update in {rule_name} is not dominated "
                    "by any guard on the control state")
            target = rule.rhs.value
            ordinal = next(counter)
            sources = tuple(sorted(possible, key=sort.index))
            if sources:
                sites.append(SiteInfo(rule_name, ordinal, sources, target))
                for src in sources:
                    pairs.setdefault((src, target))
        elif isinstance(rule, Cond):
            sat_true, sat_false = _guard_source_split(
                program, rule.guard, possible, ranges)
            branched = constrained or reads_location(rule.guard,
                                                     program.ctl_loc)
            for r in rule.then_rules:
                walk(r, sat_true, branched, ranges, stack)
            for r in rule.else_rules:
                walk(r, sat_false, branched, ranges, stack)
        elif isinstance(rule, Par):
            for r in rule.rules:
                walk(r, possible, constrained, ranges, stack)
        elif isinstance(rule, Choose):
            inner = {**ranges, rule.var: rule.candidates.resolve(program)}
            for r in rule.body:
                walk(r, possible, constrained, inner, stack)
        elif isinstance(rule, Let):
            for r in rule.body:
                walk(_subst_rule(r, {Var(rule.var): rule.binding}),
                     possible, constrained, ranges, stack)
        elif isinstance(rule, Call):
            if rule.name in stack:
                raise CasmError(f"recursive rule {rule.name} in analysis")
            for r in _inline_call(program, rule):
                walk(r, possible, constrained, ranges, stack | {rule.name})

    for nr in program.main_rules:
        rule_name, counter = nr.name, itertools.count()
        for r in nr.body:
            walk(r, all_values, False, {}, frozenset())

    ordered = tuple(sorted(pairs, key=lambda ij: (sort.index(ij[0]),
                                                  sort.index(ij[1]))))
    return TransitionSet(pairs=ordered, sites=tuple(sites))


# ---------------------------------------------------------------------------
# Safe-next-state condition
# ---------------------------------------------------------------------------

@dataclass
class SafeCondition:
    """Predicate template over the current state with placeholder ``x``
    ranging over plain control states; true marks a dangerous choice."""

    cond_x: Term
    ctl_name: str
    plain_values: tuple[Value, ...]

    def cond_for(self, value: Value) -> Term:
        return subst_term(self.cond_x, {Var("x"): Const(value)})


def derive_safe_condition(program: Program) -> SafeCondition:
    """One symbolic step, merged, turned into the dangerous-choice
    predicate: a disjunct per transition group, each the conjunction of
    its (back-substituted) path condition and the violation predicate
    pushed through its successor map.  Symbols with no concrete carrier
    at run time (environment inputs, the abstracted next control value,
    internal choices) are eliminated existentially."""
    init = SymInit.for_program(program)
    paths = symbolic_step(program, init, ctl_abstraction=True)
    merged = merge_successors(paths)
    contributing = [p for p in merged if not p.stutter]

    ctl_loc = program.ctl_loc
    alpha = init.symbol_of(ctl_loc)
    x = Var("x")

    loc_terms = {loc: location_term(loc) for loc in init.sym_val}
    disjuncts: list[Term] = []
    for p in contributing:
        # ``unsafe`` reads only locations of interest, so a write to any
        # other location cannot change it
        mapping = {loc_terms[loc]: expr for loc, expr in p.loc_map.items()
                   if loc in loc_terms}
        psi = subst_term(program.unsafe, mapping)
        disjuncts.append(symexec.s_and(p.path_cond, psi))
    formula = simplify_formula(or_all(disjuncts), program)
    formula = subst_symbol(formula, alpha, x)

    controlled_locs = {loc for loc in init.sym_val
                       if program.function(loc[0]).mode != "monitored"}
    housed_controlled = set()
    for loc in controlled_locs:
        housed_controlled |= free_symbols_in(init.sym_val[loc])

    for sym in sorted(free_symbols_in(formula), key=lambda s: s.name):
        if sym in housed_controlled and sym != alpha:
            continue
        formula = elim_symbol(formula, sym, program)

    formula = substitute_initial_terms(formula, init,
                                       include=controlled_locs)
    cond_x = simplify_formula(formula, program)
    return SafeCondition(cond_x=cond_x, ctl_name=program.ctl_name,
                         plain_values=program.ctl_values())


# ---------------------------------------------------------------------------
# Rewriting
# ---------------------------------------------------------------------------

@dataclass
class ProtectedProgram:
    program: Program
    enrollment: Enrollment
    safe_condition: SafeCondition
    plain_sort: Sort
    provenance: dict = field(default_factory=dict)
    warnings: tuple[str, ...] = ()

    def extras(self) -> ProtectedExtras:
        enc = tuple(
            (v, self.enrollment.encodings(v))
            for v in self.plain_sort.values()
            if self.enrollment.encodings(v))
        return ProtectedExtras(plain_sort=self.plain_sort.name, enc=enc,
                               condx=self.safe_condition.cond_x)

    def source_text(self) -> str:
        header = tuple(f"{k}: {v}" for k, v in sorted(
            self.provenance.items()))
        return pretty_print(self.program, self.extras(), header=header)

    def save(self, directory: str) -> None:
        """Write both artifact files into ``directory``.  They are written
        into a temporary directory inside it first and then moved into
        place, so a failure leaves no half of an artifact behind."""
        os.makedirs(directory, exist_ok=True)
        texts = {PROTECTED_FILE: self.source_text(),
                 ENROLLMENT_FILE: self.enrollment.to_json()}
        with tempfile.TemporaryDirectory(prefix=".protect-",
                                         dir=directory) as staging:
            for name, text in texts.items():
                with open(os.path.join(staging, name), "w",
                          encoding="utf-8") as fh:
                    fh.write(text)
            for name in texts:
                target = os.path.join(directory, name)
                if os.path.isdir(target):
                    raise IsADirectoryError(errno.EISDIR,
                                            os.strerror(errno.EISDIR), target)
            for name in texts:
                os.replace(os.path.join(staging, name),
                           os.path.join(directory, name))

    def decoded_values(self, values: dict[Location, Value]
                       ) -> dict[Location, Value]:
        """Plain-space projection of a protected runtime state."""
        ctl_loc = (self.enrollment.ctl_name, ())
        out = dict(values)
        plain = self.enrollment.decode_stored(values[ctl_loc])
        if plain is None:
            raise CasmError(
                f"stored control value {values[ctl_loc]} is neither the "
                "initial token nor an enrolled response")
        out[ctl_loc] = plain
        return out

    @cached_property
    def challenges(self) -> tuple[int, ...]:
        """The challenges of the program's sites, main and named rules
        alike, sorted and each once."""
        program = self.program
        return tuple(sorted({
            r.challenge
            for nr in (*program.main_rules, *program.named_rules)
            for r, _ in iter_rules(nr.body) if isinstance(r, ChooseCtl)}))

    @cached_property
    def decider(self) -> "SiteDecider":
        return SiteDecider(self.program, self.enrollment,
                           self.safe_condition)

    def is_unsafe(self, values: dict[Location, Value],
                  monitored: Optional[dict] = None) -> bool:
        state = State(values=self.decoded_values(values),
                      monitored=monitored or {})
        return bool(eval_term(self.program.unsafe, state))


def _response_sort(program: Program, bits: int) -> Sort:
    name = f"Resp{bits}"
    existing = {s.name for s in program.sorts}
    while name in existing:
        name += "_"
    return Sort(name, "int", (), 0, (1 << bits) - 1)


def rewrite_program(program: Program, tset: TransitionSet,
                    enrollment: Enrollment,
                    safe_condition: SafeCondition) -> ProtectedProgram:
    """Apply the binding transformation; see the module docstring.  Each
    control update is bound to the site ``tset`` recorded for it."""
    ctl_name = program.ctl_name
    plain_sort = program.ctl.result
    init_plain = program.initial_ctl()
    resp_sort = _response_sort(program, enrollment.response_bits)
    ctl_term = App(ctl_name, ())

    for src, dst in tset.pairs:
        try:
            enrollment.challenge_for(src, dst)
        except CasmError:
            raise MissingEnrollment(src, dst) from None

    def enc_plus_init(value: Value) -> tuple[int, ...]:
        responses = list(enrollment.encodings(value))
        if value == init_plain:
            responses.append(enrollment.init_token)
        return tuple(responses)

    def decode_cascade() -> Term:
        branches = [(v, enc_plus_init(v)) for v in plain_sort.values()
                    if enc_plus_init(v)]
        if not branches:
            return Const(init_plain)
        expr: Term = Const(branches[-1][0])
        for v, responses in reversed(branches[:-1]):
            expr = Ite(Member(ctl_term, responses), Const(v), expr)
        return expr

    def rw_term(term: Term) -> Term:
        if isinstance(term, Eq):
            for a, b in ((term.left, term.right), (term.right, term.left)):
                if a == ctl_term and isinstance(b, Const):
                    return Member(ctl_term, enc_plus_init(b.value))
            return Eq(rw_term(term.left), rw_term(term.right))
        if isinstance(term, Member) and term.item == ctl_term:
            return Member(ctl_term, tuple(
                r for v in term.values for r in enc_plus_init(v)))
        if term == ctl_term:
            return decode_cascade()
        if isinstance(term, App):
            return App(term.fn, tuple(rw_term(a) for a in term.args))
        if isinstance(term, Not):
            return Not(rw_term(term.operand))
        if isinstance(term, And):
            return And(rw_term(term.left), rw_term(term.right))
        if isinstance(term, Or):
            return Or(rw_term(term.left), rw_term(term.right))
        if isinstance(term, Ite):
            return Ite(rw_term(term.cond), rw_term(term.then),
                       rw_term(term.other))
        return term

    writes_ctl: dict[str, bool] = {}

    def named_writes_ctl(name: str) -> bool:
        if name not in writes_ctl:
            writes_ctl[name] = False  # a recursive call adds no write
            writes_ctl[name] = any(
                (isinstance(r, Update) and r.fn == ctl_name)
                or (isinstance(r, Call) and named_writes_ctl(r.name))
                for r, _ in iter_rules(program.named_rule(name).body))
        return writes_ctl[name]

    def bind_site(sources: tuple[Value, ...], target: Value) -> Rule:
        node: Rule = ChooseCtl(enrollment.challenge_for(sources[-1], target))
        for src in reversed(sources[:-1]):
            guard = Member(ctl_term, enc_plus_init(src))
            node = Cond(guard,
                        (ChooseCtl(enrollment.challenge_for(src, target)),),
                        (node,))
        return node

    sites = {(site.rule, site.ordinal): site for site in tset.sites}
    # the main rule being rewritten and the ordinals of its control updates
    rule_name, ordinals = "", itertools.count()

    def rw_rule(rule: Rule) -> Rule:
        if isinstance(rule, Update):
            if rule.fn == ctl_name:
                site = sites.get((rule_name, next(ordinals)))
                if site is None:
                    # branch unreachable for every control value
                    return Par(())
                return bind_site(site.sources, site.target)
            return Update(rule.fn, tuple(rw_term(a) for a in rule.args),
                          rw_term(rule.rhs))
        if isinstance(rule, Cond):
            return Cond(rw_term(rule.guard),
                        tuple(rw_rule(r) for r in rule.then_rules),
                        tuple(rw_rule(r) for r in rule.else_rules))
        if isinstance(rule, Par):
            return Par(tuple(rw_rule(r) for r in rule.rules))
        if isinstance(rule, Choose):
            return Choose(rule.var, rule.candidates,
                          tuple(rw_rule(r) for r in rule.body))
        if isinstance(rule, Let):
            return Let(rule.var, rw_term(rule.binding),
                       tuple(rw_rule(r) for r in rule.body))
        if isinstance(rule, Call):
            if named_writes_ctl(rule.name):
                return Par(tuple(rw_rule(r)
                                 for r in _inline_call(program, rule)))
            return Call(rule.name, tuple(rw_term(a) for a in rule.args))
        return rule

    new_mains = []
    for nr in program.main_rules:
        rule_name, ordinals = nr.name, itertools.count()
        new_mains.append(NamedRule(nr.name, (),
                                   tuple(rw_rule(r) for r in nr.body)))
    # named rules that write the control state are inlined at their calls
    new_named = tuple(
        NamedRule(nr.name, nr.params, tuple(rw_rule(r) for r in nr.body))
        for nr in program.named_rules if not named_writes_ctl(nr.name))

    ctl_decl = FunctionDecl(ctl_name, (), resp_sort, "controlled",
                            make_init({(): enrollment.init_token}))
    warnings = () if tset.pairs else (
        "program has no control-state transitions; "
        "nothing was bound to the device",)

    new_program = Program(
        name=program.name + "_protected",
        sorts=program.sorts + (resp_sort,),
        functions=tuple(ctl_decl if f.name == ctl_name else f
                        for f in program.functions),
        named_rules=new_named,
        main_rules=tuple(new_mains),
        ctl_name=ctl_name,
        unsafe=program.unsafe,
        init_constraints=program.init_constraints,
    )
    problems = validate_program(new_program, protected=True,
                                plain_sort=plain_sort)
    if problems:
        raise ProgramError(
            "rewritten program failed validation: "
            + "; ".join(f"{c}: {m}" for c, m in problems))

    source_hash = hashlib.sha256(
        pretty_print(program).encode()).hexdigest()[:16]
    provenance = {
        "source": program.name,
        "source-hash": source_hash,
        "challenge-bits": enrollment.challenge_bits,
        "response-bits": enrollment.response_bits,
    }
    return ProtectedProgram(
        program=new_program,
        enrollment=enrollment,
        safe_condition=safe_condition,
        plain_sort=plain_sort,
        provenance=provenance,
        warnings=warnings,
    )


def _inline_call(program: Program, call: Call) -> tuple[Rule, ...]:
    """The called rule's body with its parameters replaced by the call's
    arguments."""
    target = program.named_rule(call.name)
    mapping = {Var(p): a for (p, _), a in zip(target.params, call.args)}
    return tuple(_subst_rule(r, mapping) for r in target.body)


def _var_names(rule: Rule) -> set[str]:
    """Every variable name ``rule`` binds or reads."""
    names: set[str] = set()
    for r, env in iter_rules((rule,)):
        names |= env.keys()  # the binders around ``r``
        terms: tuple[Term, ...] = ()
        if isinstance(r, Update):
            terms = (*r.args, r.rhs)
        elif isinstance(r, Cond):
            terms = (r.guard,)
        elif isinstance(r, Let):
            terms = (r.binding,)
        elif isinstance(r, Call):
            terms = r.args
        for t in terms:
            names |= free_vars(t)
    return names


def _subst_rule(rule: Rule, mapping: dict[Term, Term]) -> Rule:
    """Replace variables by terms, renaming a binder that would capture a
    variable of a replacement."""
    if isinstance(rule, Update):
        return Update(rule.fn,
                      tuple(subst_term(a, mapping) for a in rule.args),
                      subst_term(rule.rhs, mapping))
    if isinstance(rule, Cond):
        return Cond(subst_term(rule.guard, mapping),
                    tuple(_subst_rule(r, mapping) for r in rule.then_rules),
                    tuple(_subst_rule(r, mapping) for r in rule.else_rules))
    if isinstance(rule, Par):
        return Par(tuple(_subst_rule(r, mapping) for r in rule.rules))
    if isinstance(rule, (Choose, Let)):
        var = rule.var
        inner = {k: v for k, v in mapping.items() if k != Var(var)}
        taken = set().union(*(free_vars(v) for v in inner.values()))
        if var in taken:
            taken |= _var_names(rule)
            var = next(f"{rule.var}_{i}" for i in itertools.count(1)
                       if f"{rule.var}_{i}" not in taken)
            inner[Var(rule.var)] = Var(var)
        body = tuple(_subst_rule(r, inner) for r in rule.body)
        if isinstance(rule, Choose):
            return Choose(var, rule.candidates, body)
        return Let(var, subst_term(rule.binding, mapping), body)
    if isinstance(rule, Call):
        return Call(rule.name, tuple(subst_term(a, mapping)
                                     for a in rule.args))
    return rule


# ---------------------------------------------------------------------------
# Protected runtime
# ---------------------------------------------------------------------------

class SiteDecider:
    """The challenge-site rule, shared by the runtime and both model
    checking modes: accept a response that decodes to a state ``condx``
    does not mark dangerous in the post-update values, else fall back to a
    uniformly drawn safe encodable state (as its first encoding), else
    stall on the current value.  ``condx`` is compiled once per plain
    state and evaluated once per valuation of the locations it reads: the
    safe states are memoized on those, and a response is accepted by
    membership.  Its reference, the same rule evaluated term by term, is
    in ``tests/reference_runtime.py``."""

    def __init__(self, program: Program, enrollment: Enrollment,
                 safe_condition: SafeCondition):
        cp = compiled(program)
        plain = safe_condition.plain_values
        self._decode = {t.response: t.target for t in enrollment.transitions}
        self._first_enc = {v: enrollment.encodings(v)[0] for v in plain
                           if enrollment.encodings(v)}
        self._cond_fns = {v: cp._term(safe_condition.cond_for(v))
                          for v in plain}
        self._safe_key = location_key(tuple(
            l for l in locations_read(program, safe_condition.cond_x)
            if program.function(l[0]).mode != "monitored"))
        self._safe_memo: dict[object, tuple[tuple[Value, ...], frozenset]] = {}
        # every unenrolled response decides like this representative
        rep = 0
        while rep in self._decode or rep == enrollment.init_token:
            rep += 1
        self._responses = [*self._decode, rep]
        self._empty: dict = {}

    def _safe(self, post: dict) -> tuple[tuple[Value, ...], frozenset]:
        """The encodable states ``condx`` does not mark dangerous in
        ``post``: their first encodings in fallback draw order, and the
        states as a set.  A response is accepted when it decodes into the
        set: every decoded target is encodable."""
        key = self._safe_key(post)
        safe = self._safe_memo.get(key)
        if safe is None:
            empty = self._empty
            states = tuple(v for v in self._first_enc
                           if not self._cond_fns[v](post, empty, empty))
            safe = self._safe_memo[key] = (
                tuple(self._first_enc[v] for v in states), frozenset(states))
        return safe

    def _rule(self, response: int, safe: tuple[tuple[Value, ...], frozenset],
              current_ctl: Value) -> tuple[tuple[Value, ...], str]:
        """The rule for one response, given :meth:`_safe` of the site's
        post-update values: the values the site can take and its tag.
        The response itself when it binds; else the safe encodings, of
        which a fallback draws one; else the current value, when the
        site stalls."""
        fallbacks, accepted = safe
        if self._decode.get(response) in accepted:
            return (response,), BOUND_OK
        if fallbacks:
            return fallbacks, FALLBACK_TAKEN
        return (current_ctl,), SAFE_STALL

    def decide(self, response: int, post: dict, current_ctl: Value,
               draw: Callable[[int], int]) -> tuple[Value, str]:
        """Resolve one site; ``draw(n)`` picks one of ``n`` safe states
        and is called only when the site falls back."""
        values, tag = self._rule(response, self._safe(post), current_ctl)
        if tag is FALLBACK_TAKEN:
            return values[draw(len(values))], tag
        return values[0], tag

    def stage(self, response: int, post: dict, current_ctl: Value,
              word: Callable[[int], int],
              flip: Optional[Callable[[int], Optional[int]]] = None
              ) -> StagedSite:
        """:meth:`decide` at one site of a step, as a function of the
        step index, for a device whose stable response is ``response``.
        That response is decided here, once; ``word(step) % n`` draws a
        fallback.  On a noisy device ``flip(step)`` gives the response
        where noise flips it (else ``None``), and :meth:`decide` decides
        it at that step."""
        values, tag = self._rule(response, self._safe(post), current_ctl)
        if tag is FALLBACK_TAKEN:
            n = len(values)

            def stable(step):
                return values[word(step) % n], tag
        else:
            result = values[0], tag

            def stable(step):
                return result
        if flip is None:
            return stable
        decide = self.decide

        def noisy(step):
            flipped = flip(step)
            if flipped is None:
                return stable(step)
            return decide(flipped, post, current_ctl,
                          lambda n: word(step) % n)
        return noisy

    def outcomes(self, post: dict, current_ctl: Value
                 ) -> list[tuple[Value, str]]:
        """Every result :meth:`decide` can give at this site, over every
        device response and every draw, in first-seen order."""
        safe = self._safe(post)
        found: dict[tuple[Value, str], None] = {}
        others = None
        for response in self._responses:
            values, tag = self._rule(response, safe, current_ctl)
            if tag is BOUND_OK:
                found.setdefault((response, tag))
            else:
                # every response that does not bind decides alike
                if others is None:
                    others = dict.fromkeys([(v, tag) for v in values])
                found.update(others)
        return list(found)

    def device_key(self, device, challenges: tuple[int, ...]
                   ) -> Optional[tuple]:
        """What ``device`` can make a run observe at sites of
        ``challenges``: each stable response that decodes, as itself, and
        ``None`` for one that does not.  Noise-free devices with equal
        keys decide every site alike; a noisy device has no key."""
        if device.noise_rate > 0.0:
            return None
        return tuple(r if r in self._decode else None
                     for r in map(device.stable, challenges))

    def enumerator(self, device) -> CtlEnumerator:
        """Site enumerator for the model checker: every outcome, or with a
        device the outcome of its noiseless response."""
        def enumerate_site(site, challenge, post, current_ctl):
            if device is None:
                return self.outcomes(post, current_ctl)
            return [self.decide(
                device.query(challenge), post, current_ctl,
                lambda n: derive_rng("bfs-fallback", site).randrange(n))]
        return enumerate_site


class ProtectedRunner:
    """Protected runtime on one device: the run loop of
    :func:`~casmkit.interp.iter_run` stages each site of a step once,
    and the staged site gives the device's response at each step it runs,
    decided by the program's :class:`SiteDecider`.  The device stages its
    stable response and noise coin, and so owns its noise model; the
    decider stages the rule's answer for the stable response, so a step
    repeats only its draws."""

    def __init__(self, protected: ProtectedProgram, device, seed: int):
        self.protected = protected
        self.device = device
        self.seed = seed
        self.decider = protected.decider
        # a fallback draws once from ("fallback", seed, step, site)
        self._fallback_word = first_words("fallback", seed)

    def _stage(self, site: str, challenge: int, post: dict,
               current_ctl: Value) -> StagedSite:
        """Stage one site of a step (:data:`~casmkit.interp.CtlResolver`):
        the device's stable response and noise, decided by the program's
        :class:`SiteDecider`."""
        word = self._fallback_word
        device = self.device
        return self.decider.stage(
            device.stable(challenge), post, current_ctl,
            lambda step: word(step, site),
            device.flips_at(challenge, self.seed, site))

    def _resolver(self, step: int, site: str, challenge: int, post: dict,
                  current_ctl: Value) -> tuple[Value, str]:
        """One site at one step of the run: its staged site, called
        once."""
        return self._stage(site, challenge, post, current_ctl)(step)

    def iter_entries(self, steps: int, oracle: MonitoredOracle
                     ) -> Iterator[TraceEntry]:
        return iter_run(self.protected.program, steps, oracle, self.seed,
                        self._stage)


def run_protected(protected: ProtectedProgram, device, steps: int,
                  oracle: MonitoredOracle, seed: int) -> Trace:
    return collect(steps, ProtectedRunner(protected, device, seed)
                   .iter_entries(steps, oracle))


# ---------------------------------------------------------------------------
# Pipeline and artifact I/O
# ---------------------------------------------------------------------------

def protect(program: Program, device, attempt_budget: int = 65536
            ) -> tuple[ProtectedProgram, Enrollment]:
    """Full pipeline: transitions, enrollment, safety derivation,
    rewrite.  Deterministic given the program and device parameters;
    nothing is emitted on partial failure.  Extraction and the safety
    derivation share one :class:`~casmkit.symexec.FormulaCache`, dropped
    when they return."""
    problems = validate_program(program)
    if problems:
        raise ProgramError("; ".join(f"{c}: {m}" for c, m in problems))
    with symexec.analysis():
        tset = compute_transition_set(program)
        enrollment = enroll(device, tset.pairs, program.initial_ctl(),
                            attempt_budget)
        enrollment = replace(enrollment, ctl_name=program.ctl_name)
        safe_condition = derive_safe_condition(program)
    protected = rewrite_program(program, tset, enrollment, safe_condition)
    return protected, enrollment


def _read_artifact(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise CasmError(f"cannot read {path}: {exc.strerror}") from exc


def _check_response_width(program: Program, enrollment: Enrollment,
                          enr_path: str) -> None:
    """The control function of a protected program stores responses: its
    sort must be the ``responseBits``-wide range the rewrite gave it."""
    sort = program.ctl.result
    bits = enrollment.response_bits
    if sort.kind == "int" and sort.lo == 0 and (sort.size & sort.hi) == 0:
        width = f"{sort.hi.bit_length()}-bit"
    else:
        width = "non-response"
    if width != f"{bits}-bit":
        raise CasmError(
            f"{enr_path} has responseBits {bits}, but {program.ctl_name} "
            f"holds {width} responses ({sort.name})")


def _check_challenges(protected: ProtectedProgram, casm_path: str,
                      enr_path: str) -> None:
    """Every site must query a challenge of the enrollment table, inside
    the device's challenge space."""
    enrollment = protected.enrollment
    enrolled = {t.challenge for t in enrollment.transitions}
    bits = enrollment.challenge_bits
    for challenge in protected.challenges:
        if challenge not in enrolled:
            reason = f"is not enrolled in {enr_path}"
        elif not 0 <= challenge < 1 << bits:
            reason = f"is outside the {bits}-bit challenge space"
        else:
            continue
        raise CasmError(f"{casm_path}: challenge {challenge} {reason}")


def load_protected(directory: str) -> ProtectedProgram:
    casm_path = os.path.join(directory, PROTECTED_FILE)
    enr_path = os.path.join(directory, ENROLLMENT_FILE)
    text = _read_artifact(casm_path)
    result = parse_program(text, filename=casm_path)
    if not result.ok:
        raise CasmError("protected program does not parse: "
                        + "; ".join(d.render(casm_path)
                                    for d in result.diagnostics))
    if result.extras is None or result.extras.condx is None \
            or not result.extras.plain_sort:
        raise CasmError(f"{casm_path} is not a protected artifact")
    enrollment = Enrollment.from_json(_read_artifact(enr_path))
    program = result.program
    if enrollment.ctl_name != program.ctl_name:
        raise CasmError(
            f"{enr_path} has ctlFunction {enrollment.ctl_name}, but "
            f"{casm_path} protects {program.ctl_name}")
    _check_response_width(program, enrollment, enr_path)
    plain_sort = program.sort(result.extras.plain_sort)
    if enrollment.init_state not in plain_sort.values():
        raise CasmError(
            f"{enr_path} has initState {format_value(enrollment.init_state)}"
            f", outside the plain sort {plain_sort.name}")
    enc = result.extras.enc_map()
    for state, responses in enc.items():
        if tuple(enrollment.encodings(state)) != tuple(responses):
            raise CasmError(
                f"encoding annotation for {format_value(state)} does not "
                "match the enrollment file")
    safe_condition = SafeCondition(
        cond_x=result.extras.condx,
        ctl_name=program.ctl_name,
        plain_values=plain_sort.values(),
    )
    protected = ProtectedProgram(
        program=program,
        enrollment=enrollment,
        safe_condition=safe_condition,
        plain_sort=plain_sort,
    )
    _check_challenges(protected, casm_path, enr_path)
    return protected
