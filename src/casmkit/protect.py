"""Hardware-binding transformation pipeline.

Protecting a program means: extract its control-state transition set,
enroll one PUF challenge per transition, derive (by one symbolic step)
the predicate that marks dangerous next control states, then rewrite the
program so that

  * every plain control-state update becomes a challenge site that
    queries the device at run time,
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

import hashlib
import json
import os
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Iterator, Optional

from .ast import (
    And, App, Call, CasmError, Choose, ChooseCtl, Cond, Const, Eq,
    FunctionDecl, Ite, Let, Location, Member, NamedRule, Not, Or, Par,
    Program, ProgramError, Rule, Sort, Term, Update, Value, Var, children,
    eval_term, format_value, iter_rules, location_term, make_init, or_all,
    reads_location, validate_program, State,
)
from .interp import (
    CtlEnumerator, MonitoredOracle, Trace, TraceEntry, compiled, iter_run,
    location_key,
    _check_total,  # noqa: F401 -- the traced benchmark run wraps it here
)
from .parser import ProtectedExtras, parse_program, pretty_print
from .puf import Enrollment, enroll
from .rng import derive_rng
from . import symexec
from .symexec import (
    SymInit, elim_symbol, free_symbols_in, merge_successors, satisfiable,
    simplify_formula, subst_symbol, subst_term, substitute_initial_terms,
    symbolic_step, format_symexpr,
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


class UnEncodableState(CasmError):
    pass


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

    def call_sites(self) -> dict[tuple[Value, Value], SiteInfo]:
        out: dict[tuple[Value, Value], SiteInfo] = {}
        for site in self.sites:
            for src in site.sources:
                out.setdefault((src, site.target), site)
        return out


def _expand_bound_vars(term: Term, ranges: dict[str, tuple[Value, ...]],
                       lets: dict[str, Term]) -> Term:
    """Close a guard over its binder variables: let-bound variables are
    substituted, choose-bound ones expanded existentially."""
    if lets:
        term = subst_term(term, {Var(v): t for v, t in lets.items()})
    for var, values in ranges.items():
        term = or_all([subst_term(term, {Var(var): Const(v)})
                       for v in values])
    return term


def _guard_source_split(program: Program, guard: Term,
                        possible: frozenset,
                        ranges: dict[str, tuple[Value, ...]],
                        lets: dict[str, Term]) -> tuple[frozenset, frozenset]:
    """Control values in ``possible`` under which the guard can be true
    (respectively false), with every other location left free."""
    closed = _expand_bound_vars(guard, ranges, lets)
    ctl_term = App(program.ctl_name, ())
    sat_true = set()
    sat_false = set()
    for v in possible:
        fixed = subst_term(closed, {ctl_term: Const(v)})
        if satisfiable(fixed, program):
            sat_true.add(v)
        if satisfiable(symexec.s_not(fixed), program):
            sat_false.add(v)
    return frozenset(sat_true), frozenset(sat_false)


def compute_transition_set(program: Program) -> TransitionSet:
    """Pairs (i, j) licensed by syntactic containment of a control-state
    update inside the rule(s) guarding state i.

    The source set of an update is tracked along the branch path: at each
    conditional the set narrows to the control values under which that
    branch is reachable, other locations left free.  A guard testing a
    set of states therefore contributes one pair per member that still
    dominates the update.
    """
    sort = program.ctl.result
    all_values = frozenset(sort.values())
    pairs: dict[tuple[Value, Value], None] = {}
    sites: list[SiteInfo] = []

    def walk(rule: Rule, possible: frozenset, constrained: bool,
             ranges: dict, lets: dict, rule_name: str,
             counter: list[int], stack: frozenset) -> None:
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
            ordinal = counter[0]
            counter[0] += 1
            sources = tuple(sorted(possible, key=sort.index))
            if sources:
                sites.append(SiteInfo(rule_name, ordinal, sources, target))
                for src in sources:
                    pairs.setdefault((src, target))
        elif isinstance(rule, Cond):
            sat_true, sat_false = _guard_source_split(
                program, rule.guard, possible, ranges, lets)
            branched = constrained or reads_location(rule.guard,
                                                     program.ctl_loc)
            for r in rule.then_rules:
                walk(r, sat_true, branched, ranges, lets, rule_name,
                     counter, stack)
            for r in rule.else_rules:
                walk(r, sat_false, branched, ranges, lets, rule_name,
                     counter, stack)
        elif isinstance(rule, Par):
            for r in rule.rules:
                walk(r, possible, constrained, ranges, lets, rule_name,
                     counter, stack)
        elif isinstance(rule, Choose):
            inner = dict(ranges)
            inner[rule.var] = rule.candidates.resolve(program)
            for r in rule.body:
                walk(r, possible, constrained, inner, lets, rule_name,
                     counter, stack)
        elif isinstance(rule, Let):
            inner = dict(lets)
            inner[rule.var] = _expand_bound_vars(rule.binding, {}, lets)
            for r in rule.body:
                walk(r, possible, constrained, ranges, inner, rule_name,
                     counter, stack)
        elif isinstance(rule, Call):
            if rule.name in stack:
                raise CasmError(f"recursive rule {rule.name} in analysis")
            target = program.named_rule(rule.name)
            inner_lets = dict(lets)
            for (pname, _), arg in zip(target.params, rule.args):
                inner_lets[pname] = _expand_bound_vars(arg, ranges, lets)
            for r in target.body:
                walk(r, possible, constrained, {}, inner_lets, rule_name,
                     counter, stack | {rule.name})

    for nr in program.main_rules:
        counter = [0]
        for r in nr.body:
            walk(r, all_values, False, {}, {}, nr.name, counter, frozenset())

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
    report: dict = field(default_factory=dict)

    def cond_for(self, value: Value) -> Term:
        return subst_term(self.cond_x, {Var("x"): Const(value)})

    def safe_states(self, program_state_values: dict[Location, Value],
                    monitored: Optional[dict] = None) -> list[Value]:
        state = State(values=dict(program_state_values),
                      monitored=monitored or {})
        return [v for v in self.plain_values
                if not eval_term(self.cond_for(v), state)]


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

    monitored_housed = set()
    controlled_locs = set()
    for loc in init.sym_val:
        mode = program.function(loc[0]).mode
        if mode == "monitored":
            monitored_housed |= free_symbols_in(init.sym_val[loc])
        else:
            controlled_locs.add(loc)
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

    report = {
        "symbols": {
            format_symexpr(expr): _loc_str(loc)
            for loc, expr in init.sym_val.items()
        },
        "paths": [
            {"cond": format_symexpr(p.path_cond),
             "locMap": {_loc_str(loc): format_symexpr(e)
                        for loc, e in p.loc_map.items()},
             "merged-from": list(p.merged_from),
             "stutter": p.stutter}
            for p in merged
        ],
        "eliminated": sorted(s.name for s in monitored_housed),
        "condX": format_symexpr(cond_x),
    }
    return SafeCondition(cond_x=cond_x, ctl_name=program.ctl_name,
                         plain_values=program.ctl_values(), report=report)


def _loc_str(loc: Location) -> str:
    from .ast import format_location
    return format_location(loc)


# ---------------------------------------------------------------------------
# Rewriting
# ---------------------------------------------------------------------------

@dataclass
class ProtectedProgram:
    program: Program
    enrollment: Enrollment
    safe_condition: SafeCondition
    plain_sort: Sort
    fallback_policy: str = "uniform-safe-encodable"
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
        os.makedirs(directory, exist_ok=True)
        casm = self.source_text()
        enr = self.enrollment.to_json()
        with open(os.path.join(directory, PROTECTED_FILE), "w",
                  encoding="utf-8") as fh:
            fh.write(casm)
        with open(os.path.join(directory, ENROLLMENT_FILE), "w",
                  encoding="utf-8") as fh:
            fh.write(enr)

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
    """Apply the binding transformation; see the module docstring."""
    ctl_name = program.ctl_name
    plain_sort = program.ctl.result
    init_plain = program.initial_ctl()
    resp_sort = _response_sort(program, enrollment.response_bits)
    ctl_term = App(ctl_name, ())
    warnings: list[str] = []

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
                    responses = enc_plus_init(b.value)
                    if not responses:
                        return Const(False)
                    return Member(ctl_term, responses)
            return Eq(rw_term(term.left), rw_term(term.right))
        if isinstance(term, Member) and term.item == ctl_term:
            responses: list[int] = []
            for v in term.values:
                responses.extend(enc_plus_init(v))
            if not responses:
                return Const(False)
            return Member(ctl_term, tuple(responses))
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

    writes_ctl_cache: dict[str, bool] = {}

    def named_writes_ctl(name: str, stack: frozenset = frozenset()) -> bool:
        if name in writes_ctl_cache:
            return writes_ctl_cache[name]
        if name in stack:
            return False
        result = False
        for rule, _ in iter_rules(program.named_rule(name).body):
            if isinstance(rule, Update) and rule.fn == ctl_name:
                result = True
            if isinstance(rule, Call) and \
                    named_writes_ctl(rule.name, stack | {name}):
                result = True
        writes_ctl_cache[name] = result
        return result

    def bind_site(sources: tuple[Value, ...], target: Value) -> Rule:
        if len(sources) == 1:
            return ChooseCtl(enrollment.challenge_for(sources[0], target))
        node: Rule = ChooseCtl(enrollment.challenge_for(sources[-1], target))
        for src in reversed(sources[:-1]):
            guard = Member(ctl_term, enc_plus_init(src))
            node = Cond(guard,
                        (ChooseCtl(enrollment.challenge_for(src, target)),),
                        (node,))
        return node

    def rw_rule(rule: Rule, possible: frozenset, constrained: bool,
                ranges: dict, lets: dict) -> Rule:
        if isinstance(rule, Update):
            if rule.fn == ctl_name:
                sources = tuple(sorted(possible, key=plain_sort.index))
                if not sources:
                    # branch unreachable for every control value
                    return Par(())
                assert isinstance(rule.rhs, Const)
                return bind_site(sources, rule.rhs.value)
            return Update(rule.fn, tuple(rw_term(a) for a in rule.args),
                          rw_term(rule.rhs))
        if isinstance(rule, Cond):
            sat_true, sat_false = _guard_source_split(
                program, rule.guard, possible, ranges, lets)
            branched = constrained or reads_location(rule.guard,
                                                     program.ctl_loc)
            return Cond(
                rw_term(rule.guard),
                tuple(rw_rule(r, sat_true, branched, ranges, lets)
                      for r in rule.then_rules),
                tuple(rw_rule(r, sat_false, branched, ranges, lets)
                      for r in rule.else_rules))
        if isinstance(rule, Par):
            return Par(tuple(rw_rule(r, possible, constrained, ranges, lets)
                             for r in rule.rules))
        if isinstance(rule, Choose):
            inner = dict(ranges)
            inner[rule.var] = rule.candidates.resolve(program)
            return Choose(rule.var, rule.candidates,
                          tuple(rw_rule(r, possible, constrained, inner, lets)
                                for r in rule.body))
        if isinstance(rule, Let):
            inner = dict(lets)
            inner[rule.var] = _expand_bound_vars(rule.binding, {}, lets)
            return Let(rule.var, rw_term(rule.binding),
                       tuple(rw_rule(r, possible, constrained, ranges, inner)
                             for r in rule.body))
        if isinstance(rule, Call):
            if named_writes_ctl(rule.name):
                target = program.named_rule(rule.name)
                mapping = {Var(p): a for (p, _), a in
                           zip(target.params, rule.args)}
                inlined = tuple(
                    rw_rule(_subst_rule(r, mapping), possible, constrained,
                            ranges, lets)
                    for r in target.body)
                return Par(inlined)
            return Call(rule.name, tuple(rw_term(a) for a in rule.args))
        return rule

    sort_values = frozenset(plain_sort.values())
    new_mains = tuple(
        NamedRule(nr.name, (),
                  tuple(rw_rule(r, sort_values, False, {}, {})
                        for r in nr.body))
        for nr in program.main_rules)
    new_named = tuple(
        nr for nr in (
            NamedRule(n.name, n.params,
                      tuple(rw_rule(r, sort_values, False, {}, {})
                            for r in n.body))
            for n in program.named_rules if not named_writes_ctl(n.name))
    )

    new_functions = []
    for f in program.functions:
        if f.name == ctl_name:
            new_functions.append(FunctionDecl(
                f.name, (), resp_sort, "controlled",
                make_init({(): enrollment.init_token})))
        else:
            new_functions.append(f)

    if not tset.pairs:
        warnings.append("program has no control-state transitions; "
                        "nothing was bound to the device")

    new_program = Program(
        name=program.name + "_protected",
        sorts=program.sorts + (resp_sort,),
        functions=tuple(new_functions),
        named_rules=new_named,
        main_rules=new_mains,
        ctl_name=ctl_name,
        unsafe=program.unsafe,
        init_constraints=program.init_constraints,
    )
    problems = validate_program(new_program, protected=True)
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
        warnings=tuple(warnings),
    )


def _subst_rule(rule: Rule, mapping: dict[Term, Term]) -> Rule:
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
    if isinstance(rule, Choose):
        inner = {k: v for k, v in mapping.items()
                 if not (isinstance(k, Var) and k.name == rule.var)}
        return Choose(rule.var, rule.candidates,
                      tuple(_subst_rule(r, inner) for r in rule.body))
    if isinstance(rule, Let):
        inner = {k: v for k, v in mapping.items()
                 if not (isinstance(k, Var) and k.name == rule.var)}
        return Let(rule.var, subst_term(rule.binding, mapping),
                   tuple(_subst_rule(r, inner) for r in rule.body))
    if isinstance(rule, Call):
        return Call(rule.name, tuple(subst_term(a, mapping)
                                     for a in rule.args))
    return rule


# ---------------------------------------------------------------------------
# Protected runtime
# ---------------------------------------------------------------------------

def choose_ctl_state(challenge: int, post_values: dict[Location, Value],
                     current_ctl: Value, device, enrollment: Enrollment,
                     safe_condition: SafeCondition, fallback_rng,
                     query_rng) -> tuple[Value, str]:
    """Resolve one challenge site; total by construction.

    The safety predicate is evaluated against the values this step is
    about to commit (the state the chosen control value will inhabit),
    so an accepted value can never enable a violating successor step.
    """
    response = device.query(challenge, query_rng)
    decoded = enrollment.decode(response)
    state = State(values=post_values, monitored={})
    if decoded is not None and \
            not eval_term(safe_condition.cond_for(decoded), state):
        return response, BOUND_OK
    candidates = [v for v in safe_condition.plain_values
                  if enrollment.encodings(v)
                  and not eval_term(safe_condition.cond_for(v), state)]
    if not candidates:
        return current_ctl, SAFE_STALL
    chosen = candidates[fallback_rng.randrange(len(candidates))]
    return enrollment.encodings(chosen)[0], FALLBACK_TAKEN


def make_ctl_resolver(protected: ProtectedProgram, device, seed: int,
                      step_index: int):
    enrollment = protected.enrollment
    cond = protected.safe_condition
    device_id = getattr(device, "device_seed", None)
    if device_id is None:
        device_id = device.fingerprint()

    def resolver(site: str, challenge: int, post: dict,
                 current_ctl: Value) -> tuple[Value, str]:
        fallback_rng = derive_rng("fallback", seed, step_index, site)
        query_rng = derive_rng("pufnoise", device_id, seed, step_index, site)
        return choose_ctl_state(challenge, post, current_ctl, device,
                                enrollment, cond, fallback_rng, query_rng)

    return resolver


class SiteDecider:
    """The challenge-site rule, shared by the runtime and both model
    checking modes: accept a response that decodes to a state ``condx``
    does not mark dangerous in the post-update values, else fall back to a
    uniformly drawn safe encodable state (as its first encoding), else
    stall on the current value.  ``condx`` is compiled once per plain
    state, and the safe states are memoized on the values of the
    locations it reads; :func:`choose_ctl_state` is the reference a test
    pins."""

    def __init__(self, program: Program, enrollment: Enrollment,
                 safe_condition: SafeCondition):
        cp = compiled(program)
        plain = safe_condition.plain_values
        self._decode = {t.response: t.target for t in enrollment.transitions}
        self._first_enc = {v: enrollment.encodings(v)[0] for v in plain
                           if enrollment.encodings(v)}
        self._cond_fns = {v: cp._term(safe_condition.cond_for(v))
                          for v in plain}
        self._safe_key = location_key(
            _locations_read(program, safe_condition.cond_x))
        self._safe_memo: dict[object, tuple[Value, ...]] = {}
        # every unenrolled response decides like this representative
        rep = 0
        while rep in self._decode or rep == enrollment.init_token:
            rep += 1
        self._responses = [*self._decode, rep]
        self._empty: dict = {}

    def _accepts(self, response: int, post: dict) -> bool:
        decoded = self._decode.get(response)
        return decoded is not None and \
            not self._cond_fns[decoded](post, self._empty, self._empty)

    def _safe(self, post: dict) -> tuple[Value, ...]:
        key = self._safe_key(post)
        safe = self._safe_memo.get(key)
        if safe is None:
            empty = self._empty
            safe = self._safe_memo[key] = tuple(
                v for v in self._first_enc
                if not self._cond_fns[v](post, empty, empty))
        return safe

    def _fallback(self, safe: tuple[Value, ...], current_ctl: Value,
                  draw: Callable[[int], int]) -> tuple[Value, str]:
        if not safe:
            return current_ctl, SAFE_STALL
        return self._first_enc[safe[draw(len(safe))]], FALLBACK_TAKEN

    def decide(self, response: int, post: dict, current_ctl: Value,
               draw: Callable[[int], int]) -> tuple[Value, str]:
        """Resolve one site; ``draw(n)`` picks one of ``n`` safe states
        and is called only when the site falls back."""
        if self._accepts(response, post):
            return response, BOUND_OK
        return self._fallback(self._safe(post), current_ctl, draw)

    def outcomes(self, post: dict, current_ctl: Value
                 ) -> list[tuple[Value, str]]:
        """Every result :meth:`decide` can give at this site, over every
        device response and every draw, in first-seen order."""
        safe = self._safe(post)
        fallbacks = [self._fallback(safe, current_ctl, lambda n, i=i: i)
                     for i in range(max(len(safe), 1))]
        found: dict[tuple[Value, str], None] = {}
        for response in self._responses:
            if self._accepts(response, post):
                found.setdefault((response, BOUND_OK))
            else:
                found.update(dict.fromkeys(fallbacks))
        return list(found)

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


def _locations_read(program: Program, term: Term) -> tuple[Location, ...]:
    """Non-monitored locations ``term`` can read, in first-read order; a
    read with a non-constant argument counts every location of its
    function."""
    found: dict[Location, None] = {}
    stack = [term]
    while stack:
        t = stack.pop()
        if isinstance(t, App) and program.function(t.fn).mode != "monitored":
            if all(isinstance(a, Const) for a in t.args):
                found[(t.fn, tuple(a.value for a in t.args))] = None
            else:
                found.update(dict.fromkeys(program.locations(t.fn)))
        stack.extend(reversed(children(t)))
    return tuple(found)


class ProtectedRunner:
    """Protected runtime on one device: the run loop of
    :func:`~casmkit.interp.iter_run` hands each site the device's response
    at that point of the run, decided by the program's
    :class:`SiteDecider`.  The device owns its response cache and noise."""

    def __init__(self, protected: ProtectedProgram, device, seed: int):
        self.protected = protected
        self.device = device
        self.seed = seed
        self.decider = protected.decider

    def _resolver(self, step: int, site: str, challenge: int, post: dict,
                  current_ctl: Value) -> tuple[Value, str]:
        seed = self.seed
        return self.decider.decide(
            self.device.query_at(challenge, seed, step, site), post,
            current_ctl,
            lambda n: derive_rng("fallback", seed, step, site).randrange(n))

    def iter_entries(self, steps: int, oracle: MonitoredOracle
                     ) -> Iterator[TraceEntry]:
        return iter_run(self.protected.program, steps, oracle, self.seed,
                        self._resolver)


def run_protected(protected: ProtectedProgram, device, steps: int,
                  oracle: MonitoredOracle, seed: int) -> Trace:
    trace = Trace()
    runner = ProtectedRunner(protected, device, seed)
    for entry in runner.iter_entries(steps, oracle):
        trace.entries.append(TraceEntry(entry.step, dict(entry.state),
                                        dict(entry.monitored),
                                        list(entry.fired),
                                        list(entry.events)))
    return trace


# ---------------------------------------------------------------------------
# Pipeline and artifact I/O
# ---------------------------------------------------------------------------

def protect(program: Program, device, attempt_budget: int = 65536
            ) -> tuple[ProtectedProgram, Enrollment]:
    """Full pipeline: transitions, enrollment, safety derivation,
    rewrite.  Deterministic given the program and device parameters;
    nothing is emitted on partial failure."""
    problems = validate_program(program)
    if problems:
        raise ProgramError("; ".join(f"{c}: {m}" for c, m in problems))
    tset = compute_transition_set(program)
    if tset.pairs:
        enrollment = enroll(device, tset.pairs, program.initial_ctl(),
                            attempt_budget)
    else:
        enrollment = enroll(device, (), program.initial_ctl(), attempt_budget)
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
    plain_sort = program.sort(result.extras.plain_sort)
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
    return ProtectedProgram(
        program=program,
        enrollment=enrollment,
        safe_condition=safe_condition,
        plain_sort=plain_sort,
    )
