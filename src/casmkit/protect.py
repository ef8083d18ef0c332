"""Hardware-binding transformation pipeline.

Protecting a program means: execute one step of it symbolically, read
the control-state transitions off the paths of that step, enroll one PUF
challenge per transition, derive from the same paths the predicate that
marks dangerous next control states, then rewrite the program so that

  * every plain control-state update becomes a challenge site that
    queries the device at run time, with the challenges of the sources
    the step recorded for that update (the rewrite decides none),
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
from functools import cached_property, partial
from typing import Callable, Generator, Iterable, Optional

from .ast import (
    App, Call, CasmError, Choose, ChooseCtl, Cond, Const, Eq,
    FunctionDecl, Ite, Let, Location, Member, NamedRule, Par,
    Program, ProgramError, Rule, Sort, Term, Update, Value, Var,
    children, compile_term, ctl_writes, format_value, free_vars,
    iter_rules, location_term, locations_read, make_init, or_all,
    program_rules, rebuild, rebuild_rule, rule_parts, validate_program,
)
from .interp import (
    CtlEnumerator, MonitoredOracle, StagedSite, Trace, TraceEntry,
    check_step_count, iter_run, location_key,
    _check_total,  # noqa: F401 -- the traced benchmark run wraps it here
)
from .parser import ProtectedExtras, parse_program, pretty_print
from .puf import Enrollment, enroll
from .rng import step_words
from .rng import derive_rng  # noqa: F401 -- the traced benchmark wraps it
from . import symexec
from .symexec import (
    PathedSymState, SymInit, elim_symbol, free_symbols_in, group_successors,
    merge_successors, simplify_formula, subst_symbol, subst_term,
    substitute_initial_terms, symbolic_step,
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


# one symbolic step of a program: its symbolic initial state and paths
Step = tuple[SymInit, list[PathedSymState]]


def _one_step(program: Program) -> Step:
    """The step transitions and ``condx`` come from, control writes
    abstracted."""
    init = SymInit.for_program(program)
    return init, symbolic_step(program, init, ctl_abstraction=True)


def compute_transition_set(program: Program,
                           step: Optional[Step] = None) -> TransitionSet:
    """Pairs (i, j) such that a path of the symbolic step ``step`` (one
    of its own when not given) writes j to the control state from i.

    A path's sources are the control values its condition admits.  Each
    control write is a site ``(r, n)``, the n-th control write of main
    rule ``r``, with the sources of the paths through it; a write on no
    path has no site.  :func:`rewrite_program` binds each write to its
    site.  A write must assign a constant under a guard that reads the
    control state.
    """
    init, paths = step or _one_step(program)
    sort = program.ctl.result
    sources_of: dict[tuple[str, int], set[Value]] = {}
    target_of: dict[tuple[str, int], Value] = {}
    for p in paths:
        for w in p.ctl_writes:
            if not isinstance(w.target, Const):
                raise AmbiguousSource(f"control-state update in {w.rule} "
                                      "has a non-constant target")
            if not w.guarded:
                raise AmbiguousSource(
                    f"control-state update in {w.rule} is not dominated "
                    "by any guard on the control state")
        if not p.ctl_writes:
            continue
        # a guard reads the control state, so it is held by a symbol
        alpha = init.sym_val[program.ctl_loc]
        sources = [v for v in sort.values() if symexec.satisfiable(
            subst_term(p.path_cond, {alpha: Const(v)}), program)]
        for w in p.ctl_writes:
            sources_of.setdefault((w.rule, w.ordinal), set()).update(sources)
            target_of[w.rule, w.ordinal] = w.target.value

    rule_index = {nr.name: k for k, nr in enumerate(program.main_rules)}
    sites = tuple(
        SiteInfo(r, n, tuple(sorted(sources_of[r, n], key=sort.index)),
                 target_of[r, n])
        for r, n in sorted(sources_of, key=lambda rn: (rule_index[rn[0]],
                                                       rn[1])))
    pairs = {(src, site.target) for site in sites for src in site.sources}
    return TransitionSet(
        pairs=tuple(sorted(pairs, key=lambda ij: (sort.index(ij[0]),
                                                  sort.index(ij[1])))),
        sites=sites)


# ---------------------------------------------------------------------------
# Safe-next-state condition
# ---------------------------------------------------------------------------

@dataclass
class SafeCondition:
    """Predicate template over the current state with placeholder ``x``
    ranging over plain control states; true marks a dangerous choice."""

    cond_x: Term
    plain_values: tuple[Value, ...]

    def cond_for(self, value: Value) -> Term:
        return subst_term(self.cond_x, {Var("x"): Const(value)})


def derive_safe_condition(program: Program,
                          step: Optional[Step] = None) -> SafeCondition:
    """The symbolic step ``step`` (one of its own when not given),
    merged, turned into the dangerous-choice predicate: a disjunct per
    transition group, each the conjunction of its (back-substituted)
    path condition and the violation predicate pushed through its
    successor map.  Symbols with no concrete carrier at run time
    (environment inputs, the abstracted next control value, internal
    choices) are eliminated existentially.  Only the groups with a
    non-stutter path are merged: a stutter group adds no disjunct."""
    init, paths = step or _one_step(program)
    contributing = merge_successors(paths, [
        g for g in group_successors(paths)
        if not all(paths[i].stutter for i in g)])

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
    return SafeCondition(cond_x=cond_x, plain_values=program.ctl_values())


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
        return tuple(sorted({
            r.challenge for _, r in program_rules(self.program)
            if isinstance(r, ChooseCtl)}))

    @cached_property
    def decider(self) -> "SiteDecider":
        return SiteDecider(self.program, self.enrollment,
                           self.safe_condition)


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
        if isinstance(term, Member) and term.item == ctl_term:
            return Member(ctl_term, tuple(
                r for v in term.values for r in enc_plus_init(v)))
        if term == ctl_term:
            return decode_cascade()
        return rebuild(term, [rw_term(c) for c in children(term)])

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
        if isinstance(rule, Update) and rule.fn == ctl_name:
            site = sites.get((rule_name, next(ordinals)))
            if site is None:
                # branch unreachable for every control value
                return Par(())
            return bind_site(site.sources, site.target)
        if isinstance(rule, Call) and ctl_writes(program, rule):
            # inlined, the parameters replaced by the arguments
            called = program.named_rule(rule.name)
            mapping = {Var(p): a for (p, _), a in zip(called.params,
                                                      rule.args)}
            return Par(tuple(rw_rule(_subst_rule(r, mapping))
                             for r in called.body))
        terms, bodies = rule_parts(rule)
        return rebuild_rule(rule, [rw_term(t) for t in terms],
                            [[rw_rule(r) for r in body] for body in bodies])

    new_mains = []
    for nr in program.main_rules:
        rule_name, ordinals = nr.name, itertools.count()
        new_mains.append(NamedRule(nr.name, (),
                                   tuple(rw_rule(r) for r in nr.body)))
    # named rules that write the control state are inlined at their calls
    new_named = tuple(
        NamedRule(nr.name, nr.params, tuple(rw_rule(r) for r in nr.body))
        for nr in program.named_rules
        if not any(ctl_writes(program, r) for r in nr.body))

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


def _var_names(rule: Rule) -> set[str]:
    """Every variable name ``rule`` binds or reads."""
    names: set[str] = set()
    for r, env in iter_rules((rule,)):
        names |= env.keys()  # the binders around ``r``
        for t in rule_parts(r)[0]:
            names |= free_vars(t)
    return names


def _subst_rule(rule: Rule, mapping: dict[Term, Term]) -> Rule:
    """Replace variables by terms, renaming a binder that would capture a
    variable of a replacement."""
    terms, bodies = rule_parts(rule)
    inner = mapping
    if isinstance(rule, (Choose, Let)):
        inner = {k: v for k, v in mapping.items() if k != Var(rule.var)}
        taken = set().union(*(free_vars(v) for v in inner.values()))
        if rule.var in taken:
            taken |= _var_names(rule)
            var = next(f"{rule.var}_{i}" for i in itertools.count(1)
                       if f"{rule.var}_{i}" not in taken)
            inner[Var(rule.var)] = Var(var)
            rule = replace(rule, var=var)
    return rebuild_rule(rule, [subst_term(t, mapping) for t in terms],
                        [[_subst_rule(r, inner) for r in body]
                         for body in bodies])


# ---------------------------------------------------------------------------
# Protected runtime
# ---------------------------------------------------------------------------

class SiteDecider:
    """The challenge-site rule, shared by the runtime and every walk over
    a site's results: accept a response that decodes to a state ``condx``
    does not mark dangerous in the post-update values, else fall back to a
    uniformly drawn safe encodable state (as its first encoding), else
    stall on the current value.  ``condx`` is compiled once per plain
    state and evaluated once per valuation of the locations it reads: the
    safe states are memoized on those, and a response is accepted by
    membership.  Its reference, the same rule evaluated term by term, is
    in ``tests/reference_runtime.py``."""

    def __init__(self, program: Program, enrollment: Enrollment,
                 safe_condition: SafeCondition):
        plain = safe_condition.plain_values
        self._decode = {t.response: t.target for t in enrollment.transitions}
        self._first_enc = {v: enrollment.encodings(v)[0] for v in plain
                           if enrollment.encodings(v)}
        self._cond_fns = {v: compile_term(program,
                                          safe_condition.cond_for(v))
                          for v in plain}
        self._safe_key = location_key(tuple(
            l for l in locations_read(program, safe_condition.cond_x)
            if program.function(l[0]).mode != "monitored"))
        self._safe_memo: dict[object, tuple[tuple[Value, ...], frozenset]] = {}
        # every response: the enrolled, and one the unenrolled decide like
        rep = 0
        while rep in self._decode or rep == enrollment.init_token:
            rep += 1
        self.responses = (*self._decode, rep)
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
              word: Callable[[int], int], noise: Optional[tuple] = None,
              lead: Optional[tuple[list, dict]] = None) -> StagedSite:
        """:meth:`decide` at one site of a step, as a function of the
        step index, for a device whose stable response is ``response``.
        That response is decided here, once, and the staged site is one
        closure for its outcome: a bound site (or a stall) gives one
        result, a fallback draws ``word(step) % n``.  Only a noisy site
        can change its tag from step to step: every other staged site is
        steady (:data:`~casmkit.interp.StagedSite`).  A bound or stalled
        site that is neither noisy nor led gives one result at every
        step, and is fixed as well.

        On a noisy device ``noise`` is its
        :meth:`~casmkit.puf.PufDevice.flips_at` here, ``(fires,
        flipped)``, and where the coin fires :meth:`decide` decides the
        flipped response at that step.  A noise-free run that leads
        trials passes ``lead``, the coins of its trials here and the
        dict of those that still follow: ``(trial, stable response,
        fires, flipped)`` for each.  At each step the site first draws
        the coin of each trial still in the dict and drops a trial
        whose flip :meth:`departs`; each coin is tested directly, and
        the flipped response is made only where it fires."""
        values, tag = self._rule(response, self._safe(post), current_ctl)
        n = len(values)
        result = values[0], tag
        falls_back = tag is FALLBACK_TAKEN
        if noise is not None:
            fires, flipped = noise
            decide = self.decide

            def noisy(step):
                if fires(step):
                    return decide(flipped(step), post, current_ctl,
                                  lambda k: word(step) % k)
                if falls_back:
                    return values[word(step) % n], tag
                return result
            return noisy
        if lead is not None:
            coins, followers = lead
            departs = self.departs

            def led(step):
                # one label for every block the site hashes at this step
                at = str(step)
                for trial, stable, fires, flipped in coins:
                    if trial in followers and fires(at) and departs(
                            stable, flipped(at), post, current_ctl):
                        del followers[trial]
                if falls_back:
                    return values[word(at) % n], tag
                return result
            staged = led
        elif falls_back:
            def staged(step):
                return values[word(step) % n], tag
        else:
            def staged(step):
                return result
            staged.fixed = True
        staged.steady = True
        return staged

    def departs(self, response: int, flipped: int, post: dict,
                current_ctl: Value) -> bool:
        """Whether a site :meth:`stage` staged for the stable response
        ``response`` gives otherwise, at a step where noise flips it to
        ``flipped``, than the same site staged noise-free.  Where the
        coin does not fire the two give alike; where it fires they
        differ exactly when :meth:`_rule` does, since a fallback draws
        ``word(step) % n`` over one tuple whichever response fell
        back.  Two responses that decode to nothing have one rule."""
        decode = self._decode
        if flipped not in decode and response not in decode:
            return False
        safe = self._safe(post)
        return (self._rule(flipped, safe, current_ctl)
                != self._rule(response, safe, current_ctl))

    def outcomes(self, responses: Iterable[int], post: dict,
                 current_ctl: Value) -> list[tuple[Value, str]]:
        """Every result :meth:`decide` can give at this site, over each
        of ``responses`` and every draw, in first-seen order."""
        safe = self._safe(post)
        found: dict[tuple[Value, str], None] = {}
        others = None
        for response in responses:
            values, tag = self._rule(response, safe, current_ctl)
            if tag is BOUND_OK:
                found.setdefault((response, tag))
            elif others is None:
                # every response that does not bind decides alike
                others = dict.fromkeys([(v, tag) for v in values])
                found.update(others)
        return list(found)

    def device_key(self, device, challenges: tuple[int, ...]) -> tuple:
        """What ``device`` can make a run observe at sites of
        ``challenges`` where noise leaves its response alone: each stable
        response that decodes, as itself, and ``None`` for one that does
        not.  Noise-free devices with equal keys decide every site alike;
        a noisy device has the key of its noise-free twin."""
        return tuple(r if r in self._decode else None
                     for r in map(device.stable, challenges))

    def enumerator(self, device) -> CtlEnumerator:
        """Site enumerator for a walk over every result of a site: its
        :meth:`outcomes` over :attr:`responses`, or with a device over
        its stable response alone."""
        def enumerate_site(site, challenge, post, current_ctl):
            responses = self.responses if device is None \
                else (device.stable(challenge),)
            return self.outcomes(responses, post, current_ctl)
        return enumerate_site


class ProtectedRunner:
    """Protected runtime on one device: the run loop of
    :func:`~casmkit.interp.iter_run` stages each site of a step once,
    and the staged site gives the device's response at each step it runs,
    decided by the program's :class:`SiteDecider`.  The device gives its
    stable response and noise coin, once per site of the run, and so owns
    its noise model; the decider stages the rule's answer for the stable
    response, so a step repeats only its draws."""

    def __init__(self, protected: ProtectedProgram, device, seed: int):
        self.protected = protected
        self.device = device
        self.seed = seed
        self.decider = protected.decider
        # (site, challenge) -> the stable response, fallback word and
        # noise of that site
        self._draws: dict[tuple[str, int], tuple] = {}

    def _stage(self, site: str, challenge: int, post: dict,
               current_ctl: Value, lead: Optional[tuple[list, dict]] = None
               ) -> StagedSite:
        """Stage one site of a step (:data:`~casmkit.interp.CtlResolver`):
        the device's stable response and noise, decided by the program's
        :class:`SiteDecider`, which draws the coins of ``lead`` as well
        (:meth:`SiteDecider.stage`).  A fallback draws once from the
        stream ("fallback", seed, step, site).  The draws depend on the
        site alone, so the fallback word and the device's
        :meth:`~casmkit.puf.PufDevice.flips_at` are made once per
        (site, challenge) of the run and serve every step staged
        there."""
        draws = self._draws.get((site, challenge))
        if draws is None:
            device = self.device
            draws = self._draws[site, challenge] = (
                device.stable(challenge),
                step_words(("fallback", self.seed), site),
                device.flips_at(challenge, self.seed, site))
        response, word, noise = draws
        return self.decider.stage(response, post, current_ctl, word, noise,
                                  lead)

    def _resolver(self, step: int, site: str, challenge: int, post: dict,
                  current_ctl: Value) -> tuple[Value, str]:
        """One site at one step of the run: its staged site, called
        once."""
        return self._stage(site, challenge, post, current_ctl)(step)

    def iter_entries(self, steps: int, oracle: MonitoredOracle,
                     followers: Optional[dict] = None,
                     entry: Callable[..., TraceEntry] = TraceEntry
                     ) -> Generator[TraceEntry, object, None]:
        """The run's entries (:func:`~casmkit.interp.iter_run`), each
        built once as ``entry``, a :class:`~casmkit.interp.TraceEntry`
        by default.  This run may lead ``followers``, a dict from trial
        to a noisy device whose noise-free twin is this run's device: a
        noise-free device of the same :meth:`~SiteDecider.device_key`,
        run with the same seed and inputs.  Both draw the same
        fallbacks and inputs, so a follower steps as this run until its
        noise changes a site's result.  Each follower's stable response
        and noise coin are made once per (site, challenge), as the run's
        own draws are (:meth:`_stage`), and each step that resolves the
        site draws the coin of each follower still in the dict; a
        follower leaves it at its first flip that
        :meth:`SiteDecider.departs`.  Draws are kept by site, not by
        staged step, since the run's graph keeps its staged steps until
        a full collection.

        The sites draw the coins, not the entries, so a consumer that
        needs no more entries can step the run on without them, over
        the states it has reached, while a trial follows
        (:func:`~casmkit.interp.drive`)."""
        stage = self._stage
        if followers is not None:
            seed = self.seed
            coins_at: dict[tuple[str, int], list] = {}

            def stage(site, challenge, post, current_ctl):
                coins = coins_at.get((site, challenge))
                if coins is None:
                    coins = coins_at[site, challenge] = [
                        (trial, device.stable(challenge),
                         *device.flips_at(challenge, seed, site))
                        for trial, device in followers.items()]
                return self._stage(site, challenge, post, current_ctl,
                                   (coins, followers))
        return iter_run(self.protected.program, steps, oracle, self.seed,
                        stage, entry)


def run_protected(protected: ProtectedProgram, device, steps: int,
                  oracle: MonitoredOracle, seed: int) -> Trace:
    """The trace of ``protected`` run on ``device``.  The run adds the
    objects it yields to the trace's columns, one row per step, and
    under constant inputs on a noise-free device fills its periodic tail
    into them while every site it meets binds or stalls
    (:meth:`~casmkit.interp.Trace.of_run`,
    :func:`~casmkit.interp.iter_run`); no entry is built until one is
    read (:class:`~casmkit.interp.Trace`).  A negative step count is
    refused."""
    check_step_count(steps)
    return Trace.of_run(partial(
        ProtectedRunner(protected, device, seed).iter_entries, steps,
        oracle, None))


# ---------------------------------------------------------------------------
# Pipeline and artifact I/O
# ---------------------------------------------------------------------------

def protect(program: Program, device, attempt_budget: int = 65536
            ) -> tuple[ProtectedProgram, Enrollment]:
    """Full pipeline: one symbolic step, then from its paths the
    transitions, enrollment and the safety derivation, then the rewrite.
    Deterministic given the program and device parameters; nothing is
    emitted on partial failure.  The analysis shares one
    :class:`~casmkit.symexec.FormulaCache`, dropped when it returns."""
    problems = validate_program(program)
    if problems:
        raise ProgramError("; ".join(f"{c}: {m}" for c, m in problems))
    with symexec.analysis():
        step = _one_step(program)
        tset = compute_transition_set(program, step)
        enrollment = enroll(device, tset.pairs, program.initial_ctl(),
                            attempt_budget)
        enrollment = replace(enrollment, ctl_name=program.ctl_name)
        safe_condition = derive_safe_condition(program, step)
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
    initial = program.initial_ctl()
    if enrollment.init_token != initial:
        raise CasmError(
            f"{enr_path} has initToken {enrollment.init_token}, but "
            f"{casm_path} starts {program.ctl_name} at "
            f"{format_value(initial)}")
    plain_sort = program.sort(result.extras.plain_sort)
    if enrollment.init_state not in plain_sort.values():
        raise CasmError(
            f"{enr_path} has initState {format_value(enrollment.init_state)}"
            f", outside the plain sort {plain_sort.name}")
    for t in enrollment.transitions:
        for end, state in (("from", t.source), ("to", t.target)):
            if state not in plain_sort.values():
                raise CasmError(
                    f"{enr_path} has a transition {end} "
                    f"{format_value(state)}, outside the plain sort "
                    f"{plain_sort.name}")
    enc = result.extras.enc_map()
    for state, responses in enc.items():
        if tuple(enrollment.encodings(state)) != tuple(responses):
            raise CasmError(
                f"encoding annotation for {format_value(state)} does not "
                "match the enrollment file")
    for state in plain_sort.values():
        if state not in enc and enrollment.encodings(state):
            raise CasmError(
                f"encoding annotation omits {format_value(state)}, which "
                f"{enr_path} enrolls")
    safe_condition = SafeCondition(
        cond_x=result.extras.condx,
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
