"""Concrete execution of control-state ASM programs.

One step fires every top-level rule whose guard holds, collects all their
updates, checks consistency, and applies the set atomically.  ``choose``
is resolved by a seeded draw split per (step, rule, site), so traces are
reproducible and insensitive to unrelated rule edits.

One engine carries the semantics: terms and rules are lowered to
closures once per program.  Runs execute it with a seeded picker in one
run loop (:func:`iter_run`), shared by plain runs and protected runs on
any device; the model checker enumerates every resolution of the
nondeterminism by re-running the same closures under a backtracking
picker.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from functools import cached_property, partial
from operator import itemgetter
from typing import Callable, Iterator, Optional
from weakref import WeakKeyDictionary

from .ast import (
    App, Call, CasmError, Choose, ChooseCtl, Cond, Const, Eq, InconsistentUpdate,
    Ite, Let, Location, Member, Not, Or, And, Par, Program, Rule,
    State, Term, Update, Value, Var, check_updates,
    format_location, iter_rules, parse_location_key,
)
from .rng import derive_rng


class StepError(CasmError):
    def __init__(self, message: str, step_index: Optional[int] = None):
        super().__init__(message if step_index is None
                         else f"step {step_index}: {message}")
        self.step_index = step_index


class EmptyChooseSet(StepError):
    pass


STALL = "STALL"

# Resolves a pending control-state site: (site, challenge, post-update
# view of non-control locations, current control value) -> (value, tag).
CtlResolver = Callable[[str, int, dict, Value], tuple[Value, str]]
# A resolver for a whole run: the step index, then a CtlResolver's arguments.
RunResolver = Callable[[int, str, int, dict, Value], tuple[Value, str]]
CtlEnumerator = Callable[[str, int, dict, Value], list[tuple[Value, str]]]


# ---------------------------------------------------------------------------
# Monitored-input oracles
# ---------------------------------------------------------------------------

class MonitoredOracle:
    """Environment input source; total over all monitored locations."""

    def valuation(self, program: Program, step_index: int) -> dict[Location, Value]:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


@dataclass
class ConstantOracle(MonitoredOracle):
    values: dict[Location, Value]

    def valuation(self, program, step_index):
        return self.values

    def describe(self):
        return "constant"

    @classmethod
    def always_true(cls, program: Program) -> "ConstantOracle":
        values: dict[Location, Value] = {}
        for loc in program.monitored_locations():
            decl = program.function(loc[0])
            if decl.result.kind != "bool":
                raise CasmError(
                    f"always-true oracle needs boolean inputs, {loc[0]} is "
                    f"{decl.result.name}")
            values[loc] = True
        return cls(values)


@dataclass
class RandomOracle(MonitoredOracle):
    seed: int

    def valuation(self, program, step_index):
        out: dict[Location, Value] = {}
        for loc in program.monitored_locations():
            sort = program.function(loc[0]).result
            rng = derive_rng("monitored", self.seed, step_index,
                             format_location(loc))
            values = sort.values()
            out[loc] = values[rng.randrange(len(values))]
        return out

    def describe(self):
        return f"random:{self.seed}"


@dataclass
class ScriptedOracle(MonitoredOracle):
    script: list[dict[Location, Value]]

    def valuation(self, program, step_index):
        if step_index >= len(self.script):
            raise StepError(
                f"scripted oracle has no entry for step {step_index}")
        return self.script[step_index]

    def describe(self):
        return f"scripted[{len(self.script)}]"


def load_scripted_oracle(program: Program, path: str) -> ScriptedOracle:
    """JSON array of per-step objects keyed by location strings."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, list):
        raise CasmError("scripted oracle file must be a JSON array")
    script = []
    for entry in raw:
        step: dict[Location, Value] = {}
        for key, value in entry.items():
            step[parse_location_key(program, key)] = value
        script.append(step)
    return ScriptedOracle(script)


def _check_total(program: Program, monitored: dict[Location, Value],
                 step_index: int) -> None:
    for loc in program.monitored_locations():
        if loc not in monitored:
            raise StepError(
                f"monitored valuation misses {format_location(loc)}",
                step_index)


# ---------------------------------------------------------------------------
# Compiled engine
# ---------------------------------------------------------------------------

def location_key(locs: tuple[Location, ...]) -> Callable[[dict], object]:
    """A function giving a dict's values at ``locs``, in that order, as a
    hashable key; a missing location raises ``KeyError``."""
    if not locs:
        return lambda d: ()
    return itemgetter(*locs)


class _Out:
    __slots__ = ("updates", "pending", "pick")

    def __init__(self, pick):
        self.updates: list[tuple[Location, Value]] = []
        self.pending: list[tuple[str, int]] = []
        self.pick = pick


class CompiledProgram:
    """Program lowered to closures over (values, monitored, env) dicts."""

    def __init__(self, program: Program):
        self.program = program
        self.ctl_loc = program.ctl_loc
        self._named_cache: dict[str, Callable] = {}
        self.mains: list[tuple[str, Optional[Callable], Callable, Callable]] = []
        for nr in program.main_rules:
            if len(nr.body) == 1 and isinstance(nr.body[0], Cond):
                cond = nr.body[0]
                guard = self._term(cond.guard)
                then = self._body(cond.then_rules, nr.name, [0])
                other = self._body(cond.else_rules, nr.name, [1000])
                self.mains.append((nr.name, guard, then, other))
            else:
                body = self._body(nr.body, nr.name, [0])
                self.mains.append((nr.name, None, body, _noop))

    # -- run keys -------------------------------------------------------------

    @cached_property
    def choose_free(self) -> bool:
        # decided over the AST: named-rule bodies compile lazily
        program = self.program
        return not any(isinstance(rule, Choose)
                       for nr in program.main_rules + program.named_rules
                       for rule, _ in iter_rules(nr.body))

    @cached_property
    def state_key(self) -> Callable[[dict], object]:
        return location_key(tuple(self.program.initial_state().values))

    @cached_property
    def inputs_key(self) -> Callable[[dict], object]:
        return location_key(self.program.monitored_locations())

    # -- term compilation ---------------------------------------------------

    def _term(self, term: Term) -> Callable:
        program = self.program
        if isinstance(term, Const):
            v = term.value
            return lambda vals, mon, env: v
        if isinstance(term, Var):
            name = term.name
            return lambda vals, mon, env: env[name]
        if isinstance(term, App):
            decl = program.function(term.fn)
            monitored = decl.mode == "monitored"
            if all(isinstance(a, Const) for a in term.args):
                loc = (term.fn, tuple(a.value for a in term.args))
                if monitored:
                    return lambda vals, mon, env: mon[loc]
                return lambda vals, mon, env: vals[loc]
            fn = term.fn
            argfns = tuple(self._term(a) for a in term.args)
            if monitored:
                return lambda vals, mon, env: mon[
                    (fn, tuple(f(vals, mon, env) for f in argfns))]
            return lambda vals, mon, env: vals[
                (fn, tuple(f(vals, mon, env) for f in argfns))]
        if isinstance(term, Not):
            f = self._term(term.operand)
            return lambda vals, mon, env: not f(vals, mon, env)
        if isinstance(term, And):
            l, r = self._term(term.left), self._term(term.right)
            return lambda vals, mon, env: bool(l(vals, mon, env)
                                               and r(vals, mon, env))
        if isinstance(term, Or):
            l, r = self._term(term.left), self._term(term.right)
            return lambda vals, mon, env: bool(l(vals, mon, env)
                                               or r(vals, mon, env))
        if isinstance(term, Eq):
            l, r = self._term(term.left), self._term(term.right)
            return lambda vals, mon, env: l(vals, mon, env) == r(vals, mon, env)
        if isinstance(term, Member):
            f = self._term(term.item)
            values = frozenset(term.values)
            return lambda vals, mon, env: f(vals, mon, env) in values
        if isinstance(term, Ite):
            c = self._term(term.cond)
            t, o = self._term(term.then), self._term(term.other)
            return lambda vals, mon, env: (t(vals, mon, env)
                                           if c(vals, mon, env)
                                           else o(vals, mon, env))
        raise CasmError(f"cannot compile {type(term).__name__}")

    # -- rule compilation ---------------------------------------------------

    def _body(self, rules: tuple[Rule, ...], rule_name: str,
              counter: list[int]) -> Callable:
        fns = [self._rule(r, rule_name, counter) for r in rules]
        if not fns:
            return _noop
        if len(fns) == 1:
            return fns[0]

        def run(vals, mon, env, out):
            for f in fns:
                f(vals, mon, env, out)
        return run

    def _rule(self, rule: Rule, rule_name: str, counter: list[int]) -> Callable:
        program = self.program
        if isinstance(rule, Update):
            fn = rule.fn
            rhs = self._term(rule.rhs)
            if all(isinstance(a, Const) for a in rule.args):
                loc = (fn, tuple(a.value for a in rule.args))

                def do_update(vals, mon, env, out):
                    out.updates.append((loc, rhs(vals, mon, env)))
                return do_update
            argfns = tuple(self._term(a) for a in rule.args)

            def do_update_dyn(vals, mon, env, out):
                loc = (fn, tuple(f(vals, mon, env) for f in argfns))
                out.updates.append((loc, rhs(vals, mon, env)))
            return do_update_dyn
        if isinstance(rule, Cond):
            guard = self._term(rule.guard)
            then = self._body(rule.then_rules, rule_name, counter)
            other = self._body(rule.else_rules, rule_name, counter)

            def do_cond(vals, mon, env, out):
                if guard(vals, mon, env):
                    then(vals, mon, env, out)
                else:
                    other(vals, mon, env, out)
            return do_cond
        if isinstance(rule, Par):
            return self._body(rule.rules, rule_name, counter)
        if isinstance(rule, Choose):
            options = rule.candidates.resolve(program)
            site = f"{rule_name}#{counter[0]}"
            counter[0] += 1
            var = rule.var
            body = self._body(rule.body, rule_name, counter)

            def do_choose(vals, mon, env, out):
                if not options:
                    raise EmptyChooseSet(f"empty candidate set at {site}")
                value = out.pick(site, options)
                inner = dict(env)
                inner[var] = value
                body(vals, mon, inner, out)
            return do_choose
        if isinstance(rule, Let):
            binding = self._term(rule.binding)
            var = rule.var
            body = self._body(rule.body, rule_name, counter)

            def do_let(vals, mon, env, out):
                inner = dict(env)
                inner[var] = binding(vals, mon, env)
                body(vals, mon, inner, out)
            return do_let
        if isinstance(rule, Call):
            target = program.named_rule(rule.name)
            argfns = tuple(self._term(a) for a in rule.args)
            params = tuple(p for p, _ in target.params)
            name = rule.name

            def do_call(vals, mon, env, out):
                body = self._named_cache.get(name)
                if body is None:
                    body = self._body(target.body, name, [0])
                    self._named_cache[name] = body
                inner = {p: f(vals, mon, env) for p, f in zip(params, argfns)}
                body(vals, mon, inner, out)
            return do_call
        if isinstance(rule, ChooseCtl):
            site = f"{rule_name}#{counter[0]}"
            counter[0] += 1
            challenge = rule.challenge

            def do_ctl(vals, mon, env, out):
                out.pending.append((site, challenge))
            return do_ctl
        raise CasmError(f"cannot compile rule {type(rule).__name__}")

    # -- stepping -------------------------------------------------------------

    def fire_rules(self, values: dict, monitored: dict, pick
                   ) -> tuple[_Out, list[str]]:
        """Fire every top-level rule once: the step's updates and pending
        challenge sites before any site is resolved, and the rules that
        fired."""
        out = _Out(pick)
        fired: list[str] = []
        empty_env: dict = {}
        for name, guard, then, other in self.mains:
            if guard is None:
                fired.append(name)
                then(values, monitored, empty_env, out)
            elif guard(values, monitored, empty_env):
                fired.append(name)
                then(values, monitored, empty_env, out)
            else:
                other(values, monitored, empty_env, out)
        return out, fired

    def step_values(self, values: dict, monitored: dict, pick,
                    ctl_resolver: Optional[CtlResolver] = None,
                    memo: Optional[dict] = None, key=None
                    ) -> tuple[dict, list[str], list[str]]:
        """One step: the new values, the rules that fired and the events.

        With ``memo`` (kept by one run of a choose-free program) the rule
        pass is looked up under ``key``, the state and input values in a
        fixed location order, and fired only on a miss.  Challenge sites
        are resolved and the updates checked on every step."""
        if memo is None:
            out, fired = self.fire_rules(values, monitored, pick)
            updates, pending = out.updates, out.pending
        else:
            hit = memo.get(key)
            if hit is None:
                out, fired = self.fire_rules(values, monitored, pick)
                hit = memo[key] = (tuple(out.updates), tuple(out.pending),
                                   tuple(fired))
            updates, pending, fired = hit
            fired = list(fired)
        events: list[str] = []
        if pending:
            if ctl_resolver is None:
                raise StepError("program has hardware-bound sites but no "
                                "device is attached")
            post = dict(values)
            post.update(updates)
            ctl_loc = self.ctl_loc
            current = values[ctl_loc]
            updates = list(updates)
            for site, challenge in pending:
                value, tag = ctl_resolver(site, challenge, post, current)
                updates.append((ctl_loc, value))
                events.append(tag)
        merged = check_updates(updates)
        if not fired:
            events.append(STALL)
        if merged:
            new_values = dict(values)
            new_values.update(merged)
        else:
            new_values = values
        return new_values, fired, events


def _noop(vals, mon, env, out):
    return None


def enumerate_step_outcomes(cp: CompiledProgram, values: dict[Location, Value],
                            monitored: dict[Location, Value],
                            ctl_enum: Optional[CtlEnumerator] = None
                            ) -> list[dict[Location, Value]]:
    """The merged updates of every possible result of one step: choose
    draws in depth-first order, then each run's challenge sites as a
    product over the enumerator's outcomes (the first site slowest).

    Stateless search: the rule pass re-runs once per sequence of draws,
    replaying a forced prefix of draw indices and taking the first option
    after it; the next run advances the last draw with options left."""
    results: list[dict[Location, Value]] = []
    ctl_loc = cp.ctl_loc
    forced: list[int] = []
    while True:
        taken: list[int] = []
        widths: list[int] = []

        def pick(site, options):
            k = forced[len(taken)] if len(taken) < len(forced) else 0
            taken.append(k)
            widths.append(len(options))
            return options[k]

        out, _ = cp.fire_rules(values, monitored, pick)
        updates = out.updates
        if not out.pending:
            results.append(check_updates(updates))
        elif ctl_enum is None:
            raise StepError("program has hardware-bound sites but no "
                            "device is attached")
        else:
            post = dict(values)
            post.update(updates)
            current = values[ctl_loc]
            for combo in itertools.product(*(
                    ctl_enum(site, challenge, post, current)
                    for site, challenge in out.pending)):
                results.append(check_updates(
                    updates + [(ctl_loc, value) for value, _ in combo]))
        while taken and taken[-1] + 1 == widths[-1]:
            taken.pop()
            widths.pop()
        if not taken:
            return results
        taken[-1] += 1
        forced = taken


_COMPILE_CACHE: "WeakKeyDictionary[Program, CompiledProgram]" = WeakKeyDictionary()


def compiled(program: Program) -> CompiledProgram:
    cp = _COMPILE_CACHE.get(program)
    if cp is None:
        cp = CompiledProgram(program)
        _COMPILE_CACHE[program] = cp
    return cp


# ---------------------------------------------------------------------------
# Public stepping API
# ---------------------------------------------------------------------------

@dataclass
class StepResult:
    state: State
    fired: list[str]
    events: list[str]


def rng_picker(seed: int, step_index: int):
    def pick(site: str, options: tuple[Value, ...]) -> Value:
        rng = derive_rng("choose", seed, step_index, site)
        return options[rng.randrange(len(options))]
    return pick


def step(program: Program, state: State, monitored: dict[Location, Value],
         seed: int = 0, step_index: int = 0,
         ctl_resolver: Optional[CtlResolver] = None) -> StepResult:
    """One synchronous step; the state is never partially updated."""
    _check_total(program, monitored, step_index)
    cp = compiled(program)
    try:
        values, fired, events = cp.step_values(
            state.values, monitored, rng_picker(seed, step_index), ctl_resolver)
    except InconsistentUpdate as exc:
        raise StepError(str(exc), step_index) from exc
    return StepResult(State(values=values, monitored=monitored), fired, events)


# ---------------------------------------------------------------------------
# Runs and traces
# ---------------------------------------------------------------------------

@dataclass
class TraceEntry:
    step: int
    state: dict[Location, Value]
    monitored: dict[Location, Value]
    fired: list[str]
    events: list[str]

    def to_json(self) -> str:
        return json.dumps({
            "step": self.step,
            "state": {format_location(l): v for l, v in self.state.items()},
            "monitored": {format_location(l): v
                          for l, v in self.monitored.items()},
            "fired": self.fired,
            "events": self.events,
        }, sort_keys=True, separators=(",", ":"))


@dataclass
class Trace:
    entries: list[TraceEntry] = field(default_factory=list)

    def to_jsonl(self) -> str:
        return "\n".join(e.to_json() for e in self.entries) + "\n"

    def states(self) -> list[dict[Location, Value]]:
        return [e.state for e in self.entries]


def iter_run(program: Program, steps: int, oracle: MonitoredOracle, seed: int,
             ctl_resolver: Optional[RunResolver] = None
             ) -> Iterator[TraceEntry]:
    """Yield the initial snapshot and one entry per step.

    The one run loop, for plain and protected programs alike:
    ``ctl_resolver(k, ...)`` resolves the challenge sites of step ``k``.
    Looking up a step's inputs in monitored-location order checks them
    total.  A choose-free program's rule pass is a function of the state
    and the inputs, so this run memoizes it.

    Yielded state dicts are fresh copies only when a step changed
    something; consumers that retain them must copy.
    """
    cp = compiled(program)
    values = program.initial_state().values
    yield TraceEntry(0, values, {}, [], [])
    step_values = cp.step_values
    inputs_key, state_key = cp.inputs_key, cp.state_key
    memo: Optional[dict] = {} if cp.choose_free else None
    key = None
    resolver = None
    for k in range(steps):
        monitored = oracle.valuation(program, k)
        try:
            inputs = inputs_key(monitored)
        except KeyError:
            _check_total(program, monitored, k)
            raise
        if memo is not None:
            key = (state_key(values), inputs)
        if ctl_resolver is not None:
            resolver = partial(ctl_resolver, k)
        try:
            values, fired, events = step_values(
                values, monitored, rng_picker(seed, k), resolver, memo, key)
        except InconsistentUpdate as exc:
            raise StepError(str(exc), k) from exc
        yield TraceEntry(k + 1, values, monitored, fired, events)


def run(program: Program, steps: int, oracle: MonitoredOracle,
        seed: int, ctl_resolver: Optional[RunResolver] = None) -> Trace:
    """Deterministic multi-step run: equal inputs give equal traces."""
    if steps < 0:
        raise CasmError("step count must be non-negative")
    trace = Trace()
    for entry in iter_run(program, steps, oracle, seed, ctl_resolver):
        trace.entries.append(TraceEntry(entry.step, dict(entry.state),
                                        dict(entry.monitored),
                                        list(entry.fired), list(entry.events)))
    return trace
