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
picker.  Both turn a rule pass into successors through one step record
(:class:`_Step`).
"""
from __future__ import annotations

import itertools
import json
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property, partial
from operator import eq, itemgetter
from typing import Callable, Generator, Iterable, Optional, Sized
from weakref import WeakKeyDictionary

from .ast import (
    Call, CasmError, Choose, ChooseCtl, Cond, Const, InconsistentUpdate, Let,
    Location, Par, Program, ProgramError, Rule, Sort, Update, Value,
    check_updates, compile_term, format_location, locations_of_interest,
    locations_read, parse_location_key, program_rules,
)
from .rng import derive_rng, first_picks


class StepError(CasmError):
    def __init__(self, message: str, step_index: Optional[int] = None):
        super().__init__(message if step_index is None
                         else f"step {step_index}: {message}")
        self.step_index = step_index


class EmptyChooseSet(StepError):
    pass


STALL = "STALL"

# A staged challenge site: the step index -> (value, tag).  A staged site
# whose tag is the same at every step may say so with a true ``steady``
# attribute, and one whose whole result is the same at every step, with a
# true ``fixed`` attribute as well.
StagedSite = Callable[[int], tuple[Value, str]]
# Stages a pending control-state site of a run: (site, challenge,
# post-update view of non-control locations, current control value) ->
# its StagedSite.
CtlResolver = Callable[[str, int, dict, Value], StagedSite]
CtlEnumerator = Callable[[str, int, dict, Value], list[tuple[Value, str]]]


# ---------------------------------------------------------------------------
# Monitored-input oracles
# ---------------------------------------------------------------------------

class MonitoredOracle:
    """Environment input source; total over all monitored locations."""

    def valuation(self, program: Program, step_index: int) -> dict[Location, Value]:
        raise NotImplementedError


@dataclass
class ConstantOracle(MonitoredOracle):
    values: dict[Location, Value]

    def valuation(self, program, step_index):
        return self.values

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
    """Each input of step ``k`` is one pick over its sort's values, from
    the stream ``("monitored", seed, k, <its location>)``."""

    seed: int
    # program -> its inputs' picks (rng.first_picks), one entry for each
    # program the oracle has served
    _plans: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def valuation(self, program, step_index):
        picks = self._plans.get(program)
        if picks is None:
            picks = self._plans[program] = first_picks(
                [(loc, format_location(loc), sort.values())
                 for loc, sort in compiled(program).input_sorts],
                "monitored", self.seed)
        return picks(step_index)


@dataclass
class ScriptedOracle(MonitoredOracle):
    script: list[dict[Location, Value]]

    def valuation(self, program, step_index):
        if step_index >= len(self.script):
            raise StepError(
                f"scripted oracle has no entry for step {step_index}")
        return self.script[step_index]


def load_scripted_oracle(program: Program, path: str) -> ScriptedOracle:
    """JSON array of per-step objects keyed by location strings; every key
    must name a monitored location and every value lie in its sort."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, list):
        raise CasmError("scripted oracle file must be a JSON array")
    monitored = set(program.monitored_locations())
    script = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise CasmError(f"scripted oracle entry {i} is not an object")
        step: dict[Location, Value] = {}
        for key, value in entry.items():
            try:
                loc = parse_location_key(program, key)
                if loc not in monitored:
                    raise CasmError(f"{key} is not a monitored location")
                sort = program.function(loc[0]).result
                if not sort.contains(value):
                    raise CasmError(f"{key} = {json.dumps(value)} is "
                                    f"outside {sort.name}")
            except CasmError as exc:
                raise CasmError(f"scripted oracle entry {i}: {exc}") from None
            step[loc] = value
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
        self.mains: list[tuple[str, Callable, Callable, Callable]] = []
        for nr in program.main_rules:
            if len(nr.body) != 1 or not isinstance(nr.body[0], Cond):
                raise ProgramError(
                    f"rule {nr.name} must be a single guarded conditional")
            cond = nr.body[0]
            guard = compile_term(program, cond.guard)
            then = self._body(cond.then_rules, nr.name, [0])
            other = self._body(cond.else_rules, nr.name, [1000])
            self.mains.append((nr.name, guard, then, other))

    # -- run keys -------------------------------------------------------------

    @cached_property
    def choose_free(self) -> bool:
        # decided over the AST: named-rule bodies compile lazily
        return not any(isinstance(rule, Choose)
                       for _, rule in program_rules(self.program))

    @cached_property
    def state_key(self) -> Callable[[dict], object]:
        return location_key(tuple(self.program.initial_values()))

    @cached_property
    def inputs_key(self) -> Callable[[dict], object]:
        return location_key(self.program.monitored_locations())

    @cached_property
    def input_sorts(self) -> tuple[tuple[Location, Sort], ...]:
        """Each monitored location with its sort, in program order: all
        that an oracle's valuation reads of a program."""
        program = self.program
        return tuple((loc, program.function(loc[0]).result)
                     for loc in program.monitored_locations())

    @cached_property
    def interest(self) -> tuple[Location, ...]:
        return locations_of_interest(self.program)

    # -- model checking -------------------------------------------------------

    @cached_property
    def controlled_key(self) -> Callable[[dict], object]:
        """A checked state's key: its values at the non-monitored
        locations of interest, in interest order."""
        function = self.program.function
        return location_key(tuple(l for l in self.interest
                                  if function(l[0]).mode != "monitored"))

    @cached_property
    def input_split(self) -> tuple[tuple[Location, ...],
                                   dict[Location, tuple[Value, ...]],
                                   dict[Location, Value]]:
        """The monitored inputs of interest, which a checked step branches
        on, with their domains, and the other inputs at their first
        value."""
        interest = set(self.interest)
        domains = {loc: sort.values() for loc, sort in self.input_sorts
                   if loc in interest}
        fixed = {loc: sort.values()[0] for loc, sort in self.input_sorts
                 if loc not in interest}
        return tuple(domains), domains, fixed

    @cached_property
    def unsafe_reads(self) -> frozenset[Location]:
        """The locations the violation predicate can read."""
        return frozenset(locations_read(self.program, self.program.unsafe))

    @cached_property
    def _unsafe(self) -> Callable:
        return compile_term(self.program, self.program.unsafe)

    def unsafe_test(self, decode: Optional[Callable[[dict], dict]] = None
                    ) -> Callable[[dict, dict], bool]:
        """The violation predicate as a function of a state's values and
        inputs.  ``decode`` maps a protected state's values to plain
        ones; it runs only when the predicate reads the control state.
        A location the values or inputs lack raises ``KeyError``."""
        f = self._unsafe
        empty: dict = {}
        if decode is None or self.ctl_loc not in self.unsafe_reads:
            return lambda values, monitored: bool(f(values, monitored, empty))
        return lambda values, monitored: bool(
            f(decode(values), monitored, empty))

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
            rhs = compile_term(program, rule.rhs)
            if all(isinstance(a, Const) for a in rule.args):
                loc = (fn, tuple(a.value for a in rule.args))

                def do_update(vals, mon, env, out):
                    out.updates.append((loc, rhs(vals, mon, env)))
                return do_update
            argfns = tuple(compile_term(program, a) for a in rule.args)

            def do_update_dyn(vals, mon, env, out):
                loc = (fn, tuple(f(vals, mon, env) for f in argfns))
                out.updates.append((loc, rhs(vals, mon, env)))
            return do_update_dyn
        if isinstance(rule, Cond):
            guard = compile_term(program, rule.guard)
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
            binding = compile_term(program, rule.binding)
            var = rule.var
            body = self._body(rule.body, rule_name, counter)

            def do_let(vals, mon, env, out):
                inner = dict(env)
                inner[var] = binding(vals, mon, env)
                body(vals, mon, inner, out)
            return do_let
        if isinstance(rule, Call):
            target = program.named_rule(rule.name)
            argfns = tuple(compile_term(program, a) for a in rule.args)
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
            if guard(values, monitored, empty_env):
                fired.append(name)
                then(values, monitored, empty_env, out)
            else:
                other(values, monitored, empty_env, out)
        return out, fired

    def step_values(self, values: dict, monitored: dict, pick,
                    ctl_resolver: Optional[CtlResolver], step_index: int,
                    node: _Node, inputs) -> tuple[_Node, list[str], list[str]]:
        """Step ``step_index`` of a run from ``node``, the run's node of
        ``values`` (:func:`iter_run`): the next state's node, the rules
        that fired and the events.

        The step is looked up in the node's table by ``inputs``, the
        input values in monitored-location order, and fired only on a
        miss (:meth:`fire_step`).  ``ctl_resolver`` stages each
        challenge site of a step once, and each staged site resolves at
        ``step_index`` (:meth:`_Step.finish`).  The returned values and
        lists may be shared with other steps of the run and must not be
        mutated: a step whose tags cannot vary, one whose staged sites are
        all steady (:data:`StagedSite`), gives every visit the events list
        of its first, and only a step with a site whose tag may vary, a
        noisy one, makes a fresh list each time."""
        step = node.steps.get(inputs) or self.fire_step(node, monitored,
                                                         pick, inputs)
        events = step.events
        if events is None:
            events = []
            successor = step.finish(ctl_resolver, step_index, node.graph,
                                    events)
            if not step.fired:
                events.append(STALL)
            if step.steady:
                step.events = events
        elif step.sites:
            successor = step.finish(ctl_resolver, step_index, node.graph)
        else:  # no site: the one successor, found at the first visit
            successor = step.after[()]
        return successor, step.fired, events

    def fire_step(self, node: _Node, monitored: dict, pick, inputs
                  ) -> _Step:
        """The step from ``node`` under ``inputs``, its inputs key, that
        the node's table lacks: the rule pass fired, and the step kept in
        the table, where a run looks it up first."""
        values = node.values
        step = node.steps[inputs] = _Step(
            self.ctl_loc, values, *self.fire_rules(values, monitored, pick))
        return step


class _Node:
    """One state of a run: its values, and the steps taken from it by
    inputs key (:meth:`CompiledProgram.step_values`)."""

    __slots__ = ("values", "steps", "graph")

    def __init__(self, values: dict, graph: "_Graph"):
        self.values = values
        self.steps: dict[object, _Step] = {}
        self.graph = graph


class _Graph(dict):
    """The states one run has reached, as nodes by state key.  A
    choose-free program's step is a function of the state, the inputs
    and what its sites resolve to, so each distinct state is interned
    once, and its node's steps serve every later visit.  With no state
    key, for a program that draws, nothing is interned: each state is a
    node of its own, stepped once."""

    __slots__ = ("state_key",)

    def __init__(self, state_key: Optional[Callable[[dict], object]]):
        super().__init__()
        self.state_key = state_key

    def node(self, values: dict) -> _Node:
        if self.state_key is None:
            return _Node(values, self)
        key = self.state_key(values)
        node = self.get(key)
        if node is None:
            node = self[key] = _Node(values, self)
        return node


class _Step:
    """What a rule pass from one state under one input valuation fixes:
    its updates, the first site of each challenge (:func:`_first_sites`),
    the fired rules and the post-update view the sites are resolved on;
    each site staged, once, by the first resolver to finish the step or
    by the checker's enumerator (:func:`enumerate_step_outcomes`); and,
    by what the sites resolve to, the successor, merged and checked
    once: the next state's node in a run's graph.  A step serves one
    run, so one resolver.  The key of ``after`` is the resolved value of
    a one-site step, and the tuple of resolved values otherwise.  A step
    is ``steady`` when no tag of its can vary: it has no site, or every
    staged site is steady; it then keeps the events list of its first
    visit in ``events`` (:meth:`CompiledProgram.step_values`)."""

    __slots__ = ("ctl_loc", "values", "updates", "sites", "fired", "post",
                 "current", "staged", "after", "steady", "events")

    def __init__(self, ctl_loc: Location, values: dict, out: _Out,
                 fired: list[str]):
        self.ctl_loc = ctl_loc
        self.values = values
        self.updates = out.updates
        self.sites = pending = out.pending
        self.fired = fired
        self.post = self.current = self.staged = self.events = None
        self.steady = not pending
        if pending:
            if len(pending) > 1:
                self.sites = _first_sites(pending)
            self.post = post = dict(values)
            post.update(out.updates)
            self.current = values[ctl_loc]
        self.after: dict = {}

    def finish(self, ctl_resolver: Optional[CtlResolver], step_index: int,
               graph: _Graph, events: Optional[list[str]] = None) -> _Node:
        """Resolve the sites at ``step_index`` and give the successor,
        adding each site's tag to ``events`` when it is given: the one
        step body of a run, whether it yields an entry
        (:meth:`CompiledProgram.step_values`) or is driven on without
        one (:func:`drive`)."""
        if not self.sites:
            resolved = ()
        else:
            staged = self.staged
            if staged is None:
                staged = self._stage(ctl_resolver)
                self.steady = all(getattr(site, "steady", False)
                                  for site in staged)
            if len(staged) == 1:
                resolved, tag = staged[0](step_index)
                if events is not None:
                    events.append(tag)
            else:
                chosen = []
                for site in staged:
                    value, tag = site(step_index)
                    chosen.append(value)
                    if events is not None:
                        events.append(tag)
                resolved = tuple(chosen)
        successor = self.after.get(resolved)
        if successor is None:
            successor = self.after[resolved] = self._successor(resolved,
                                                               graph)
        return successor

    @property
    def fixed(self) -> bool:
        """Whether the step, once finished, gives one result at every
        step index: it has no site, or every staged site is fixed
        (:func:`iter_run`)."""
        return all(getattr(site, "fixed", False) for site in self.staged or ())

    def _stage(self, ctl_resolver: Optional[CtlResolver | CtlEnumerator]
               ) -> list:
        """Each site staged by ``ctl_resolver`` on the post-update view:
        a resolver's staged sites, or an enumerator's outcome lists."""
        if ctl_resolver is None:
            raise StepError("program has hardware-bound sites but no "
                            "device is attached")
        post, current = self.post, self.current
        staged = self.staged = [ctl_resolver(site, challenge, post, current)
                                for site, challenge in self.sites]
        return staged

    def _successor(self, resolved, graph: _Graph) -> _Node:
        """The node in ``graph`` of the state the updates and
        ``resolved``, the key of ``after``, give."""
        if len(self.sites) == 1:
            resolved = (resolved,)
        ctl_loc = self.ctl_loc
        merged = check_updates(
            self.updates + [(ctl_loc, value) for value in resolved])
        if merged:
            values = dict(self.values)
            values.update(merged)
        else:
            values = self.values
        return graph.node(values)


def _noop(vals, mon, env, out):
    return None


def _first_sites(pending: Iterable[tuple[str, int]]
                 ) -> list[tuple[str, int]]:
    """The first pending site of each distinct challenge.

    Sites that fire in one step share the source, so two with one
    challenge write one target: the challenge is resolved once, under its
    first site's name, which names the fallback and noise streams."""
    firsts: dict[int, tuple[str, int]] = {}
    for site, challenge in pending:
        firsts.setdefault(challenge, (site, challenge))
    return list(firsts.values())


def _backtrack(run: Callable[[Callable[[int], int]], None]) -> None:
    """Call ``run(choose)`` once per sequence of choices, depth-first;
    ``choose(n)`` gives the index of one of ``n`` options.

    Stateless search: each run replays a forced prefix of indices and takes
    the first option after it; the next run advances the last choice with
    options left."""
    forced: list[int] = []
    while True:
        taken: list[int] = []
        widths: list[int] = []

        def choose(n):
            k = forced[len(taken)] if len(taken) < len(forced) else 0
            taken.append(k)
            widths.append(n)
            return k

        run(choose)
        while taken and taken[-1] + 1 == widths[-1]:
            taken.pop()
            widths.pop()
        if not taken:
            return
        taken[-1] += 1
        forced = taken


def _picker(choose: Callable[[int], int]):
    """A ``choose``-rule picker that takes its draws from a backtracking
    search's ``choose``."""
    return lambda site, options: options[choose(len(options))]


def enumerate_step_outcomes(cp: CompiledProgram, values: dict[Location, Value],
                            monitored: dict[Location, Value],
                            ctl_enum: Optional[CtlEnumerator] = None
                            ) -> list[dict[Location, Value]]:
    """The merged updates of every possible result of one step: choose
    draws in depth-first order, then each run's challenge sites as a
    product over the enumerator's outcomes (the first site slowest).
    Each rule pass is a :class:`_Step`, as in a run: its sites, one per
    challenge, are staged with ``ctl_enum`` on its post-update view, and
    a step with sites and no enumerator raises as a run without a device
    does.  The rule pass re-runs once per sequence of draws; a
    ``choose``-free step runs it once."""
    results: list[dict[Location, Value]] = []
    ctl_loc = cp.ctl_loc

    def run(pick):
        step = _Step(ctl_loc, values, *cp.fire_rules(values, monitored, pick))
        updates = step.updates
        if not step.sites:
            results.append(check_updates(updates))
            return
        for combo in itertools.product(*step._stage(ctl_enum)):
            results.append(check_updates(
                updates + [(ctl_loc, value) for value, _ in combo]))

    if cp.choose_free:
        run(None)
    else:
        _backtrack(lambda choose: run(_picker(choose)))
    return results


_COMPILE_CACHE: "WeakKeyDictionary[Program, CompiledProgram]" = WeakKeyDictionary()


def compiled(program: Program) -> CompiledProgram:
    cp = _COMPILE_CACHE.get(program)
    if cp is None:
        cp = CompiledProgram(program)
        _COMPILE_CACHE[program] = cp
    return cp


def rng_picker(seed: int, step_index: int):
    def pick(site: str, options: tuple[Value, ...]) -> Value:
        rng = derive_rng("choose", seed, step_index, site)
        return options[rng.randrange(len(options))]
    return pick


# ---------------------------------------------------------------------------
# Runs and traces
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class TraceEntry:
    step: int
    state: dict[Location, Value]
    monitored: dict[Location, Value]
    fired: list[str]
    events: list[str]

    def to_json(self) -> str:
        """The entry as one JSON line."""
        return _json_line(self.step, self.state, self.monitored, self.fired,
                          self.events, _LocationNames())


class _LocationNames(dict):
    """Locations' formatted names, each formatted on first use."""

    __slots__ = ()

    def __missing__(self, loc: Location) -> str:
        name = self[loc] = format_location(loc)
        return name


def _json_line(step: int, state: dict[Location, Value],
               monitored: dict[Location, Value], fired: list[str],
               events: list[str], names: dict[Location, str]) -> str:
    """One step of a trace as a JSON line, its locations named by
    ``names``, a memo a trace shares between its steps
    (:meth:`Trace.to_jsonl`), so that each is formatted once."""
    return json.dumps({
        "step": step,
        "state": {names[l]: v for l, v in state.items()},
        "monitored": {names[l]: v for l, v in monitored.items()},
        "fired": fired,
        "events": events,
    }, sort_keys=True, separators=(",", ":"))


def _copied_on_read(name: str, copy: Callable, bit: int) -> property:
    """A field of a :class:`_CollectedEntry` over its private slot
    ``_name``: the object the slot holds, replaced by ``copy`` of it the
    first time it is read.  An entry owns a value assigned to the field
    as it is."""
    slot = "_" + name

    def read(entry):
        if not entry._owned & bit:
            setattr(entry, slot, copy(getattr(entry, slot)))
            entry._owned |= bit
        return getattr(entry, slot)

    def assign(entry, value):
        setattr(entry, slot, value)
        entry._owned |= bit
    return property(read, assign)


class _CollectedEntry:
    """An entry of a :class:`Trace`, with the fields of a
    :class:`TraceEntry`, built from the trace's columns the first time
    its index is read (:class:`_Entries`).  It holds the objects the run
    yielded, which the run shares between steps but never changes, and
    copies each of ``state``, ``monitored``, ``fired`` and ``events`` the
    first time it is read, keeping the copy: every object it hands out
    is its own, and writing to one changes this entry alone.
    Serialising, comparing, printing and :meth:`held` read the held
    objects and copy nothing; it compares equal to a :class:`TraceEntry`
    with the same fields."""

    __slots__ = ("step", "_state", "_monitored", "_fired", "_events",
                 "_owned")  # _owned: a bit for each field read or assigned

    def __init__(self, step: int, state: dict[Location, Value],
                 monitored: dict[Location, Value], fired: list[str],
                 events: list[str]):
        self.step = step
        self._state = state
        self._monitored = monitored
        self._fired = fired
        self._events = events
        self._owned = 0

    state = _copied_on_read("state", dict, 1)
    monitored = _copied_on_read("monitored", dict, 2)
    fired = _copied_on_read("fired", list, 4)
    events = _copied_on_read("events", list, 8)

    def held(self) -> TraceEntry:
        """A plain entry over the objects this entry holds."""
        return TraceEntry(self.step, self._state, self._monitored,
                          self._fired, self._events)

    def to_json(self) -> str:
        return self.held().to_json()

    def __eq__(self, other):
        return self.held() == other

    def __repr__(self):
        return repr(self.held())


class _Entries(Sequence):
    """A trace's entries: a read-only sequence over its columns.  The
    first read of an index builds its :class:`_CollectedEntry` and keeps
    it, so every read of an index gives one entry, and a run that is
    never read builds none.  A slice is a list of entries, and the
    sequence equals a list, or another trace's entries, of equal
    entries."""

    __slots__ = ("_columns", "_built")

    def __init__(self, columns: tuple[Sequence, Sequence, Sequence,
                                      Sequence]):
        self._columns = columns
        self._built: dict[int, _CollectedEntry] = {}  # by index read

    def __len__(self) -> int:
        return len(self._columns[0])

    def __getitem__(self, index):
        n = len(self)
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(n))]
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("trace entry index out of range")
        entry = self._built.get(index)
        if entry is None:
            entry = self._built[index] = _CollectedEntry(
                index, *(column[index] for column in self._columns))
        return entry

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def __eq__(self, other):
        if not isinstance(other, (list, _Entries)):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    __hash__ = None

    def __repr__(self):
        return repr(list(self))


class Trace:
    """A run's steps in four columns, by step: the state, monitored
    inputs, fired rules and events the run yielded (:func:`iter_run`),
    held as the run shares them, never copied and never changed.
    ``entries`` is the steps as a read-only sequence of entries over the
    columns (:class:`_Entries`): each is built the first time its index
    is read and owns a copy of each field it hands out
    (:class:`_CollectedEntry`), so writing to an entry changes neither
    the columns nor any other entry.  Serialising reads the columns and
    copies nothing."""

    __slots__ = ("states", "monitored", "fired", "events", "entries")

    def __init__(self, states: Sequence[dict[Location, Value]],
                 monitored: Sequence[dict[Location, Value]],
                 fired: Sequence[list[str]], events: Sequence[list[str]]):
        self.states = states
        self.monitored = monitored
        self.fired = fired
        self.events = events
        self.entries = _Entries((states, monitored, fired, events))

    @classmethod
    def of_run(cls, start: Callable[[Callable[..., None]], Iterable]
               ) -> "Trace":
        """The trace of the run ``start(row)`` begins (:func:`iter_run`),
        stepped to its end: ``row``, the run's entry factory, adds each
        step's objects to the columns, and builds no entry.  A run whose
        rows repeat from some row on may hand the rest of its rows over
        to ``row.repeat(first, stop)`` instead of yielding them: each
        column is extended to ``stop`` rows by repeating its rows from
        ``first`` on, so it holds the objects those rows would have."""
        columns = [], [], [], []
        add_state, add_monitored, add_fired, add_events = (
            column.append for column in columns)

        def row(step, state, monitored, fired, events):
            add_state(state)
            add_monitored(monitored)
            add_fired(fired)
            add_events(events)

        def repeat(first, stop):
            for column in columns:
                cycle = column[first:]
                count, rest = divmod(stop - len(column), len(cycle))
                column += cycle * count
                column += cycle[:rest]
        row.repeat = repeat
        deque(start(row), maxlen=0)
        return cls(*map(tuple, columns))

    def to_jsonl(self) -> str:
        names = _LocationNames()
        return "\n".join(
            _json_line(k, state, monitored, fired, events, names)
            for k, (state, monitored, fired, events) in enumerate(zip(
                self.states, self.monitored, self.fired, self.events))
        ) + "\n"


def iter_run(program: Program, steps: int, oracle: MonitoredOracle, seed: int,
             ctl_resolver: Optional[CtlResolver] = None,
             entry: Callable[..., TraceEntry] = TraceEntry
             ) -> Generator[TraceEntry, object, None]:
    """Yield the initial snapshot and one entry per step, each built
    once, as ``entry(step, state, monitored, fired, events)``: a
    :class:`TraceEntry` by default; a run kept as a :class:`Trace`
    (:func:`run`, :func:`~casmkit.protect.run_protected`) adds each
    step's objects to the trace's columns instead (:meth:`Trace.of_run`).

    The one run loop, for plain and protected programs alike:
    ``ctl_resolver`` stages the challenge sites of a step, and step ``k``
    calls each staged site with ``k``.  Looking up a step's inputs in
    monitored-location order checks them total.  A
    :class:`ConstantOracle` (checked by type: a subclass may vary) gives
    every step its one dict, so its valuation and inputs key are taken
    once, at step 0.

    The run walks a graph of its states (:class:`_Graph`).  A node holds
    a state's values and, by inputs key, the step taken from it; a step
    holds its staged sites and, by what they resolve to, the successor
    node.  A choose-free program's step is a function of the state, the
    inputs and what its sites resolve to, so such a run interns each
    distinct state once: a step costs one lookup by inputs key, its
    staged sites and one lookup of the successor, and the rule pass and
    the state key run only the first time.  Such a program draws
    nothing, so its steps take no picker.  A program with ``choose``
    draws afresh each step: each of its states is a node of its own, and
    each step fires its rule pass under a seeded picker.

    Yielded state dicts, ``fired`` lists and the ``events`` lists of
    steps whose tags cannot vary are shared between steps, and with the
    graph: consumers must not mutate them, and need not copy one to
    retain it, since the run never changes an object it has yielded.
    :func:`run` keeps them in its trace's columns, and an entry read from
    the trace copies a field the first time it is read.

    A consumer that needs no more entries, but whose resolver draws
    something at every step, steps the run on without them
    (:func:`drive`): it sends the run a non-empty collection, and each
    later step takes the same step record and staged sites
    (:meth:`CompiledProgram.fire_step`, :meth:`_Step.finish`) but builds
    no entry and no events, until the collection is empty or the run
    ends.

    Under a :class:`ConstantOracle` a choose-free program is a finite
    state machine, so its run is periodic from the first state it
    revisits.  When the entry factory is :meth:`Trace.of_run`'s row,
    the run notes the step at which it first yielded each node, for as
    long as every step is fixed (:class:`_Step`: no site gives another
    result at another step).  On yielding a node again, at step ``k``,
    first yielded at step ``first``, it knows every later row: rows
    ``k + 1`` on repeat rows ``first + 1`` to ``k``.  It hands them to
    the row's ``repeat`` and ends, and ``step_values`` is not called for
    them.  Every other consumer gets one entry per step, and the run
    keeps no notes for it.
    """
    cp = compiled(program)
    values = program.initial_values()
    watched = yield entry(0, values, {}, [], [])
    step_values, fire_step = cp.step_values, cp.fire_step
    inputs_key = cp.inputs_key
    draws = not cp.choose_free
    node = _Graph(None if draws else cp.state_key).node(values)
    pick = None
    varies = type(oracle) is not ConstantOracle
    # node -> the step it was first yielded at, while every step is fixed
    first_at = None
    if not (varies or draws) and hasattr(entry, "repeat"):
        first_at = {node: 0}
    source = node
    for k in range(steps):
        if varies or not k:
            monitored = oracle.valuation(program, k)
            try:
                inputs = inputs_key(monitored)
            except KeyError:
                _check_total(program, monitored, k)
                raise
        if draws:
            pick = rng_picker(seed, k)
        try:
            if watched is not None:
                step = node.steps.get(inputs) or fire_step(
                    node, monitored, pick, inputs)
                node = step.finish(ctl_resolver, k, node.graph)
                if not watched:
                    return
                continue
            node, fired, events = step_values(
                node.values, monitored, pick, ctl_resolver, k, node, inputs)
        except InconsistentUpdate as exc:
            raise StepError(str(exc), k) from exc
        watched = yield entry(k + 1, node.values, monitored, fired, events)
        if first_at is not None:
            if not source.steps[inputs].fixed:
                first_at = None
                continue
            source = node
            first = first_at.setdefault(node, k + 1)
            if first <= k:
                entry.repeat(first + 1, steps + 1)
                return


def drive(entries: Generator[TraceEntry, object, None],
          watched: Sized) -> None:
    """Step the run of ``entries``, an :func:`iter_run` generator, on
    from the last entry it yielded, without entries, while ``watched``,
    a non-empty collection that its resolver empties, is non-empty, up
    to its last step.  Its sites resolve as they would if every entry
    were taken, so a resolver that draws at each step, as a led twin's
    does (:meth:`~casmkit.protect.ProtectedRunner.iter_entries`), draws
    alike."""
    try:
        entries.send(watched)
    except StopIteration:
        return
    raise RuntimeError("a driven run yielded another entry")


def check_step_count(steps: int) -> None:
    """Refuse a negative step count."""
    if steps < 0:
        raise CasmError("step count must be non-negative")


def run(program: Program, steps: int, oracle: MonitoredOracle,
        seed: int) -> Trace:
    """Deterministic multi-step run: equal inputs give equal traces.
    The run adds the objects it yields to the trace's columns, one row
    per step, and under constant inputs fills its periodic tail into
    them instead of stepping it (:meth:`Trace.of_run`,
    :func:`iter_run`); no entry is built until one is read
    (:class:`Trace`).  A negative step count is refused."""
    check_step_count(steps)
    return Trace.of_run(partial(iter_run, program, steps, oracle, seed,
                                None))
