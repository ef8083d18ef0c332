"""Reference evaluator and walker.

``eval_term`` evaluates a term over a :class:`State` by recursion on
the term, independently of ``casmkit.ast.compile_term``, the term
evaluator of the package.  ``enumerate_step_outcomes`` enumerates every
resolution of one step's nondeterminism by walking the rule tree with
it: it re-implements the step semantics independently of the compiled
engine in ``casmkit.interp``, so tests can hold the engine's
enumeration and its runs against it.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from casmkit.ast import (
    And, App, Call, CasmError, Choose, ChooseCtl, Cond, Const, Eq, EvalError,
    Ite, Let, Location, Member, Not, Or, Par, Program, Term, Update, Value,
    Var, check_updates, format_location,
)
from casmkit.interp import STALL, CtlEnumerator, EmptyChooseSet, StepError


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


def initial_state(program: Program) -> State:
    """The program's initial values, with no inputs."""
    return State(values=program.initial_values(), monitored={})


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


@dataclass
class Outcome:
    updates: dict[Location, Value]
    fired: tuple[str, ...]
    events: tuple[str, ...]


def enumerate_step_outcomes(program: Program, values: dict[Location, Value],
                            monitored: dict[Location, Value],
                            ctl_enum: Optional[CtlEnumerator] = None
                            ) -> list[Outcome]:
    """All possible results of one step, branching over every choose
    draw and every hardware response the enumerator offers."""
    state = State(values=values, monitored=monitored)
    branches: list[tuple[list, list, list]] = []

    def walk(items, updates, pending, site_counters):
        if not items:
            branches.append((list(updates), list(pending), dict(site_counters)))
            return
        (node, env, rname), rest = items[0], items[1:]
        if isinstance(node, Update):
            args = tuple(eval_term(a, state, env) for a in node.args)
            updates.append(((node.fn, args), eval_term(node.rhs, state, env)))
            walk(rest, updates, pending, site_counters)
            updates.pop()
        elif isinstance(node, Cond):
            taken = node.then_rules if eval_term(node.guard, state, env) \
                else node.else_rules
            walk([(r, env, rname) for r in taken] + rest,
                 updates, pending, site_counters)
        elif isinstance(node, Par):
            walk([(r, env, rname) for r in node.rules] + rest,
                 updates, pending, site_counters)
        elif isinstance(node, Choose):
            options = node.candidates.resolve(program)
            if not options:
                raise EmptyChooseSet("empty candidate set in choose")
            for v in options:
                inner = dict(env)
                inner[node.var] = v
                walk([(r, inner, rname) for r in node.body] + rest,
                     updates, pending, site_counters)
        elif isinstance(node, Let):
            inner = dict(env)
            inner[node.var] = eval_term(node.binding, state, env)
            walk([(r, inner, rname) for r in node.body] + rest,
                 updates, pending, site_counters)
        elif isinstance(node, Call):
            target = program.named_rule(node.name)
            inner = {p: eval_term(a, state, env)
                     for (p, _), a in zip(target.params, node.args)}
            walk([(r, inner, node.name) for r in target.body] + rest,
                 updates, pending, site_counters)
        elif isinstance(node, ChooseCtl):
            ordinal = site_counters.get(rname, 0)
            site_counters[rname] = ordinal + 1
            pending.append((f"{rname}#{ordinal}", node.challenge))
            walk(rest, updates, pending, site_counters)
            pending.pop()
            site_counters[rname] = ordinal
        else:
            raise CasmError(f"cannot execute {type(node).__name__}")

    fired: list[str] = []
    items = []
    for nr in program.main_rules:
        if len(nr.body) == 1 and isinstance(nr.body[0], Cond):
            cond = nr.body[0]
            if eval_term(cond.guard, state, {}):
                fired.append(nr.name)
                items.extend((r, {}, nr.name) for r in cond.then_rules)
            else:
                items.extend((r, {}, nr.name) for r in cond.else_rules)
        else:
            fired.append(nr.name)
            items.extend((r, {}, nr.name) for r in nr.body)
    walk(items, [], [], {})

    outcomes: list[Outcome] = []
    ctl_loc = program.ctl_loc
    for updates, pending, _ in branches:
        base_events: list[str] = []
        if not fired:
            base_events.append(STALL)
        if not pending:
            outcomes.append(Outcome(check_updates(updates), tuple(fired),
                                    tuple(base_events)))
            continue
        if ctl_enum is None:
            raise StepError("program has hardware-bound sites but no "
                            "device is attached")
        post = dict(values)
        for loc, v in updates:
            post[loc] = v
        resolved: list[tuple[list, list]] = [(list(updates), base_events)]
        for site, challenge in pending:
            nxt = []
            for ups, evs in resolved:
                for value, tag in ctl_enum(site, challenge, post,
                                           values[ctl_loc]):
                    nxt.append((ups + [(ctl_loc, value)], evs + [tag]))
            resolved = nxt
        for ups, evs in resolved:
            outcomes.append(Outcome(check_updates(ups), tuple(fired),
                                    tuple(evs)))
    return outcomes
