"""Seeded generators for random valid programs and random formulas, and
a protected program with two challenges at each of its sites."""
from __future__ import annotations

import random
from dataclasses import replace

from casmkit.ast import (
    And, App, Choose, ChooseCtl, Cond, Const, Eq, FunctionDecl, Ite, Let,
    Member, NamedRule, Not, Or, Par, Program, SetExpr, Sort, Term, Update,
    Var, make_init,
)
from casmkit.symexec import Symbol, SymRef


def random_formula(rng: random.Random, symbols: list[Symbol],
                   depth: int = 6) -> Term:
    """Boolean formula over the given symbols (enum or bool sorted)."""
    bools = [s for s in symbols if s.sort.kind == "bool"]
    enums = [s for s in symbols if s.sort.kind != "bool"]

    def go(d: int) -> Term:
        if d <= 0 or rng.random() < 0.22:
            roll = rng.random()
            if roll < 0.15 or not symbols:
                return Const(rng.random() < 0.5)
            if bools and (roll < 0.55 or not enums):
                return SymRef(rng.choice(bools))
            s = rng.choice(enums)
            values = s.sort.values()
            if rng.random() < 0.6:
                return Eq(SymRef(s), Const(rng.choice(values)))
            k = rng.randint(1, len(values))
            return Member(SymRef(s), tuple(rng.sample(values, k)))
        form = rng.randrange(4)
        if form == 0:
            return Not(go(d - 1))
        if form == 1:
            return And(go(d - 1), go(d - 1))
        if form == 2:
            return Or(go(d - 1), go(d - 1))
        return Ite(go(d - 1), go(d - 1), go(d - 1))

    return go(depth)


def formula_symbols(rng: random.Random) -> list[Symbol]:
    enum = Sort("E4", "enum", ("val0", "val1", "val2", "val3"))
    bool_sort = Sort("Bool", "bool")
    pool = [Symbol("s0", enum), Symbol("s1", enum),
            Symbol("b0", bool_sort), Symbol("b1", bool_sort)]
    return rng.sample(pool, rng.randint(1, 4))


def mixed_formula(rng: random.Random) -> Term:
    """A fuzz formula, or one comparing two unknown operands: equality of
    two formulas, or membership of an enum-valued conditional."""
    symbols = formula_symbols(rng)
    roll = rng.random()
    if roll < 0.2:
        return Eq(random_formula(rng, symbols, 3),
                  random_formula(rng, symbols, 3))
    enums = [SymRef(s) for s in symbols if s.sort.kind == "enum"]
    if roll < 0.4 and enums:
        values = enums[0].symbol.sort.values()
        return Member(Ite(random_formula(rng, symbols, 3),
                          rng.choice(enums), rng.choice(enums)),
                      tuple(rng.sample(values, 2)))
    return random_formula(rng, symbols)


# ---------------------------------------------------------------------------
# Random programs (valid by construction)
# ---------------------------------------------------------------------------

def random_program(rng: random.Random) -> Program:
    n_states = rng.randint(2, 4)
    states = tuple(f"St{i}" for i in range(n_states))
    ctl_sort = Sort("Mode", "enum", states)
    sorts = [ctl_sort]
    extra_sort = None
    if rng.random() < 0.5:
        extra_sort = Sort("Col", "enum", ("Red", "Green", "Blue"))
        sorts.append(extra_sort)
    lane = None
    if rng.random() < 0.5:
        lane = Sort("Idx", "int", (), 1, rng.randint(2, 3))
        sorts.append(lane)

    from casmkit.ast import BOOL
    functions = [FunctionDecl("mode", (), ctl_sort, "controlled",
                              make_init({(): states[0]}))]
    flags = []
    for i in range(rng.randint(1, 3)):
        name = f"flag{i}"
        if lane is not None and rng.random() < 0.5:
            init = make_init({(v,): rng.random() < 0.5
                              for v in lane.values()})
            functions.append(FunctionDecl(name, (lane,), BOOL, "controlled",
                                          init))
            flags.append((name, lane))
        else:
            functions.append(FunctionDecl(name, (), BOOL, "controlled",
                                          make_init({(): rng.random() < 0.5})))
            flags.append((name, None))
    if extra_sort is not None:
        functions.append(FunctionDecl(
            "col", (), extra_sort, "controlled",
            make_init({(): rng.choice(extra_sort.values())})))
    monitored = []
    for i in range(rng.randint(0, 2)):
        name = f"env{i}"
        if rng.random() < 0.4:
            functions.append(FunctionDecl(name, (ctl_sort,), BOOL,
                                          "monitored"))
            monitored.append((name, ctl_sort))
        else:
            functions.append(FunctionDecl(name, (), BOOL, "monitored"))
            monitored.append((name, None))

    def flag_term(rng) -> Term:
        name, arg = rng.choice(flags)
        if arg is None:
            return App(name, ())
        return App(name, (Const(rng.choice(arg.values())),))

    def bool_atom() -> Term:
        roll = rng.random()
        if roll < 0.5 or not monitored:
            return flag_term(rng)
        name, arg = rng.choice(monitored)
        if arg is None:
            return App(name, ())
        if arg is ctl_sort and rng.random() < 0.5:
            return App(name, (App("mode", ()),))
        return App(name, (Const(rng.choice(arg.values())),))

    def guard_extra(d: int) -> Term:
        if d <= 0 or rng.random() < 0.4:
            t = bool_atom()
            return Not(t) if rng.random() < 0.3 else t
        if rng.random() < 0.5:
            return And(guard_extra(d - 1), guard_extra(d - 1))
        return Or(guard_extra(d - 1), guard_extra(d - 1))

    def body(depth: int, bound: dict[str, Sort]) -> list:
        rules = []
        for _ in range(rng.randint(1, 3)):
            roll = rng.random()
            if roll < 0.45 or depth <= 0:
                name, arg = rng.choice(flags)
                args = () if arg is None else \
                    (Const(rng.choice(arg.values())),)
                rhs_roll = rng.random()
                if rhs_roll < 0.4:
                    rhs: Term = Const(rng.random() < 0.5)
                elif rhs_roll < 0.8:
                    rhs = Not(flag_term(rng))
                else:
                    rhs = flag_term(rng)
                rules.append(Update(name, args, rhs))
            elif roll < 0.6:
                rules.append(Cond(guard_extra(1),
                                  tuple(body(depth - 1, bound)),
                                  tuple(body(depth - 1, bound))
                                  if rng.random() < 0.5 else ()))
            elif roll < 0.7:
                rules.append(Par(tuple(body(depth - 1, bound))))
            elif roll < 0.8 and extra_sort is not None:
                var = f"v{len(bound)}"
                values = extra_sort.values()
                k = rng.randint(1, len(values))
                cands = SetExpr(values=tuple(rng.sample(values, k))) \
                    if rng.random() < 0.6 else SetExpr(sort_name="Col")
                inner = dict(bound)
                inner[var] = extra_sort
                rules.append(Choose(var, cands,
                                    (Update("col", (), Var(var)),)))
            elif roll < 0.9:
                var = f"v{len(bound)}"
                inner = dict(bound)
                inner[var] = Sort("Bool", "bool")
                rules.append(Let(var, guard_extra(0),
                                 tuple(body(depth - 1, inner))
                                 or (Update(*_flag_update(rng, flags)),)))
            else:
                rules.append(Update("mode", (),
                                    Const(rng.choice(states))))
        return rules

    mains = []
    for i, state in enumerate(states):
        if i > 0 and rng.random() < 0.3:
            continue
        if rng.random() < 0.3:
            g: Term = Member(App("mode", ()),
                             tuple(rng.sample(states,
                                              rng.randint(1, len(states)))))
        else:
            g = Eq(App("mode", ()), Const(state))
        if monitored and rng.random() < 0.5:
            g = And(g, guard_extra(1))
        rules = list(body(rng.randint(0, 2), {}))
        if rng.random() < 0.8:
            rules.append(Update("mode", (), Const(rng.choice(states))))
        mains.append(NamedRule(f"r{i}", (), (Cond(g, tuple(rules)),)))

    unsafe: Term = Const(False)
    if rng.random() < 0.7:
        unsafe = guard_extra(1)
        if _reads_monitored(unsafe, dict(monitored)):
            unsafe = Const(False)

    return Program(
        name=f"fuzz{rng.randrange(10**6)}",
        sorts=tuple(sorts),
        functions=tuple(functions),
        named_rules=(),
        main_rules=tuple(mains),
        ctl_name="mode",
        unsafe=unsafe,
        init_constraints=(),
    )


def _flag_update(rng, flags):
    name, arg = rng.choice(flags)
    args = () if arg is None else (Const(rng.choice(arg.values())),)
    return name, args, Const(rng.random() < 0.5)


def _reads_monitored(term: Term, monitored: dict) -> bool:
    from casmkit.ast import children
    if isinstance(term, App) and term.fn in monitored:
        return True
    return any(_reads_monitored(c, monitored) for c in children(term))


def with_second_challenge(protected):
    """``protected`` with a site of the program's next challenge beside
    each site, so a step that reaches a site resolves two distinct
    challenges."""
    challenges = protected.challenges
    following = dict(zip(challenges, challenges[1:] + challenges[:1]))

    def doubled(rules):
        out = []
        for rule in rules:
            if isinstance(rule, ChooseCtl):
                rule = Par((rule, ChooseCtl(following[rule.challenge])))
            elif isinstance(rule, Cond):
                rule = replace(rule, then_rules=doubled(rule.then_rules),
                               else_rules=doubled(rule.else_rules))
            elif isinstance(rule, Par):
                rule = replace(rule, rules=doubled(rule.rules))
            elif isinstance(rule, (Choose, Let)):
                rule = replace(rule, body=doubled(rule.body))
            out.append(rule)
        return tuple(out)

    program = protected.program
    return replace(protected, program=replace(
        program,
        main_rules=tuple(replace(nr, body=doubled(nr.body))
                         for nr in program.main_rules),
        named_rules=tuple(replace(nr, body=doubled(nr.body))
                          for nr in program.named_rules)))
