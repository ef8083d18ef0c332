"""``protect`` does each piece of its analysis once: the symbolic step
evaluates each guard and update term once per environment, counts each
rule's control writes once, and merges only the groups ``condx`` reads;
a parsed program is validated once."""
from collections import Counter

import pytest

import casmkit.ast as cast
import casmkit.symexec as csymexec
from casmkit.parser import parse_or_raise
from casmkit.protect import derive_safe_condition, protect
from casmkit.puf import make_device
from casmkit.symexec import SymInit, merge_successors, symbolic_step

from reference_symexec import remove_checks
from rings import ring_source


@pytest.fixture(autouse=True)
def no_oracle(monkeypatch):
    # these tests count the analysis's work; the enumeration oracle's
    # checks would only slow them down
    remove_checks(monkeypatch)


@pytest.fixture()
def ring4():
    return parse_or_raise(ring_source(4))


@pytest.fixture()
def evaluations(monkeypatch):
    """The (term, environment) of each outermost ``sym_eval`` call."""
    calls = []
    depth = [0]
    sym_eval = csymexec.sym_eval

    def counted(term, program, locmap, env):
        if not depth[0]:
            calls.append((term, tuple(env.items())))
        depth[0] += 1
        try:
            return sym_eval(term, program, locmap, env)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(csymexec, "sym_eval", counted)
    return calls


def guard_and_update_terms(program):
    out = set()
    for _, rule in cast.program_rules(program):
        if isinstance(rule, cast.Cond):
            out.add(rule.guard)
        elif isinstance(rule, cast.Update):
            out.add(rule.rhs)
    return out


@pytest.mark.parametrize("abstraction", [True, False])
def test_step_evaluates_each_term_once(ring4, evaluations, abstraction):
    paths = symbolic_step(ring4, SymInit.for_program(ring4),
                          ctl_abstraction=abstraction)
    assert len(paths) > 8
    counts = Counter(evaluations)
    assert max(counts.values()) == 1
    assert {term for term, _ in counts} >= guard_and_update_terms(ring4)


def test_step_counts_each_rules_writes_once(ring4, monkeypatch):
    counted = []
    ctl_writes = csymexec.ctl_writes

    def counting(program, rule, calling=frozenset()):
        if not calling:
            counted.append(rule)
        return ctl_writes(program, rule, calling)

    monkeypatch.setattr(csymexec, "ctl_writes", counting)
    symbolic_step(ring4, SymInit.for_program(ring4))
    assert max(Counter(counted).values()) == 1


def test_condx_merges_no_stutter_group(ring4, monkeypatch):
    merged = []

    def merging(paths, groups=None):
        out = merge_successors(paths, groups)
        merged.extend(out)
        return out

    monkeypatch.setattr("casmkit.protect.merge_successors", merging)
    derive_safe_condition(ring4)
    all_groups = merge_successors(symbolic_step(
        ring4, SymInit.for_program(ring4)))
    assert any(p.stutter for p in all_groups)
    assert [p.path_cond for p in merged] == \
        [p.path_cond for p in all_groups if not p.stutter]


def test_protect_reuses_the_parsers_validation(monkeypatch):
    # one pass of the validator checks each main rule's shape once
    checked = []
    check = cast._check_main_shape

    def counting(program, nr, problems):
        checked.append(program)
        return check(program, nr, problems)

    monkeypatch.setattr(cast, "_check_main_shape", counting)
    program = parse_or_raise(ring_source(4))
    passes = Counter(map(id, checked))
    assert passes[id(program)] == len(program.main_rules)
    protect(program, make_device(42, 16, 16))
    protect(program, make_device(7, 16, 16))
    assert Counter(map(id, checked))[id(program)] == passes[id(program)]


def test_protect_finds_the_locations_of_interest_once(ring4, monkeypatch):
    # the symbolic seed and the symbolic step's check of it share them
    found = []
    locations_of_interest = csymexec.locations_of_interest

    def counting(program):
        found.append(program)
        return locations_of_interest(program)

    monkeypatch.setattr(csymexec, "locations_of_interest", counting)
    protect(ring4, make_device(42, 16, 16))
    assert found == [ring4]
