"""``satisfiable`` decides feasibility by a pruned search over partial
assignments; these tests hold its three-valued evaluation and its answers
against full enumeration."""
import itertools
import random

import pytest

import casmkit.symexec as csymexec
from casmkit.ast import BOOL, FALSE, And, CasmError, Or
from casmkit.parser import parse_or_raise
from casmkit.protect import compute_transition_set, derive_safe_condition
from casmkit.symexec import Symbol, SymRef, _partial, satisfiable

from fuzzing import mixed_formula, random_program
from reference_symexec import (
    equivalent_on_finite_domains, eval_fd, free_leaves, remove_checks,
)
from rings import ring_source


def enumerated(f, program=None):
    """Satisfiability by trying every valuation."""
    return not equivalent_on_finite_domains(f, FALSE, program)[0]


def test_known_partial_result_holds_under_every_completion():
    rng = random.Random(31)
    checked = 0
    for _ in range(400):
        f = mixed_formula(rng)
        leaves = free_leaves(f)
        slots = [None] * len(leaves)
        evaluate = _partial(f, {leaf: i for i, leaf in enumerate(leaves)},
                            slots, {})
        domains = [leaf.symbol.sort.values() for leaf in leaves]
        for _ in range(4):
            assigned = [rng.random() < 0.5 for _ in leaves]
            for i, on in enumerate(assigned):
                slots[i] = rng.choice(domains[i]) if on else None
            known = evaluate()
            if known is None:
                continue
            checked += 1
            fixed = list(slots)
            free = [i for i, v in enumerate(fixed) if v is None]
            for combo in itertools.product(*(domains[i] for i in free)):
                full = list(fixed)
                for i, v in zip(free, combo):
                    full[i] = v
                assert eval_fd(f, dict(zip(leaves, full))) == known, f
    assert checked > 500


def test_search_agrees_with_enumeration_on_fuzz_formulas():
    rng = random.Random(7)
    answers = []
    for _ in range(2000):
        f = mixed_formula(rng)
        answer = satisfiable(f)
        assert answer == enumerated(f), f
        answers.append(answer)
    assert any(answers) and not all(answers)


def test_domain_cap_still_raises():
    bools = [SymRef(Symbol(f"b{i}", BOOL)) for i in range(3)]
    f = And(bools[0], Or(bools[1], bools[2]))
    assert satisfiable(f, cap=8)
    with pytest.raises(csymexec.DomainTooLarge):
        satisfiable(f, cap=7)


@pytest.fixture()
def recorded_queries(monkeypatch):
    """Every feasibility query made by symbolic execution and by the
    transition-set split, checked against enumeration as it is made.
    The installed oracle checks are off: this check replaces them."""
    remove_checks(monkeypatch)
    queries = []

    def checked(f, program=None, cap=csymexec.DOMAIN_CAP):
        answer = satisfiable(f, program, cap)
        assert answer == enumerated(f, program), f
        queries.append(answer)
        return answer

    monkeypatch.setattr(csymexec, "satisfiable", checked)
    return queries


@pytest.mark.parametrize("n", [2, 3, 4])
def test_search_agrees_with_enumeration_protecting_rings(n,
                                                         recorded_queries):
    program = parse_or_raise(ring_source(n))
    compute_transition_set(program)
    derive_safe_condition(program)
    assert True in recorded_queries and False in recorded_queries


def test_search_agrees_with_enumeration_on_fuzz_programs(recorded_queries):
    rng = random.Random(4242)
    for _ in range(60):
        program = random_program(rng)
        try:
            compute_transition_set(program)
            derive_safe_condition(program)
        except CasmError:
            pass  # rejected by the analysis; its queries still count
    assert True in recorded_queries and False in recorded_queries
